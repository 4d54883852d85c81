//! Property-based tests for sortition.

use arboretum_crypto::sha256::sha256;
use arboretum_sortition::select::{
    make_ticket, select_committees, verify_ticket, Device, Registry,
};
use arboretum_sortition::size::{ln_committee_failure, min_committee_size, SortitionParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn committees_always_disjoint(n_extra in 0usize..100, c in 1usize..5, m in 1usize..8, round in any::<u64>()) {
        let n = c * m + n_extra;
        let reg = Registry::new((0..n as u64).map(Device::from_id).collect());
        let sel = select_committees(&reg, &sha256(&round.to_be_bytes()), round, c, m);
        let mut seen = std::collections::HashSet::new();
        for committee in &sel.committees {
            prop_assert_eq!(committee.len(), m);
            for &d in committee {
                prop_assert!(seen.insert(d));
            }
        }
    }

    #[test]
    fn tickets_bind_round_and_device(round in any::<u64>(), other_round in any::<u64>(), id in 0u64..50) {
        let d = Device::from_id(id);
        let block = sha256(b"b");
        let t = make_ticket(&d, 0, &block, round);
        prop_assert!(verify_ticket(&d.pk, &block, round, &t));
        if other_round != round {
            prop_assert!(!verify_ticket(&d.pk, &block, other_round, &t));
        }
    }

    #[test]
    fn committee_size_monotonicity(c1 in 1u64..10_000, c2 in 1u64..10_000) {
        let p = SortitionParams::default();
        let (lo, hi) = (c1.min(c2), c1.max(c2));
        prop_assert!(min_committee_size(lo, &p).unwrap() <= min_committee_size(hi, &p).unwrap());
    }

    #[test]
    fn failure_probability_decreasing_in_m(m in 10u64..100) {
        let lq1 = ln_committee_failure(m, 0.03, 0.15);
        let lq2 = ln_committee_failure(m + 10, 0.03, 0.15);
        prop_assert!(lq2 < lq1);
    }
}
