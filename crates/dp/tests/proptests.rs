//! Property-based tests for the DP mechanisms.

use arboretum_dp::budget::{BudgetLedger, PrivacyCost};
use arboretum_dp::mechanisms::{em_exponentiate, em_gumbel, top_k_oneshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn em_returns_valid_index(scores in prop::collection::vec(0i64..100_000, 1..50), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let i = em_gumbel(&scores, 1.0, 0.5, &mut rng).unwrap();
        prop_assert!(i < scores.len());
        let j = em_exponentiate(&scores, 1.0, 0.5, &mut rng).unwrap();
        prop_assert!(j < scores.len());
    }

    #[test]
    fn em_with_huge_gap_is_deterministic(seed in any::<u64>(), winner in 0usize..8) {
        // A score 10^6 above the rest at eps=1 wins with overwhelming
        // probability.
        let mut scores = vec![0i64; 8];
        scores[winner] = 1_000_000;
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(em_gumbel(&scores, 1.0, 1.0, &mut rng).unwrap(), winner);
        prop_assert_eq!(em_exponentiate(&scores, 1.0, 1.0, &mut rng).unwrap(), winner);
    }

    #[test]
    fn topk_indices_distinct_and_valid(scores in prop::collection::vec(0i64..1000, 3..20), k in 1usize..3, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let top = top_k_oneshot(&scores, k, 1.0, 1.0, &mut rng).unwrap();
        prop_assert_eq!(top.len(), k);
        let mut sorted = top.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k, "indices must be distinct");
        prop_assert!(top.iter().all(|&i| i < scores.len()));
    }

    #[test]
    fn ledger_never_goes_negative(charges in prop::collection::vec(0.0f64..0.5, 0..20)) {
        let mut l = BudgetLedger::new(PrivacyCost::pure(1.0));
        for c in charges {
            let _ = l.charge(PrivacyCost::pure(c));
            prop_assert!(l.remaining().epsilon >= -1e-12);
        }
        let total = l.spent().epsilon + l.remaining().epsilon;
        prop_assert!((total - 1.0).abs() < 1e-9, "conservation: {total}");
    }

    #[test]
    fn amplification_always_tightens(eps in 0.01f64..2.0, phi in 0.001f64..0.5) {
        let amplified = PrivacyCost::pure(eps).amplify_by_sampling(phi);
        prop_assert!(amplified.epsilon <= eps + 1e-12);
        prop_assert!(amplified.epsilon > 0.0);
    }
}
