//! Empirical validation of the §5.1 honest-majority guarantee: the
//! dishonest-majority frequency observed over many sortition rounds
//! stays within the union-bound target computed by `size.rs`, and
//! selection is a pure function of `(beacon, registry)`.

use arboretum_crypto::sha256::{sha256, Digest};
use arboretum_sortition::{
    ln_committee_failure, min_committee_size, next_block, select_committees, Device, Registry,
    SortitionParams,
};

/// Builds a registry of `n` devices where ids `0..n_mal` are malicious.
/// Ticket hashes come from deterministic signatures over the beacon, so
/// the marking is independent of selection order.
fn registry(n: u64) -> Registry {
    Registry::new((0..n).map(Device::from_id).collect())
}

fn beacon(round: u64) -> Digest {
    sha256(&round.to_be_bytes())
}

/// Counts committees whose malicious membership breaks the honest
/// majority among the `(1 - g) m` members that remain after churn —
/// the same event `ln_committee_failure` bounds.
fn dishonest_committees(
    reg: &Registry,
    block: &Digest,
    c: usize,
    m: usize,
    n_mal: usize,
    g: f64,
) -> usize {
    let threshold = (((1.0 - g) * m as f64) / 2.0).floor() as usize;
    let sel = select_committees(reg, block, 1, c, m);
    sel.committees
        .iter()
        .filter(|members| {
            let mal = members
                .iter()
                .filter(|&&idx| reg.device(idx).id < n_mal as u64)
                .count();
            mal > threshold
        })
        .count()
}

#[test]
fn empirical_failure_rate_matches_the_binomial_model() {
    // Deliberately weak parameters (f = 0.2, g = 0, m = 5) make the
    // per-committee failure probability large enough to measure:
    // exp(ln_committee_failure(5, 0.2, 0.0)) ≈ 0.0579. Over 2,000
    // committees the observed count must sit near 2000 · q — a sharp
    // two-sided check that the analytical tail is neither optimistic
    // nor wildly conservative.
    let (n, n_mal, c, m) = (200u64, 40usize, 8usize, 5usize);
    let reg = registry(n);
    let q = ln_committee_failure(m as u64, 0.2, 0.0).exp();
    let rounds = 250u64;
    let total = rounds as usize * c;
    let mut failures = 0usize;
    for r in 0..rounds {
        failures += dishonest_committees(&reg, &beacon(r), c, m, n_mal, 0.0);
    }
    let expected = q * total as f64;
    assert!(
        (failures as f64) < expected * 1.5,
        "observed {failures} dishonest-majority committees, model predicts {expected:.1} — tail bound is optimistic"
    );
    assert!(
        (failures as f64) > expected * 0.4,
        "observed {failures} dishonest-majority committees, model predicts {expected:.1} — measurement is broken"
    );
}

#[test]
fn paper_parameters_yield_zero_failures_at_test_scale() {
    // At the paper's operating point (f = 0.03, g = 0.15) the chosen m
    // drives per-round failure below p1 ≈ 1e-11, so any feasible sweep
    // must observe exactly zero dishonest-majority committees.
    let params = SortitionParams::default();
    let c = 5u64;
    let m = min_committee_size(c, &params).expect("paper parameters are feasible") as usize;
    let n = 1000u64;
    let n_mal = ((params.f * n as f64).ceil()) as usize;
    assert!(n as usize >= c as usize * m, "registry too small for c·m");
    let reg = registry(n);
    for r in 0..20 {
        let fails = dishonest_committees(&reg, &beacon(r), c as usize, m, n_mal, params.g);
        assert_eq!(fails, 0, "round {r}: dishonest majority at paper params");
    }
}

#[test]
fn selection_is_pure_in_beacon_and_registry() {
    let reg = registry(60);
    let a = select_committees(&reg, &beacon(7), 1, 3, 5);
    let b = select_committees(&reg, &beacon(7), 1, 3, 5);
    assert_eq!(
        a, b,
        "same (beacon, registry, query) must reselect identically"
    );
    // Distinct beacons (including evolved ones) shuffle the seats.
    let evolved = next_block(&[beacon(7)], &reg.root());
    let mut seen = vec![a];
    for blk in [beacon(8), beacon(9), evolved] {
        let sel = select_committees(&reg, &blk, 1, 3, 5);
        assert!(
            seen.iter().all(|s| *s != sel),
            "independent beacons produced identical committees"
        );
        seen.push(sel);
    }
    // The query index is part of the ticket message too.
    let other_query = select_committees(&reg, &beacon(7), 2, 3, 5);
    assert_ne!(seen[0], other_query);
}

#[test]
fn min_committee_size_is_tight_against_the_union_bound() {
    for (c, params) in [
        (1u64, SortitionParams::default()),
        (100, SortitionParams::default()),
        (
            10,
            SortitionParams {
                f: 0.10,
                ..SortitionParams::default()
            },
        ),
    ] {
        let m = min_committee_size(c, &params).expect("feasible parameters");
        let ln_p1 = params.p1().ln();
        let ln_c = (c as f64).ln();
        assert!(
            ln_committee_failure(m, params.f, params.g) + ln_c <= ln_p1,
            "returned m violates the bound it claims (c={c})"
        );
        assert!(
            ln_committee_failure(m - 1, params.f, params.g) + ln_c > ln_p1,
            "m is not minimal (c={c})"
        );
    }
}
