//! Property-based tests for the MPC engine and protocols.

use arboretum_field::fixed::Fix;
use arboretum_field::FGold;
use arboretum_mpc::compare::{argmax_tournament, less_than};
use arboretum_mpc::engine::MpcEngine;
use arboretum_mpc::fixp::SharedFix;
use proptest::prelude::*;

fn engine(seed: u64) -> MpcEngine {
    MpcEngine::new(5, 2, false, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn share_open_identity(v in any::<u64>(), seed in any::<u64>()) {
        let mut e = engine(seed);
        let x = e.input(0, FGold::new(v));
        prop_assert_eq!(e.open(&x).unwrap(), FGold::new(v));
    }

    #[test]
    fn arithmetic_circuit_matches_clear(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000, seed in any::<u64>()) {
        // (a + b) * c - a computed in MPC equals the clear result.
        let mut e = engine(seed);
        let (fa, fb, fc) = (FGold::new(a), FGold::new(b), FGold::new(c));
        let sa = e.input(0, fa);
        let sb = e.input(1, fb);
        let sc = e.input(2, fc);
        let sum = e.add(&sa, &sb);
        let prod = e.mul(&sum, &sc).unwrap();
        let out = e.sub(&prod, &sa);
        prop_assert_eq!(e.open(&out).unwrap(), (fa + fb) * fc - fa);
    }

    #[test]
    fn comparison_matches_clear(x in 0u64..(1 << 24), y in 0u64..(1 << 24), seed in any::<u64>()) {
        let mut e = engine(seed);
        let sx = e.input(0, FGold::new(x));
        let sy = e.input(1, FGold::new(y));
        let lt = less_than(&mut e, &sx, &sy, 24).unwrap();
        prop_assert_eq!(e.open(&lt).unwrap(), FGold::new(u64::from(x < y)));
    }

    #[test]
    fn argmax_matches_clear(vals in prop::collection::vec(0u64..10_000, 1..8), seed in any::<u64>()) {
        let mut e = engine(seed);
        let shares: Vec<_> = vals.iter().map(|&v| e.input(0, FGold::new(v))).collect();
        let (mx, idx) = argmax_tournament(&mut e, &shares, 14).unwrap();
        let want_max = *vals.iter().max().unwrap();
        let want_idx = vals.iter().position(|&v| v == want_max).unwrap();
        prop_assert_eq!(e.open(&mx).unwrap(), FGold::new(want_max));
        prop_assert_eq!(e.open(&idx).unwrap(), FGold::new(want_idx as u64));
    }

    #[test]
    fn fix_multiplication_error_bounded(a in -10_000i64..10_000, b in -10_000i64..10_000, seed in any::<u64>()) {
        // Probabilistic truncation: error at most one ulp.
        let mut e = engine(seed);
        let fa = Fix::from_ratio(a, 16).unwrap();
        let fb = Fix::from_ratio(b, 16).unwrap();
        let sa = SharedFix::input(&mut e, 0, fa);
        let sb = SharedFix::input(&mut e, 1, fb);
        let got = sa.mul(&mut e, &sb).unwrap().open(&mut e).unwrap();
        let want = fa.checked_mul(fb).unwrap();
        prop_assert!((got.raw() - want.raw()).abs() <= 1, "{} vs {}", got.raw(), want.raw());
    }

    #[test]
    fn linearity_under_constants(v in 0u64..1_000_000, k in 0u64..1_000, c in 0u64..1_000, seed in any::<u64>()) {
        let mut e = engine(seed);
        let s = e.input(0, FGold::new(v));
        let scaled = e.mul_const(&s, FGold::new(k));
        let shifted = e.add_const(&scaled, FGold::new(c));
        prop_assert_eq!(e.open(&shifted).unwrap(), FGold::new(v) * FGold::new(k) + FGold::new(c));
    }

    #[test]
    fn metering_is_monotone(n_muls in 1usize..10, seed in any::<u64>()) {
        // More multiplications means strictly more triples and bytes.
        let mut e = engine(seed);
        let a = e.input(0, FGold::new(3));
        let b = e.input(1, FGold::new(4));
        let before = e.net.metrics.clone();
        for _ in 0..n_muls {
            e.mul(&a, &b).unwrap();
        }
        let after = e.net.metrics.clone();
        prop_assert_eq!(after.triples - before.triples, n_muls as u64);
        prop_assert!(after.bytes_sent_total > before.bytes_sent_total);
        prop_assert!(after.rounds > before.rounds);
    }
}
