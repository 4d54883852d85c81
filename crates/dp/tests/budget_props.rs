//! Adversarial property suite for budget accounting: no sequence of
//! queries — accepted or rejected — can make the ledger release more
//! than the declared `(ε, δ)`, and the composition/amplification
//! helpers never understate a cost.

use arboretum_dp::budget::{BudgetError, BudgetLedger, LedgerBook, LedgerBookError, PrivacyCost};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_composition_never_exceeds_declared_budget(
        eps_charges in prop::collection::vec(0.0f64..0.4, 0..30),
        delta_charges in prop::collection::vec(0.0f64..1e-7, 0..30),
        total_eps in 0.5f64..4.0,
        total_delta in 1e-7f64..1e-5,
    ) {
        // Accepted charges must sum to at most the declared budget, in
        // both components, no matter how the adversary sequences them.
        let total = PrivacyCost { epsilon: total_eps, delta: total_delta };
        let mut ledger = BudgetLedger::new(total);
        let mut accepted = PrivacyCost::pure(0.0);
        for (eps, delta) in eps_charges.iter().zip(delta_charges.iter().chain(std::iter::repeat(&0.0))) {
            let cost = PrivacyCost { epsilon: *eps, delta: *delta };
            if ledger.charge(cost).is_ok() {
                accepted = accepted.compose(cost);
            }
        }
        prop_assert!(accepted.epsilon <= total.epsilon + 1e-9);
        prop_assert!(accepted.delta <= total.delta + 1e-15);
        prop_assert!((ledger.spent().epsilon - accepted.epsilon).abs() < 1e-9);
        // Conservation: spent + remaining = declared, componentwise.
        prop_assert!(
            (ledger.spent().epsilon + ledger.remaining().epsilon - total.epsilon).abs() < 1e-9
        );
        prop_assert!(
            (ledger.spent().delta + ledger.remaining().delta - total.delta).abs() < 1e-15
        );
    }

    #[test]
    fn rejected_charges_leave_the_ledger_bitwise_unchanged(
        spend in 0.0f64..0.9,
        overcharge in 1.0f64..100.0,
    ) {
        let mut ledger = BudgetLedger::new(PrivacyCost::pure(1.0));
        ledger.charge(PrivacyCost::pure(spend)).unwrap();
        let before = ledger.clone();
        // Epsilon overcharge, delta overcharge, and negative charge must
        // all be rejected with the right typed error and zero effect.
        let eps_err = ledger.charge(PrivacyCost::pure(overcharge));
        prop_assert!(matches!(eps_err, Err(BudgetError::EpsilonExhausted { .. })));
        let delta_err = ledger.charge(PrivacyCost { epsilon: 0.0, delta: 1.0 });
        prop_assert!(matches!(delta_err, Err(BudgetError::DeltaExhausted { .. })));
        let neg_err = ledger.charge(PrivacyCost::pure(-0.1));
        prop_assert!(matches!(neg_err, Err(BudgetError::NegativeCharge)));
        prop_assert!(
            ledger.remaining().epsilon.to_bits() == before.remaining().epsilon.to_bits()
                && ledger.remaining().delta.to_bits() == before.remaining().delta.to_bits()
                && ledger.spent().epsilon.to_bits() == before.spent().epsilon.to_bits()
                && ledger.spent().delta.to_bits() == before.spent().delta.to_bits(),
            "rejected charge mutated the ledger"
        );
    }

    #[test]
    fn parallel_composition_is_bounded_by_the_worst_branch(
        e1 in 0.0f64..3.0, e2 in 0.0f64..3.0,
        d1 in 0.0f64..1e-6, d2 in 0.0f64..1e-6,
    ) {
        let a = PrivacyCost { epsilon: e1, delta: d1 };
        let b = PrivacyCost { epsilon: e2, delta: d2 };
        let par = a.parallel_compose(b);
        // Never exceeds the sequential bound, never understates either
        // branch, and is commutative.
        prop_assert!(par.epsilon <= a.compose(b).epsilon + 1e-12);
        prop_assert!(par.epsilon + 1e-12 >= e1.max(e2));
        prop_assert!(par.delta + 1e-18 >= d1.max(d2));
        let swapped = b.parallel_compose(a);
        prop_assert_eq!(par.epsilon.to_bits(), swapped.epsilon.to_bits());
        prop_assert_eq!(par.delta.to_bits(), swapped.delta.to_bits());
    }

    #[test]
    fn sampling_amplification_is_monotone_in_the_rate(
        eps in 0.01f64..3.0,
        delta in 0.0f64..1e-6,
        phi_lo in 0.01f64..0.98,
        bump in 0.001f64..0.02,
    ) {
        // A larger sample can only cost more privacy; the extremes are
        // exact: φ=0 leaks nothing, φ=1 is the unamplified cost.
        let cost = PrivacyCost { epsilon: eps, delta };
        let phi_hi = (phi_lo + bump).min(1.0);
        let lo = cost.amplify_by_sampling(phi_lo);
        let hi = cost.amplify_by_sampling(phi_hi);
        prop_assert!(lo.epsilon <= hi.epsilon + 1e-12, "eps not monotone");
        prop_assert!(lo.delta <= hi.delta + 1e-18, "delta not monotone");
        prop_assert!(hi.epsilon <= eps + 1e-12, "amplification must tighten");
        let off = cost.amplify_by_sampling(0.0);
        prop_assert!(off.epsilon.abs() < 1e-12 && off.delta == 0.0);
        let full = cost.amplify_by_sampling(1.0);
        prop_assert!((full.epsilon - eps).abs() < 1e-9);
        prop_assert!((full.delta - delta).abs() < 1e-18);
    }

    #[test]
    fn top_k_cost_stays_below_naive_sequential_composition(
        eps in 0.01f64..2.0,
        k in 2usize..64,
    ) {
        // √k scaling (Durfee–Rogers) beats k-fold sequential composition
        // but never drops below a single release.
        let oneshot = PrivacyCost::top_k_oneshot(eps, k);
        prop_assert!(oneshot.epsilon < k as f64 * eps);
        prop_assert!(oneshot.epsilon >= eps);
    }
}

#[test]
fn exhausted_ledger_rejects_even_infinitesimal_charges() {
    let mut ledger = BudgetLedger::new(PrivacyCost::pure(1.0));
    ledger.charge(PrivacyCost::pure(1.0)).unwrap();
    assert!(matches!(
        ledger.charge(PrivacyCost::pure(1e-12)),
        Err(BudgetError::EpsilonExhausted { .. })
    ));
}

/// Values no ledger can account for, as either component of a cost.
const UNACCOUNTABLE: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5];

fn bits(l: &BudgetLedger) -> [u64; 4] {
    [
        l.remaining().epsilon.to_bits(),
        l.remaining().delta.to_bits(),
        l.spent().epsilon.to_bits(),
        l.spent().delta.to_bits(),
    ]
}

#[test]
fn unaccountable_allotments_open_no_ledger() {
    let mut book = LedgerBook::new(PrivacyCost {
        epsilon: 64.0,
        delta: 1e-4,
    });
    book.open("alice", PrivacyCost::pure(1.0)).unwrap();
    for bad in UNACCOUNTABLE {
        for allotment in [
            PrivacyCost {
                epsilon: bad,
                delta: 1e-6,
            },
            PrivacyCost {
                epsilon: 1.0,
                delta: bad,
            },
        ] {
            let before = book.clone();
            let err = book.open("eve", allotment).unwrap_err();
            assert!(
                matches!(&err, LedgerBookError::InvalidAllotment { analyst, .. } if analyst == "eve"),
                "{allotment:?}: {err:?}"
            );
            assert_eq!(book, before, "{allotment:?}");
            assert!(book.analyst("eve").is_none());
            assert!(matches!(
                book.charge("eve", PrivacyCost::pure(0.1)),
                Err(LedgerBookError::UnknownAnalyst(_))
            ));
        }
    }
    // A refused name is still free for a valid allotment.
    book.open("eve", PrivacyCost::pure(1.0)).unwrap();
}

#[test]
fn unaccountable_charges_are_refused_bitwise() {
    let mut ledger = BudgetLedger::new(PrivacyCost {
        epsilon: 4.0,
        delta: 1e-6,
    });
    ledger.charge(PrivacyCost::pure(0.5)).unwrap();
    let mut book = LedgerBook::new(PrivacyCost::pure(f64::INFINITY));
    book.open("alice", PrivacyCost::pure(4.0)).unwrap();
    for bad in UNACCOUNTABLE {
        for cost in [
            PrivacyCost {
                epsilon: bad,
                delta: 0.0,
            },
            PrivacyCost {
                epsilon: 0.1,
                delta: bad,
            },
        ] {
            let before = bits(&ledger);
            let err = ledger.charge(cost).unwrap_err();
            let want = if bad < 0.0 {
                BudgetError::NegativeCharge
            } else {
                BudgetError::NonFiniteCharge
            };
            assert_eq!(err, want, "{cost:?}");
            assert_eq!(ledger.check(cost).unwrap_err(), want, "{cost:?}");
            assert_eq!(bits(&ledger), before, "{cost:?}");
            // Not even an uncapped deployment ledger takes it.
            let book_before = book.clone();
            assert!(book.charge("alice", cost).is_err(), "{cost:?}");
            assert_eq!(book, book_before, "{cost:?}");
        }
    }
}

#[test]
fn a_nan_balance_affords_nothing() {
    for total in [
        PrivacyCost::pure(f64::NAN),
        PrivacyCost {
            epsilon: 1.0,
            delta: f64::NAN,
        },
    ] {
        let mut ledger = BudgetLedger::new(total);
        let before = bits(&ledger);
        for cost in [
            PrivacyCost::pure(8.0),
            PrivacyCost {
                epsilon: 0.0,
                delta: 1e-9,
            },
        ] {
            assert!(ledger.charge(cost).is_err(), "{total:?} took {cost:?}");
        }
        assert_eq!(bits(&ledger), before);
    }
}
