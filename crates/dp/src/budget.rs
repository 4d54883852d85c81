//! Privacy-budget accounting and composition.
//!
//! The key-generation committee checks the analyst's remaining budget
//! before authorizing a query (§5.2); the certificate carries the balance
//! forward to the next committee. Sequential composition adds epsilons
//! and deltas; top-k one-shot selection composes as `√k · ε` (§2.1).

/// An `(ε, δ)` privacy cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacyCost {
    /// The epsilon component.
    pub epsilon: f64,
    /// The delta component.
    pub delta: f64,
}

impl PrivacyCost {
    /// A pure-epsilon cost.
    pub fn pure(epsilon: f64) -> Self {
        Self {
            epsilon,
            delta: 0.0,
        }
    }

    /// Sequential composition with another cost.
    pub fn compose(self, other: Self) -> Self {
        Self {
            epsilon: self.epsilon + other.epsilon,
            delta: self.delta + other.delta,
        }
    }

    /// The cost of releasing the top `k` items with one-shot Gumbel noise
    /// at per-release `eps` (Durfee–Rogers): `√k · ε`.
    pub fn top_k_oneshot(eps: f64, k: usize) -> Self {
        Self::pure((k as f64).sqrt() * eps)
    }

    /// Parallel composition over disjoint sub-populations: when two
    /// mechanisms touch disjoint record sets, the combined cost is the
    /// componentwise maximum, not the sum (McSherry).
    pub fn parallel_compose(self, other: Self) -> Self {
        Self {
            epsilon: self.epsilon.max(other.epsilon),
            delta: self.delta.max(other.delta),
        }
    }

    /// Whether both components are finite and non-negative: the only
    /// costs a ledger can hold or charge. NaN compares false with
    /// everything, so a NaN balance would never refuse and a NaN charge
    /// would slip past every bound.
    fn is_accountable(self) -> bool {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        ok(self.epsilon) && ok(self.delta)
    }

    /// Amplification by subsampling (secrecy of the sample): running an
    /// `ε`-DP query on a `φ`-sample is `ln(1 + φ(e^ε − 1))`-DP.
    pub fn amplify_by_sampling(self, phi: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&phi),
            "sampling rate {phi} out of range"
        );
        Self {
            epsilon: (1.0 + phi * (self.epsilon.exp() - 1.0)).ln(),
            // Delta scales by at most the sampling rate.
            delta: self.delta * phi,
        }
    }
}

/// Errors from the budget ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// Charging would exceed the remaining epsilon.
    EpsilonExhausted {
        /// Requested epsilon.
        requested: f64,
        /// Remaining epsilon.
        remaining: f64,
    },
    /// Charging would exceed the remaining delta.
    DeltaExhausted {
        /// Requested delta.
        requested: f64,
        /// Remaining delta.
        remaining: f64,
    },
    /// Negative charge.
    NegativeCharge,
    /// A NaN or infinite charge.
    NonFiniteCharge,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EpsilonExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "epsilon charge {requested} exceeds remaining {remaining}"
            ),
            Self::DeltaExhausted {
                requested,
                remaining,
            } => write!(f, "delta charge {requested} exceeds remaining {remaining}"),
            Self::NegativeCharge => write!(f, "privacy charges must be non-negative"),
            Self::NonFiniteCharge => write!(f, "privacy charges must be finite"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// The analyst's privacy-budget ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetLedger {
    remaining: PrivacyCost,
    spent: PrivacyCost,
}

impl BudgetLedger {
    /// Opens a ledger with the given total budget.
    pub fn new(total: PrivacyCost) -> Self {
        Self {
            remaining: total,
            spent: PrivacyCost::pure(0.0),
        }
    }

    /// Remaining budget.
    pub fn remaining(&self) -> PrivacyCost {
        self.remaining
    }

    /// Total spent so far.
    pub fn spent(&self) -> PrivacyCost {
        self.spent
    }

    /// Checks a charge without applying it, with the typed reason a
    /// [`Self::charge`] of the same cost would fail for.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError`] if the charge is negative, not finite, or
    /// exceeds the remaining budget. The ledger is never mutated.
    pub fn check(&self, cost: PrivacyCost) -> Result<(), BudgetError> {
        if cost.epsilon < 0.0 || cost.delta < 0.0 {
            return Err(BudgetError::NegativeCharge);
        }
        if !cost.is_accountable() {
            return Err(BudgetError::NonFiniteCharge);
        }
        // False when the balance is NaN: a ledger built from an
        // unvalidated total affords nothing rather than everything.
        let affords = |have: f64, want: f64| want <= have;
        if !affords(self.remaining.epsilon, cost.epsilon) {
            return Err(BudgetError::EpsilonExhausted {
                requested: cost.epsilon,
                remaining: self.remaining.epsilon,
            });
        }
        if !affords(self.remaining.delta, cost.delta) {
            return Err(BudgetError::DeltaExhausted {
                requested: cost.delta,
                remaining: self.remaining.delta,
            });
        }
        Ok(())
    }

    /// Applies a charge.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError`] if the charge is negative, not finite, or
    /// exceeds the remaining budget; the ledger is unchanged on error.
    pub fn charge(&mut self, cost: PrivacyCost) -> Result<(), BudgetError> {
        self.check(cost)?;
        self.remaining.epsilon -= cost.epsilon;
        self.remaining.delta -= cost.delta;
        self.spent = self.spent.compose(cost);
        Ok(())
    }
}

/// Errors from a [`LedgerBook`].
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerBookError {
    /// No ledger is open for the named analyst.
    UnknownAnalyst(String),
    /// A ledger is already open for the named analyst.
    DuplicateAnalyst(String),
    /// The allotment is negative, NaN or infinite; no ledger was opened.
    InvalidAllotment {
        /// The analyst the ledger was to be opened for.
        analyst: String,
        /// The refused allotment.
        allotment: PrivacyCost,
    },
    /// The analyst's own ledger refused the charge.
    Analyst {
        /// The analyst whose ledger refused.
        analyst: String,
        /// The underlying refusal.
        source: BudgetError,
    },
    /// The deployment-wide ledger refused the charge: the analyst could
    /// afford it, but the population's total loss cap could not.
    Deployment(BudgetError),
}

impl std::fmt::Display for LedgerBookError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownAnalyst(a) => write!(f, "no ledger open for analyst {a:?}"),
            Self::DuplicateAnalyst(a) => write!(f, "ledger already open for analyst {a:?}"),
            Self::InvalidAllotment { analyst, allotment } => write!(
                f,
                "allotment for analyst {analyst:?} must be finite and non-negative, \
                 got epsilon={} delta={}",
                allotment.epsilon, allotment.delta
            ),
            Self::Analyst { analyst, source } => {
                write!(f, "analyst {analyst:?} budget refused: {source}")
            }
            Self::Deployment(source) => write!(f, "deployment-wide budget refused: {source}"),
        }
    }
}

impl std::error::Error for LedgerBookError {}

/// Per-analyst budget ledgers plus a deployment-wide ledger, composed
/// sequentially across analysts.
///
/// This is the cross-session composition the multi-tenant service
/// enforces: each analyst has a private allotment, and every charge is
/// *also* composed into the deployment ledger, because the device
/// population's total privacy loss is the sequential composition of
/// every analyst's queries regardless of who submitted them. A charge
/// succeeds only if both ledgers can afford it; on refusal *neither*
/// ledger moves — charging is all-or-nothing, so a rejected query
/// leaves the book bitwise identical to before the submission.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerBook {
    deployment: BudgetLedger,
    analysts: std::collections::BTreeMap<String, BudgetLedger>,
}

impl LedgerBook {
    /// Opens a book with the given deployment-wide budget and no
    /// analyst ledgers.
    pub fn new(deployment_total: PrivacyCost) -> Self {
        Self {
            deployment: BudgetLedger::new(deployment_total),
            analysts: std::collections::BTreeMap::new(),
        }
    }

    /// Opens a ledger for `analyst` with the given allotment.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerBookError::DuplicateAnalyst`] if the analyst
    /// already has a ledger, and [`LedgerBookError::InvalidAllotment`]
    /// for a negative, NaN or infinite allotment; the book is unchanged
    /// on error.
    pub fn open(&mut self, analyst: &str, allotment: PrivacyCost) -> Result<(), LedgerBookError> {
        if self.analysts.contains_key(analyst) {
            return Err(LedgerBookError::DuplicateAnalyst(analyst.to_string()));
        }
        if !allotment.is_accountable() {
            return Err(LedgerBookError::InvalidAllotment {
                analyst: analyst.to_string(),
                allotment,
            });
        }
        self.analysts
            .insert(analyst.to_string(), BudgetLedger::new(allotment));
        Ok(())
    }

    /// The deployment-wide ledger.
    pub fn deployment(&self) -> &BudgetLedger {
        &self.deployment
    }

    /// The named analyst's ledger, if open.
    pub fn analyst(&self, analyst: &str) -> Option<&BudgetLedger> {
        self.analysts.get(analyst)
    }

    /// Checks whether a charge for `analyst` would succeed, without
    /// mutating anything.
    ///
    /// # Errors
    ///
    /// The same errors [`Self::charge`] would return.
    pub fn check(&self, analyst: &str, cost: PrivacyCost) -> Result<(), LedgerBookError> {
        let ledger = self
            .analysts
            .get(analyst)
            .ok_or_else(|| LedgerBookError::UnknownAnalyst(analyst.to_string()))?;
        ledger
            .check(cost)
            .map_err(|source| LedgerBookError::Analyst {
                analyst: analyst.to_string(),
                source,
            })?;
        self.deployment
            .check(cost)
            .map_err(LedgerBookError::Deployment)
    }

    /// Charges `cost` to `analyst`'s ledger *and* the deployment ledger,
    /// all-or-nothing.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerBookError`] if the analyst is unknown or either
    /// ledger cannot afford the charge; the whole book is unchanged on
    /// error.
    pub fn charge(&mut self, analyst: &str, cost: PrivacyCost) -> Result<(), LedgerBookError> {
        self.check(analyst, cost)?;
        self.analysts
            .get_mut(analyst)
            .expect("checked above")
            .charge(cost)
            .expect("checked above");
        self.deployment.charge(cost).expect("checked above");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_composition_adds() {
        let a = PrivacyCost {
            epsilon: 0.1,
            delta: 1e-9,
        };
        let b = PrivacyCost {
            epsilon: 0.2,
            delta: 2e-9,
        };
        let c = a.compose(b);
        assert!((c.epsilon - 0.3).abs() < 1e-12);
        assert!((c.delta - 3e-9).abs() < 1e-18);
    }

    #[test]
    fn top_k_composition_is_sqrt_k() {
        let c = PrivacyCost::top_k_oneshot(0.1, 25);
        assert!((c.epsilon - 0.5).abs() < 1e-12);
        assert_eq!(c.delta, 0.0);
    }

    #[test]
    fn sampling_amplification_matches_formula() {
        let c = PrivacyCost::pure(1.0).amplify_by_sampling(0.01);
        let want = (1.0f64 + 0.01 * (1f64.exp() - 1.0)).ln();
        assert!((c.epsilon - want).abs() < 1e-12);
        // For eps <= 1 and small phi this is close to 2*phi/eps ... i.e.
        // roughly phi * (e - 1); must be far below the unamplified eps.
        assert!(c.epsilon < 0.02);
    }

    #[test]
    fn ledger_charges_and_refuses() {
        let mut l = BudgetLedger::new(PrivacyCost {
            epsilon: 1.0,
            delta: 1e-8,
        });
        l.charge(PrivacyCost::pure(0.7)).unwrap();
        let err = l.charge(PrivacyCost::pure(0.5)).unwrap_err();
        assert!(matches!(err, BudgetError::EpsilonExhausted { .. }));
        // Ledger unchanged on failure.
        assert!((l.remaining().epsilon - 0.3).abs() < 1e-12);
        l.charge(PrivacyCost::pure(0.3)).unwrap();
        assert!((l.spent().epsilon - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta_budget_enforced() {
        let mut l = BudgetLedger::new(PrivacyCost {
            epsilon: 10.0,
            delta: 1e-9,
        });
        let err = l
            .charge(PrivacyCost {
                epsilon: 0.1,
                delta: 1e-8,
            })
            .unwrap_err();
        assert!(matches!(err, BudgetError::DeltaExhausted { .. }));
    }

    #[test]
    fn negative_charge_rejected() {
        let mut l = BudgetLedger::new(PrivacyCost::pure(1.0));
        assert_eq!(
            l.charge(PrivacyCost::pure(-0.1)).unwrap_err(),
            BudgetError::NegativeCharge
        );
    }

    #[test]
    fn check_agrees_with_charge_and_never_mutates() {
        let l = BudgetLedger::new(PrivacyCost {
            epsilon: 1.0,
            delta: 1e-8,
        });
        let before = l.clone();
        assert!(l.check(PrivacyCost::pure(0.5)).is_ok());
        assert_eq!(
            l.check(PrivacyCost::pure(1.5)).unwrap_err(),
            l.clone().charge(PrivacyCost::pure(1.5)).unwrap_err()
        );
        assert_eq!(l, before);
    }

    #[test]
    fn ledger_book_charges_both_ledgers() {
        let mut book = LedgerBook::new(PrivacyCost {
            epsilon: 2.0,
            delta: 1e-6,
        });
        book.open("alice", PrivacyCost::pure(1.0)).unwrap();
        book.open("bob", PrivacyCost::pure(1.0)).unwrap();
        assert_eq!(
            book.open("alice", PrivacyCost::pure(1.0)).unwrap_err(),
            LedgerBookError::DuplicateAnalyst("alice".into())
        );
        book.charge("alice", PrivacyCost::pure(0.4)).unwrap();
        assert!((book.analyst("alice").unwrap().spent().epsilon - 0.4).abs() < 1e-12);
        assert_eq!(book.analyst("bob").unwrap().spent().epsilon, 0.0);
        assert!((book.deployment().spent().epsilon - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ledger_book_rejection_is_all_or_nothing() {
        let mut book = LedgerBook::new(PrivacyCost {
            epsilon: 10.0,
            delta: 1e-6,
        });
        book.open("alice", PrivacyCost::pure(0.5)).unwrap();
        let before = book.clone();
        let err = book.charge("alice", PrivacyCost::pure(0.7)).unwrap_err();
        assert!(matches!(
            err,
            LedgerBookError::Analyst {
                source: BudgetError::EpsilonExhausted { .. },
                ..
            }
        ));
        assert_eq!(book, before);
        assert_eq!(
            book.charge("mallory", PrivacyCost::pure(0.1)).unwrap_err(),
            LedgerBookError::UnknownAnalyst("mallory".into())
        );
        assert_eq!(book, before);
    }

    #[test]
    fn ledger_book_deployment_cap_binds_across_analysts() {
        // Each analyst can individually afford 0.8, but the deployment
        // cap of 1.0 composes sequentially across both.
        let mut book = LedgerBook::new(PrivacyCost::pure(1.0));
        book.open("alice", PrivacyCost::pure(0.8)).unwrap();
        book.open("bob", PrivacyCost::pure(0.8)).unwrap();
        book.charge("alice", PrivacyCost::pure(0.8)).unwrap();
        let before = book.clone();
        let err = book.charge("bob", PrivacyCost::pure(0.8)).unwrap_err();
        assert!(matches!(err, LedgerBookError::Deployment(_)));
        assert_eq!(book, before);
        // Bob can still spend exactly what the deployment has left.
        let left = book.deployment().remaining().epsilon;
        assert!(left > 0.19);
        book.charge("bob", PrivacyCost::pure(left)).unwrap();
    }
}
