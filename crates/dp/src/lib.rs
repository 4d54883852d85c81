//! Differential-privacy mechanisms for Arboretum (§2.1).
//!
//! * [`noise`] — Laplace and Gumbel samplers in Q30.16 fixed point
//!   (deterministic inverse-CDF, no floating-point rounding), the snap
//!   of a release onto the integer grid, and the exact `δ(ε)` of the
//!   finite Laplace sampler at a given release grid.
//! * [`mechanisms`] — the two exponential-mechanism instantiations of
//!   Figure 4 (exponentiate-and-sample, Gumbel argmax), one-shot top-k,
//!   and the free-gap variant.
//! * [`budget`] — `(ε, δ)` accounting, sequential and `√k` composition,
//!   amplification by subsampling.
//! * [`sketch`] — the count-mean sketch behind the Honeycrisp `cms` query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod mechanisms;
pub mod noise;
pub mod sketch;

pub use budget::{BudgetError, BudgetLedger, LedgerBook, LedgerBookError, PrivacyCost};
pub use mechanisms::{em_exponentiate, em_gumbel, em_with_gap, top_k_oneshot, MechanismError};
pub use noise::{gumbel_fix, laplace_fix, uniform_open_fix};
pub use sketch::CountMeanSketch;
