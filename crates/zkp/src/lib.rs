//! Zero-knowledge proofs for Arboretum input validation.
//!
//! Participants upload encrypted inputs together with a proof of
//! well-formedness (§5.3): one-hot vectors for categorical queries, range
//! constraints for numerical ones. We implement real sigma-protocol
//! proofs (Fiat–Shamir non-interactive) over the workspace Pedersen
//! commitments (the paper's prototype uses ZoKrates/G16). Each proof is
//! one transcript pass: all first moves are absorbed, the stream is
//! sealed once, and every sub-proof answers the one challenge derived
//! from the sealed digest (see [`sigma`]).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_docs)]

pub mod onehot;
pub mod range;
pub mod sigma;

pub use onehot::{
    prove_from_openings, prove_one_hot, verify_one_hot, verify_one_hot_detailed, OneHotError,
    OneHotProof, OneHotVerifyError,
};
pub use range::{
    prove_range, verify_range, verify_range_detailed, RangeError, RangeProof, RangeVerifyError,
    MAX_RANGE_BITS,
};
pub use sigma::{verify_bit, verify_dlog, BitFirstMove, BitProof, DlogFirstMove, DlogProof};
