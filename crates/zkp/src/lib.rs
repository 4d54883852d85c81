//! Zero-knowledge proofs for Arboretum input validation.
//!
//! Participants upload encrypted inputs together with a proof of
//! well-formedness (§5.3): one-hot vectors for categorical queries, range
//! constraints for numerical ones. We implement real sigma-protocol
//! proofs (Fiat–Shamir non-interactive) over the workspace Pedersen
//! commitments (the paper's prototype uses ZoKrates/G16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod onehot;
pub mod range;
pub mod sigma;

pub use onehot::{
    prove_one_hot, verify_one_hot, verify_one_hot_detailed, OneHotError, OneHotProof,
    OneHotVerifyError,
};
pub use range::{
    prove_range, verify_range, verify_range_detailed, RangeError, RangeProof, RangeVerifyError,
};
pub use sigma::{prove_bit, prove_dlog, verify_bit, verify_dlog, BitProof, DlogProof};
