//! A from-scratch BGV homomorphic encryption scheme.
//!
//! Implements the RLWE-based Brakerski–Gentry–Vaikuntanathan cryptosystem
//! the paper uses for homomorphic aggregation and encrypted evaluation
//! (§2.2, §6): RNS polynomial arithmetic over 62-bit NTT primes,
//! key generation, public-key encryption, homomorphic addition,
//! plaintext/scalar multiplication, one level of ciphertext multiplication
//! with gadget-decomposition relinearization, noise-budget tracking, and
//! both coefficient and slot (batching) plaintext encodings.
//!
//! Parameters are research-scale (see DESIGN.md "Substitutions"): degree
//! up to `2^13` against the paper's `2^15`, with the planner's cost model
//! calibrated against *this* implementation and extrapolated — the same
//! benchmark-then-extrapolate methodology the paper itself uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod encode;
pub mod params;
pub mod poly;
pub mod scheme;

pub use batch::{par_sum_chunks_sharded, par_sum_sharded, sum};

pub use encode::{decode_coeffs, encode_coeffs, EncodeError, SlotEncoder};
pub use params::{BgvParams, ParamError};
pub use poly::{BgvContext, RnsPoly};
pub use scheme::{
    add, decrypt, encrypt, keygen, mul, mul_plain, mul_scalar, noise_budget_bits, relin_keygen,
    sub, Ciphertext, PublicKey, RelinKey, SecretKey,
};
