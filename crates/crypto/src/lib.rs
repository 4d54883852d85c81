//! Cryptographic primitives for Arboretum, built from scratch.
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (Merkle trees, transcripts, HMAC).
//! * [`hmac`] — HMAC-SHA256 and a counter-mode PRF (sortition tickets,
//!   deterministic nonces).
//! * [`merkle`] — Merkle hash trees with inclusion proofs (device
//!   registry, aggregator step audits).
//! * [`group`] — a prime-order Schnorr group over a 62-bit safe prime
//!   (research-scale parameters; see DESIGN.md "Substitutions").
//! * [`fastexp`] — fixed-base window tables, Straus double
//!   exponentiation, and blocked multi-exponentiation: the group's
//!   algorithmic fast path, bitwise equal to naive `pow`.
//! * [`schnorr`] — deterministic Schnorr signatures (the paper's
//!   deterministic-signature requirement for sortition), with
//!   deterministic-combiner batch verification.
//! * [`pedersen`] — Pedersen commitments (ZKPs, Feldman/VSR commitments).
//! * [`transcript`] — Fiat–Shamir transcripts for non-interactive proofs:
//!   one streaming pass over a proof's first moves, sealed once, every
//!   challenge a single-block hash of the seal.

// `deny` rather than `forbid`: the SHA-256 compression dispatch carries
// the crate's single `unsafe` block — the runtime-feature-checked call
// into the x86 SHA new-instructions path (`sha256::ni`). Everything else
// stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fastexp;
pub mod group;
pub mod hmac;
pub mod merkle;
pub mod pedersen;
pub mod schnorr;
pub mod sha256;
pub mod transcript;

pub use group::{GroupElem, Scalar};
pub use merkle::{MerklePath, MerkleProof, MerkleTree};
pub use pedersen::{Commitment, Opening, PedersenParams};
pub use schnorr::{
    verify_batch, BatchEntry, Keypair, PreparedPublicKey, PublicKey, SecretKey, Signature,
};
pub use sha256::{sha256, Digest, Sha256};
pub use transcript::{Sealed, Transcript};
