//! Numeric foundations for Arboretum: prime fields, NTTs, and fixed point.
//!
//! This crate is dependency-free (standard library only) and hosts the
//! arithmetic every other Arboretum subsystem builds on:
//!
//! * [`fp::Fp`] — const-generic prime-field elements.
//! * [`primes`] — the named NTT-friendly moduli used across the workspace,
//!   plus an exact 64-bit Miller–Rabin test.
//! * [`shamir`] — polynomial evaluation at party points and Lagrange
//!   interpolation at zero, shared by the MPC engine and VSR.
//! * [`zq`] — runtime-modulus arithmetic and [`zq::RtNttTable`], the
//!   negacyclic number-theoretic transform behind the BGV polynomial ring.
//! * [`fixed::Fix`] — `sfix`-style Q30.16 fixed point with deterministic
//!   `exp2`/`log2`, used by the differential-privacy mechanisms to avoid
//!   floating-point side channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod fp;
pub mod primes;
pub mod shamir;
pub mod zq;

pub use fixed::Fix;
pub use fp::Fp;

/// Field element over the Goldilocks prime, the workspace's MPC and
/// commitment field.
pub type FGold = Fp<{ primes::GOLDILOCKS }>;
