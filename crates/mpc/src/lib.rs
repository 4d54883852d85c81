//! Honest-majority MPC for Arboretum committees.
//!
//! A from-scratch SPDZ-wise-Shamir-style MPC engine (§2.2, §6): Shamir
//! sharing over the Goldilocks field, Beaver-triple multiplication,
//! mask-and-borrow-chain comparison, probabilistic fixed-point
//! truncation, and metered ideal functionalities for the transcendental
//! noise-sampling vignettes. There is one engine, [`MpcEngine`]: one
//! object acting as every member of a committee, its frames crossing
//! the virtual-time `arboretum-net` evented fabric, which may carry a
//! committee's latency and fault schedule. A transport failure is an [`MpcError::Net`], never a panic.
//! Every protocol meters bytes, rounds, triples, and local compute
//! through [`network::NetMeter`], which is the substrate for the
//! planner's cost model and for the paper's heterogeneity experiments
//! (latency matrices, slow parties).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod compare;
pub mod engine;
pub mod fixp;
pub mod network;
pub mod shamir;

pub use compare::{argmax_tournament, less_than, less_than_batch, MAX_COMPARE_BITS};
pub use engine::{MpcEngine, MpcError, Shared};
pub use fixp::{
    field_to_fix, fix_to_field, inject_with_cost, shift_right, FunctionalityCost, SharedFix,
};
pub use network::{ComputeModel, LatencyModel, NetMeter, NetMetrics, FIELD_BYTES};
pub use shamir::{committee_basis, reconstruct, share, ShamirError, Share};
