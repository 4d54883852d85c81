//! Honest-majority MPC for Arboretum committees.
//!
//! A from-scratch SPDZ-wise-Shamir-style MPC simulator (§2.2, §6):
//! Shamir sharing over the Goldilocks field, Beaver-triple
//! multiplication, mask-and-borrow-chain comparison, probabilistic
//! fixed-point truncation, and metered ideal functionalities for the
//! transcendental noise-sampling vignettes. Every protocol meters bytes,
//! rounds, triples, and local compute through [`network::NetMeter`],
//! which is the substrate for the planner's cost model and for the
//! paper's heterogeneity experiments (latency matrices, slow parties).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod engine;
pub mod fixp;
pub mod network;
pub mod ops;
pub mod party;
pub mod shamir;

pub use compare::{argmax_tournament, less_than, less_than_batch, MAX_COMPARE_BITS};
pub use engine::{MpcEngine, MpcError, Shared};
pub use fixp::{
    field_to_fix, fix_to_field, inject_with_cost, shift_right, FunctionalityCost, SharedFix,
};
pub use network::{ComputeModel, LatencyModel, NetMeter, NetMetrics, FIELD_BYTES};
pub use ops::MpcOps;
pub use party::{shared_dealer, Dealer, Party, SharedDealer};
pub use shamir::{committee_basis, reconstruct, share, ShamirError, Share};
