//! Message transport for committee MPC.
//!
//! Arboretum's committees exchange Shamir shares, opened values, BGV
//! ciphertext chunks, and VSR re-sharing batches. This crate is the
//! communication substrate below the MPC engine:
//!
//! - [`wire`] — a versioned, length-prefixed frame format for every
//!   message kind, with strict decoding;
//! - [`transport`] — the [`Transport`] trait plus unified
//!   [`TransportMetrics`] (rounds, payload bytes, framed bytes);
//! - [`evented`] — the one fabric, event-driven and in virtual time:
//!   modeled delays, timeouts, and faults advance per-party virtual
//!   clocks instead of sleeping, frames recycle through a pooled buffer
//!   arena, and sparse link queues let one process simulate 10^5–10^6
//!   parties;
//! - [`fault`] — the [`FaultPlan`] schedule of message loss, party
//!   crashes, partitions, and slow parties the evented fabric applies;
//! - [`config`] — [`FabricKind`], an inert selector kept only for the
//!   end-to-end benchmark's by-name calls (ROADMAP 1b deletes it).
//!
//! Payload byte counts are defined so the *measured* traffic of an MPC
//! engine's committee on the evented fabric equals the analytic
//! `NetMeter` model in `arboretum-mpc` exactly — that equality is
//! asserted in `arboretum-mpc`'s `fabric_validation` test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod config;
pub mod evented;
pub mod fault;
pub mod transport;
pub mod wire;

pub use config::FabricKind;
pub use evented::{
    evented_fabric, ArenaCounters, BufferArena, EventedConfig, EventedEndpoint, EventedFabric,
};
pub use fault::FaultPlan;
pub use transport::{NetError, Transport, TransportMetrics};
pub use wire::{Message, Wire, WireError, HEADER_BYTES};
