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
//! - [`sim`] — the instant in-process fabric the analytic simulator
//!   runs on;
//! - [`evented`] — the event-driven virtual-time fabric: modeled
//!   delays, timeouts, and faults advance per-party virtual clocks
//!   instead of sleeping, frames recycle through a pooled buffer arena,
//!   and sparse link queues let one process simulate 10^5–10^6 parties;
//! - [`fault`] — the [`FaultPlan`] schedule of message loss, party
//!   crashes, partitions, and slow parties the evented fabric applies;
//! - [`observe`] — passive, read-only frame observation
//!   ([`FrameSink`]) feeding adaptive adversaries on every fabric;
//! - [`config`] — the [`FabricKind`] selector and the process-wide
//!   default installed by the CLI's `--fabric` flag.
//!
//! Payload byte counts are defined so the *measured* traffic of a
//! committee of per-thread parties on evented endpoints equals the
//! analytic `NetMeter` model in `arboretum-mpc` exactly — that equality
//! is asserted in `arboretum-mpc`'s `fabric_validation` test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod evented;
pub mod fault;
pub mod observe;
pub mod sim;
pub mod transport;
pub mod wire;

pub use config::{configure_global_fabric, global_fabric, FabricKind};
pub use evented::{
    evented_fabric, ArenaCounters, BufferArena, EventedConfig, EventedEndpoint, EventedFabric,
    EventedMetricsHandle,
};
pub use fault::FaultPlan;
pub use observe::{FrameSink, SharedSink};
pub use sim::SimTransport;
pub use transport::{NetError, Transport, TransportMetrics};
pub use wire::{Message, Wire, WireError, WireShare, HEADER_BYTES};
