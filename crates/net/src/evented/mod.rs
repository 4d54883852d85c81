//! The event-driven virtual-time fabric.
//!
//! A discrete event clock in place of wall-clock sleeps: every party
//! carries a virtual `u64`-nanosecond clock, modeled `LatencyModel`
//! delays schedule frames on that clock, timeouts are decided by
//! comparing modeled values (never wall time), faults are events on the
//! same clock, and frames are encoded into a pooled buffer arena
//! instead of fresh allocations. One process drives full sortition +
//! upload waves for 10^5–10^6 simulated devices.
//!
//! Two frontends share the core:
//!
//! - [`EventedFabric`] — act-as-anyone, `SimTransport`-shaped; the MPC
//!   engine and the population-scale wave driver run on it. With no
//!   latency configured its metering is bitwise identical to sim's.
//! - [`evented_fabric`] / [`EventedEndpoint`] — per-party blocking
//!   endpoints, each acting only as itself, with blocked receives
//!   resolved by quiescence on virtual time. Their callers (the wave
//!   driver, the benchmark's frame probe) drive them from one thread.
//!
//! The precise virtual-time contract (delivery rule, quiescence
//! timeouts, tie-breaks, fault composition) is specified in
//! `crates/net/README.md`.

mod arena;
mod core;
mod endpoint;
mod fabric;

pub use arena::{ArenaCounters, BufferArena};
pub use core::EventedConfig;
pub use endpoint::{evented_fabric, EventedEndpoint, EventedMetricsHandle};
pub use fabric::EventedFabric;
