//! The event-driven virtual-time fabric.
//!
//! A discrete event clock in place of wall-clock sleeps: every party
//! carries a virtual `u64`-nanosecond clock, modeled `LatencyModel`
//! delays schedule frames on that clock, timeouts are decided by
//! comparing modeled values (never wall time), faults are events on the
//! same clock, and frames are encoded into a pooled buffer arena
//! instead of fresh allocations.
//!
//! [`EventedFabric`] acts as every party; every MPC engine runs on it.
//! [`evented_fabric`] hands out [`EventedEndpoint`]s, per-party views of
//! one such fabric that each act only as their own party (the
//! benchmark's frame probe uses them).
//! Everything runs on the caller's thread: a receive on an empty link
//! is an immediate timeout.
//!
//! The precise virtual-time contract (delivery rule, timeouts, fault
//! composition) is specified in `crates/net/README.md`.

mod arena;
mod endpoint;
mod fabric;

pub use arena::{ArenaCounters, BufferArena};
pub use endpoint::{evented_fabric, EventedEndpoint};
pub use fabric::{EventedConfig, EventedFabric};
