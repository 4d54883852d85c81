//! Work-stealing parallel execution for the aggregator hot paths.
//!
//! The paper's aggregator burns core-*hours*: it sums millions of BGV
//! ciphertexts, verifies every participant's ZK input proof, and runs
//! branch-and-bound plan search under a core budget (§4.3, §5.3, §7's
//! "1,000 cores"). This crate provides the execution substrate those
//! paths share:
//!
//! * [`ThreadPool`] — a fixed pool of worker threads with per-worker
//!   deques and work stealing, built entirely on `std::sync` (the
//!   workspace is `#![forbid(unsafe_code)]` and offline, so no rayon
//!   or crossbeam);
//! * [`Scope`] — structured spawning: a scope waits for every task it
//!   spawned, the waiting thread *helps* execute queued tasks (so
//!   nested scopes cannot deadlock), and worker panics are caught and
//!   surfaced as a [`ScopePanic`] without poisoning the pool;
//! * [`par_map_arc`], [`par_chunks`] and [`par_reduce`] — data-parallel
//!   kernels whose work decomposition depends only on the input
//!   length, never on the number of threads or the scheduler.
//!
//! # Determinism contract
//!
//! Every kernel in [`ops`] fixes its combine/output order by *index*:
//!
//! * a map writes result `i` into slot `i`;
//! * a chunk map groups items `[k·c, (k+1)·c)` exactly like
//!   `slice::chunks`;
//! * a reduction folds fixed index-contiguous chunks left-to-right
//!   and then combines the partials left-to-right, recursively; the
//!   chunk boundaries are a pure function of the input length.
//!
//! Consequently results are **bitwise identical** across thread counts
//! (including the zero-worker inline pool) for any combine function,
//! and identical to a plain serial left fold whenever the combine is
//! associative — which modular BGV ⊞, `NetMeter` byte totals, and the
//! planner's cost sums all are. BGV noise growth, metering, and
//! planner tie-breaking therefore never depend on thread scheduling.
//!
//! One pool runs every parallel phase: the paper's 1,000-core
//! aggregator (§7.2) is a cost-model parameter of the planner, not
//! something this crate partitions work for.
//!
//! Thread counts flow from a single [`ParConfig`]: `auto` resolves to
//! `std::thread::available_parallelism`, a CLI `--threads N` overrides
//! it process-wide via [`configure_global`], and tests pin explicit
//! counts with [`ParConfig::fixed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lease;
pub mod ops;
pub mod pool;
#[cfg(test)]
mod shard;

pub use config::{configure_global, global, ParConfig};
pub use lease::{PoolBank, PoolLease};
pub use ops::{par_chunks, par_map_arc, par_reduce};
pub use pool::{Scope, ScopePanic, ThreadPool};
