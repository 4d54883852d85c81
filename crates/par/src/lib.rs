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
//! * [`par_map_arc`] and the sharded kernels ([`par_map_arc_sharded`],
//!   [`par_chunks_sharded`], [`par_reduce_sharded`]) — data-parallel
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
//! Thread counts flow from a single [`ParConfig`]: `auto` resolves to
//! `std::thread::available_parallelism`, a CLI `--threads N` overrides
//! it process-wide via [`configure_global`], and tests pin explicit
//! counts with [`ParConfig::fixed`].
//!
//! # Sharded execution
//!
//! [`shard`] lifts the contract one level up, to the paper's
//! 1,000-core aggregator: a [`ShardedPool`] owns K pools pinned to
//! disjoint, index-contiguous device shards (a [`ShardPlan`], pure
//! function of `(n, K)`), and [`par_reduce_sharded`] /
//! [`par_map_arc_sharded`] / [`par_chunks_sharded`] recombine shard
//! partials with a merge fixed in shard-index order — see the
//! shard-merge determinism contract in [`shard`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lease;
pub mod ops;
pub mod pool;
pub mod shard;

pub use config::{configure_global, global, ParConfig};
pub use lease::{PoolBank, PoolLease};
pub use ops::par_map_arc;
pub use pool::{Scope, ScopePanic, ThreadPool};
pub use shard::{
    par_chunks_sharded, par_map_arc_sharded, par_reduce_sharded, ShardPlan, ShardedPool,
};
