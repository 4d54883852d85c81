//! Thread-count and shard-count configuration, and pool sharing.
//!
//! Every parallel call site in the workspace takes its thread count
//! from a [`ParConfig`]. The resolution order is: an explicit
//! `threads` on the config itself, then a process-wide override set
//! once by the CLI's `--threads N` via [`configure_global`], then
//! `std::thread::available_parallelism`. The shard count (how many
//! independent worker pools the aggregator's sharded phases split the
//! device set across, see [`crate::shard`]) resolves the same way:
//! explicit `shards`, then the CLI's `--shards K`, then 1. Pools are
//! cached per resolved thread count so repeated calls (e.g. one per
//! committee round) reuse the same workers instead of spawning fresh
//! threads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::pool::ThreadPool;
use crate::shard::ShardedPool;

/// Where parallel code gets its worker count and shard count.
///
/// The default (`threads: None`) resolves to the machine's available
/// parallelism, unless the process set a global override. `fixed(0)`
/// (= [`ParConfig::serial`]) yields a zero-worker pool that executes
/// everything inline on the calling thread — useful as a serial
/// baseline and in determinism tests. `shards: None` resolves to the
/// global `--shards` override, else to a single shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParConfig {
    /// Explicit worker count; `None` defers to the global override or
    /// the machine's available parallelism.
    pub threads: Option<usize>,
    /// Explicit shard count for the sharded aggregator phases; `None`
    /// defers to the global override, else 1.
    pub shards: Option<usize>,
}

impl ParConfig {
    /// Defer to the global override / available parallelism.
    pub fn auto() -> Self {
        Self {
            threads: None,
            shards: None,
        }
    }

    /// Pin an explicit worker count (0 = inline serial execution).
    pub fn fixed(threads: usize) -> Self {
        Self {
            threads: Some(threads),
            shards: None,
        }
    }

    /// A zero-worker config: every task runs inline on the caller.
    pub fn serial() -> Self {
        Self::fixed(0)
    }

    /// This config with an explicit shard count (clamped to ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// The worker count this config resolves to right now.
    pub fn resolve(&self) -> usize {
        self.threads
            .or_else(|| GLOBAL_THREADS.get().copied())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The shard count this config resolves to right now (≥ 1).
    pub fn resolve_shards(&self) -> usize {
        self.shards
            .or_else(|| GLOBAL_SHARDS.get().copied())
            .unwrap_or(1)
            .max(1)
    }

    /// The shared pool for this config's resolved thread count.
    pub fn pool(&self) -> Arc<ThreadPool> {
        let threads = self.resolve();
        let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        let mut pools = pools.lock().unwrap();
        Arc::clone(
            pools
                .entry(threads)
                .or_insert_with(|| Arc::new(ThreadPool::new(threads))),
        )
    }

    /// A fresh sharded pool set for this config: `resolve_shards()`
    /// pools pinned to disjoint shards, dividing `resolve()` worker
    /// threads among them. Not cached: the caller owns the pools, and
    /// their worker threads are joined when it drops them.
    pub fn sharded_pool(&self) -> ShardedPool {
        ShardedPool::new(self.resolve(), self.resolve_shards())
    }
}

static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();
static GLOBAL_SHARDS: OnceLock<usize> = OnceLock::new();
static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();

/// Sets the process-wide default thread count (the CLI's `--threads`)
/// and, when present, the default shard count (the CLI's `--shards`).
///
/// Only the first call wins for each field; returns whether this call
/// set the thread count. Configs with explicit fields are unaffected.
pub fn configure_global(cfg: ParConfig) -> bool {
    if let Some(k) = cfg.shards {
        let _ = GLOBAL_SHARDS.set(k.max(1));
    }
    match cfg.threads {
        Some(n) => GLOBAL_THREADS.set(n).is_ok(),
        None => false,
    }
}

/// The shared pool for the default configuration.
pub fn global() -> Arc<ThreadPool> {
    ParConfig::default().pool()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_resolves_to_itself() {
        assert_eq!(ParConfig::fixed(3).resolve(), 3);
        assert_eq!(ParConfig::serial().resolve(), 0);
    }

    #[test]
    fn pools_are_cached_per_thread_count() {
        let a = ParConfig::fixed(2).pool();
        let b = ParConfig::fixed(2).pool();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.workers(), 2);
    }

    #[test]
    fn shards_resolve_with_explicit_override() {
        assert_eq!(ParConfig::auto().with_shards(4).resolve_shards(), 4);
        assert_eq!(ParConfig::fixed(2).with_shards(0).resolve_shards(), 1);
    }

    #[test]
    fn sharded_pool_matches_config() {
        let set = ParConfig::fixed(3).with_shards(2).sharded_pool();
        assert_eq!(set.shards(), 2);
        // 3 workers split 2/1 across the two shards.
        assert_eq!(set.pool(0).workers() + set.pool(1).workers(), 3);
    }
}
