//! Thread-count configuration and pool sharing.
//!
//! Every parallel call site in the workspace takes its thread count
//! from a [`ParConfig`]. The resolution order is: an explicit
//! `threads` on the config itself, then a process-wide override set
//! once by the CLI's `--threads N` via [`configure_global`], then
//! `std::thread::available_parallelism`. Pools are cached per resolved
//! thread count so repeated calls (e.g. one per committee round) reuse
//! the same workers instead of spawning fresh threads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::pool::ThreadPool;

/// Where parallel code gets its worker count.
///
/// The default (`threads: None`) resolves to the machine's available
/// parallelism, unless the process set a global override. `fixed(0)`
/// (= [`ParConfig::serial`]) yields a zero-worker pool that executes
/// everything inline on the calling thread — useful as a serial
/// baseline and in determinism tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParConfig {
    /// Explicit worker count; `None` defers to the global override or
    /// the machine's available parallelism.
    pub threads: Option<usize>,
}

impl ParConfig {
    /// Defer to the global override / available parallelism.
    pub fn auto() -> Self {
        Self { threads: None }
    }

    /// Pin an explicit worker count (0 = inline serial execution).
    pub fn fixed(threads: usize) -> Self {
        Self {
            threads: Some(threads),
        }
    }

    /// A zero-worker config: every task runs inline on the caller.
    pub fn serial() -> Self {
        Self::fixed(0)
    }

    /// Returns `self` unchanged: there is one pool, so a shard count
    /// selects nothing. 1b deletes this.
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// The worker count this config resolves to right now.
    pub fn resolve(&self) -> usize {
        self.threads
            .or_else(|| GLOBAL_THREADS.get().copied())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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

    /// Returns [`ParConfig::pool`]. 1b deletes this.
    pub fn sharded_pool(&self) -> Arc<ThreadPool> {
        self.pool()
    }
}

static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();
static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();

/// Sets the process-wide default thread count (the CLI's `--threads`).
///
/// Only the first call wins; returns whether this call set the thread
/// count. Configs with an explicit `threads` are unaffected.
pub fn configure_global(cfg: ParConfig) -> bool {
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
        // A shard count selects nothing: the config, and so its thread
        // count, comes back unchanged.
        assert_eq!(ParConfig::auto().with_shards(4), ParConfig::auto());
        assert_eq!(ParConfig::fixed(2).with_shards(0), ParConfig::fixed(2));
        assert_eq!(ParConfig::fixed(2).with_shards(8).resolve(), 2);
    }

    #[test]
    fn sharded_pool_matches_config() {
        let cfg = ParConfig::fixed(3).with_shards(2);
        let pool = cfg.sharded_pool();
        assert!(Arc::ptr_eq(&pool, &cfg.pool()));
        assert_eq!(pool.workers(), 3);
    }
}
