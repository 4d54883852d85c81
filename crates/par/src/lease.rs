//! Pool leasing: exclusive checkout of [`ThreadPool`]s from a shared
//! bank.
//!
//! A multi-tenant service multiplexes concurrent queries over a fixed
//! set of aggregator pools, so the worker-thread count is bounded by
//! the bank and not by the number of queries in flight. A
//! [`PoolBank`] lends each pool to exactly one holder at a time:
//! [`PoolBank::checkout`] blocks until a pool is free and returns a
//! [`PoolLease`] that releases the pool when dropped.
//!
//! Leasing affects only *where* work runs. Every kernel is a pure
//! function of its input (see the crate's determinism contract), so
//! results are bitwise identical no matter which pool in the bank — or
//! the process-cached one — executed the phases.

use std::ops::Deref;
use std::sync::{Arc, Condvar, Mutex};

use crate::pool::ThreadPool;

struct BankState {
    free: Mutex<Vec<Arc<ThreadPool>>>,
    available: Condvar,
}

/// A fixed set of identically-sized [`ThreadPool`]s lent out one
/// holder at a time.
#[derive(Clone)]
pub struct PoolBank {
    state: Arc<BankState>,
    threads: usize,
    capacity: usize,
}

impl std::fmt::Debug for PoolBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolBank")
            .field("capacity", &self.capacity)
            .field("threads", &self.threads)
            .finish()
    }
}

impl PoolBank {
    /// Builds a bank of `capacity` pools (clamped to ≥ 1), each with
    /// `threads` workers.
    pub fn new(capacity: usize, threads: usize) -> Self {
        let capacity = capacity.max(1);
        let free = (0..capacity)
            .map(|_| Arc::new(ThreadPool::new(threads)))
            .collect();
        Self {
            state: Arc::new(BankState {
                free: Mutex::new(free),
                available: Condvar::new(),
            }),
            threads,
            capacity,
        }
    }

    /// Total pools the bank owns (free or leased).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Worker threads per pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pools currently available for checkout.
    pub fn free(&self) -> usize {
        self.state.free.lock().expect("bank lock poisoned").len()
    }

    /// Checks out a pool, blocking until one is free.
    pub fn checkout(&self) -> PoolLease {
        let mut free = self.state.free.lock().expect("bank lock poisoned");
        loop {
            if let Some(pool) = free.pop() {
                return PoolLease {
                    state: Arc::clone(&self.state),
                    pool: Some(pool),
                };
            }
            free = self.state.available.wait(free).expect("bank lock poisoned");
        }
    }
}

/// An exclusive lease on one [`ThreadPool`]; returns the pool to its
/// [`PoolBank`] on drop.
pub struct PoolLease {
    state: Arc<BankState>,
    pool: Option<Arc<ThreadPool>>,
}

impl std::fmt::Debug for PoolLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolLease")
            .field("workers", &self.workers())
            .finish()
    }
}

impl Deref for PoolLease {
    type Target = Arc<ThreadPool>;

    fn deref(&self) -> &Arc<ThreadPool> {
        self.pool.as_ref().expect("pool present until drop")
    }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        let pool = self.pool.take().expect("pool present until drop");
        let mut free = self.state.free.lock().expect("bank lock poisoned");
        free.push(pool);
        self.state.available.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn checkout_is_exclusive_and_returns_on_drop() {
        let bank = PoolBank::new(2, 2);
        assert_eq!(bank.capacity(), 2);
        assert_eq!(bank.free(), 2);
        let a = bank.checkout();
        let b = bank.checkout();
        assert_eq!(bank.free(), 0);
        assert_eq!(a.workers(), 2);
        drop(a);
        assert_eq!(bank.free(), 1);
        drop(b);
        assert_eq!(bank.free(), 2);
    }

    #[test]
    fn blocked_checkout_wakes_when_a_lease_drops() {
        let bank = PoolBank::new(1, 1);
        let lease = bank.checkout();
        let woke = Arc::new(AtomicUsize::new(0));
        let handle = {
            let bank = bank.clone();
            let woke = Arc::clone(&woke);
            std::thread::spawn(move || {
                let _lease = bank.checkout();
                woke.store(1, Ordering::SeqCst);
            })
        };
        // The waiter cannot have a pool while we hold the only lease.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(woke.load(Ordering::SeqCst), 0);
        drop(lease);
        handle.join().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
        assert_eq!(bank.free(), 1);
    }

    #[test]
    fn leased_pools_run_kernels() {
        let bank = PoolBank::new(1, 2);
        let lease = bank.checkout();
        let data = Arc::new((0..100u64).collect::<Vec<_>>());
        let doubled = crate::par_map_arc(&lease, &data, |_, &v| v * 2);
        assert_eq!(doubled[99], 198);
    }
}
