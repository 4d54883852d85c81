//! Stress and robustness tests for the work-stealing pool: nested
//! scopes, panic containment, oversubscription, the zero-worker
//! inline fallback, and a randomized-yield interleaving smoke test.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use arboretum_par::{par_map_arc, par_reduce, ParConfig, ThreadPool};

#[test]
fn nested_scopes_do_not_deadlock() {
    // Each outer task opens its own inner scope on the same pool; the
    // worker running it helps drain inner tasks instead of blocking a
    // pool slot, so this completes even with a single worker.
    for workers in [1usize, 2, 4] {
        let pool = Arc::new(ThreadPool::new(workers));
        let counter = Arc::new(AtomicUsize::new(0));
        pool.scope(|s| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..16 {
                            let c = Arc::clone(&counter);
                            inner.spawn(move || {
                                c.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 16, "workers={workers}");
    }
}

#[test]
fn three_levels_of_nesting() {
    let pool = Arc::new(ThreadPool::new(2));
    let counter = Arc::new(AtomicUsize::new(0));
    pool.scope(|s| {
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let counter = Arc::clone(&counter);
            s.spawn(move || {
                let inner_pool = Arc::clone(&pool);
                pool.scope(|mid| {
                    for _ in 0..4 {
                        let pool = Arc::clone(&inner_pool);
                        let counter = Arc::clone(&counter);
                        mid.spawn(move || {
                            pool.scope(|leaf| {
                                for _ in 0..4 {
                                    let c = Arc::clone(&counter);
                                    leaf.spawn(move || {
                                        c.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            });
                        });
                    }
                });
            });
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), 64);
}

#[test]
fn panicking_task_errors_scope_and_pool_survives() {
    let pool = ThreadPool::new(3);
    let survivors = Arc::new(AtomicUsize::new(0));
    let err = pool
        .try_scope(|s| {
            for i in 0..20 {
                let sv = Arc::clone(&survivors);
                s.spawn(move || {
                    if i == 7 {
                        panic!("injected failure in task {i}");
                    }
                    sv.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .unwrap_err();
    assert_eq!(err.messages.len(), 1);
    assert!(err.messages[0].contains("injected failure in task 7"));
    // Non-panicking siblings all completed; the scope waits for
    // everything regardless of failures.
    assert_eq!(survivors.load(Ordering::Relaxed), 19);

    // The pool is immediately reusable for real work.
    let items = Arc::new((1u64..=1000).collect());
    let sum: u64 = par_map_arc(&pool, &items, |_, x| *x).iter().sum();
    assert_eq!(sum, 500_500);
}

#[test]
fn multiple_panics_all_reported() {
    let pool = ThreadPool::new(2);
    let err = pool
        .try_scope(|s| {
            for i in 0..5 {
                s.spawn(move || panic!("task {i} down"));
            }
        })
        .unwrap_err();
    assert_eq!(err.messages.len(), 5);
}

#[test]
fn scope_body_panic_is_reported_after_tasks_drain() {
    let pool = ThreadPool::new(2);
    let ran = Arc::new(AtomicUsize::new(0));
    let ran2 = Arc::clone(&ran);
    let err = pool
        .try_scope(move |s| {
            for _ in 0..10 {
                let r = Arc::clone(&ran2);
                s.spawn(move || {
                    r.fetch_add(1, Ordering::Relaxed);
                });
            }
            panic!("body failed after spawning");
        })
        .unwrap_err();
    assert!(err.messages[0].contains("body failed after spawning"));
    assert_eq!(ran.load(Ordering::Relaxed), 10);
}

#[test]
fn oversubscription_tasks_far_exceed_workers() {
    let pool = ThreadPool::new(2);
    let n = 20_000usize;
    let items = Arc::new((0..n as u64).collect());
    let out = par_map_arc(&pool, &items, |_, x| x + 1);
    assert_eq!(out.len(), n);
    assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
}

#[test]
fn zero_worker_pool_is_a_serial_fallback() {
    let pool = ThreadPool::new(0);
    assert_eq!(pool.workers(), 0);
    let main_thread = std::thread::current().id();
    let seen = Arc::new(Mutex::new(Vec::new()));
    pool.scope(|s| {
        for i in 0..50 {
            let seen = Arc::clone(&seen);
            s.spawn(move || {
                seen.lock().unwrap().push((i, std::thread::current().id()));
            });
        }
    });
    let seen = seen.lock().unwrap();
    // Inline execution: spawn order preserved, all on the caller.
    assert_eq!(
        seen.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
        (0..50).collect::<Vec<_>>()
    );
    assert!(seen.iter().all(|&(_, tid)| tid == main_thread));
}

#[test]
fn par_config_serial_and_fixed_pools() {
    assert_eq!(ParConfig::serial().pool().workers(), 0);
    assert_eq!(ParConfig::fixed(3).pool().workers(), 3);
    // auto resolves to something sane.
    assert!(ParConfig::auto().resolve() >= 1);
}

/// A loom-style smoke test: repeated runs with randomized yields
/// inserted into tasks shake out ordering assumptions in the
/// pool/scope handshake. Seeds a tiny LCG per run so the yield pattern
/// differs between iterations but the test stays reproducible.
#[test]
fn randomized_yield_interleaving_smoke() {
    for round in 0u64..30 {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let total: usize = pool.scope(|s| {
            let mut lcg = round
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            for i in 0..64 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let yields = (lcg >> 60) as usize; // 0..16
                let c = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..yields {
                        std::thread::yield_now();
                    }
                    c.fetch_add(i, Ordering::Relaxed);
                });
            }
            (0..64).sum()
        });
        assert_eq!(counter.load(Ordering::Relaxed), total, "round {round}");
    }
}

/// The reduction tree is a pure function of length: compare every
/// thread count against the zero-worker inline walk for a
/// deliberately non-associative combine.
#[test]
fn par_reduce_tree_is_thread_count_invariant() {
    let items: Vec<i64> = (0..10_000).map(|i| (i * 37) % 101 - 50).collect();
    // Non-associative, non-commutative combine.
    let f = |a: &i64, b: &i64| a.wrapping_mul(2).wrapping_sub(*b);
    let reference = {
        let pool = ThreadPool::new(0);
        par_reduce(&pool, items.clone(), f).unwrap()
    };
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let got = par_reduce(&pool, items.clone(), f).unwrap();
        assert_eq!(got, reference, "threads={threads}");
    }
}
