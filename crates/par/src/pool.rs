//! The work-stealing thread pool and structured scopes.
//!
//! Layout: one shared injector queue plus one deque per worker. A
//! worker pops its own deque LIFO (freshly spawned subtasks are hot in
//! cache), then the injector FIFO, then steals FIFO from the other
//! workers in index order. Threads blocked in [`ThreadPool::scope`]
//! *help*: they execute queued tasks while they wait, so a worker that
//! opens a nested scope keeps making progress instead of deadlocking
//! the pool.
//!
//! Tasks are `'static` closures; callers share borrowed state by
//! moving it into an [`Arc`] (see [`crate::ops`] for the slice
//! kernels built on top). A pool with zero workers degenerates to
//! inline execution on the calling thread — same code path, same
//! results, no threads.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Process-unique pool ids let the worker TLS distinguish "I am a
/// worker of *this* pool" from "I am a worker of some other pool".
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static CURRENT_WORKER: std::cell::Cell<Option<(u64, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// How long an idle worker or waiting scope parks before re-checking
/// the queues. A timed wait sidesteps lost-wakeup races between the
/// per-deque locks and the single condvar without a careful two-phase
/// sleep protocol.
const PARK: Duration = Duration::from_millis(1);

/// Ceiling for the idle worker's exponential park backoff. A worker
/// that keeps finding nothing doubles its park time up to this, so
/// long-idle (e.g. cached) pools stop polling at 1 kHz; pushes still
/// cut the latency short via `work_available`.
const PARK_MAX: Duration = Duration::from_millis(64);

struct Shared {
    id: u64,
    injector: Mutex<VecDeque<Job>>,
    work_available: Condvar,
    deques: Vec<Mutex<VecDeque<Job>>>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Enqueues a job: onto the current worker's own deque when the
    /// caller is a worker of this pool, else through the injector.
    fn push(&self, job: Job) {
        if let Some((pool, idx)) = CURRENT_WORKER.with(|w| w.get()) {
            if pool == self.id {
                self.deques[idx].lock().unwrap().push_back(job);
                self.work_available.notify_all();
                return;
            }
        }
        self.injector.lock().unwrap().push_back(job);
        self.work_available.notify_all();
    }

    /// Finds the next job for `me` (a worker index, or `None` for a
    /// helping external thread): own deque LIFO → injector FIFO →
    /// steal FIFO from the others in index order.
    fn find(&self, me: Option<usize>) -> Option<Job> {
        if let Some(i) = me {
            if let Some(job) = self.deques[i].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some(job);
        }
        let k = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for off in 0..k {
            let victim = (start + off) % k;
            if Some(victim) == me {
                continue;
            }
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Runs one job, containing any panic (scope wrappers record the
    /// panic; the worker itself must survive).
    fn run(&self, job: Job) {
        let _ = catch_unwind(AssertUnwindSafe(job));
    }

    /// The worker index of the current thread *if* it belongs to this
    /// pool.
    fn my_index(&self) -> Option<usize> {
        CURRENT_WORKER
            .with(|w| w.get())
            .filter(|(pool, _)| *pool == self.id)
            .map(|(_, idx)| idx)
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.with(|w| w.set(Some((shared.id, index))));
    let mut park = PARK;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match shared.find(Some(index)) {
            Some(job) => {
                park = PARK;
                shared.run(job);
            }
            None => {
                let guard = shared.injector.lock().unwrap();
                if !guard.is_empty() || shared.shutdown.load(Ordering::Acquire) {
                    continue;
                }
                let _ = shared.work_available.wait_timeout(guard, park).unwrap();
                park = (park * 2).min(PARK_MAX);
            }
        }
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool signals shutdown and joins every worker; tasks
/// already queued by an open scope are still drained by the scope's
/// own helping loop, so drop after your scopes return.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` workers. Zero workers is valid:
    /// every spawned task then runs inline on the spawning thread, in
    /// spawn order.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("arboretum-par-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f` with a [`Scope`] and waits for every task the scope
    /// spawned, helping execute queued work while waiting.
    ///
    /// # Errors
    ///
    /// Returns [`ScopePanic`] if the scope body or any spawned task
    /// panicked; the pool itself survives and remains usable.
    pub fn try_scope<'p, R>(&'p self, f: impl FnOnce(&Scope<'p>) -> R) -> Result<R, ScopePanic> {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0usize),
                done: Condvar::new(),
                panics: Mutex::new(Vec::new()),
            }),
        };
        let body = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Help until every spawned task has completed. The caller may
        // execute tasks from unrelated scopes here; that is fine — all
        // tasks are self-contained and panic-isolated.
        let me = self.shared.my_index();
        loop {
            if *scope.state.pending.lock().unwrap() == 0 {
                break;
            }
            match self.shared.find(me) {
                Some(job) => self.shared.run(job),
                None => {
                    let pending = scope.state.pending.lock().unwrap();
                    if *pending == 0 {
                        break;
                    }
                    let _ = scope.state.done.wait_timeout(pending, PARK).unwrap();
                }
            }
        }
        let mut messages = std::mem::take(&mut *scope.state.panics.lock().unwrap());
        match body {
            Ok(out) if messages.is_empty() => Ok(out),
            Ok(_) => Err(ScopePanic { messages }),
            Err(p) => {
                messages.insert(0, panic_message(&*p));
                Err(ScopePanic { messages })
            }
        }
    }

    /// Like [`ThreadPool::try_scope`] but re-raises task panics on the
    /// calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the scope body or any spawned task panicked.
    pub fn scope<'p, R>(&'p self, f: impl FnOnce(&Scope<'p>) -> R) -> R {
        match self.try_scope(f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panics: Mutex<Vec<String>>,
}

/// A structured-spawning handle: tasks spawned through a scope are all
/// complete by the time the enclosing [`ThreadPool::scope`] call
/// returns.
pub struct Scope<'p> {
    pool: &'p ThreadPool,
    state: Arc<ScopeState>,
}

impl Scope<'_> {
    /// Spawns a task into the scope. With zero workers the task runs
    /// inline immediately (in spawn order).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        if self.pool.workers.is_empty() {
            if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                self.state.panics.lock().unwrap().push(panic_message(&*p));
            }
            return;
        }
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        self.pool.shared.push(Box::new(move || {
            if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
                state.panics.lock().unwrap().push(panic_message(&*p));
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        }));
    }
}

/// One or more tasks (or the scope body) panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScopePanic {
    /// The panic payload messages, in completion order (scope-body
    /// panic first if it panicked).
    pub messages: Vec<String>,
}

impl std::fmt::Display for ScopePanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} scoped task(s) panicked: {}",
            self.messages.len(),
            self.messages.join("; ")
        )
    }
}

impl std::error::Error for ScopePanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_all_tasks() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.scope(|s| {
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                s.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ThreadPool::new(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        pool.scope(|s| {
            for i in 0..10 {
                let o = Arc::clone(&order);
                s.spawn(move || o.lock().unwrap().push(i));
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn task_panic_is_reported_not_fatal() {
        let pool = ThreadPool::new(2);
        let err = pool
            .try_scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {});
            })
            .unwrap_err();
        assert!(err.messages.iter().any(|m| m.contains("boom")), "{err}");
        // Pool is still usable afterwards.
        let ok = pool.try_scope(|s| {
            s.spawn(|| {});
            7
        });
        assert_eq!(ok.unwrap(), 7);
    }
}
