//! The committee/pool scheduler: serialized admission, parallel
//! execution.
//!
//! Admission (plan resolution, the all-or-nothing ledger charge, query
//! id assignment, audit logging) happens synchronously at submit time
//! under a single admission lock, so the admission sequence is totally
//! ordered by submission order — the submission-index tie-break of the
//! determinism contract. Execution is then embarrassingly parallel:
//! worker threads pop admitted jobs, lease a
//! [`arboretum_par::ThreadPool`] from the bank (exclusive checkout
//! bounds the worker threads in flight), and run against the immutable
//! cached setup under a read lock.
//! Because every job's randomness is fixed at admission (analyst tag +
//! per-analyst sequence), *which* worker or pool runs it — or whether
//! it runs at all concurrently with others — cannot change any result
//! bit.
//!
//! A thread that panics while holding the admission or catalog lock
//! poisons it. Whatever admits or executes afterwards answers
//! [`ServiceError::Poisoned`] instead of panicking in turn. The queue
//! and result locks cannot be poisoned (their critical sections only
//! push, pop, insert and clone), so their poison flag is ignored.

use arboretum_dp::budget::PrivacyCost;
use arboretum_par::PoolBank;
use arboretum_planner::cache::CachedPlan;
use arboretum_runtime::stream::StreamReport;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

use crate::catalog::SessionCatalog;
use crate::session::{AuditRecord, QueryId, ServiceError};

/// An admitted query, ready to execute.
pub(crate) struct Job {
    pub id: QueryId,
    pub analyst: String,
    pub seq: u64,
    pub prepared: Arc<CachedPlan>,
    /// The analyst's remaining budget at admission, before the charge.
    pub budget_before: PrivacyCost,
    /// `Some(w)` for a streaming (`INGEST`) query: `w` checkpointed
    /// ingestion windows of derived arrivals instead of one window
    /// holding every device.
    pub windows: Option<usize>,
}

/// Admission bookkeeping, guarded by one mutex so the admission
/// sequence is totally ordered.
#[derive(Default)]
pub(crate) struct Admission {
    pub next_index: u64,
    pub next_id: u64,
    pub seqs: BTreeMap<String, u64>,
    pub log: Vec<AuditRecord>,
}

/// State shared between the handle and the worker threads.
pub(crate) struct SchedulerState {
    pub catalog: RwLock<SessionCatalog>,
    pub admission: Mutex<Admission>,
    /// Never poisoned: only pushed to and popped from.
    pub queue: Mutex<VecDeque<Job>>,
    pub queue_cv: Condvar,
    /// Never poisoned: only inserted into and cloned from.
    pub results: Mutex<BTreeMap<u64, Result<StreamReport, ServiceError>>>,
    pub results_cv: Condvar,
    pub pools: PoolBank,
    /// Zero workers: execute inline at submit time (the serial
    /// reference mode).
    pub inline: bool,
    pub shutdown: AtomicBool,
}

impl SchedulerState {
    /// Admits one submission: resolves the plan, charges the ledgers
    /// all-or-nothing, assigns the next query id, and appends the
    /// audit record — all under the admission lock. Returns the
    /// admitted query's id, or the typed refusal.
    ///
    /// `windows` is `None` for a batch query and `Some(w)` for a
    /// streamed one; admission (and thus the ledger/audit behavior) is
    /// the same for both — the epoch is charged once. A window count
    /// above the deployment size is refused before anything is planned,
    /// charged or logged: every window past the last device would be
    /// empty, and each still costs a fold, a handoff and a checkpoint.
    pub fn submit(
        self: &Arc<Self>,
        analyst: &str,
        source: &str,
        windows: Option<usize>,
    ) -> Result<QueryId, ServiceError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ServiceError::ShutDown);
        }
        let job = {
            let mut adm = self.admission.lock().map_err(poisoned("admission"))?;
            let mut catalog = self.catalog.write().map_err(poisoned("catalog"))?;
            let Some(budget_before) = catalog.book().analyst(analyst).map(|l| l.remaining()) else {
                return Err(ServiceError::UnknownAnalyst(analyst.to_string()));
            };
            let devices = catalog.deployment().db.len();
            if let Some(windows) = windows.filter(|&w| w > devices) {
                return Err(ServiceError::TooManyWindows { windows, devices });
            }
            let prepared = catalog.prepare(source)?;
            let cost = prepared.logical.certificate.cost;
            let seq = adm.seqs.get(analyst).copied().unwrap_or(0);
            let index = adm.next_index;
            adm.next_index += 1;
            match catalog.admit(analyst, cost) {
                Err(refusal) => {
                    // The book is bitwise unchanged; record the refusal
                    // (seq NOT consumed: a refused submission shifts no
                    // later query's seed) and surface the typed error.
                    adm.log.push(AuditRecord {
                        index,
                        analyst: analyst.to_string(),
                        seq,
                        query_id: None,
                        cost,
                        refusal: Some(refusal.to_string()),
                        analyst_remaining: budget_before,
                        deployment_remaining: catalog.book().deployment().remaining(),
                    });
                    return Err(ServiceError::Ledger(refusal));
                }
                Ok(()) => {
                    // Sessions never close, and the write lock has been
                    // held since the analyst's ledger was found above.
                    #[allow(clippy::expect_used)]
                    let analyst_remaining = catalog
                        .book()
                        .analyst(analyst)
                        .expect("the analyst's session is open")
                        .remaining();
                    let id = QueryId(adm.next_id);
                    adm.next_id += 1;
                    adm.seqs.insert(analyst.to_string(), seq + 1);
                    adm.log.push(AuditRecord {
                        index,
                        analyst: analyst.to_string(),
                        seq,
                        query_id: Some(id),
                        cost,
                        refusal: None,
                        analyst_remaining,
                        deployment_remaining: catalog.book().deployment().remaining(),
                    });
                    Job {
                        id,
                        analyst: analyst.to_string(),
                        seq,
                        prepared,
                        budget_before,
                        windows,
                    }
                }
            }
        };
        let id = job.id;
        if self.inline {
            self.execute_job(job);
        } else {
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push_back(job);
            self.queue_cv.notify_one();
        }
        Ok(id)
    }

    /// Runs one admitted job on a leased pool and publishes its result
    /// ([`ServiceError::Poisoned`] if the catalog lock is).
    pub fn execute_job(&self, job: Job) {
        let result = {
            let lease = self.pools.checkout();
            let catalog = self.catalog.read().map_err(poisoned("catalog"));
            catalog.and_then(|catalog| {
                catalog
                    .execute(
                        &job.prepared,
                        &job.analyst,
                        job.seq,
                        job.budget_before,
                        job.windows,
                        Some(&lease),
                    )
                    .map_err(ServiceError::Exec)
            })
        };
        let mut results = self.results.lock().unwrap_or_else(PoisonError::into_inner);
        results.insert(job.id.0, result);
        self.results_cv.notify_all();
    }

    /// Blocks until the query's result is available.
    pub fn wait(&self, id: QueryId) -> Result<StreamReport, ServiceError> {
        {
            let adm = self.admission.lock().map_err(poisoned("admission"))?;
            if id.0 >= adm.next_id {
                return Err(ServiceError::UnknownQuery(id.0));
            }
        }
        let mut results = self.results.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = results.get(&id.0) {
                return result.clone();
            }
            results = self
                .results_cv
                .wait(results)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Worker thread body: drain the queue, then exit once shutdown is
    /// flagged and the queue is empty (every admitted job is always
    /// executed).
    pub fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self
                        .queue_cv
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.execute_job(job);
        }
    }
}

/// Maps a poisoned `lock` to [`ServiceError::Poisoned`].
pub(crate) fn poisoned<G>(lock: &'static str) -> impl FnOnce(PoisonError<G>) -> ServiceError {
    move |_| ServiceError::Poisoned(lock)
}
