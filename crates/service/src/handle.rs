//! [`ServiceHandle`]: the in-process API of the multi-tenant service.
//!
//! The CLI (`arboretum serve`), the examples, and the tests all drive
//! the service through this handle; the line protocol in
//! [`crate::protocol`] is a thin text shim over it. A handle with
//! `workers == 0` executes every query inline at submit time — the
//! serial reference the determinism contract compares against.

use arboretum_dp::budget::{BudgetLedger, PrivacyCost};
use arboretum_par::PoolBank;
use arboretum_runtime::executor::{Deployment, ExecutionReport};
use arboretum_runtime::setup::SetupCounters;
use arboretum_runtime::stream::StreamReport;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

use crate::catalog::{CatalogConfig, SessionCatalog};
use crate::scheduler::{Admission, SchedulerState};
use crate::session::{AuditRecord, QueryId, ServiceError};

/// Configuration of a running service.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The session-catalog configuration.
    pub catalog: CatalogConfig,
    /// Worker threads executing admitted queries. `0` executes inline
    /// at submit time — the serial reference mode.
    pub workers: usize,
    /// Sharded pools in the lease bank (clamped to ≥ 1). Each pool's
    /// thread/shard shape follows `catalog.base.par`.
    pub pool_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            catalog: CatalogConfig::default(),
            workers: 2,
            pool_capacity: 2,
        }
    }
}

/// A running multi-tenant service over one session catalog.
pub struct ServiceHandle {
    state: Arc<SchedulerState>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// Builds the session catalog (paying the fixed sortition/keygen
    /// cost once, up front) and starts the worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Exec`] if the catalog setup fails.
    pub fn start(deployment: Deployment, config: ServiceConfig) -> Result<Self, ServiceError> {
        let workers = config.workers;
        let par = config.catalog.base.par;
        let catalog = SessionCatalog::new(deployment, config.catalog)?;
        let state = Arc::new(SchedulerState {
            catalog: RwLock::new(catalog),
            admission: Mutex::new(Admission::default()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            results: Mutex::new(BTreeMap::new()),
            results_cv: Condvar::new(),
            pools: PoolBank::new(
                config.pool_capacity.max(1),
                par.resolve(),
                par.resolve_shards(),
            ),
            inline: workers == 0,
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || state.worker_loop())
            })
            .collect();
        Ok(Self {
            state,
            workers: handles,
        })
    }

    /// Opens an analyst session with the given budget allotment.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Ledger`] if a session is already open
    /// under that name or the allotment is negative or not finite.
    pub fn open_session(&self, analyst: &str, allotment: PrivacyCost) -> Result<(), ServiceError> {
        let mut catalog = self.state.catalog.write().expect("catalog lock poisoned");
        catalog
            .open_analyst(analyst, allotment)
            .map_err(ServiceError::Ledger)
    }

    /// Submits a query for `analyst`: plans it (through the cache),
    /// charges the ledgers all-or-nothing, and schedules execution.
    /// Returns the admitted query's id.
    ///
    /// # Errors
    ///
    /// Returns the typed refusal — budget, plan, unknown analyst —
    /// with every ledger bitwise unchanged.
    pub fn submit(&self, analyst: &str, source: &str) -> Result<QueryId, ServiceError> {
        self.state.submit(analyst, source, None)
    }

    /// Blocks until the given query finishes and returns its report.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownQuery`] for an id that was never
    /// admitted, or the execution's own error.
    pub fn wait(&self, id: QueryId) -> Result<ExecutionReport, ServiceError> {
        self.wait_stream(id).map(|epoch| epoch.report)
    }

    /// [`Self::wait`] with the whole epoch: the report plus one
    /// checkpoint per ingestion window (exactly one for a batch query)
    /// and every typed detection.
    ///
    /// # Errors
    ///
    /// See [`Self::wait`].
    pub fn wait_stream(&self, id: QueryId) -> Result<StreamReport, ServiceError> {
        self.state.wait(id)
    }

    /// Submits and waits: the synchronous convenience path.
    ///
    /// # Errors
    ///
    /// See [`Self::submit`] and [`Self::wait`].
    pub fn run(&self, analyst: &str, source: &str) -> Result<ExecutionReport, ServiceError> {
        let id = self.submit(analyst, source)?;
        self.wait(id)
    }

    /// Submits a query as a windowed ingestion stream (`INGEST` mode):
    /// admission — plan cache, all-or-nothing ledger charge, id
    /// assignment — is identical to [`Self::submit`] and charges the
    /// epoch exactly once; execution then folds `windows` checkpointed
    /// windows of derived device arrivals before decrypting at epoch
    /// close.
    ///
    /// # Errors
    ///
    /// Returns the typed refusal with every ledger bitwise unchanged;
    /// [`ServiceError::TooManyWindows`] if `windows` exceeds the
    /// deployment size.
    pub fn submit_stream(
        &self,
        analyst: &str,
        source: &str,
        windows: usize,
    ) -> Result<QueryId, ServiceError> {
        self.state.submit(analyst, source, Some(windows))
    }

    /// The admission audit log, in submission order.
    pub fn audit_log(&self) -> Vec<AuditRecord> {
        self.state
            .admission
            .lock()
            .expect("admission lock poisoned")
            .log
            .clone()
    }

    /// A snapshot of the named analyst's ledger, if a session is open.
    pub fn ledger(&self, analyst: &str) -> Option<BudgetLedger> {
        let catalog = self.state.catalog.read().expect("catalog lock poisoned");
        catalog.book().analyst(analyst).cloned()
    }

    /// A snapshot of the deployment-wide ledger.
    pub fn deployment_ledger(&self) -> BudgetLedger {
        let catalog = self.state.catalog.read().expect("catalog lock poisoned");
        catalog.book().deployment().clone()
    }

    /// `(hits, misses)` of the plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        let catalog = self.state.catalog.read().expect("catalog lock poisoned");
        catalog.plan_cache_stats()
    }

    /// The fixed setup cost the catalog paid once at start.
    pub fn setup_counters(&self) -> SetupCounters {
        let catalog = self.state.catalog.read().expect("catalog lock poisoned");
        catalog.setup().counters.clone()
    }

    /// Queries admitted so far (across all analysts).
    pub fn queries_admitted(&self) -> u64 {
        self.state
            .admission
            .lock()
            .expect("admission lock poisoned")
            .next_id
    }

    /// Drains the queue, stops the workers, and joins them. Also runs
    /// on drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
