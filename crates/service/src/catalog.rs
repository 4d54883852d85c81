//! The session catalog: persistent deployment state shared by every
//! query the service runs.
//!
//! A [`SessionCatalog`] owns the four long-lived pieces of a standing
//! deployment (§5):
//!
//! * the [`Deployment`] itself — device registry, private rows, beacon;
//! * the cached [`SessionSetup`] — sortition roster, BGV keypair, and
//!   the metered distributed-keygen cost, built **eagerly at catalog
//!   creation** from a catalog-owned RNG so the fixed cost is paid
//!   exactly once and never attributed to whichever query happened to
//!   arrive first;
//! * a [`PlanCache`] memoizing parse → certify → plan on the full
//!   query signature;
//! * the [`LedgerBook`] of per-analyst budget ledgers plus the
//!   deployment-wide cap.
//!
//! Every execution through the catalog therefore reports all-zero
//! [`SetupCounters`](arboretum_runtime::setup::SetupCounters) — the
//! observable form of the paper's keygen amortization — and draws its
//! per-query randomness from a seed mixed from `(catalog seed, analyst
//! tag, per-analyst sequence)`, never from scheduling.

use arboretum_dp::budget::{LedgerBook, LedgerBookError, PrivacyCost};
use arboretum_lang::privacy::CertifyConfig;
use arboretum_par::ThreadPool;
use arboretum_planner::cache::{CachedPlan, PlanCache};
use arboretum_planner::search::PlannerConfig;
use arboretum_runtime::executor::{Deployment, ExecError, ExecutionConfig};
use arboretum_runtime::setup::{build_session_setup, SessionSetup};
use arboretum_runtime::stream::{execute_stream, ArrivalSchedule, StreamReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::Arc;

use crate::session::{analyst_tag, ServiceError};

/// Configuration of a session catalog.
#[derive(Clone, Debug)]
pub struct CatalogConfig {
    /// The catalog seed: feeds the setup build and every per-query
    /// seed mix.
    pub seed: u64,
    /// Base execution configuration (committee size, latency model,
    /// pool shape). The `seed` and `budget` fields are overridden per
    /// query.
    pub base: ExecutionConfig,
    /// Planner configuration shared by every cached plan.
    pub planner: PlannerConfig,
    /// Certifier configuration shared by every cached plan.
    pub certify: CertifyConfig,
    /// The deployment-wide privacy cap all analysts compose into.
    pub deployment_budget: PrivacyCost,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            base: ExecutionConfig::default(),
            planner: PlannerConfig::paper_defaults(1 << 20),
            certify: CertifyConfig::default(),
            deployment_budget: PrivacyCost {
                epsilon: 64.0,
                delta: 1e-4,
            },
        }
    }
}

/// The persistent state of a standing deployment. See the module docs.
#[derive(Debug)]
pub struct SessionCatalog {
    deployment: Deployment,
    setup: SessionSetup,
    config: CatalogConfig,
    plans: PlanCache,
    book: LedgerBook,
}

impl SessionCatalog {
    /// Opens a catalog over a deployment, paying the fixed setup cost
    /// (sortition + BGV keygen + keygen-MPC metering) once, up front,
    /// from a catalog-owned RNG seeded by `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Exec`] if the setup build fails (e.g.
    /// the schema's category count does not fit the BGV parameters).
    pub fn new(deployment: Deployment, config: CatalogConfig) -> Result<Self, ServiceError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let setup = build_session_setup(
            &deployment,
            config.base.committee_size,
            config.seed,
            &mut rng,
        )?;
        Ok(Self {
            deployment,
            setup,
            book: LedgerBook::new(config.deployment_budget),
            config,
            plans: PlanCache::new(),
        })
    }

    /// The deployment this catalog serves.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The cached fixed-cost setup.
    pub fn setup(&self) -> &SessionSetup {
        &self.setup
    }

    /// The catalog configuration.
    pub fn config(&self) -> &CatalogConfig {
        &self.config
    }

    /// The ledger book (deployment-wide + per-analyst).
    pub fn book(&self) -> &LedgerBook {
        &self.book
    }

    /// Opens an analyst session with the given budget allotment.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerBookError::DuplicateAnalyst`] if a session is
    /// already open under that name and
    /// [`LedgerBookError::InvalidAllotment`] for a negative or
    /// non-finite allotment.
    pub fn open_analyst(
        &mut self,
        analyst: &str,
        allotment: PrivacyCost,
    ) -> Result<(), LedgerBookError> {
        self.book.open(analyst, allotment)
    }

    /// Charges `cost` to `analyst` and the deployment ledger,
    /// all-or-nothing; the book is bitwise unchanged on refusal.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerBookError`] if the analyst is unknown or either
    /// ledger cannot afford the charge.
    pub fn admit(&mut self, analyst: &str, cost: PrivacyCost) -> Result<(), LedgerBookError> {
        self.book.charge(analyst, cost)
    }

    /// Prepares a query through the plan cache.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Plan`] at the first failing pipeline
    /// stage.
    pub fn prepare(&mut self, source: &str) -> Result<Arc<CachedPlan>, ServiceError> {
        self.plans
            .prepare(
                source,
                &self.deployment.schema,
                self.config.certify,
                &self.config.planner,
            )
            .map_err(|e| ServiceError::Plan(e.to_string()))
    }

    /// `(hits, misses)` of the plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (self.plans.hits(), self.plans.misses())
    }

    /// The seed a given `(analyst, per-analyst sequence)` query draws
    /// its randomness from — a pure function of catalog seed, analyst
    /// identity, and the analyst's own stream position.
    pub fn query_seed(&self, analyst: &str, seq: u64) -> u64 {
        self.config.seed ^ analyst_tag(analyst) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Executes an admitted query against the cached setup: one
    /// ingestion epoch, all devices at once (`windows: None`, a batch
    /// query) or over `Some(w)` windows of derived arrivals and churn
    /// (`INGEST` session mode).
    ///
    /// `budget_before` is the analyst's remaining budget at admission,
    /// *before* the charge: the executor re-charges the query cost
    /// against it internally so the issued certificate carries the
    /// post-charge balance. The epoch is charged to the ledgers exactly
    /// once at admission — windows are ingestion steps, not queries.
    ///
    /// The churn schedule is derived from the same per-query seed as
    /// the executor's randomness, so a streamed query is as much a pure
    /// function of `(catalog seed, analyst, seq)` as a batch one: which
    /// devices arrive or churn in which window never depends on
    /// scheduling.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on protocol failures, including the typed
    /// `NoSurvivors` refusal when churn removes every upload.
    pub fn execute(
        &self,
        prepared: &CachedPlan,
        analyst: &str,
        seq: u64,
        budget_before: PrivacyCost,
        windows: Option<usize>,
        pool: Option<&Arc<ThreadPool>>,
    ) -> Result<StreamReport, ExecError> {
        let cfg = ExecutionConfig {
            seed: self.query_seed(analyst, seq),
            budget: budget_before,
            ..self.config.base.clone()
        };
        let n = self.deployment.db.len();
        let schedule = match windows {
            None => ArrivalSchedule::all_at_once(n),
            Some(w) => ArrivalSchedule::derive(cfg.seed, n, w.max(1)),
        };
        execute_stream(
            &prepared.plan,
            &prepared.logical,
            &self.deployment,
            &cfg,
            &schedule,
            Some(&self.setup),
            pool,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployment() -> Deployment {
        let assignments: Vec<usize> = (0..40).map(|i| i % 4).collect();
        Deployment::one_hot(&assignments, 4)
    }

    const SRC: &str = "aggr = sum(db);\nr = em(aggr, 1.0);\noutput(r);";

    #[test]
    fn catalog_queries_amortize_setup() {
        let mut catalog = SessionCatalog::new(deployment(), CatalogConfig::default()).unwrap();
        catalog
            .open_analyst("alice", PrivacyCost::pure(5.0))
            .unwrap();
        let prepared = catalog.prepare(SRC).unwrap();
        let before = catalog.book().analyst("alice").unwrap().remaining();
        catalog
            .admit("alice", prepared.logical.certificate.cost)
            .unwrap();
        let report = catalog
            .execute(&prepared, "alice", 0, before, None, None)
            .unwrap()
            .report;
        assert!(
            report.setup.is_zero(),
            "catalog executions must not re-pay sortition/keygen: {:?}",
            report.setup
        );
        // The setup itself did record the fixed cost, exactly once.
        assert!(!catalog.setup().counters.is_zero());
    }

    #[test]
    fn streamed_queries_amortize_setup_and_run_every_window() {
        let mut catalog = SessionCatalog::new(deployment(), CatalogConfig::default()).unwrap();
        catalog
            .open_analyst("alice", PrivacyCost::pure(5.0))
            .unwrap();
        let prepared = catalog.prepare(SRC).unwrap();
        let before = catalog.book().analyst("alice").unwrap().remaining();
        catalog
            .admit("alice", prepared.logical.certificate.cost)
            .unwrap();
        let stream = catalog
            .execute(&prepared, "alice", 0, before, Some(3), None)
            .unwrap();
        assert_eq!(stream.checkpoints.len(), 3);
        assert!(stream.detections.is_empty());
        assert!(
            stream.report.setup.is_zero(),
            "streamed windows must not re-pay sortition/keygen"
        );
        // The schedule is a pure function of the query seed: replaying
        // the same (analyst, seq) reproduces the epoch bitwise.
        let replay = catalog
            .execute(&prepared, "alice", 0, before, Some(3), None)
            .unwrap();
        assert_eq!(stream, replay);
    }

    #[test]
    fn plan_cache_hits_on_repeat() {
        let mut catalog = SessionCatalog::new(deployment(), CatalogConfig::default()).unwrap();
        let a = catalog.prepare(SRC).unwrap();
        let b = catalog.prepare(SRC).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(catalog.plan_cache_stats(), (1, 1));
    }

    #[test]
    fn query_seed_depends_on_analyst_and_seq_only() {
        let catalog = SessionCatalog::new(deployment(), CatalogConfig::default()).unwrap();
        assert_eq!(
            catalog.query_seed("alice", 3),
            catalog.query_seed("alice", 3)
        );
        assert_ne!(catalog.query_seed("alice", 3), catalog.query_seed("bob", 3));
        assert_ne!(
            catalog.query_seed("alice", 3),
            catalog.query_seed("alice", 4)
        );
    }
}
