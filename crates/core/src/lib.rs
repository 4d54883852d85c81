//! # Arboretum
//!
//! A planner and runtime for large-scale federated analytics with
//! differential privacy, reproducing Margolin et al., SOSP 2023.
//!
//! Analysts write queries in a small imperative language as if the data
//! were in one place; Arboretum certifies differential privacy, explores
//! the space of distributed execution plans (operator instantiations ×
//! vignette placement × cryptosystem choice), scores candidates with a
//! calibrated cost model, and executes the winner across an untrusted
//! aggregator and sortition-selected committees of participant devices
//! using BGV homomorphic encryption, honest-majority MPC, zero-knowledge
//! input proofs, and verifiable secret redistribution.
//!
//! ## Quick start
//!
//! ```
//! use arboretum::{Arboretum, DbSchema};
//!
//! // "Which hair color is most common?" — four categories, written as
//! // if `db` were a local array.
//! let source = "aggr = sum(db);\nresult = em(aggr, 8.0);\noutput(result);";
//! let schema = DbSchema::one_hot(1 << 20, 4);
//!
//! let system = Arboretum::new(1 << 20);
//! let prepared = system.prepare(source, schema, Default::default()).unwrap();
//! assert!(prepared.certificate().cost.epsilon <= 8.0);
//! assert!(prepared.plan.total_committees >= 1);
//! ```
//!
//! The subsystem crates are re-exported under their topic names:
//! [`lang`], [`planner`], [`runtime`], [`service`], [`bgv`], [`mpc`],
//! [`net`], [`zkp`], [`sortition`], [`vsr`], [`dp`], [`crypto`],
//! [`field`], and the evaluation [`queries`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use arboretum_bgv as bgv;
pub use arboretum_crypto as crypto;
pub use arboretum_dp as dp;
pub use arboretum_field as field;
pub use arboretum_lang as lang;
pub use arboretum_mpc as mpc;
pub use arboretum_net as net;
pub use arboretum_par as par;
pub use arboretum_planner as planner;
pub use arboretum_queries as queries;
pub use arboretum_runtime as runtime;
pub use arboretum_service as service;
pub use arboretum_sortition as sortition;
pub use arboretum_vsr as vsr;
pub use arboretum_zkp as zkp;

pub use arboretum_lang::ast::DbSchema;
pub use arboretum_lang::privacy::{Certificate, CertifyConfig};
pub use arboretum_planner::cost::{Goal, Limits, Metrics};
pub use arboretum_planner::search::{PlanStats, PlannerConfig};
pub use arboretum_runtime::executor::{Deployment, ExecutionConfig, ExecutionReport};

use arboretum_lang::parser::parse;
use arboretum_planner::logical::{extract, LogicalPlan};
use arboretum_planner::plan::Plan;
use arboretum_planner::search::plan as search_plan;
use arboretum_runtime::setup::build_session_setup;
use arboretum_runtime::stream::{execute_stream, ArrivalSchedule, StreamReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Errors surfaced by the high-level API.
#[derive(Debug)]
pub enum ArboretumError {
    /// The query source failed to parse.
    Parse(arboretum_lang::parser::ParseError),
    /// Certification or extraction failed.
    Extract(arboretum_planner::logical::ExtractError),
    /// No plan satisfies the limits.
    Plan(arboretum_planner::search::PlanError),
    /// Execution failed.
    Execute(arboretum_runtime::executor::ExecError),
}

impl std::fmt::Display for ArboretumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "{e}"),
            Self::Extract(e) => write!(f, "{e}"),
            Self::Plan(e) => write!(f, "{e}"),
            Self::Execute(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArboretumError {}

/// A certified, planned query ready for execution.
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    /// The certified logical plan.
    pub logical: LogicalPlan,
    /// The chosen physical plan.
    pub plan: Plan,
    /// Planner search statistics.
    pub stats: PlanStats,
}

impl PreparedQuery {
    /// The privacy certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.logical.certificate
    }
}

/// The high-level entry point: a planner configured for a deployment
/// size.
#[derive(Clone, Debug)]
pub struct Arboretum {
    /// The planner configuration (analyst limits, goal, cost model).
    pub config: PlannerConfig,
}

impl Arboretum {
    /// Creates a system for `n` participants with the paper's default
    /// limits and goal.
    pub fn new(n: u64) -> Self {
        Self {
            config: PlannerConfig::paper_defaults(n),
        }
    }

    /// Parses, certifies, and plans a query.
    ///
    /// # Errors
    ///
    /// Returns [`ArboretumError`] at the first failing stage.
    pub fn prepare(
        &self,
        source: &str,
        schema: DbSchema,
        certify: CertifyConfig,
    ) -> Result<PreparedQuery, ArboretumError> {
        let program = parse(source).map_err(ArboretumError::Parse)?;
        let logical = extract(&program, &schema, certify).map_err(ArboretumError::Extract)?;
        let (plan, stats) = search_plan(&logical, &self.config).map_err(ArboretumError::Plan)?;
        Ok(PreparedQuery {
            logical,
            plan,
            stats,
        })
    }

    /// Executes a prepared query on a concrete (simulated) deployment:
    /// one ingestion epoch whose single window holds every device, with
    /// the session setup (sortition, keygen) built inline and charged
    /// to the report.
    ///
    /// # Errors
    ///
    /// Returns [`ArboretumError::Execute`] on protocol failures.
    pub fn run(
        &self,
        prepared: &PreparedQuery,
        deployment: &Deployment,
        cfg: &ExecutionConfig,
    ) -> Result<ExecutionReport, ArboretumError> {
        self.run_epoch(prepared, deployment, cfg, None)
            .map(|epoch| epoch.report)
    }

    /// Executes a prepared query as a windowed ingestion stream:
    /// devices arrive over `windows` seed-derived churn windows, each
    /// window's uploads fold into a checkpointed accumulator, and the
    /// epoch decrypts once at close. It is the same epoch [`Self::run`]
    /// drives, over more windows and on a standing setup (so the report
    /// shows zero setup counters): outputs, budget, and audit verdict
    /// are bitwise identical to [`Self::run`] over the same surviving
    /// device set.
    ///
    /// # Errors
    ///
    /// Returns [`ArboretumError::Execute`] if the session setup or the
    /// epoch fails.
    pub fn run_stream(
        &self,
        prepared: &PreparedQuery,
        deployment: &Deployment,
        cfg: &ExecutionConfig,
        windows: usize,
    ) -> Result<StreamReport, ArboretumError> {
        self.run_epoch(prepared, deployment, cfg, Some(windows))
    }

    /// The epoch behind [`Self::run`] (`windows: None`) and
    /// [`Self::run_stream`] (`Some(w)`), returned whole: the report,
    /// one checkpoint per window, and every typed detection.
    ///
    /// # Errors
    ///
    /// Returns [`ArboretumError::Execute`] if the session setup or the
    /// epoch fails.
    pub fn run_epoch(
        &self,
        prepared: &PreparedQuery,
        deployment: &Deployment,
        cfg: &ExecutionConfig,
        windows: Option<usize>,
    ) -> Result<StreamReport, ArboretumError> {
        let n = deployment.db.len();
        let (schedule, setup) = match windows {
            None => (ArrivalSchedule::all_at_once(n), None),
            Some(w) => {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let setup = build_session_setup(deployment, cfg.committee_size, cfg.seed, &mut rng)
                    .map_err(ArboretumError::Execute)?;
                (ArrivalSchedule::derive(cfg.seed, n, w.max(1)), Some(setup))
            }
        };
        execute_stream(
            &prepared.plan,
            &prepared.logical,
            deployment,
            cfg,
            &schedule,
            setup.as_ref(),
            None,
            None,
        )
        .map_err(ArboretumError::Execute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_prepare_and_run() {
        let system = Arboretum::new(1 << 20);
        let schema = DbSchema::one_hot(1 << 20, 3);
        let prepared = system
            .prepare(
                "aggr = sum(db); r = em(aggr, 8.0); output(r);",
                schema,
                CertifyConfig::default(),
            )
            .unwrap();
        let deployment = Deployment::one_hot(&[0, 1, 1, 1, 1, 1, 1, 1, 2, 2].repeat(5), 3);
        let report = system
            .run(&prepared, &deployment, &ExecutionConfig::default())
            .unwrap();
        assert_eq!(report.outputs, vec![1]);
    }

    #[test]
    fn run_stream_checkpoints_each_window_on_a_standing_setup() {
        // The setup is built once, before the epoch, so the report
        // charges none of it; a second run replays bit for bit.
        let system = Arboretum::new(1 << 20);
        let schema = DbSchema::one_hot(1 << 20, 3);
        let prepared = system
            .prepare(
                "aggr = sum(db); r = em(aggr, 8.0); output(r);",
                schema,
                CertifyConfig::default(),
            )
            .unwrap();
        let deployment = Deployment::one_hot(&[0, 1, 1, 1, 1, 1, 1, 1, 2, 2].repeat(5), 3);
        let run = || {
            system
                .run_stream(&prepared, &deployment, &ExecutionConfig::default(), 3)
                .unwrap()
        };
        let epoch = run();
        assert_eq!(epoch.checkpoints.len(), 3);
        assert!(epoch.report.setup.is_zero());
        assert_eq!(run(), epoch);
    }

    #[test]
    fn facade_surfaces_stage_errors() {
        let system = Arboretum::new(1 << 20);
        let schema = DbSchema::one_hot(1 << 20, 3);
        assert!(matches!(
            system.prepare("x = (", schema, CertifyConfig::default()),
            Err(ArboretumError::Parse(_))
        ));
        assert!(matches!(
            system.prepare("output(db[0][0]);", schema, CertifyConfig::default()),
            Err(ArboretumError::Extract(_))
        ));
    }
}
