//! Concrete plan execution (§5).
//!
//! Executes a physical plan end-to-end on a simulated deployment: real
//! sortition over a device registry, real BGV encryption and homomorphic
//! aggregation, real one-hot ZKPs, a real VSR key handoff between the
//! key-generation and decryption committees, and real MPC vignettes
//! (share-based noising and argmax) with full communication metering.
//! The deployment is laptop-scale (hundreds of devices); the paper-scale
//! costs come from the planner's cost model, exactly mirroring the
//! paper's benchmark-then-extrapolate methodology (§7.1).
//!
//! This module holds the deployment, configuration, certificate and
//! report types plus [`execute`]. The protocol itself lives in
//! [`crate::stream`]: a one-shot execution is an ingestion epoch with a
//! single window holding every device.

use arboretum_crypto::schnorr::{verify as schnorr_verify, Signature};
use arboretum_crypto::sha256::{sha256, Digest};
use arboretum_dp::budget::PrivacyCost;
use arboretum_lang::ast::DbSchema;
use arboretum_mpc::network::NetMetrics;
use arboretum_net::FabricKind;
use arboretum_par::{ParConfig, ThreadPool};
use arboretum_planner::logical::LogicalPlan;
use arboretum_planner::plan::Plan;
use arboretum_sortition::select::Registry;
use std::ops::Index;
use std::sync::Arc;

use crate::adversary::{Adversary, Detection};
use crate::setup::{SessionSetup, SetupCounters};
use crate::stream::{execute_stream, ArrivalSchedule};

/// The deployment's private rows: one row-major table of `len` rows of
/// `width` cells each, shared through an `Arc` like [`Registry`]'s
/// devices. A clone is O(1) and row `i` is read in place, so the upload
/// pass reads each device's row where it lies instead of copying it per
/// window.
#[derive(Clone, Debug, PartialEq)]
pub struct Rows {
    len: usize,
    width: usize,
    cells: Arc<[i64]>,
}

impl Rows {
    /// Packs explicit rows into one table.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged.
    pub(crate) fn from_rows(rows: Vec<Vec<i64>>) -> Self {
        let width = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|r| r.len() == width), "ragged rows");
        Self {
            len: rows.len(),
            width,
            cells: rows.concat().into(),
        }
    }

    /// Number of rows (one per device).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Index<usize> for Rows {
    type Output = [i64];

    fn index(&self, i: usize) -> &[i64] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }
}

/// A simulated deployment: registered devices plus their private rows.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// The sortition registry.
    pub registry: Registry,
    /// Private rows, one per device, in one shared table.
    pub db: Rows,
    /// The declared schema.
    pub schema: DbSchema,
    /// The current random beacon.
    pub beacon: Digest,
}

impl Deployment {
    /// Builds a deployment from explicit numeric rows under a declared
    /// schema (clipped range per field).
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(db: Vec<Vec<i64>>, schema: DbSchema) -> Self {
        assert!(!db.is_empty(), "deployment needs at least one device");
        Self::new(Rows::from_rows(db), schema)
    }

    /// The deployment of `db`'s rows, device `i` holding row `i`.
    fn new(db: Rows, schema: DbSchema) -> Self {
        let registry = Registry::new(
            (0..db.len() as u64)
                .map(arboretum_sortition::select::Device::from_id)
                .collect(),
        );
        Self {
            registry,
            db,
            schema,
            beacon: sha256(b"genesis-beacon"),
        }
    }

    /// Builds a deployment where device `i` belongs to category
    /// `assignments[i]` out of `categories`.
    ///
    /// # Panics
    ///
    /// Panics if any assignment is out of range.
    pub fn one_hot(assignments: &[usize], categories: usize) -> Self {
        for &c in assignments {
            assert!(c < categories, "category {c} out of range");
        }
        // A ranged map collects straight into the shared allocation.
        let db = Rows {
            len: assignments.len(),
            width: categories,
            cells: (0..assignments.len() * categories)
                .map(|j| i64::from(assignments[j / categories] == j % categories))
                .collect(),
        };
        Self::new(db, DbSchema::one_hot(assignments.len() as u64, categories))
    }
}

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct ExecutionConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Concrete committee size for the simulated MPCs (the *plan's*
    /// committee size is used for cost accounting; this one keeps the
    /// simulation fast).
    pub committee_size: usize,
    /// Fraction of participants submitting malformed inputs.
    pub malicious_fraction: f64,
    /// Remaining privacy budget before this query.
    pub budget: PrivacyCost,
    /// Step-audit miss probability target.
    pub p_max: f64,
    /// Thread configuration for the aggregator's parallel phases
    /// (batch proof verification and ciphertext aggregation). Outputs,
    /// metrics, and the aggregate ciphertext are identical at every
    /// thread count: all randomness is drawn in serial phases, and the
    /// ⊞-reduction uses a fixed combine tree.
    pub par: ParConfig,
    /// Selects nothing: every engine runs on the evented fabric (deleted by ROADMAP 1b).
    pub fabric: Option<FabricKind>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            committee_size: 5,
            malicious_fraction: 0.0,
            budget: PrivacyCost {
                epsilon: 10.0,
                delta: 1e-6,
            },
            p_max: 1e-9,
            par: ParConfig::auto(),
            fabric: None,
        }
    }
}

/// The query authorization certificate (§5.2).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryCert {
    /// Digest of the published public key.
    pub pk_digest: Digest,
    /// The registry Merkle root `M_i`.
    pub registry_root: Digest,
    /// Remaining budget after this query.
    pub budget_after: PrivacyCost,
    /// The next beacon block `B_{i+1}`.
    pub next_beacon: Digest,
    /// Committee members' signatures over the certificate body.
    pub signatures: Vec<(usize, Signature)>,
}

impl QueryCert {
    /// Canonical signed bytes.
    pub fn body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&self.pk_digest);
        b.extend_from_slice(&self.registry_root);
        b.extend_from_slice(&self.budget_after.epsilon.to_be_bytes());
        b.extend_from_slice(&self.budget_after.delta.to_be_bytes());
        b.extend_from_slice(&self.next_beacon);
        b
    }

    /// Verifies every member signature against the registry.
    pub fn verify(&self, registry: &Registry) -> bool {
        !self.signatures.is_empty() && self.verify_detailed(registry).is_empty()
    }

    /// Verifies every member signature, returning the positions (within
    /// [`Self::signatures`]) whose signatures do not check out.
    pub fn verify_detailed(&self, registry: &Registry) -> Vec<usize> {
        let body = self.body();
        self.signatures
            .iter()
            .enumerate()
            .filter(|(_, (idx, sig))| !schnorr_verify(&registry.device(*idx).pk, &body, sig))
            .map(|(pos, _)| pos)
            .collect()
    }
}

/// Execution errors — every edge the test batteries drive (empty
/// windows, all-drop epochs, out-of-order driving, adversarial
/// checkpointing) resolves to a typed variant, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Privacy budget exhausted.
    BudgetExhausted,
    /// The plan contains an operation the executor cannot run.
    Unsupported(String),
    /// An MPC operation failed.
    Mpc(String),
    /// Key transfer between committees failed.
    KeyTransfer(String),
    /// The epoch closed with no surviving upload to decrypt.
    NoSurvivors,
    /// The epoch was driven out of order (a window ingested twice, or
    /// closed before every window was ingested).
    WindowOutOfOrder {
        /// The window the executor expected next.
        expected: usize,
        /// The window the caller asked for.
        got: usize,
    },
    /// Every window of the epoch was already ingested.
    EpochClosed,
    /// A checkpoint could not be serialized or restored.
    Checkpoint(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BudgetExhausted => write!(f, "privacy budget exhausted"),
            Self::Unsupported(s) => write!(f, "unsupported operation: {s}"),
            Self::Mpc(s) => write!(f, "MPC failure: {s}"),
            Self::KeyTransfer(s) => write!(f, "VSR key transfer failed: {s}"),
            Self::NoSurvivors => write!(f, "epoch closed with no surviving uploads"),
            Self::WindowOutOfOrder { expected, got } => write!(
                f,
                "epoch driven out of order: expected window {expected}, got {got}"
            ),
            Self::EpochClosed => write!(f, "epoch already closed"),
            Self::Checkpoint(s) => write!(f, "checkpoint error: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The result of one end-to-end execution: a pure function of the
/// plan, deployment, and configuration (no field carries a clock), so
/// two runs the determinism contract calls identical compare with `==`.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionReport {
    /// Released outputs (category indices or noised counts, per the
    /// query's mechanism).
    pub outputs: Vec<i64>,
    /// The signed query certificate.
    pub certificate: QueryCert,
    /// Inputs rejected for bad ZKPs.
    pub rejected_inputs: usize,
    /// Accepted inputs.
    pub accepted_inputs: usize,
    /// Aggregate MPC communication metrics across committee vignettes.
    pub mpc_metrics: NetMetrics,
    /// Whether the aggregator's step log passed the participants' audits.
    pub audit_ok: bool,
    /// Remaining budget after the query.
    pub budget_after: PrivacyCost,
    /// Proof verifications performed (one per upload).
    pub verify_ops: u64,
    /// Homomorphic additions performed (`accepted − 1` across all tree
    /// levels).
    pub aggregate_ops: u64,
    /// Fixed-cost setup work this execution performed itself. All-zero
    /// when the execution ran against a cached [`SessionSetup`] (the
    /// session-catalog path): sortition and keygen were amortized.
    pub setup: SetupCounters,
}

/// Executes a plan on a deployment: one ingestion epoch
/// ([`crate::stream::StreamExecutor`]) whose single window holds every
/// device. Returns the report plus every typed [`Detection`] raised.
///
/// The three optional arguments are what varies between callers:
///
/// * `setup` — a cached [`SessionSetup`] (the session-catalog path):
///   sortition, BGV keygen, and the keygen-MPC metering are taken from
///   it instead of being rebuilt, the report's [`SetupCounters`] are
///   zero, and the keygen cost is *not* merged into the query's MPC
///   metrics (it was paid once when the setup was built). `None` builds
///   the setup inline from `cfg.seed` and charges it to this query.
/// * `pool` — a leased [`ThreadPool`]; `None` takes the process-cached
///   pool for `cfg.par`. Results never depend on which pool ran the
///   phases.
/// * `adversary` — injects Byzantine behaviors at every
///   attacker-controllable point. The honest path is byte-identical
///   with and without one; it is only consulted where a real deployment
///   would receive attacker-controlled bytes.
///
/// Per-query randomness is derived from `cfg.seed`, so results depend
/// only on `(plan, logical, deployment, cfg, setup)` — never on which
/// other queries share the setup or on the pool that executed it.
///
/// # Errors
///
/// Returns [`ExecError::Unsupported`] if `setup` was built for a
/// different committee size than `cfg.committee_size`,
/// [`ExecError::NoSurvivors`] if no upload was accepted, and otherwise
/// [`ExecError`] on budget exhaustion or protocol failures (e.g. when
/// the adversary corrupts more committee members than the threshold
/// tolerates).
pub fn execute(
    plan: &Plan,
    logical: &LogicalPlan,
    deployment: &Deployment,
    cfg: &ExecutionConfig,
    setup: Option<&SessionSetup>,
    pool: Option<&Arc<ThreadPool>>,
    adversary: Option<&dyn Adversary>,
) -> Result<(ExecutionReport, Vec<Detection>), ExecError> {
    let all = ArrivalSchedule::all_at_once(deployment.db.len());
    let epoch = execute_stream(plan, logical, deployment, cfg, &all, setup, pool, adversary)?;
    Ok((epoch.report, epoch.detections))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_and_clones_share_the_table() {
        let rows = vec![vec![3, -1, 0], vec![0, 7, 2]];
        let table = Rows::from_rows(rows.clone());
        assert_eq!((table.len(), table.width()), (2, 3));
        let back: Vec<Vec<i64>> = (0..table.len()).map(|i| table[i].to_vec()).collect();
        assert_eq!(back, rows);
        let clone = table.clone();
        assert!(Arc::ptr_eq(&clone.cells, &table.cells));
        assert_eq!(clone, table);
        // One-hot rows are written straight into the same layout.
        assert_eq!(
            Deployment::one_hot(&[2, 0, 1], 3).db,
            Rows::from_rows(vec![vec![0, 0, 1], vec![1, 0, 0], vec![0, 1, 0]])
        );
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panic() {
        Rows::from_rows(vec![vec![1, 2], vec![3]]);
    }
}
