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
use arboretum_par::{ParConfig, ShardedPool};
use arboretum_planner::logical::LogicalPlan;
use arboretum_planner::plan::Plan;
use arboretum_sortition::select::Registry;

use crate::adversary::{Adversary, Detection};
use crate::setup::{SessionSetup, SetupCounters};
use crate::stream::{execute_stream, ArrivalSchedule};

/// A simulated deployment: registered devices plus their private rows.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// The sortition registry.
    pub registry: Registry,
    /// Private one-hot rows, one per device.
    pub db: Vec<Vec<i64>>,
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
        let width = db[0].len();
        assert!(db.iter().all(|r| r.len() == width), "ragged rows");
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
        let db: Vec<Vec<i64>> = assignments
            .iter()
            .map(|&c| {
                assert!(c < categories, "category {c} out of range");
                let mut row = vec![0i64; categories];
                row[c] = 1;
                row
            })
            .collect();
        let registry = Registry::new(
            (0..assignments.len() as u64)
                .map(arboretum_sortition::select::Device::from_id)
                .collect(),
        );
        Self {
            registry,
            db,
            schema: DbSchema::one_hot(assignments.len() as u64, categories),
            beacon: sha256(b"genesis-beacon"),
        }
    }
}

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct ExecutionConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Network latency model for the elapsed-time estimate (§7.5).
    pub latency: arboretum_mpc::network::LatencyModel,
    /// Per-party compute model for the elapsed-time estimate (§7.5).
    pub compute: Option<arboretum_mpc::network::ComputeModel>,
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
    /// Network fabric for the simulated MPC engines. `None` falls back
    /// to the process-wide default ([`arboretum_net::global_fabric`])
    /// and then [`FabricKind::Sim`]. Every fabric produces bitwise
    /// identical outputs, metrics, and detections — this knob trades
    /// transport mechanics (in-process queues vs. the virtual-time
    /// evented core), not semantics.
    pub fabric: Option<FabricKind>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            latency: arboretum_mpc::network::LatencyModel::lan(),
            compute: None,
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
            .filter(|(_, (idx, sig))| {
                !schnorr_verify(&registry.device(*idx).keypair.pk, &body, sig)
            })
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
    /// Estimated wall-clock seconds for the committee MPCs under the
    /// configured latency/compute models (§7.5).
    pub mpc_elapsed_estimate_secs: f64,
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
/// * `pool` — a leased [`ShardedPool`]; `None` builds one from
///   `cfg.par`. Results never depend on which pool ran the phases.
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
    pool: Option<&ShardedPool>,
    adversary: Option<&dyn Adversary>,
) -> Result<(ExecutionReport, Vec<Detection>), ExecError> {
    let all = ArrivalSchedule::all_at_once(deployment.db.len());
    let epoch = execute_stream(plan, logical, deployment, cfg, &all, setup, pool, adversary)?;
    Ok((epoch.report, epoch.detections))
}
