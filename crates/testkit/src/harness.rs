//! End-to-end attack runs with detection cross-checks.
//!
//! [`run_attack`] executes the full pipeline twice — once under a
//! seed-derived [`AdversarySchedule`], once as an honest reference over
//! only the honest devices — plus the networked MPC phase under the
//! schedule's fault plans, and cross-checks everything the security
//! argument promises: complete typed detection with correct
//! attribution, zero false positives, and a surviving-set answer,
//! budget ledger, and audit verdict bitwise identical to the honest
//! run. Discrepancies land in [`AttackOutcome::problems`] rather than
//! panicking, so test drivers and the `arboretum attack` CLI can both
//! report them with full context.

use std::path::PathBuf;
use std::time::Duration;

use arboretum_dp::budget::PrivacyCost;
use arboretum_field::FGold;
use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_mpc::MpcOps;
use arboretum_net::FabricKind;
use arboretum_par::ParConfig;
use arboretum_planner::logical::{extract, LogicalPlan};
use arboretum_planner::plan::Plan;
use arboretum_planner::search::{plan as plan_physical, PlannerConfig};
use arboretum_runtime::{
    execute, run_with_failover, AggregatorBehavior, CommitteeBehavior, Deployment, Detection,
    DetectionClass, DetectionKind, ExecutionConfig, ExecutionReport, NetExecConfig, NetExecReport,
    NetParty, Subject,
};
use arboretum_service::{CatalogConfig, SessionCatalog};
use arboretum_sortition::select::select_committees;

use crate::adaptive::{AdaptiveSchedule, RealizedSchedule};
use crate::schedule::{AdversarySchedule, COMMITTEE_SEATS};

/// Numeric-schema bounds used by the harness: ages 0..=9 per field, two
/// fields per row, the last pinned to `hi` so the legacy out-of-range
/// shift is guaranteed to leave the provable range.
const NUMERIC_LO: i64 = 0;
const NUMERIC_HI: i64 = 9;

/// Configuration of one attack run.
#[derive(Clone, Debug)]
pub struct AttackConfig {
    /// Seed deriving the schedule and the execution randomness.
    pub seed: u64,
    /// Uploading devices (must leave ≥ 25 honest for sortition).
    pub n_devices: usize,
    /// One-hot categories (ignored for numeric runs).
    pub categories: usize,
    /// Committees available to the networked MPC phase.
    pub n_committees: usize,
    /// Run the numeric (per-field range proof) pipeline instead of the
    /// one-hot pipeline.
    pub numeric: bool,
    /// Whether to run the networked MPC failover phase.
    pub net_phase: bool,
    /// Thread configuration for the aggregator's parallel phases.
    pub par: ParConfig,
    /// Network fabric for the MPC engines; `None` uses the process-wide
    /// default and then each consumer's own fallback. (The networked
    /// failover phase always runs per-thread parties on evented
    /// endpoints.) Detections and metrics are bitwise identical on
    /// either fabric.
    pub fabric: Option<FabricKind>,
    /// Enable the malicious-aggregator axis: the schedule assigns the
    /// seed-derived [`AggregatorBehavior`] and the cross-checks demand
    /// exactly one aggregator detection with the exact predicted
    /// [`DetectionKind`] (step attribution included).
    pub aggregator: bool,
    /// Drive the run with an [`AdaptiveSchedule`] instead of the static
    /// schedule: every corruption decision becomes a pure function of
    /// `(seed, observed-transcript-prefix)`, and the cross-checks run
    /// against the realized decisions.
    pub adaptive: bool,
}

impl AttackConfig {
    /// The standard sweep configuration for a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            n_devices: 48,
            categories: 4,
            n_committees: 3,
            numeric: false,
            net_phase: true,
            par: ParConfig::serial(),
            fabric: None,
            aggregator: false,
            adaptive: false,
        }
    }
}

/// An [`ExecutionReport`] plus the typed detections an adversarial run
/// produced.
#[derive(Clone, Debug, PartialEq)]
pub struct AdversarialReport {
    /// The ordinary execution report over the surviving inputs.
    pub report: ExecutionReport,
    /// Every rejection, attributed to its subject.
    pub detections: Vec<Detection>,
}

/// Everything one attack run produced, plus every cross-check failure.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// The schedule that drove the run.
    pub schedule: AdversarySchedule,
    /// The adversarial execution and its typed detections.
    pub adversarial: AdversarialReport,
    /// The honest reference execution over only the honest devices.
    pub reference: ExecutionReport,
    /// The networked MPC phase under the schedule's fault plans.
    pub net: Option<NetExecReport>,
    /// The fault-free networked MPC reference.
    pub net_reference: Option<NetExecReport>,
    /// The `(subject, class)` detections the schedule predicted — what
    /// the cross-check compared against.
    pub expected: Vec<(Subject, DetectionClass)>,
    /// The exact aggregator detection kind predicted (step attribution
    /// included), when the aggregator axis is active.
    pub expected_aggregator: Option<DetectionKind>,
    /// The realized decision log, when the run was adaptive.
    pub adaptive: Option<RealizedSchedule>,
    /// Every cross-check that failed, human-readable. Empty = pass.
    pub problems: Vec<String>,
}

impl AttackOutcome {
    /// Whether every cross-check passed.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// Transcript for CLI output and failure artifacts.
    pub fn summary(&self) -> String {
        let mut out = self.schedule.describe();
        if let Some(realized) = &self.adaptive {
            out.push_str(&format!(
                "adaptive: {} decision(s) conditioned on observed traffic\n",
                realized.decisions.len()
            ));
        }
        out.push_str(&format!(
            "detections: {} (accepted {}, rejected {})\n",
            self.adversarial.detections.len(),
            self.adversarial.report.accepted_inputs,
            self.adversarial.report.rejected_inputs
        ));
        for d in &self.adversarial.detections {
            out.push_str(&format!("  {:?}: {:?}\n", d.subject, d.kind));
        }
        out.push_str(&format!("expected: {} detection(s)\n", self.expected.len()));
        for (s, c) in &self.expected {
            out.push_str(&format!("  {s:?}: {c:?}\n"));
        }
        if let Some(kind) = &self.expected_aggregator {
            out.push_str(&format!("expected aggregator kind: {kind:?}\n"));
        }
        if let Some(net) = &self.net {
            out.push_str(&format!(
                "net: completed on committee {} after {} failover(s)\n",
                net.committee,
                net.failures.len()
            ));
        }
        if self.ok() {
            out.push_str("verdict: PASS\n");
        } else {
            out.push_str("verdict: FAIL\n");
            for p in &self.problems {
                out.push_str(&format!("  problem: {p}\n"));
            }
        }
        out
    }
}

/// Builds the deployment plus certified and planned query for a config.
pub(crate) fn build_query(cfg: &AttackConfig) -> Result<(Deployment, LogicalPlan, Plan), String> {
    let (deployment, src, certify) = if cfg.numeric {
        let rows: Vec<Vec<i64>> = (0..cfg.n_devices)
            .map(|i| vec![(i % 7) as i64, NUMERIC_HI])
            .collect();
        let schema = DbSchema::numeric(cfg.n_devices as u64, 2, NUMERIC_LO, NUMERIC_HI);
        (
            Deployment::from_rows(rows, schema),
            "sketch = sum(db);\nnoised = laplace(sketch, 2, 8.0);\noutput(noised);",
            CertifyConfig {
                trust_declared_sensitivity: true,
                ..CertifyConfig::default()
            },
        )
    } else {
        let assignments: Vec<usize> = (0..cfg.n_devices).map(|i| i % cfg.categories).collect();
        (
            Deployment::one_hot(&assignments, cfg.categories),
            "aggr = sum(db); r = em(aggr, 8.0); output(r);",
            CertifyConfig::default(),
        )
    };
    let program = parse(src).map_err(|e| format!("parse: {e:?}"))?;
    let lp =
        extract(&program, &deployment.schema, certify).map_err(|e| format!("extract: {e:?}"))?;
    let (plan, _) = plan_physical(&lp, &PlannerConfig::paper_defaults(1 << 30))
        .map_err(|e| format!("plan: {e:?}"))?;
    Ok((deployment, lp, plan))
}

/// The detections the schedule predicts, as `(subject, class)` pairs.
///
/// Committee predictions need the actual key-generation roster, since
/// attribution names the member's registry index.
fn expected_detections(
    schedule: &AdversarySchedule,
    deployment: &Deployment,
    m: usize,
) -> Vec<(Subject, DetectionClass)> {
    let one_hot = deployment.schema.one_hot;
    let mut expected: Vec<(Subject, DetectionClass)> = schedule
        .device_behaviors
        .iter()
        .enumerate()
        .filter_map(|(i, b)| Some((Subject::Device(i), b.expected_class(one_hot)?)))
        .collect();
    let roster =
        &select_committees(&deployment.registry, &deployment.beacon, 1, 5, m).committees[0];
    for (j, b) in schedule.committee_behaviors[0].iter().enumerate().take(m) {
        if let Some(class) = b.expected_class() {
            expected.push((
                Subject::CommitteeMember {
                    committee: 0,
                    member: j,
                    device: roster[j],
                },
                class,
            ));
        }
    }
    expected
}

/// Builds the session catalog [`run_attack_on_catalog`] expects: one
/// over exactly the deployment `cfg` describes, with the catalog seed
/// pinned to the attack seed so the cached setup matches what a fresh
/// execution at that seed would have built.
///
/// # Errors
///
/// Returns `Err` when the query pipeline or the catalog's eager setup
/// build fails.
pub fn build_attack_catalog(cfg: &AttackConfig) -> Result<SessionCatalog, String> {
    let (deployment, _, _) = build_query(cfg)?;
    let catalog_cfg = CatalogConfig {
        seed: cfg.seed,
        ..CatalogConfig::default()
    };
    SessionCatalog::new(deployment, catalog_cfg).map_err(|e| format!("catalog setup: {e}"))
}

/// Runs one full attack and cross-checks the outcome.
///
/// # Errors
///
/// Returns `Err` when a pipeline stage fails outright (planning, an
/// execution error, or an exhausted networked-MPC failover chain) —
/// failed *cross-checks* are reported in [`AttackOutcome::problems`]
/// instead.
pub fn run_attack(cfg: &AttackConfig) -> Result<AttackOutcome, String> {
    run_attack_impl(cfg, None)
}

/// Runs the attack through a pre-built [`SessionCatalog`] — the
/// service path — instead of the one-shot executor: the adversarial
/// run and the honest reference both execute against cached setups, so
/// the cross-checks additionally require every report to show zero
/// setup op counts. The catalog must have been built by
/// [`build_attack_catalog`] (or over an identical deployment with
/// `catalog seed == cfg.seed`).
///
/// # Errors
///
/// Returns `Err` when a pipeline stage fails outright or the catalog's
/// deployment does not match the attack config.
pub fn run_attack_on_catalog(
    cfg: &AttackConfig,
    catalog: &SessionCatalog,
) -> Result<AttackOutcome, String> {
    run_attack_impl(cfg, Some(catalog))
}

fn run_attack_impl(
    cfg: &AttackConfig,
    catalog: Option<&SessionCatalog>,
) -> Result<AttackOutcome, String> {
    let (deployment, lp, plan) = build_query(cfg)?;
    if let Some(c) = catalog {
        if c.deployment().db != deployment.db {
            return Err("session catalog deployment does not match the attack config".into());
        }
    }
    let exec_cfg = ExecutionConfig {
        seed: cfg.seed,
        budget: PrivacyCost {
            epsilon: 100.0,
            delta: 1e-6,
        },
        par: cfg.par,
        fabric: cfg.fabric,
        ..ExecutionConfig::default()
    };
    let mut problems = Vec::new();

    // The adversary driving the run: a static seed-derived schedule, or
    // an adaptive one whose decisions condition on observed traffic.
    let adaptive_adversary = cfg
        .adaptive
        .then(|| AdaptiveSchedule::new(cfg.seed, cfg.n_devices, cfg.aggregator));
    let static_schedule = (!cfg.adaptive).then(|| {
        let s = AdversarySchedule::new(cfg.seed, cfg.n_devices, cfg.n_committees);
        if cfg.aggregator {
            s.with_malicious_aggregator()
        } else {
            s
        }
    });
    let adversary: &dyn arboretum_runtime::Adversary = match (&adaptive_adversary, &static_schedule)
    {
        (Some(a), _) => a,
        (_, Some(s)) => s,
        _ => unreachable!("exactly one adversary is built"),
    };

    // The service path is the same entry point over the catalog's cached
    // setup instead of one built inline.
    let (report, detections) = execute(
        &plan,
        &lp,
        &deployment,
        &exec_cfg,
        catalog.map(SessionCatalog::setup),
        None,
        Some(adversary),
    )
    .map_err(|e| format!("adversarial run: {e}"))?;
    let adversarial = AdversarialReport { report, detections };

    // The schedule view the cross-checks run against: the static
    // schedule verbatim, or the adaptive adversary's realized
    // decisions reassembled into the same shape.
    let (schedule, realized) = match &adaptive_adversary {
        Some(a) => {
            // Network faults are decided here — after the main
            // pipeline, conditioned on its whole transcript.
            let net_faults = a.net_faults(cfg.n_committees);
            let realized = a.realized();
            let device_behaviors = (0..cfg.n_devices)
                .map(|i| {
                    realized
                        .device_behaviors
                        .get(&i)
                        .copied()
                        .unwrap_or(arboretum_runtime::DeviceBehavior::Honest)
                })
                .collect();
            let committee_behaviors = (0..cfg.n_committees)
                .map(|c| {
                    (0..COMMITTEE_SEATS)
                        .map(|m| {
                            realized
                                .committee_behaviors
                                .get(&(c, m))
                                .copied()
                                .unwrap_or(CommitteeBehavior::Honest)
                        })
                        .collect()
                })
                .collect();
            let schedule = AdversarySchedule {
                seed: cfg.seed,
                device_behaviors,
                committee_behaviors,
                net_faults,
                aggregator: realized.aggregator.unwrap_or(AggregatorBehavior::Honest),
            };
            (schedule, Some(realized))
        }
        None => (static_schedule.clone().expect("static adversary"), None),
    };

    // Predicted detections: devices and committee seats by class, the
    // aggregator by exact kind (resolved over the harness step layout:
    // one `input-…-ok` step per honest device, then the ⊞-fold step,
    // the keygen → decryption handoff, decrypt, mechanism, and outputs
    // steps).
    let n_honest = schedule.n_honest_devices();
    let harness_ok_steps: Vec<usize> = (0..n_honest).collect();
    let expected_aggregator =
        schedule
            .aggregator
            .expected_kind(&harness_ok_steps, n_honest, n_honest + 5);
    let mut expected = expected_detections(&schedule, &deployment, exec_cfg.committee_size);
    if let Some(kind) = &expected_aggregator {
        expected.push((Subject::Aggregator, kind.class()));
    }
    expected.sort();

    // Honest reference: the same query over only the honest devices.
    // The surviving-set answer must match it bitwise — rejecting the
    // attackers is required to leave no trace on the released values.
    let honest_rows: Vec<Vec<i64>> = deployment
        .db
        .iter()
        .zip(&schedule.device_behaviors)
        .filter(|(_, b)| **b == arboretum_runtime::DeviceBehavior::Honest)
        .map(|(row, _)| row.clone())
        .collect();
    let ref_schema = if cfg.numeric {
        DbSchema::numeric(honest_rows.len() as u64, 2, NUMERIC_LO, NUMERIC_HI)
    } else {
        DbSchema::one_hot(honest_rows.len() as u64, cfg.categories)
    };
    let ref_deployment = Deployment::from_rows(honest_rows, ref_schema);
    // Mirror the service path: the honest subset gets its own catalog
    // at the same seed, so both runs amortize setup the same way and
    // stay bitwise comparable.
    let ref_catalog = catalog
        .map(|_| {
            let catalog_cfg = CatalogConfig {
                seed: cfg.seed,
                ..CatalogConfig::default()
            };
            SessionCatalog::new(ref_deployment.clone(), catalog_cfg)
        })
        .transpose()
        .map_err(|e| format!("reference catalog: {e}"))?;
    let (reference, ref_detections) = execute(
        &plan,
        &lp,
        &ref_deployment,
        &exec_cfg,
        ref_catalog.as_ref().map(SessionCatalog::setup),
        None,
        None,
    )
    .map_err(|e| format!("reference run: {e}"))?;
    if !ref_detections.is_empty() {
        problems.push(format!(
            "honest reference produced {} detection(s)",
            ref_detections.len()
        ));
    }

    // Service-path runs execute against a cached setup: re-paying
    // sortition or keygen inside a query would break the amortization
    // contract the catalog exists to provide.
    if catalog.is_some() && (!adversarial.report.setup.is_zero() || !reference.setup.is_zero()) {
        problems.push(format!(
            "service-path run re-paid setup: adversarial {:?}, reference {:?}",
            adversarial.report.setup, reference.setup
        ));
    }

    cross_check_execution(
        &schedule,
        &deployment,
        &exec_cfg,
        &adversarial,
        &reference,
        &expected,
        &expected_aggregator,
        &mut problems,
    );

    let (net, net_reference) = if cfg.net_phase {
        run_net_phase(cfg, &schedule, &mut problems)?
    } else {
        (None, None)
    };

    Ok(AttackOutcome {
        schedule,
        adversarial,
        reference,
        net,
        net_reference,
        expected,
        expected_aggregator,
        adaptive: realized,
        problems,
    })
}

/// Adversarial vs. reference is compared field by field, not with `==`:
/// the reference runs over a deployment holding only the honest
/// devices, so `certificate` (registry root, signer set),
/// `rejected_inputs` and `verify_ops` legitimately differ; outputs,
/// budget and audit must not.
#[allow(clippy::too_many_arguments)]
fn cross_check_execution(
    schedule: &AdversarySchedule,
    deployment: &Deployment,
    exec_cfg: &ExecutionConfig,
    adversarial: &AdversarialReport,
    reference: &ExecutionReport,
    expected: &[(Subject, DetectionClass)],
    expected_aggregator: &Option<DetectionKind>,
    problems: &mut Vec<String>,
) {
    // 1. Complete detection with correct typed class and attribution,
    //    and zero false positives: the multiset of (subject, class)
    //    pairs must equal the schedule's prediction exactly.
    let mut got: Vec<(Subject, DetectionClass)> = adversarial
        .detections
        .iter()
        .map(|d| d.classified())
        .collect();
    got.sort();
    if got != expected {
        problems.push(format!(
            "detection mismatch:\n    expected {expected:?}\n    got      {got:?}"
        ));
    }

    // 1b. The aggregator detection is exact: one detection carrying the
    //     precise predicted kind, step attribution included (class
    //     agreement alone would let a cheat be flagged at the wrong
    //     step).
    let agg_kinds: Vec<&DetectionKind> = adversarial
        .detections
        .iter()
        .filter(|d| d.subject == Subject::Aggregator)
        .map(|d| &d.kind)
        .collect();
    match expected_aggregator {
        Some(kind) => {
            if agg_kinds.len() != 1 || agg_kinds[0] != kind {
                problems.push(format!(
                    "aggregator attribution mismatch: expected exactly one {kind:?}, got {agg_kinds:?}"
                ));
            }
        }
        None => {
            if !agg_kinds.is_empty() {
                problems.push(format!(
                    "honest aggregator was flagged: {agg_kinds:?} (false positive)"
                ));
            }
        }
    }

    // 2. Exactly the honest devices survive input validation.
    let n_honest = schedule.n_honest_devices();
    let n_corrupt = schedule.corrupt_devices().len();
    if adversarial.report.accepted_inputs != n_honest {
        problems.push(format!(
            "accepted {} inputs, want the {} honest devices",
            adversarial.report.accepted_inputs, n_honest
        ));
    }
    if adversarial.report.rejected_inputs != n_corrupt {
        problems.push(format!(
            "rejected {} inputs, want the {} corrupt devices",
            adversarial.report.rejected_inputs, n_corrupt
        ));
    }
    if reference.accepted_inputs != n_honest || reference.rejected_inputs != 0 {
        problems.push(format!(
            "reference run accepted {}/rejected {} — expected {n_honest}/0",
            reference.accepted_inputs, reference.rejected_inputs
        ));
    }

    // 3. The surviving-set answer matches the honest reference bitwise.
    if adversarial.report.outputs != reference.outputs {
        problems.push(format!(
            "outputs diverge from honest reference: {:?} vs {:?}",
            adversarial.report.outputs, reference.outputs
        ));
    }

    // 4. The privacy ledger is untouched by the attack: same charge,
    //    bit-for-bit.
    let (a, r) = (&adversarial.report.budget_after, &reference.budget_after);
    if a.epsilon.to_bits() != r.epsilon.to_bits() || a.delta.to_bits() != r.delta.to_bits() {
        problems.push(format!("budget ledger diverged: {a:?} vs {r:?}"));
    }

    // 5. Step audits pass in both runs.
    if !adversarial.report.audit_ok || !reference.audit_ok {
        problems.push(format!(
            "audit failed (adversarial {}, reference {})",
            adversarial.report.audit_ok, reference.audit_ok
        ));
    }

    // 6. The published certificate still verifies after the stale
    //    signatures are dropped, with exactly the honest signers left.
    let cert = &adversarial.report.certificate;
    if !cert.verify(&deployment.registry) {
        problems.push("published certificate does not verify".into());
    }
    let n_stale = schedule.committee_behaviors[0]
        .iter()
        .filter(|b| **b == CommitteeBehavior::StaleSignature)
        .count();
    let want_sigs = exec_cfg.committee_size - n_stale;
    if cert.signatures.len() != want_sigs {
        problems.push(format!(
            "certificate carries {} signatures, want {want_sigs}",
            cert.signatures.len()
        ));
    }
}

/// The networked MPC phase: a 2-input sum under the schedule's fault
/// plans, with failover, checked against a fault-free reference.
fn run_net_phase(
    cfg: &AttackConfig,
    schedule: &AdversarySchedule,
    problems: &mut Vec<String>,
) -> Result<(Option<NetExecReport>, Option<NetExecReport>), String> {
    let protocol = |p: &mut NetParty| {
        let a = p.input(0, FGold::new(20))?;
        let b = p.input(1, FGold::new(22))?;
        let s = p.add(&a, &b);
        p.open_batch(&[&s])
    };
    let net_cfg = NetExecConfig {
        committees: cfg.n_committees,
        faults: schedule.fault_plans(),
        timeout: Duration::from_millis(200),
        ..NetExecConfig::default()
    };
    let net = run_with_failover(&net_cfg, protocol).map_err(|e| format!("net phase: {e:?}"))?;
    let ref_cfg = NetExecConfig {
        committees: cfg.n_committees,
        faults: Vec::new(),
        timeout: Duration::from_millis(200),
        ..NetExecConfig::default()
    };
    let net_ref =
        run_with_failover(&ref_cfg, protocol).map_err(|e| format!("net reference: {e:?}"))?;

    if net.outputs != net_ref.outputs {
        problems.push(format!(
            "net outputs diverge: {:?} vs fault-free {:?}",
            net.outputs, net_ref.outputs
        ));
    }
    if schedule.net_faults[net.committee].is_fatal() {
        problems.push(format!(
            "net phase completed on committee {} whose fault {:?} should be fatal",
            net.committee, schedule.net_faults[net.committee]
        ));
    }
    for (c, err) in &net.failures {
        if !schedule.net_faults[*c].is_fatal() {
            problems.push(format!(
                "committee {c} failed ({err}) under survivable fault {:?}",
                schedule.net_faults[*c]
            ));
        }
    }
    // Failover is deterministic: same faults, same seeds, same outcome.
    let again = run_with_failover(&net_cfg, protocol).map_err(|e| format!("net rerun: {e:?}"))?;
    let failed: Vec<usize> = net.failures.iter().map(|(c, _)| *c).collect();
    let failed_again: Vec<usize> = again.failures.iter().map(|(c, _)| *c).collect();
    if again.committee != net.committee || again.outputs != net.outputs || failed_again != failed {
        problems.push(format!(
            "net phase not deterministic: committee {} vs {}, failures {failed:?} vs {failed_again:?}",
            net.committee, again.committee
        ));
    }
    Ok((Some(net), Some(net_ref)))
}

/// Writes a failure artifact for a non-passing outcome and returns its
/// path. The directory comes from `ADVERSARY_ARTIFACT_DIR`, defaulting
/// to `target/adversary-failures`.
///
/// The artifact is a complete bug report: the reproduce command with
/// every axis flag, the schedule, the full typed detection list with
/// per-detection attribution against the prediction, and — for
/// adaptive runs — the whole decision log (subject, transcript digest,
/// draw, choice per decision), which replays bitwise from the seed.
///
/// # Errors
///
/// Returns the underlying I/O error if the artifact cannot be written.
pub fn dump_failure_artifact(
    cfg: &AttackConfig,
    outcome: &AttackOutcome,
) -> std::io::Result<PathBuf> {
    let dir = std::env::var("ADVERSARY_ARTIFACT_DIR")
        .unwrap_or_else(|_| "target/adversary-failures".into());
    std::fs::create_dir_all(&dir)?;
    let path = PathBuf::from(dir).join(format!("seed-{}.txt", cfg.seed));
    let mut body = format!(
        "reproduce: cargo run --release --bin arboretum -- attack --seed {}{}{}{}\n\n",
        cfg.seed,
        if cfg.numeric { " --numeric" } else { "" },
        if cfg.aggregator { " --aggregator" } else { "" },
        if cfg.adaptive { " --adaptive" } else { "" },
    );
    body.push_str(&outcome.summary());

    // Full typed detection list with attribution verdicts: which
    // predicted (subject, class) pair each detection matched, and which
    // predictions went unmatched.
    body.push_str("\ntyped detections (attribution):\n");
    let mut unmatched: Vec<(Subject, DetectionClass)> = outcome.expected.clone();
    for d in &outcome.adversarial.detections {
        let pair = d.classified();
        let verdict = match unmatched.iter().position(|e| *e == pair) {
            Some(i) => {
                unmatched.remove(i);
                "matches prediction"
            }
            None => "UNEXPECTED (false positive or wrong attribution)",
        };
        body.push_str(&format!("  {:?}: {:?} — {verdict}\n", d.subject, d.kind));
    }
    for (s, c) in &unmatched {
        body.push_str(&format!("  MISSING: predicted {s:?}: {c:?} never fired\n"));
    }
    if let Some(kind) = &outcome.expected_aggregator {
        body.push_str(&format!("  aggregator exact-kind requirement: {kind:?}\n"));
    }

    if let Some(realized) = &outcome.adaptive {
        body.push_str("\nadaptive decision log (replayable from the seed):\n");
        for d in &realized.decisions {
            body.push_str(&format!(
                "  {} | digest {} | draw {:#018x} | {}\n",
                d.subject,
                hex_prefix(&d.digest),
                d.draw,
                d.choice
            ));
        }
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

/// First 8 bytes of a digest as lowercase hex, for compact transcripts.
fn hex_prefix(digest: &[u8; 32]) -> String {
    digest[..8].iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_attack_run_passes_all_cross_checks() {
        let cfg = AttackConfig {
            net_phase: false, // the seed sweep in crates/runtime covers it
            ..AttackConfig::new(1)
        };
        let outcome = run_attack(&cfg).expect("attack run failed");
        assert!(outcome.ok(), "problems:\n{}", outcome.summary());
        assert!(!outcome.adversarial.detections.is_empty());
    }

    #[test]
    fn smoke_aggregator_axis_yields_exactly_one_exact_detection() {
        // Seeds 0..6 walk the whole AggregatorBehavior catalog; one is
        // enough for a smoke test (the runtime sweep covers all 16).
        let cfg = AttackConfig {
            net_phase: false,
            aggregator: true,
            ..AttackConfig::new(2)
        };
        let outcome = run_attack(&cfg).expect("attack run failed");
        assert!(outcome.ok(), "problems:\n{}", outcome.summary());
        let expected = outcome.expected_aggregator.as_ref().expect("axis active");
        let agg: Vec<_> = outcome
            .adversarial
            .detections
            .iter()
            .filter(|d| d.subject == Subject::Aggregator)
            .collect();
        assert_eq!(agg.len(), 1);
        assert_eq!(&agg[0].kind, expected);
    }

    #[test]
    fn smoke_adaptive_run_passes_and_logs_decisions() {
        let cfg = AttackConfig {
            net_phase: false,
            aggregator: true,
            adaptive: true,
            ..AttackConfig::new(3)
        };
        let outcome = run_attack(&cfg).expect("attack run failed");
        assert!(outcome.ok(), "problems:\n{}", outcome.summary());
        let realized = outcome.adaptive.as_ref().expect("adaptive run");
        assert!(!realized.decisions.is_empty());
        assert!(realized.aggregator.is_some());
        // Decisions conditioned on real traffic: the aggregator
        // decision saw a non-empty transcript.
        let agg_decision = realized
            .decisions
            .iter()
            .find(|d| d.subject == "aggregator")
            .expect("aggregator decision logged");
        assert_ne!(
            agg_decision.digest,
            crate::adaptive::TranscriptAccumulator::new().digest(),
            "aggregator decision conditioned on an empty transcript"
        );
    }

    #[test]
    fn smoke_attack_run_through_prebuilt_catalog() {
        // Smoke-level service-path coverage: one seed, with the
        // schedule's behavior classes it derives. The full seed sweep
        // stays on the one-shot path; this pins that the adversary
        // harness composes with a cached-setup catalog — detections,
        // reference equality, and zero setup op counts included.
        let cfg = AttackConfig {
            net_phase: false,
            ..AttackConfig::new(1)
        };
        let catalog = build_attack_catalog(&cfg).expect("catalog build failed");
        let outcome = run_attack_on_catalog(&cfg, &catalog).expect("attack run failed");
        assert!(outcome.ok(), "problems:\n{}", outcome.summary());
        assert!(!outcome.adversarial.detections.is_empty());
        assert!(outcome.adversarial.report.setup.is_zero());
        assert!(outcome.reference.setup.is_zero());

        // A catalog over the wrong deployment is rejected up front.
        let other = AttackConfig {
            n_devices: 52,
            net_phase: false,
            ..AttackConfig::new(1)
        };
        let wrong = build_attack_catalog(&other).expect("catalog build failed");
        assert!(run_attack_on_catalog(&cfg, &wrong).is_err());
    }

    #[test]
    fn aggregator_and_adaptive_axes_work_through_the_service_path() {
        // The cached-setup catalog path must support both new axes: the
        // aggregator cheat is detected with exact attribution, and
        // adaptive decisions (conditioned on an empty transcript, since
        // keygen was amortized) replay deterministically.
        let cfg = AttackConfig {
            net_phase: false,
            aggregator: true,
            adaptive: true,
            ..AttackConfig::new(4)
        };
        let catalog = build_attack_catalog(&cfg).expect("catalog build failed");
        let a = run_attack_on_catalog(&cfg, &catalog).expect("attack run failed");
        assert!(a.ok(), "problems:\n{}", a.summary());
        assert!(a.expected_aggregator.is_some());
        assert!(a.adversarial.report.setup.is_zero());
        let b = run_attack_on_catalog(&cfg, &catalog).expect("attack rerun failed");
        assert_eq!(
            a.adaptive.as_ref().expect("adaptive").decisions,
            b.adaptive.as_ref().expect("adaptive").decisions,
            "service-path adaptive decisions did not replay"
        );
    }
}
