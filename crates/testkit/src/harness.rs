//! End-to-end attack runs with detection cross-checks.
//!
//! [`run_attack`] drives one ingestion epoch under a seed-derived
//! [`AdversarySchedule`] — every device in one window (a batch query)
//! or `windows` seed-derived windows with device churn and a handoff
//! crash — plus two honest epochs: the same arrivals with everyone
//! honest, and the *reference*, the same deployment with the corrupt
//! devices taken out of the arrival partition. It then runs the
//! networked MPC phase under the schedule's fault plans and
//! cross-checks everything the security argument promises: complete
//! typed detection attributed to the right subject in the right window,
//! zero false positives, honest windows bitwise untouched, an audit
//! verdict that fails exactly when the aggregator cheats, and a
//! surviving-set answer, budget ledger and certificate bitwise
//! identical to the reference. Discrepancies land in
//! [`AttackOutcome::problems`] rather than panicking, so test drivers
//! and the `arboretum attack` CLI can both report them with full
//! context.

use std::path::PathBuf;

use arboretum_dp::budget::PrivacyCost;
use arboretum_field::FGold;
use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_mpc::{MpcEngine, MpcError};
use arboretum_par::ParConfig;
use arboretum_planner::logical::{extract, LogicalPlan};
use arboretum_planner::plan::Plan;
use arboretum_planner::search::{plan as plan_physical, PlannerConfig};
use arboretum_runtime::{
    execute_stream, run_with_failover, Adversary, ArrivalSchedule, CommitteeBehavior, Deployment,
    DetectionClass, DetectionKind, DeviceBehavior, ExecutionConfig, HonestAdversary, NetExecConfig,
    NetExecReport, StreamReport, Subject, SETUP_ROLES,
};
use arboretum_service::{CatalogConfig, SessionCatalog};
use arboretum_sortition::select::select_committees;

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
    /// Ingestion windows in the epoch. 1 is a batch query: every device
    /// arrives at once. Two or more derive each device's arrival and
    /// drop window from the seed, and crash one committee seat during
    /// one boundary handoff.
    pub windows: usize,
    /// Run the numeric (per-field range proof) pipeline instead of the
    /// one-hot pipeline.
    pub numeric: bool,
    /// Whether to run the networked MPC failover phase.
    pub net_phase: bool,
    /// Thread configuration for the aggregator's parallel phases.
    pub par: ParConfig,
    /// Enable the malicious-aggregator axis: the schedule assigns the
    /// seed-derived [`AggregatorBehavior`] and the cross-checks demand
    /// exactly one aggregator detection with the exact predicted
    /// [`DetectionKind`] (step attribution included).
    pub aggregator: bool,
}

impl AttackConfig {
    /// The standard sweep configuration for a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            n_devices: 48,
            categories: 4,
            n_committees: 3,
            windows: 1,
            numeric: false,
            net_phase: true,
            par: ParConfig::serial(),
            aggregator: false,
        }
    }

    /// Refuses the configurations no deployment can run.
    fn validate(&self) -> Result<(), String> {
        let categories = if self.numeric { 1 } else { self.categories };
        for (count, what) in [
            (self.n_devices, "device"),
            (self.n_committees, "committee"),
            (self.windows, "window"),
            (categories, "category"),
        ] {
            if count == 0 {
                return Err(format!("an attack needs at least one {what}"));
            }
        }
        // Committees are seated from the deployment's devices (§5.1).
        let seats = self.n_committees.checked_mul(COMMITTEE_SEATS);
        if seats.is_none_or(|seats| seats > self.n_devices) {
            return Err(format!(
                "registry of {} devices cannot seat {} committees of {COMMITTEE_SEATS}",
                self.n_devices, self.n_committees
            ));
        }
        Ok(())
    }
}

/// Everything one attack run produced, plus every cross-check failure.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// What the schedule that drove the run decided, its decision log
    /// included.
    pub schedule: AdversarySchedule,
    /// The arrival partition of the adversarial and all-honest epochs.
    pub arrivals: ArrivalSchedule,
    /// The adversarial epoch, its typed detections included.
    pub adversarial: StreamReport,
    /// The same arrivals with every device and seat honest.
    pub honest: StreamReport,
    /// The honest epoch with the corrupt devices taken out of the
    /// arrival partition — what the adversarial epoch must equal.
    pub reference: StreamReport,
    /// The networked MPC phase under the schedule's fault plans.
    pub net: Option<NetExecReport>,
    /// The `(window, subject, class)` detections the schedule predicted
    /// — what the cross-check compared against.
    pub expected: Vec<(usize, Subject, DetectionClass)>,
    /// The exact aggregator detection kind predicted (step attribution
    /// included), when the aggregator axis is active.
    pub expected_aggregator: Option<DetectionKind>,
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
        if self.arrivals.n_windows > 1 {
            out.push_str(&format!(
                "epoch: {} windows, {} of {} devices contribute\n",
                self.arrivals.n_windows,
                self.arrivals.survivors().len(),
                self.arrivals.n_devices
            ));
        }
        let report = &self.adversarial.report;
        out.push_str(&format!(
            "detections: {} (accepted {}, rejected {})\n",
            self.adversarial.detections.len(),
            report.accepted_inputs,
            report.rejected_inputs
        ));
        for d in &self.adversarial.detections {
            out.push_str(&format!(
                "  window {} | {:?}: {:?}\n",
                d.window, d.subject, d.kind
            ));
        }
        out.push_str(&format!("expected: {} detection(s)\n", self.expected.len()));
        for (w, s, c) in &self.expected {
            out.push_str(&format!("  window {w} | {s:?}: {c:?}\n"));
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
fn build_query(cfg: &AttackConfig) -> Result<(Deployment, LogicalPlan, Plan), String> {
    cfg.validate()?;
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

/// The `(window, subject, class)` detections the schedule predicts for
/// an epoch under `arrivals`: each corrupt device that contributes, in
/// its arrival window; each corrupt key-generation seat, at open (a
/// stale signature) or at the close handoff (a VSR cheat); and the
/// handoff crash at its boundary. Seats are attributed by registry
/// index, so the roster is reseated here.
fn expected_detections(
    schedule: &AdversarySchedule,
    arrivals: &ArrivalSchedule,
    deployment: &Deployment,
    m: usize,
) -> Vec<(usize, Subject, DetectionClass)> {
    let one_hot = deployment.schema.one_hot;
    let mut expected: Vec<_> = schedule
        .device_behaviors
        .iter()
        .enumerate()
        .filter(|&(i, _)| arrivals.contributes(i))
        .filter_map(|(i, b)| {
            Some((
                arrivals.arrival[i] as usize,
                Subject::Device(i),
                b.expected_class(one_hot)?,
            ))
        })
        .collect();
    let roster = &select_committees(&deployment.registry, &deployment.beacon, 1, SETUP_ROLES, m)
        .committees[0];
    let seat = |member: usize| Subject::CommitteeMember {
        committee: 0,
        member,
        device: roster[member],
    };
    let close = arrivals.n_windows - 1;
    for (j, b) in schedule.committee_behaviors[0].iter().enumerate().take(m) {
        if let Some(class) = b.expected_class() {
            let window = if *b == CommitteeBehavior::StaleSignature {
                0
            } else {
                close
            };
            expected.push((window, seat(j), class));
        }
    }
    if let Some((boundary, member)) = schedule.crash {
        expected.push((boundary, seat(member), DetectionClass::HandoffDropout));
    }
    expected
}

/// The step log an epoch publishes when exactly `accepted`'s arrivals
/// pass validation: per window, one `input-…-ok` step per accepted
/// upload, the window's fold and its boundary handoff — except after
/// the last window, whose fold is the aggregate — then the close's
/// handoff, decrypt, mechanism and outputs steps. Returns the accepted
/// steps, the aggregate's step and the log length, the layout
/// [`AggregatorBehavior::expected_kind`] resolves a cheat against.
fn step_layout(accepted: &ArrivalSchedule) -> (Vec<usize>, usize, usize) {
    let mut ok_steps = Vec::new();
    let mut next = 0;
    for w in 0..accepted.n_windows {
        let k = accepted.window(w).len();
        ok_steps.extend(next..next + k);
        next += k + 2;
    }
    let agg_step = next - 2;
    (ok_steps, agg_step, agg_step + 5)
}

/// Builds the session catalog the service path of [`run_attack`]
/// expects: one over exactly the deployment `cfg` describes, with the
/// catalog seed pinned to the attack seed so the cached setup matches
/// what a fresh execution at that seed would have built.
///
/// # Errors
///
/// Returns `Err` when the config is refused, or the query pipeline or
/// the catalog's eager setup build fails.
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
/// With a `catalog` (built by [`build_attack_catalog`], or over an
/// identical deployment with `catalog seed == cfg.seed`) every epoch
/// runs on its cached setup — the service path — and the cross-checks
/// additionally require every report to show zero setup op counts;
/// without one each epoch builds the same setup inline from the seed.
///
/// # Errors
///
/// Returns `Err` when the config is refused (no devices, committees,
/// windows or categories, or more committee seats than devices), the
/// catalog's deployment does not match the config, or a pipeline stage
/// fails outright (planning, an execution error, or an exhausted
/// networked-MPC failover chain) — failed
/// *cross-checks* are reported in [`AttackOutcome::problems`] instead.
pub fn run_attack(
    cfg: &AttackConfig,
    catalog: Option<&SessionCatalog>,
) -> Result<AttackOutcome, String> {
    let (deployment, lp, plan) = build_query(cfg)?;
    if catalog.is_some_and(|c| c.deployment().db != deployment.db) {
        return Err("session catalog deployment does not match the attack config".into());
    }
    let exec_cfg = ExecutionConfig {
        seed: cfg.seed,
        budget: PrivacyCost {
            epsilon: 100.0,
            delta: 1e-6,
        },
        par: cfg.par,
        ..ExecutionConfig::default()
    };
    let arrivals = if cfg.windows == 1 {
        ArrivalSchedule::all_at_once(cfg.n_devices)
    } else {
        ArrivalSchedule::derive(cfg.seed, cfg.n_devices, cfg.windows)
    };
    let run = |arrivals: &ArrivalSchedule, adversary: &dyn Adversary, tag: &str| {
        let setup = catalog.map(SessionCatalog::setup);
        execute_stream(
            &plan,
            &lp,
            &deployment,
            &exec_cfg,
            arrivals,
            setup,
            None,
            Some(adversary),
        )
        .map_err(|e| format!("{tag} run: {e}"))
    };

    // The adversary driving the run, every decision made up front: what
    // it decided is what the cross-checks run against.
    let schedule = AdversarySchedule::for_attack(cfg);
    let adversarial = run(&arrivals, &schedule, "adversarial")?;

    // The honest epochs. Rejecting an upload must leave no trace, so
    // the adversarial epoch must equal, on everything but the rejected
    // uploads themselves, the reference over the partition without the
    // corrupt devices.
    let mut partition = arrivals.windows();
    for window in &mut partition {
        window.retain(|&d| schedule.device_behaviors[d] == DeviceBehavior::Honest);
    }
    let reference_arrivals = ArrivalSchedule::from_partition(&partition, cfg.n_devices);
    let honest = run(&arrivals, &HonestAdversary, "all-honest")?;
    let reference = run(&reference_arrivals, &HonestAdversary, "reference")?;

    // Predicted detections: devices and committee seats by class, the
    // aggregator by exact kind over the epoch's step layout.
    let (ok_steps, agg_step, total_steps) = step_layout(&reference_arrivals);
    let expected_aggregator = schedule
        .aggregator
        .expected_kind(&ok_steps, agg_step, total_steps);
    let mut expected =
        expected_detections(&schedule, &arrivals, &deployment, exec_cfg.committee_size);
    if let Some(kind) = &expected_aggregator {
        expected.push((cfg.windows - 1, Subject::Aggregator, kind.class()));
    }
    expected.sort();

    let mut outcome = AttackOutcome {
        schedule,
        arrivals,
        adversarial,
        honest,
        reference,
        net: None,
        expected,
        expected_aggregator,
        problems: Vec::new(),
    };
    outcome.problems = cross_check(
        &outcome,
        &deployment,
        exec_cfg.committee_size,
        catalog.is_some(),
    );
    if cfg.net_phase {
        outcome.net = Some(run_net_phase(
            cfg,
            &outcome.schedule,
            &mut outcome.problems,
        )?);
    }
    Ok(outcome)
}

/// Every cross-check of one epoch, in claim order. The adversarial
/// epoch is compared with the reference field by field, not with `==`:
/// the rejected uploads legitimately add to `rejected_inputs` and
/// `verify_ops`, stale signers leave the certificate's signer set, and
/// a crash changes the handoff chain from its boundary on.
fn cross_check(
    o: &AttackOutcome,
    deployment: &Deployment,
    m: usize,
    cached_setup: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut check = |ok: bool, problem: String| {
        if !ok {
            problems.push(problem);
        }
    };
    let (adv, honest, reference) = (&o.adversarial, &o.honest, &o.reference);
    let corrupt: Vec<usize> = o
        .schedule
        .corrupt_devices()
        .into_iter()
        .filter(|&i| o.arrivals.contributes(i))
        .collect();

    // 1. Complete detection with the right class, subject and window,
    //    and zero false positives: the multiset of (window, subject,
    //    class) triples equals the prediction exactly.
    let mut got: Vec<(usize, Subject, DetectionClass)> = adv
        .detections
        .iter()
        .map(|d| (d.window, d.subject, d.kind.class()))
        .collect();
    got.sort();
    check(
        got == o.expected,
        format!(
            "detection mismatch:\n    expected {:?}\n    got      {got:?}",
            o.expected
        ),
    );
    check(
        honest.detections.is_empty() && reference.detections.is_empty(),
        format!(
            "honest epochs raised detections: {:?} / {:?}",
            honest.detections, reference.detections
        ),
    );

    // 1b. Exact kinds where the schedule knows them: the aggregator's,
    //     step attribution included (class agreement alone would let a
    //     cheat be flagged at the wrong step), and the crash's boundary.
    let agg_kinds: Vec<&DetectionKind> = adv
        .detections
        .iter()
        .filter(|d| d.subject == Subject::Aggregator)
        .map(|d| &d.kind)
        .collect();
    let want: Vec<&DetectionKind> = o.expected_aggregator.iter().collect();
    check(
        agg_kinds == want,
        format!("aggregator attribution mismatch: expected {want:?}, got {agg_kinds:?}"),
    );
    if let Some((boundary, _)) = o.schedule.crash {
        let want = DetectionKind::HandoffDropout { boundary };
        check(
            adv.detections.iter().any(|d| d.kind == want),
            format!("no {want:?} detection"),
        );
    }

    // 2. Exactly the contributing honest devices survive validation.
    let n_honest = o.arrivals.survivors().len() - corrupt.len();
    for (tag, r, accepted, rejected) in [
        ("adversarial", &adv.report, n_honest, corrupt.len()),
        ("reference", &reference.report, n_honest, 0),
    ] {
        check(
            r.accepted_inputs == accepted && r.rejected_inputs == rejected,
            format!(
                "{tag} epoch accepted {}/rejected {}, want {accepted}/{rejected}",
                r.accepted_inputs, r.rejected_inputs
            ),
        );
    }

    // 3. The surviving-set epoch equals the reference bitwise: outputs,
    //    budget ledger, MPC metering, certificate body,
    //    and the accumulator after every window — a rejected upload
    //    never touches the fold.
    let (a, r) = (&adv.report, &reference.report);
    check(
        a.outputs == r.outputs,
        format!(
            "outputs diverge from the reference: {:?} vs {:?}",
            a.outputs, r.outputs
        ),
    );
    let bits = |b: &PrivacyCost| (b.epsilon.to_bits(), b.delta.to_bits());
    check(
        bits(&a.budget_after) == bits(&r.budget_after),
        format!(
            "budget ledger diverged: {:?} vs {:?}",
            a.budget_after, r.budget_after
        ),
    );
    // The audit verdict fails exactly when the aggregator cheats.
    let audit_want = o.expected_aggregator.is_none();
    check(
        a.audit_ok == audit_want && r.audit_ok,
        format!(
            "audit verdict wrong (adversarial {}, want {audit_want}; reference {})",
            a.audit_ok, r.audit_ok
        ),
    );
    check(
        a.mpc_metrics == r.mpc_metrics,
        "MPC metrics differ from the reference".into(),
    );
    check(
        a.certificate.body() == r.certificate.body(),
        "certificate body differs from the reference".into(),
    );
    for (x, y) in adv.checkpoints.iter().zip(&reference.checkpoints) {
        check(
            x.accumulator_digest == y.accumulator_digest,
            format!("window {} accumulator differs from the reference", x.window),
        );
    }

    // 4. The published certificate still verifies after the stale
    //    signatures are dropped, with exactly the honest signers left.
    let n_stale = o.schedule.committee_behaviors[0]
        .iter()
        .take(m)
        .filter(|b| **b == CommitteeBehavior::StaleSignature)
        .count();
    check(
        a.certificate.verify(&deployment.registry),
        "published certificate does not verify".into(),
    );
    check(
        a.certificate.signatures.len() == m - n_stale,
        format!(
            "certificate carries {} signatures, want {}",
            a.certificate.signatures.len(),
            m - n_stale
        ),
    );

    // 5. Honest windows are bitwise untouched: before the first corrupt
    //    arrival the accumulator chain equals the all-honest epoch's,
    //    and before the crash boundary so does the handoff chain.
    let n_windows = o.arrivals.n_windows;
    let first_corrupt = corrupt
        .iter()
        .map(|&i| o.arrivals.arrival[i] as usize)
        .min();
    let first_corrupt = first_corrupt.unwrap_or(n_windows);
    let crash_boundary = o.schedule.crash.map_or(n_windows, |(b, _)| b);
    for (x, h) in adv.checkpoints.iter().zip(&honest.checkpoints) {
        check(
            x.window >= first_corrupt || x.accumulator_digest == h.accumulator_digest,
            format!("pre-attack window {} accumulator was touched", x.window),
        );
        check(
            x.window >= crash_boundary || x.handoff_digest == h.handoff_digest,
            format!("pre-crash boundary {} handoff was touched", x.window),
        );
    }

    // 6. Epochs on a catalog's cached setup re-pay no sortition or
    //    keygen: that would break the amortization the catalog exists
    //    to provide.
    if cached_setup {
        for (tag, s) in [
            ("adversarial", adv),
            ("all-honest", honest),
            ("reference", reference),
        ] {
            check(
                s.report.setup.is_zero(),
                format!("{tag} epoch re-paid setup: {:?}", s.report.setup),
            );
        }
    }
    problems
}

/// The networked MPC phase's protocol: a two-input sum, opened.
pub(crate) fn net_sum(e: &mut MpcEngine) -> Result<Vec<FGold>, MpcError> {
    let a = e.input(0, FGold::new(20))?;
    let b = e.input(1, FGold::new(22))?;
    let s = e.add(&a, &b);
    e.open_batch(&[&s])
}

/// The networked MPC phase: [`net_sum`] under the schedule's fault
/// plans, with failover, checked against a fault-free reference.
fn run_net_phase(
    cfg: &AttackConfig,
    schedule: &AdversarySchedule,
    problems: &mut Vec<String>,
) -> Result<NetExecReport, String> {
    let net_cfg = NetExecConfig {
        committees: cfg.n_committees,
        faults: schedule.fault_plans(),
    };
    let net = run_with_failover(&net_cfg, net_sum).map_err(|e| format!("net phase: {e:?}"))?;
    let ref_cfg = NetExecConfig {
        faults: Vec::new(),
        ..net_cfg.clone()
    };
    let net_ref =
        run_with_failover(&ref_cfg, net_sum).map_err(|e| format!("net reference: {e:?}"))?;

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
    let again = run_with_failover(&net_cfg, net_sum).map_err(|e| format!("net rerun: {e:?}"))?;
    let failed: Vec<usize> = net.failures.iter().map(|(c, _)| *c).collect();
    let failed_again: Vec<usize> = again.failures.iter().map(|(c, _)| *c).collect();
    if again.committee != net.committee || again.outputs != net.outputs || failed_again != failed {
        problems.push(format!(
            "net phase not deterministic: committee {} vs {}, failures {failed:?} vs {failed_again:?}",
            net.committee, again.committee
        ));
    }
    Ok(net)
}

/// Writes a failure artifact for a non-passing outcome and returns its
/// path. The directory comes from `ADVERSARY_ARTIFACT_DIR`, defaulting
/// to `target/adversary-failures`.
///
/// The artifact is a complete bug report: the reproduce command with
/// every axis flag, the schedule, the full typed detection list with
/// per-detection attribution against the prediction, every window's
/// checkpoint next to the reference's, and the whole decision log
/// (subject, draw, choice per decision), which replays bitwise from the
/// seed.
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
    let path = PathBuf::from(dir).join(format!("seed-{}-windows-{}.txt", cfg.seed, cfg.windows));
    let mut flags = format!("--seed {} --windows {}", cfg.seed, cfg.windows);
    for (on, flag) in [
        (cfg.numeric, " --numeric"),
        (!cfg.net_phase, " --no-net"),
        (cfg.aggregator, " --aggregator"),
        (outcome.adversarial.report.setup.is_zero(), " --service"),
    ] {
        if on {
            flags.push_str(flag);
        }
    }
    let mut body = format!("reproduce: cargo run --release --bin arboretum -- attack {flags}\n\n");
    body.push_str(&outcome.summary());

    // Full typed detection list with attribution verdicts: which
    // predicted (window, subject, class) triple each detection matched,
    // and which predictions went unmatched.
    body.push_str("\ntyped detections (attribution):\n");
    let mut unmatched = outcome.expected.clone();
    for d in &outcome.adversarial.detections {
        let triple = (d.window, d.subject, d.kind.class());
        let verdict = match unmatched.iter().position(|e| *e == triple) {
            Some(i) => {
                unmatched.remove(i);
                "matches prediction"
            }
            None => "UNEXPECTED (false positive or wrong attribution)",
        };
        body.push_str(&format!(
            "  window {} | {:?}: {:?} — {verdict}\n",
            d.window, d.subject, d.kind
        ));
    }
    for (w, s, c) in &unmatched {
        body.push_str(&format!(
            "  MISSING: predicted window {w} | {s:?}: {c:?} never fired\n"
        ));
    }
    if let Some(kind) = &outcome.expected_aggregator {
        body.push_str(&format!("  aggregator exact-kind requirement: {kind:?}\n"));
    }

    body.push_str("\nper-window checkpoints (adversarial vs reference):\n");
    let hex = |d: &Option<[u8; 32]>| d.as_ref().map_or("-".into(), hex_prefix);
    let (adv, reference) = (&outcome.adversarial, &outcome.reference);
    for (a, r) in adv.checkpoints.iter().zip(&reference.checkpoints) {
        body.push_str(&format!(
            "  window {}: accepted {}/{} | accumulator {} vs {}\n",
            a.window,
            a.accepted,
            a.arrivals,
            hex(&a.accumulator_digest),
            hex(&r.accumulator_digest),
        ));
    }

    body.push_str("\ndecision log (replayable from the seed):\n");
    for d in &outcome.schedule.decisions {
        body.push_str(&format!(
            "  {} | draw {:#018x} | {}\n",
            d.subject, d.draw, d.choice
        ));
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

/// First 8 bytes of a digest as lowercase hex, for compact transcripts.
fn hex_prefix(digest: &[u8; 32]) -> String {
    digest[..8].iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs `cfg` with the net phase off (the seed sweep in
    /// `crates/runtime` covers it), asserting every cross-check passed.
    pub(crate) fn pass(cfg: AttackConfig, catalog: Option<&SessionCatalog>) -> AttackOutcome {
        let cfg = AttackConfig {
            net_phase: false,
            ..cfg
        };
        let outcome = run_attack(&cfg, catalog).expect("attack run failed");
        assert!(outcome.ok(), "problems:\n{}", outcome.summary());
        outcome
    }

    #[test]
    fn smoke_attack_run_passes_all_cross_checks() {
        let batch = pass(AttackConfig::new(1), None);
        assert!(!batch.adversarial.detections.is_empty());
    }

    #[test]
    fn smoke_aggregator_axis_yields_exactly_one_exact_detection() {
        // Seeds 0..6 walk the whole AggregatorBehavior catalog; one per
        // window count is enough for a smoke test (the runtime sweep
        // covers all 16).
        for windows in [1, 4] {
            let outcome = pass(
                AttackConfig {
                    aggregator: true,
                    windows,
                    ..AttackConfig::new(2)
                },
                None,
            );
            let expected = outcome.expected_aggregator.as_ref().expect("axis active");
            let agg: Vec<_> = outcome
                .adversarial
                .detections
                .iter()
                .filter(|d| d.subject == Subject::Aggregator)
                .collect();
            assert_eq!(agg.len(), 1);
            assert_eq!(&agg[0].kind, expected);
            assert_eq!(agg[0].window, windows - 1);
        }
    }

    #[test]
    fn smoke_attack_run_through_prebuilt_catalog() {
        // Smoke-level service-path coverage: one seed, with the
        // schedule's behavior classes it derives, at one and four
        // windows. The full seed sweep stays on the one-shot path; this
        // pins that the harness composes with a cached-setup catalog —
        // detections, reference equality, and zero setup op counts
        // included.
        let cfg = AttackConfig::new(1);
        let catalog = build_attack_catalog(&cfg).expect("catalog build failed");
        for windows in [1, 4] {
            let outcome = pass(
                AttackConfig {
                    windows,
                    ..cfg.clone()
                },
                Some(&catalog),
            );
            assert!(!outcome.adversarial.detections.is_empty());
            assert!(outcome.adversarial.report.setup.is_zero());
            assert!(outcome.reference.report.setup.is_zero());
        }

        // A catalog over the wrong deployment is rejected up front.
        let other = AttackConfig {
            n_devices: 52,
            ..AttackConfig::new(1)
        };
        let wrong = build_attack_catalog(&other).expect("catalog build failed");
        assert!(run_attack(&cfg, Some(&wrong)).is_err());
    }

    #[test]
    fn aggregator_axis_works_through_the_service_path() {
        // The cached-setup catalog path supports the aggregator axis: the
        // cheat is detected with exact attribution, and the epoch replays
        // bitwise on the same catalog.
        let cfg = AttackConfig {
            aggregator: true,
            ..AttackConfig::new(4)
        };
        let catalog = build_attack_catalog(&cfg).expect("catalog build failed");
        let a = pass(cfg.clone(), Some(&catalog));
        assert!(a.expected_aggregator.is_some());
        assert!(a.adversarial.report.setup.is_zero());
        let b = pass(cfg, Some(&catalog));
        assert_eq!(
            a.adversarial, b.adversarial,
            "service-path epoch did not replay"
        );
    }

    #[test]
    fn degenerate_configs_are_refused_not_panicked() {
        for cfg in [
            AttackConfig {
                n_devices: 0,
                ..AttackConfig::new(0)
            },
            AttackConfig {
                n_committees: 0,
                ..AttackConfig::new(0)
            },
            AttackConfig {
                windows: 0,
                ..AttackConfig::new(0)
            },
            AttackConfig {
                categories: 0,
                ..AttackConfig::new(0)
            },
            // Too few devices to seat the committees: the runtime's
            // typed setup refusal.
            AttackConfig {
                n_devices: 10,
                ..AttackConfig::new(0)
            },
        ] {
            assert!(run_attack(&cfg, None).is_err(), "{cfg:?} was not refused");
        }
    }
}
