//! The six workloads: input generation from `--seed`, set-up, one op
//! through the facade, output checks, and the traced replay.
//!
//! End-to-end numbers go only through `Arboretum::{prepare, run,
//! run_stream}` and `ServiceHandle::{start, open_session, run,
//! shutdown}`, the surface ROADMAP item 2 keeps. Everything computes on
//! the calling thread; the service adds its one worker.

use arboretum::crypto::sha256::sha256;
use arboretum::dp::budget::{BudgetLedger, PrivacyCost};
use arboretum::lang::parser::parse;
use arboretum::lang::privacy::certify;
use arboretum::net::FabricKind;
use arboretum::par::ParConfig;
use arboretum::planner::logical::extract;
use arboretum::planner::search::plan as search_plan;
use arboretum::queries::corpus::{self, QuerySpec};
use arboretum::runtime::setup::{build_session_setup, SessionSetup};
use arboretum::runtime::stream::ArrivalSchedule;
use arboretum::service::{CatalogConfig, ServiceConfig, ServiceHandle};
use arboretum::{
    Arboretum, CertifyConfig, DbSchema, Deployment, ExecutionConfig, ExecutionReport,
    PlannerConfig, PreparedQuery,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::BTreeMap;
use std::time::Instant;

use crate::replay::{replay_query, QueryReplay, ReplayOutcome};
use crate::spec;
use crate::stats::median;
use crate::trace::Tracer;

/// `top1` with ε raised so a few thousand devices release the true
/// mode (the corpus literal 0.1 is sized for 10^9).
pub const TOP1: &str = "aggr = sum(db);\nresult = em(aggr, 8.0);\noutput(result);\n";
const HISTOGRAM: &str = "aggr = sum(db);\nnoised = laplace(aggr, 1, 8.0);\noutput(noised);\n";

const BUDGET: PrivacyCost = PrivacyCost {
    epsilon: 10.0,
    delta: 1e-6,
};
const STREAM_WINDOWS: usize = 8;
const ANALYST: &str = "analyst";

/// `(devices, categories)` per workload: ISSUE 11's sizes. `median`
/// builds its own 64 devices over [`MEDIAN_CATEGORIES`].
const INGEST_WIDE: (usize, usize) = (2048, 64);
const INGEST_NARROW: (usize, usize) = (8192, 4);
const STREAM_CHURN: (usize, usize) = (4096, 16);
const SERVICE_MIX: (usize, usize) = (1024, 16);
const MEDIAN_CATEGORIES: usize = 128;

/// Devices in the deployment a workload's first query runs on: enough
/// to seat the committees, few enough that set-up, not ingest, is what
/// `setup_s` times.
const FIRST_DEVICES: usize = 32;

/// Makes the process default one compute thread: the host has two
/// shared CPUs and ROADMAP's currency is per-core throughput. Sortition
/// and the planner's search run on the process-default pool, so this is
/// also what keeps them inline — and the search statistics exact.
pub fn compute_on_calling_thread() {
    arboretum::par::configure_global(ParConfig::serial().with_shards(1));
}

/// An independent 64-bit stream of `seed` (SplitMix64 finalizer).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Device → category: half the devices in category 0, a quarter in 1,
/// an eighth in 2, the rest uniform over the remaining categories.
pub fn assignment(seed: u64, devices: usize, categories: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 1));
    (0..devices)
        .map(|_| {
            let u: f64 = rng.gen();
            let c = if u < 0.5 {
                0
            } else if u < 0.75 {
                1
            } else if u < 0.875 {
                2
            } else {
                3 + rng.gen_range(0..categories.saturating_sub(3).max(1))
            };
            c.min(categories - 1)
        })
        .collect()
}

/// Device → value bucket for `median`: a clear median bucket `m` (six
/// devices, with the cumulative count exactly half there), six in the
/// next bucket, and the other 52 of 64 spread below `m − 1` and above
/// `m + 1`, so rank-distance scores separate by ≥ 6.
pub fn median_assignment(seed: u64, categories: usize) -> (Vec<usize>, usize) {
    let mut rng = StdRng::seed_from_u64(derive(seed, 2));
    let m = rng.gen_range(16..categories - 16);
    let mut a = vec![m; 6];
    a.extend([m + 1; 6]);
    a.extend((0..26).map(|_| rng.gen_range(0..m - 1)));
    a.extend((0..26).map(|_| rng.gen_range(m + 2..categories)));
    // Device order carries no meaning; shuffle it so it carries no
    // structure either.
    for i in (1..a.len()).rev() {
        a.swap(i, rng.gen_range(0..i + 1));
    }
    (a, m)
}

/// Short hex digest of generated inputs: what "same seed → same inputs"
/// compares, and what a run prints so two runs can be told apart.
pub fn inputs_digest(a: &[usize]) -> String {
    let bytes: Vec<u8> = a.iter().flat_map(|&c| (c as u32).to_be_bytes()).collect();
    sha256(&bytes)[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn counts(a: &[usize], categories: usize) -> Vec<i64> {
    let mut c = vec![0i64; categories];
    for &x in a {
        c[x] += 1;
    }
    c
}

fn exec_cfg(seed: u64, malicious_fraction: f64, fabric: Option<FabricKind>) -> ExecutionConfig {
    ExecutionConfig {
        seed,
        malicious_fraction,
        budget: BUDGET,
        par: ParConfig::serial().with_shards(1),
        fabric,
        ..Default::default()
    }
}

/// Per-layer values gathered during a traced run: timings as samples
/// (reported as their median), counts as single values.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    /// Adds one sample of a timing.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            spec::find(name).is_some(),
            "{name} is not in spec::PER_LAYER"
        );
        self.0.entry(name).or_default().push(v);
    }

    /// Sets a value measured once.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.remove(name);
        self.sample(name, v);
    }

    /// The reported value: the median sample, 0 when never measured.
    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// What one op did.
pub struct OpOutcome {
    /// Wall seconds of the facade call(s), checks excluded.
    pub seconds: f64,
    /// Wall seconds of each query in the op; every op of a workload
    /// sends the same queries in the same order.
    pub query_seconds: Vec<f64>,
    /// Device uploads the op ingested.
    pub uploads: usize,
    /// Output checks that failed, in words.
    pub failures: Vec<String>,
}

/// One of the six workloads, set up and ready to run ops.
pub trait Workload {
    /// The last step of set-up: the workload's op on the smallest
    /// deployment the facade runs it on (a [`FIRST_DEVICES`] prefix where
    /// the op ingests devices, the op itself where it does not). It pays
    /// what a process pays once: lazily built tables, plan-cache misses,
    /// first allocations. Returns what went wrong.
    fn first(&mut self) -> Vec<String>;

    /// Runs op `op` through the facade — timed, and under a span when
    /// `tracer` is given — then checks its outputs. Op 0 is the untimed
    /// warm-up; the exact counts come from its reports.
    fn op(&mut self, op: u64, tracer: Option<&mut Tracer>) -> OpOutcome;

    /// Replays the last op's phases through the layer functions under
    /// spans; returns the seconds the replayed phases sum to.
    fn replay(&mut self, op: u64, tracer: &mut Tracer, layers: &mut Layers) -> f64;

    /// Once per traced run, after the ops: exact counts of the warm-up
    /// op, and ratios against baselines. `op_median` is the run's
    /// median facade op.
    fn probe(&mut self, op_median: f64, layers: &mut Layers);

    /// End-of-run checks, the heavy ones included (they run after
    /// `peak_rss_mb` is read); stops what the workload started.
    fn finish(&mut self) -> Vec<String>;

    /// `(devices, categories)` the layer micro-probes should run at;
    /// `None` when no device work happens.
    fn shape(&self) -> Option<(usize, usize)>;

    /// [`inputs_digest`] of what `--seed` generated.
    fn inputs(&self) -> String;
}

/// Sets up workload `name` from `seed`, up to but excluding its first
/// query. `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ingest_wide" => Box::new(OneShot::top1(seed, INGEST_WIDE, 0.01)),
        "ingest_narrow" => Box::new(OneShot::top1(seed, INGEST_NARROW, 0.0)),
        "mechanism_mpc" => Box::new(OneShot::median(seed)),
        "stream_churn" => Box::new(Stream {
            q: OneShot::top1(seed, STREAM_CHURN, 0.0),
            warmup_handoffs: (0, 0),
        }),
        "plan_corpus" => Box::new(PlanCorpus::new(seed)),
        "service_mix" => Box::new(ServiceMix::new(seed, SERVICE_MIX)),
        _ => return None,
    })
}

/// Times `f`, under a span when a tracer is given.
fn timed<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(t) => t.span(name, op, |_| f()),
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64())
        }
    }
}

/// What a report must look like.
pub struct Expect<'a> {
    /// The released outputs.
    pub outputs: &'a [i64],
    /// Uploads offered.
    pub offered: usize,
    /// Whether the workload injects malformed uploads at all.
    pub may_reject: bool,
    /// Budget before the query.
    pub budget: PrivacyCost,
    /// The query's certified cost.
    pub cost: PrivacyCost,
}

/// Whether two budgets are the same bits, not merely close.
fn same_budget(a: PrivacyCost, b: PrivacyCost) -> bool {
    a.epsilon.to_bits() == b.epsilon.to_bits() && a.delta.to_bits() == b.delta.to_bits()
}

/// Checks one execution report; returns what is wrong with it.
pub fn check_report(r: &ExecutionReport, want: &Expect<'_>) -> Vec<String> {
    let mut bad = Vec::new();
    if r.outputs != want.outputs {
        bad.push(format!(
            "released {:?}, expected {:?}",
            r.outputs, want.outputs
        ));
    }
    if r.accepted_inputs + r.rejected_inputs != want.offered {
        bad.push(format!(
            "accepted {} + rejected {} != {} offered",
            r.accepted_inputs, r.rejected_inputs, want.offered
        ));
    }
    if !want.may_reject && r.rejected_inputs != 0 {
        bad.push(format!("{} honest uploads rejected", r.rejected_inputs));
    }
    if !r.audit_ok {
        bad.push("audit failed".into());
    }
    let mut ledger = BudgetLedger::new(want.budget);
    if ledger.charge(want.cost).is_err() {
        bad.push("budget does not cover the certified cost".into());
    }
    let left = ledger.remaining();
    if !same_budget(r.budget_after, left) {
        bad.push(format!(
            "budget after {:?}, expected {:?} (budget - certified cost)",
            r.budget_after, left
        ));
    }
    bad
}

/// The per-op layer samples every device-ingesting workload shares.
/// `mpc.eval_s`, `runtime.audit_s` and the counts are per op, so on
/// `service_mix` they sum over the cycle's four queries, as
/// [`set_report_counts`] does.
fn sample_replay(r: &ReplayOutcome, layers: &mut Layers) {
    let secs = |name: &str| r.phase_seconds.get(name).copied().unwrap_or(0.0);
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 * 1e6 };
    layers.sample("zkp.prove_onehot_us", per(secs("zkp.prove"), r.uploads));
    layers.sample("zkp.verify_onehot_us", per(secs("zkp.verify"), r.uploads));
    layers.sample("bgv.encrypt_us", per(secs("bgv.encrypt"), r.accepted));
    layers.sample("bgv.add_us", per(secs("bgv.aggregate"), r.adds));
    layers.sample("bgv.decrypt_us", per(secs("bgv.decrypt"), r.queries));
    layers.sample("vsr.handoff_us", per(secs("vsr.handoff"), r.handoffs));
    layers.sample("mpc.eval_s", secs("mpc.eval"));
    layers.sample("runtime.audit_s", secs("runtime.audit"));
    if r.phase_seconds.contains_key("runtime.setup_build") {
        layers.sample("runtime.setup_build_s", secs("runtime.setup_build"));
    }
    layers.set("zkp.proof_bytes", r.proof_bytes as f64);
    layers.set("vsr.handoffs", r.handoffs as f64);
    layers.set("vsr.handoff_bytes", r.handoff_bytes as f64);
    layers.set("net.frames", r.frames as f64);
    layers.set("net.framed_bytes", r.framed_bytes as f64);
}

/// Exact counts of the given execution reports, summed.
fn set_report_counts(reports: &[ExecutionReport], layers: &mut Layers) {
    let sum = |f: fn(&ExecutionReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    layers.set("zkp.verify_ops", sum(|r| r.verify_ops));
    layers.set("zkp.rejected", sum(|r| r.rejected_inputs as u64));
    layers.set("bgv.aggregate_ops", sum(|r| r.aggregate_ops));
    layers.set("mpc.rounds", sum(|r| r.mpc_metrics.rounds));
    layers.set("mpc.bytes", sum(|r| r.mpc_metrics.bytes_sent_total));
    layers.set("mpc.triples", sum(|r| r.mpc_metrics.triples));
    layers.set("mpc.field_mults", sum(|r| r.mpc_metrics.field_mults));
}

/// Parse → certify → extract → search of one query through the `lang`
/// and `planner` functions, under spans; adds each phase's seconds to
/// `spent`.
fn plan_phases(
    source: &str,
    schema: DbSchema,
    cfg: CertifyConfig,
    planner: &PlannerConfig,
    op: u64,
    t: &mut Tracer,
    spent: &mut BTreeMap<&'static str, f64>,
) {
    let mut add = |name: &'static str, secs: f64| *spent.entry(name).or_insert(0.0) += secs;
    let (program, secs) = t.span("lang.parse", op, |_| parse(source).expect("parses"));
    add("lang.parse", secs);
    let (_, secs) = t.span("lang.certify", op, |_| {
        certify(&program, &schema, cfg).expect("certifies")
    });
    add("lang.certify", secs);
    // `extract` certifies again on its own; its span holds both.
    let (logical, secs) = t.span("planner.extract", op, |_| {
        extract(&program, &schema, cfg).expect("extracts")
    });
    add("planner.extract", secs);
    let (_, secs) = t.span("planner.search", op, |_| {
        search_plan(&logical, planner).expect("plans")
    });
    add("planner.search", secs);
}

fn sample_plan_phases(spent: &BTreeMap<&'static str, f64>, layers: &mut Layers) {
    for (phase, metric) in [
        ("lang.parse", "lang.parse_s"),
        ("lang.certify", "lang.certify_s"),
        ("planner.extract", "planner.extract_s"),
        ("planner.search", "planner.search_s"),
    ] {
        layers.sample(metric, spent.get(phase).copied().unwrap_or(0.0));
    }
}

fn set_plan_counts(stats: &[arboretum::PlanStats], layers: &mut Layers) {
    let sum = |f: fn(&arboretum::PlanStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    layers.set("planner.candidates", sum(|s| s.full_candidates));
    layers.set("planner.prefixes", sum(|s| s.prefixes_considered));
    layers.set("planner.pruned", sum(|s| s.pruned));
}

/// One query, one-shot through `Arboretum::run`: `ingest_wide`,
/// `ingest_narrow` and `mechanism_mpc`; `stream_churn` wraps it.
struct OneShot {
    seed: u64,
    system: Arboretum,
    source: String,
    certify: CertifyConfig,
    deployment: Deployment,
    assignment: Vec<usize>,
    prepared: PreparedQuery,
    malicious_fraction: f64,
    fabric: Option<FabricKind>,
    expected: Vec<i64>,
    rejected_total: usize,
    last: Option<(ExecutionConfig, ExecutionReport)>,
    warmup: Option<ExecutionReport>,
}

impl OneShot {
    fn new(
        seed: u64,
        source: String,
        certify: CertifyConfig,
        assignment: Vec<usize>,
        categories: usize,
        expected: Vec<i64>,
    ) -> Self {
        let system = Arboretum::new(1 << 20);
        let deployment = Deployment::one_hot(&assignment, categories);
        let prepared = system
            .prepare(&source, deployment.schema, certify)
            .expect("workload query plans");
        Self {
            seed,
            system,
            source,
            certify,
            deployment,
            assignment,
            prepared,
            malicious_fraction: 0.0,
            fabric: None,
            expected,
            rejected_total: 0,
            last: None,
            warmup: None,
        }
    }

    fn top1(seed: u64, (devices, categories): (usize, usize), malicious_fraction: f64) -> Self {
        let a = assignment(seed, devices, categories);
        Self {
            malicious_fraction,
            ..Self::new(
                seed,
                TOP1.into(),
                CertifyConfig::default(),
                a,
                categories,
                vec![0],
            )
        }
    }

    fn median(seed: u64) -> Self {
        let categories = MEDIAN_CATEGORIES;
        let q = corpus::median(1 << 20, categories);
        let (a, m) = median_assignment(seed, categories);
        Self {
            fabric: Some(FabricKind::Evented),
            // As tests/corpus_execution.rs does: the corpus ε of 0.1 is
            // far too noisy for dozens of devices.
            ..Self::new(
                seed,
                q.source.replace("0.1", "8.0"),
                q.certify,
                a,
                categories,
                vec![m as i64],
            )
        }
    }

    fn cfg(&self, op: u64) -> ExecutionConfig {
        exec_cfg(
            derive(self.seed, 0x1000 + op),
            self.malicious_fraction,
            self.fabric,
        )
    }

    fn expect(&self, offered: usize) -> Expect<'_> {
        Expect {
            outputs: &self.expected,
            offered,
            may_reject: self.malicious_fraction > 0.0,
            budget: BUDGET,
            cost: self.prepared.certificate().cost,
        }
    }

    /// The deployment of the first [`FIRST_DEVICES`] devices.
    fn first_deployment(&self) -> Deployment {
        let n = self.assignment.len().min(FIRST_DEVICES);
        Deployment::one_hot(&self.assignment[..n], self.deployment.schema.row_width)
    }

    fn remember(&mut self, op: u64, cfg: ExecutionConfig, report: ExecutionReport) {
        self.rejected_total += report.rejected_inputs;
        if op == 0 {
            self.warmup = Some(report.clone());
        }
        self.last = Some((cfg, report));
    }

    fn replay_windows(
        &self,
        windows: Vec<Vec<usize>>,
        op: u64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> f64 {
        let (cfg, report) = self.last.as_ref().expect("an op ran before its replay");
        let r = replay_query(
            &QueryReplay {
                deployment: &self.deployment,
                prepared: &self.prepared,
                cfg,
                windows,
                rejected: report.rejected_inputs,
                setup: None,
            },
            op,
            tracer,
        );
        sample_replay(&r, layers);
        r.total_seconds()
    }
}

/// What a first query's result says went wrong.
fn first_failures<E: std::fmt::Display>(audit_ok: Result<bool, E>) -> Vec<String> {
    match audit_ok {
        Ok(true) => Vec::new(),
        Ok(false) => vec!["first query: audit failed".into()],
        Err(e) => vec![format!("first query failed: {e}")],
    }
}

impl Workload for OneShot {
    fn first(&mut self) -> Vec<String> {
        let run = self
            .system
            .run(&self.prepared, &self.first_deployment(), &self.cfg(0));
        first_failures(run.map(|r| r.audit_ok))
    }

    fn op(&mut self, op: u64, tracer: Option<&mut Tracer>) -> OpOutcome {
        let cfg = self.cfg(op);
        let (result, seconds) = timed(tracer, "facade.run", op, || {
            self.system.run(&self.prepared, &self.deployment, &cfg)
        });
        let offered = self.deployment.db.len();
        let failures = match result {
            Ok(report) => {
                let bad = check_report(&report, &self.expect(offered));
                self.remember(op, cfg, report);
                bad
            }
            Err(e) => vec![format!("run failed: {e}")],
        };
        OpOutcome {
            seconds,
            query_seconds: vec![seconds],
            uploads: offered,
            failures,
        }
    }

    fn replay(&mut self, op: u64, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
        let everyone = (0..self.deployment.db.len()).collect();
        self.replay_windows(vec![everyone], op, tracer, layers)
    }

    fn probe(&mut self, _op_median: f64, layers: &mut Layers) {
        let warmup = self.warmup.as_ref().expect("warm-up ran");
        set_report_counts(std::slice::from_ref(warmup), layers);
        set_plan_counts(std::slice::from_ref(&self.prepared.stats), layers);
        // Planning is paid once, in set-up, not per op: time it once.
        let mut spent = BTreeMap::new();
        plan_phases(
            &self.source,
            self.deployment.schema,
            self.certify,
            &self.system.config,
            0,
            &mut Tracer::new(),
            &mut spent,
        );
        sample_plan_phases(&spent, layers);
    }

    fn finish(&mut self) -> Vec<String> {
        if self.malicious_fraction > 0.0 && self.rejected_total == 0 {
            return vec!["no malformed upload was rejected in the whole run".into()];
        }
        Vec::new()
    }

    fn shape(&self) -> Option<(usize, usize)> {
        Some((self.deployment.db.len(), self.deployment.schema.row_width))
    }

    fn inputs(&self) -> String {
        inputs_digest(&self.assignment)
    }
}

/// `stream_churn`: the same query through `Arboretum::run_stream`.
struct Stream {
    q: OneShot,
    /// `(handoffs, framed bytes)` the warm-up epoch's checkpoints report.
    warmup_handoffs: (usize, u64),
}

impl Stream {
    fn schedule(&self, cfg: &ExecutionConfig) -> ArrivalSchedule {
        ArrivalSchedule::derive(cfg.seed, self.q.deployment.db.len(), STREAM_WINDOWS)
    }

    /// The one-shot deployment of exactly the devices that survive the
    /// churn schedule.
    fn survivors_deployment(&self, schedule: &ArrivalSchedule) -> Deployment {
        let rows: Vec<usize> = schedule
            .survivors()
            .iter()
            .map(|&i| self.q.assignment[i])
            .collect();
        Deployment::one_hot(&rows, self.q.deployment.schema.row_width)
    }
}

impl Workload for Stream {
    fn first(&mut self) -> Vec<String> {
        let w = &self.q;
        let run = w.system.run_stream(
            &w.prepared,
            &w.first_deployment(),
            &w.cfg(0),
            STREAM_WINDOWS,
        );
        first_failures(run.map(|r| r.report.audit_ok))
    }

    fn op(&mut self, op: u64, tracer: Option<&mut Tracer>) -> OpOutcome {
        let w = &self.q;
        let cfg = w.cfg(op);
        let (result, seconds) = timed(tracer, "facade.run_stream", op, || {
            w.system
                .run_stream(&w.prepared, &w.deployment, &cfg, STREAM_WINDOWS)
        });
        let schedule = self.schedule(&cfg);
        let survivors = schedule.survivors().len();
        let failures = match result {
            Ok(streamed) => {
                let mut bad = check_report(&streamed.report, &w.expect(survivors));
                if streamed.checkpoints.len() != STREAM_WINDOWS {
                    bad.push(format!("{} checkpoints", streamed.checkpoints.len()));
                }
                if op == 0 {
                    let crossed = streamed
                        .checkpoints
                        .iter()
                        .filter(|c| c.handoff_digest.is_some());
                    self.warmup_handoffs = (
                        crossed.count(),
                        streamed.checkpoints.iter().map(|c| c.handoff_bytes).sum(),
                    );
                }
                self.q.remember(op, cfg, streamed.report);
                bad
            }
            Err(e) => vec![format!("run_stream failed: {e}")],
        };
        OpOutcome {
            seconds,
            query_seconds: vec![seconds],
            uploads: survivors,
            failures,
        }
    }

    fn replay(&mut self, op: u64, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
        let (cfg, _) = self.q.last.as_ref().expect("an op ran before its replay");
        let windows = self.schedule(cfg).windows();
        self.q.replay_windows(windows, op, tracer, layers)
    }

    fn probe(&mut self, op_median: f64, layers: &mut Layers) {
        self.q.probe(op_median, layers);
        layers.set("vsr.handoffs", self.warmup_handoffs.0 as f64);
        layers.set("vsr.handoff_bytes", self.warmup_handoffs.1 as f64);
        let w = &self.q;
        // The same survivors, one-shot: what streaming costs on top.
        let batch: Vec<f64> = (1..=3)
            .map(|op| {
                let cfg = w.cfg(op);
                let d = self.survivors_deployment(&self.schedule(&cfg));
                let start = Instant::now();
                w.system.run(&w.prepared, &d, &cfg).expect("batch run");
                start.elapsed().as_secs_f64()
            })
            .collect();
        layers.set("runtime.stream_over_batch", op_median / median(&batch));
    }

    fn finish(&mut self) -> Vec<String> {
        let mut bad = self.q.finish();
        // The warm-up's streamed epoch must equal the batch run over the
        // same survivors. It is a whole extra op over a second
        // deployment, so it runs here, outside `setup_s` and after
        // `peak_rss_mb` is read.
        let w = &self.q;
        let Some(s) = &w.warmup else {
            return bad;
        };
        let cfg = w.cfg(0);
        let survivors = self.survivors_deployment(&self.schedule(&cfg));
        match w.system.run(&w.prepared, &survivors, &cfg) {
            Ok(batch) => {
                if (&s.outputs, s.accepted_inputs, s.audit_ok)
                    != (&batch.outputs, batch.accepted_inputs, batch.audit_ok)
                    || !same_budget(s.budget_after, batch.budget_after)
                {
                    bad.push("streamed warm-up epoch differs from the batch run".into());
                }
            }
            Err(e) => bad.push(format!("batch run over survivors failed: {e}")),
        }
        bad
    }

    fn shape(&self) -> Option<(usize, usize)> {
        self.q.shape()
    }

    fn inputs(&self) -> String {
        self.q.inputs()
    }
}

/// `plan_corpus`: `prepare` of the ten corpus queries, one sweep an op.
struct PlanCorpus {
    /// Submission order, as indices into `corpus::all_queries`.
    order: Vec<usize>,
    queries: Vec<QuerySpec>,
    signatures: Vec<u64>,
    stats: Vec<arboretum::PlanStats>,
}

impl PlanCorpus {
    const PARTICIPANTS: u64 = 1 << 30;

    fn new(seed: u64) -> Self {
        let corpus = corpus::all_queries(Self::PARTICIPANTS);
        // The seed decides the order the analyst submits them in.
        let mut rng = StdRng::seed_from_u64(derive(seed, 3));
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        Self {
            queries: order.iter().map(|&i| corpus[i].clone()).collect(),
            order,
            signatures: Vec::new(),
            stats: Vec::new(),
        }
    }
}

impl Workload for PlanCorpus {
    fn first(&mut self) -> Vec<String> {
        // Planning has no deployment to shrink: the first sweep it is.
        self.op(0, None).failures
    }

    fn op(&mut self, op: u64, tracer: Option<&mut Tracer>) -> OpOutcome {
        // A fresh system each sweep: no plan cache to hit.
        let mut query_seconds = Vec::with_capacity(self.queries.len());
        let (results, seconds) = timed(tracer, "facade.prepare_sweep", op, || {
            let system = Arboretum::new(Self::PARTICIPANTS);
            self.queries
                .iter()
                .map(|q| {
                    let start = Instant::now();
                    let prepared = system.prepare(&q.source, q.schema, q.certify);
                    query_seconds.push(start.elapsed().as_secs_f64());
                    prepared
                })
                .collect::<Vec<_>>()
        });
        let mut failures = Vec::new();
        let mut signatures = Vec::new();
        let mut stats = Vec::new();
        for (q, r) in self.queries.iter().zip(results) {
            match r {
                Ok(p) => {
                    signatures.push(p.plan.signature());
                    stats.push(p.stats);
                }
                Err(e) => failures.push(format!("{} failed to plan: {e}", q.name)),
            }
        }
        if op == 0 {
            self.signatures = signatures;
            self.stats = stats;
        } else if signatures != self.signatures {
            failures.push("a plan signature changed between sweeps".into());
        }
        OpOutcome {
            seconds,
            query_seconds,
            uploads: 0,
            failures,
        }
    }

    fn replay(&mut self, op: u64, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
        let planner = PlannerConfig::paper_defaults(Self::PARTICIPANTS);
        let mut spent = BTreeMap::new();
        tracer.span("replay", op, |t| {
            for q in &self.queries {
                plan_phases(&q.source, q.schema, q.certify, &planner, op, t, &mut spent);
            }
        });
        sample_plan_phases(&spent, layers);
        // `extract` re-certifies, so the standalone certify span is not
        // part of what a sweep pays.
        spent.remove("lang.certify");
        spent.values().sum()
    }

    fn probe(&mut self, _op_median: f64, layers: &mut Layers) {
        set_plan_counts(&self.stats, layers);
    }

    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }

    fn shape(&self) -> Option<(usize, usize)> {
        None
    }

    fn inputs(&self) -> String {
        inputs_digest(&self.order)
    }
}

/// Checks released outputs against the true per-category counts.
type OutputCheck = fn(&[i64], &[i64]) -> bool;

/// One query shape of `service_mix`.
struct Shape {
    name: &'static str,
    source: String,
    /// What the service's ledger must charge for it.
    cost: PrivacyCost,
    check: OutputCheck,
}

/// What only the traced run needs of `service_mix`: the service's
/// planner and session setup rebuilt on this side of the facade, and
/// each shape planned with them.
struct ServiceReplay {
    system: Arboretum,
    setup: SessionSetup,
    prepared: Vec<PreparedQuery>,
}

/// `service_mix`: a standing service and one closed-loop analyst.
struct ServiceMix {
    seed: u64,
    handle: Option<ServiceHandle>,
    deployment: Deployment,
    assignment: Vec<usize>,
    catalog: CatalogConfig,
    /// Built by the first `replay` or `probe`.
    replayed: Option<ServiceReplay>,
    truth: Vec<i64>,
    shapes: Vec<Shape>,
    queries: u64,
    charged_epsilon: f64,
    setup_ops: u64,
    em_seconds: Vec<f64>,
    last: Vec<ExecutionReport>,
    warmup: Vec<ExecutionReport>,
}

impl ServiceMix {
    /// Far more than any run can spend: the loop is bounded by time.
    const ALLOTMENT: PrivacyCost = PrivacyCost {
        epsilon: 1e9,
        delta: 0.5,
    };

    fn new(seed: u64, (devices, categories): (usize, usize)) -> Self {
        let a = assignment(seed, devices, categories);
        let deployment = Deployment::one_hot(&a, categories);
        let truth = counts(&a, categories);
        let boost = |q: QuerySpec| q.source.replace("0.1", "8.0");
        let sources: [(&'static str, String, OutputCheck); 4] = [
            ("em", TOP1.into(), |out, _| out == [0]),
            ("histogram", HISTOGRAM.into(), |out, truth| {
                out.len() == truth.len() && out.iter().zip(truth).all(|(o, t)| (o - t).abs() <= 16)
            }),
            (
                "gap",
                boost(corpus::gap(1 << 20, categories)),
                |out, truth| {
                    out.len() == 2 && out[0] == 0 && (out[1] - (truth[0] - truth[1])).abs() <= 16
                },
            ),
            (
                "top_k",
                boost(corpus::top_k(1 << 20, categories, 3)),
                |out, _| {
                    let mut top = out.to_vec();
                    top.sort_unstable();
                    top == [0, 1, 2]
                },
            ),
        ];
        let config = CatalogConfig {
            seed: derive(seed, 4),
            base: exec_cfg(0, 0.0, None),
            deployment_budget: Self::ALLOTMENT,
            ..CatalogConfig::default()
        };
        // Certified with the catalog's own configuration, so the costs
        // are what the service charges.
        let shapes = sources
            .into_iter()
            .map(|(name, source, check)| Shape {
                name,
                cost: certify(
                    &parse(&source).expect("service query parses"),
                    &deployment.schema,
                    config.certify,
                )
                .expect("service query certifies")
                .cost,
                source,
                check,
            })
            .collect();
        let handle = ServiceHandle::start(
            deployment.clone(),
            ServiceConfig {
                catalog: config.clone(),
                workers: 1,
                pool_capacity: 1,
            },
        )
        .expect("service starts");
        handle
            .open_session(ANALYST, Self::ALLOTMENT)
            .expect("session opens");
        Self {
            seed,
            handle: Some(handle),
            deployment,
            assignment: a,
            catalog: config,
            replayed: None,
            truth,
            shapes,
            queries: 0,
            charged_epsilon: 0.0,
            setup_ops: 0,
            em_seconds: Vec::new(),
            last: Vec::new(),
            warmup: Vec::new(),
        }
    }
}

impl ServiceReplay {
    fn build(catalog: &CatalogConfig, deployment: &Deployment, shapes: &[Shape]) -> Self {
        let system = Arboretum {
            config: catalog.planner.clone(),
        };
        let prepared = shapes
            .iter()
            .map(|s| {
                system
                    .prepare(&s.source, deployment.schema, catalog.certify)
                    .expect("service query plans")
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(catalog.seed);
        let setup = build_session_setup(
            deployment,
            catalog.base.committee_size,
            catalog.seed,
            &mut rng,
        )
        .expect("setup builds");
        Self {
            system,
            setup,
            prepared,
        }
    }
}

impl ServiceMix {
    /// Sends the first `shapes` query shapes, one after the other.
    fn cycle(&mut self, shapes: usize, op: u64, mut tracer: Option<&mut Tracer>) -> OpOutcome {
        let handle = self.handle.as_ref().expect("service is running");
        let mut failures = Vec::new();
        let mut query_seconds = Vec::new();
        self.last.clear();
        for shape in &self.shapes[..shapes] {
            let (result, seconds) = timed(tracer.as_deref_mut(), "facade.service_run", op, || {
                handle.run(ANALYST, &shape.source)
            });
            query_seconds.push(seconds);
            self.queries += 1;
            self.charged_epsilon += shape.cost.epsilon;
            if shape.name == "em" && op > 0 {
                self.em_seconds.push(seconds);
            }
            match result {
                Ok(r) => {
                    if !(shape.check)(&r.outputs, &self.truth) {
                        failures.push(format!("{} released {:?}", shape.name, r.outputs));
                    }
                    if !r.setup.is_zero() {
                        failures.push(format!("{} paid setup {:?}", shape.name, r.setup));
                    }
                    if !r.audit_ok || r.rejected_inputs != 0 {
                        failures.push(format!("{}: audit or honest upload failed", shape.name));
                    }
                    self.setup_ops += r.setup.sortition_committees + r.setup.keygen_ops;
                    self.last.push(r);
                }
                Err(e) => failures.push(format!("{} failed: {e}", shape.name)),
            }
        }
        OpOutcome {
            seconds: query_seconds.iter().sum(),
            uploads: self.deployment.db.len() * query_seconds.len(),
            query_seconds,
            failures,
        }
    }
}

impl Workload for ServiceMix {
    fn first(&mut self) -> Vec<String> {
        // The service stands over one deployment, so nothing shrinks:
        // the first query an analyst sends it is.
        self.cycle(1, 0, None).failures
    }

    fn op(&mut self, op: u64, tracer: Option<&mut Tracer>) -> OpOutcome {
        let outcome = self.cycle(self.shapes.len(), op, tracer);
        if op == 0 {
            self.warmup = self.last.clone();
        }
        outcome
    }

    fn replay(&mut self, op: u64, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
        // The service derives each query's seed itself; the replay only
        // needs a seed, not that one.
        let cfg = exec_cfg(derive(self.seed, 0x1000 + op), 0.0, None);
        let everyone: Vec<usize> = (0..self.deployment.db.len()).collect();
        let replayed = self.replayed.get_or_insert_with(|| {
            ServiceReplay::build(&self.catalog, &self.deployment, &self.shapes)
        });
        let mut cycle = ReplayOutcome::default();
        for prepared in &replayed.prepared {
            cycle.absorb(replay_query(
                &QueryReplay {
                    deployment: &self.deployment,
                    prepared,
                    cfg: &cfg,
                    windows: vec![everyone.clone()],
                    rejected: 0,
                    setup: Some(&replayed.setup),
                },
                op,
                tracer,
            ));
        }
        sample_replay(&cycle, layers);
        cycle.total_seconds()
    }

    fn probe(&mut self, _op_median: f64, layers: &mut Layers) {
        // Exact counts: the warm-up cycle, summed over its four queries.
        set_report_counts(&self.warmup, layers);
        let replayed = self.replayed.get_or_insert_with(|| {
            ServiceReplay::build(&self.catalog, &self.deployment, &self.shapes)
        });
        let stats: Vec<_> = replayed.prepared.iter().map(|p| p.stats.clone()).collect();
        set_plan_counts(&stats, layers);
        let mut spent = BTreeMap::new();
        let mut t = Tracer::new();
        for s in &self.shapes {
            plan_phases(
                &s.source,
                self.deployment.schema,
                self.catalog.certify,
                &replayed.system.config,
                0,
                &mut t,
                &mut spent,
            );
        }
        sample_plan_phases(&spent, layers);

        let handle = self.handle.as_ref().expect("service is running");
        let (hits, misses) = handle.plan_cache_stats();
        layers.set(
            "planner.cache_hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.set(
            "service.setup_ops_per_query",
            self.setup_ops as f64 / self.queries.max(1) as f64,
        );
        // The same `em` query one-shot on the same deployment pays
        // sortition and keygen every time.
        let em = &replayed.prepared[0];
        let oneshot: Vec<f64> = (1..=3)
            .map(|op| {
                let cfg = exec_cfg(derive(self.seed, 0x2000 + op), 0.0, None);
                let start = Instant::now();
                replayed
                    .system
                    .run(em, &self.deployment, &cfg)
                    .expect("one-shot em");
                start.elapsed().as_secs_f64()
            })
            .collect();
        layers.set(
            "service.amortized_over_oneshot",
            median(&self.em_seconds) / median(&oneshot),
        );
    }

    fn finish(&mut self) -> Vec<String> {
        let Some(handle) = self.handle.take() else {
            return Vec::new();
        };
        let mut bad = Vec::new();
        let stats = handle.plan_cache_stats();
        let shapes = self.shapes.len() as u64;
        if stats
            != (
                self.queries.saturating_sub(shapes),
                shapes.min(self.queries),
            )
        {
            bad.push(format!(
                "plan cache (hits, misses) = {stats:?} after {} queries",
                self.queries
            ));
        }
        let spent = handle.ledger(ANALYST).map(|l| l.spent().epsilon);
        if !spent.is_some_and(|s| (s - self.charged_epsilon).abs() <= 1e-9 * self.charged_epsilon) {
            bad.push(format!(
                "ledger spent {spent:?}, certified {}",
                self.charged_epsilon
            ));
        }
        handle.shutdown();
        bad
    }

    fn shape(&self) -> Option<(usize, usize)> {
        Some((self.deployment.db.len(), self.deployment.schema.row_width))
    }

    fn inputs(&self) -> String {
        inputs_digest(&self.assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_end_of_run_check_compares_the_warm_up_to_the_batch_run() {
        compute_on_calling_thread();
        let mut w = Stream {
            q: OneShot::top1(31, (240, 4), 0.0),
            warmup_handoffs: (0, 0),
        };
        assert_eq!(w.first(), Vec::<String>::new());
        assert_eq!(w.op(0, None).failures, Vec::<String>::new());
        assert_eq!(w.warmup_handoffs.0, STREAM_WINDOWS - 1);
        assert_eq!(w.finish(), Vec::<String>::new());
        // A warm-up that released something else must not pass.
        w.q.warmup.as_mut().unwrap().outputs = vec![1];
        assert_eq!(w.finish().len(), 1);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = assignment(11, 500, 16);
        assert_eq!(inputs_digest(&a), inputs_digest(&assignment(11, 500, 16)));
        assert_ne!(inputs_digest(&a), inputs_digest(&assignment(12, 500, 16)));
        assert!(a.iter().all(|&c| c < 16));
        let zero = a.iter().filter(|&&c| c == 0).count();
        assert!((200..300).contains(&zero), "{zero} of 500 in category 0");
        assert!(assignment(3, 100, 4).iter().all(|&c| c < 4));
        assert_eq!(median_assignment(5, 128), median_assignment(5, 128));
        assert_ne!(median_assignment(5, 128).0, median_assignment(6, 128).0);
        assert_ne!(derive(1, 0x1000), derive(1, 0x1001));
    }

    #[test]
    fn median_assignment_has_a_clear_median() {
        for seed in 0..20 {
            let (a, m) = median_assignment(seed, 128);
            assert_eq!(a.len(), 64);
            let c = counts(&a, 128);
            let cum = |i: usize| c[..=i].iter().sum::<i64>();
            assert_eq!(cum(m), 32, "seed {seed}");
            assert_eq!((cum(m - 1), cum(m + 1)), (26, 38), "seed {seed}");
        }
    }

    #[test]
    fn same_seed_gives_identical_exact_counts_and_a_broken_check_fails() {
        compute_on_calling_thread();
        let run = |seed: u64| {
            let mut w = OneShot::top1(seed, (60, 4), 0.1);
            assert_eq!(w.first(), Vec::<String>::new());
            let outcome = w.op(0, None);
            assert_eq!(outcome.failures, Vec::<String>::new());
            let mut layers = Layers::default();
            w.probe(0.0, &mut layers);
            let report = w.warmup.clone().unwrap();
            let counts: Vec<f64> = spec::PER_LAYER
                .iter()
                .filter(|m| m.exact)
                .map(|m| layers.value(m.name))
                .collect();
            (counts, report, w)
        };
        let (a, report, w) = run(21);
        let (b, _, _) = run(21);
        assert_eq!(a, b);
        assert!(a.iter().any(|&v| v > 0.0));

        // Expecting category 1 from `top1` must fail the check.
        let wrong = Expect {
            outputs: &[1],
            ..w.expect(60)
        };
        assert_eq!(check_report(&report, &wrong).len(), 1);
        let short = Expect {
            budget: PrivacyCost {
                epsilon: 9.0,
                ..BUDGET
            },
            ..w.expect(61)
        };
        assert_eq!(check_report(&report, &short).len(), 2);
    }
}
