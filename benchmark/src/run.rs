//! One run of one workload: set-up, the untimed warm-up op, the timed
//! loop, checks, and the result line the driver reads.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::probes;
use crate::replay::PHASES;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{fastest, median, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Layers, Workload};

/// Set-ups sampled per untraced run: this process's own plus child
/// processes of the same binary, because lazily built tables are paid
/// once per process and would vanish from an in-process repeat.
const SETUP_SAMPLES: usize = 7;

/// Workloads whose replayed phases must sum to the measured op.
const PHASE_SUM_CHECKED: [&str; 3] = ["ingest_wide", "ingest_narrow", "mechanism_mpc"];
const MAX_UNATTRIBUTED: f64 = 0.15;

/// Where the traced run writes its spans.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// What to run.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain (end-to-end metrics).
    pub trace: bool,
}

/// A finished run.
pub struct RunResult {
    /// Checked steps: the first query, each op, the end-of-run checks.
    pub attempted: u64,
    /// How many of them failed a check.
    pub failed: u64,
    /// Every metric of the run's mode, in `spec` order.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON object the driver reads: `{"correct",
    /// "attempted", "failed", "metrics"}`. Names and units need no
    /// escaping (a unit test holds them to `[A-Za-z0-9_.%/-]`).
    pub fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A workload that has answered its first query.
pub struct SetUp {
    /// The workload, ready for its warm-up op.
    pub workload: Box<dyn Workload>,
    /// What the first query got wrong.
    pub failures: Vec<String>,
    /// Seconds from process start to the end of the first query: one
    /// sample of `setup_s`.
    pub seconds: f64,
}

/// Sets workload `name` up, through its first query. `started` is
/// process start.
pub fn set_up(name: &str, seed: u64, started: Instant) -> Result<SetUp, String> {
    let mut workload =
        workloads::build(name, seed).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let failures = workload.first();
    Ok(SetUp {
        workload,
        failures,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// Checked ops and how many failed, with each failure reported once on
/// standard error.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn note(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("CHECK FAILED [{what}]: {f}");
            }
        }
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Samples set-up time in a fresh process of this binary.
fn setup_in_child(name: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-probe", name, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("set-up child did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up child printed no time: {e}"))
}

fn print_timing(name: &str, samples: &[f64]) {
    if let Some(s) = Summary::of(samples) {
        println!(
            "  {name:<24} n={:<4} min={:.6} q1={:.6} median={:.6} q3={:.6} p{}={:.6}  (s)",
            s.n,
            fastest(samples),
            s.q1,
            s.median,
            s.q3,
            s.tail_pct,
            s.tail
        );
    }
}

fn result(checks: &Checks, specs: &'static [MetricSpec], value: impl Fn(&str) -> f64) -> RunResult {
    println!("  {:<34} {:>18}  unit", "metric", "value");
    let metrics = specs
        .iter()
        .map(|m| {
            let v = value(m.name);
            println!("  {:<34} {v:>18.6}  {}", m.name, m.unit);
            (m, v)
        })
        .collect();
    RunResult {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    }
}

/// Runs one workload, plain or traced. `started` is process start.
pub fn run(args: &RunArgs, started: Instant) -> Result<RunResult, String> {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let SetUp {
        workload: mut w,
        failures: first_failures,
        seconds: setup_s,
    } = set_up(&args.workload, args.seed, started)?;
    match w.shape() {
        Some((devices, categories)) => println!(
            "  inputs {} ({devices} devices x {categories} categories)",
            w.inputs()
        ),
        None => println!("  inputs {}", w.inputs()),
    }
    let mut checks = Checks::default();
    checks.note("first query", &first_failures);
    checks.note("warm-up", &w.op(0, None).failures);
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        run_traced(args, w.as_mut(), checks, budget)
    } else {
        run_plain(args, w.as_mut(), checks, budget, setup_s)
    }
}

fn run_plain(
    args: &RunArgs,
    w: &mut dyn Workload,
    mut checks: Checks,
    budget: Duration,
    own_setup_s: f64,
) -> Result<RunResult, String> {
    let mut per_query = Vec::new();
    let mut kinds: Vec<Vec<f64>> = Vec::new();
    let loop_start = Instant::now();
    let mut op = 1;
    while loop_start.elapsed() < budget || per_query.is_empty() {
        let o = w.op(op, None);
        checks.note(&format!("op {op}"), &o.failures);
        per_query.push(o.seconds / o.query_seconds.len() as f64);
        kinds.resize(o.query_seconds.len(), Vec::new());
        for (kind, s) in kinds.iter_mut().zip(o.query_seconds) {
            kind.push(s);
        }
        op += 1;
    }
    // Before the end-of-run checks, which may run whole extra ops.
    let peak_rss_mb = peak_rss_mb();
    checks.note("end of run", &w.finish());

    let mut setups = vec![own_setup_s];
    for _ in 1..SETUP_SAMPLES {
        setups.push(setup_in_child(&args.workload, args.seed)?);
    }
    print_timing("setup_s", &setups);
    print_timing("query_latency_s", &per_query);
    // A query kind is a position in the op: ten on `plan_corpus`, four
    // on `service_mix`, one elsewhere.
    let latency_min = kinds.iter().map(|k| fastest(k)).sum::<f64>() / kinds.len() as f64;
    let values = BTreeMap::from([
        ("setup_s", fastest(&setups)),
        ("query_latency_min_s", latency_min),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    Ok(result(&checks, &END_TO_END, |name| values[name]))
}

fn run_traced(
    args: &RunArgs,
    w: &mut dyn Workload,
    mut checks: Checks,
    budget: Duration,
) -> Result<RunResult, String> {
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (mut plain, mut traced, mut query_seconds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut facade_total, mut replay_total, mut uploads) = (0.0, 0.0, 0usize);
    let mut plain_queries = 0usize;
    let loop_start = Instant::now();
    let mut op = 1;
    // Plain and traced ops alternate, so the tracing overhead is the
    // difference of two medians taken under the same host conditions.
    while loop_start.elapsed() < budget || traced.is_empty() {
        let o = w.op(op, None);
        checks.note(&format!("op {op}"), &o.failures);
        plain.push(o.seconds);
        plain_queries += o.query_seconds.len();
        let o = w.op(op + 1, Some(&mut tracer));
        checks.note(&format!("op {}", op + 1), &o.failures);
        traced.push(o.seconds);
        facade_total += o.seconds;
        uploads += o.uploads;
        query_seconds.extend(o.query_seconds);
        replay_total += w.replay(op + 1, &mut tracer, &mut layers);
        op += 2;
    }
    let op_median = median(&traced);
    w.probe(op_median, &mut layers);
    if let Some((devices, categories)) = w.shape() {
        probes::run(args.seed, devices, categories, &mut layers);
    }
    checks.note("end of run", &w.finish());

    let unattributed = 1.0 - replay_total / facade_total;
    layers.set("runtime.unattributed_share", unattributed);
    layers.set("runtime.uploads_per_s", uploads as f64 / facade_total);
    layers.set("trace.overhead_share", op_median / median(&plain) - 1.0);
    layers.set(
        "trace.spans_per_op",
        (tracer.spans().len() / traced.len()) as f64,
    );
    // Mean-based, so a tail that a median hides moves it; so do the
    // host's slow stretches, which is why it carries no bound.
    layers.set(
        "runtime.queries_per_s",
        plain_queries as f64 / plain.iter().sum::<f64>(),
    );
    let tail = Summary::of(&query_seconds).expect("at least one traced op");
    layers.set("runtime.latency_p50_s", tail.median);
    layers.set("runtime.latency_tail_s", tail.tail);
    layers.set("runtime.latency_tail_pct", f64::from(tail.tail_pct));

    // Where a query's time goes: self time per span name, as a share
    // of the measured facade time.
    let own = tracer.self_seconds();
    println!("  {:<24} {:>12} {:>8}", "phase", "seconds", "share");
    for (name, secs) in &own {
        if !name.starts_with("facade.") && *name != "replay" {
            println!(
                "  {name:<24} {secs:>12.6} {:>7.1}%",
                100.0 * secs / facade_total
            );
        }
    }
    println!(
        "  {:<24} {:>12.6} {:>7.1}%",
        "(unattributed)",
        facade_total - replay_total,
        100.0 * unattributed
    );
    for (span, metric) in PHASES {
        layers.set(metric, own.get(span).copied().unwrap_or(0.0) / facade_total);
    }
    if PHASE_SUM_CHECKED.contains(&args.workload.as_str()) {
        let ok = unattributed.abs() <= MAX_UNATTRIBUTED;
        let why = format!("replayed phases leave {unattributed:.3} of the op unattributed");
        checks.note(
            "phase sum",
            if ok { &[] } else { std::slice::from_ref(&why) },
        );
    }
    print_timing("facade op, plain", &plain);
    print_timing("facade op, traced", &traced);

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{}.json", args.workload);
    std::fs::write(&path, tracer.to_json(&args.workload, args.seed))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("  {} spans written to {path}", tracer.spans().len());
    Ok(result(&checks, &PER_LAYER, |name| layers.value(name)))
}
