//! The `arboretum` command-line tool.
//!
//! ```text
//! arboretum certify <query.arb> [options]   check differential privacy
//! arboretum plan    <query.arb> [options]   choose an execution plan
//! arboretum run     <query.arb> [options]   execute on a simulated deployment
//! arboretum corpus                          list the built-in evaluation queries
//! arboretum attack  --seed N [options]      replay a seeded adversary schedule
//! arboretum serve   [options]               multi-tenant service on stdin/stdout
//!
//! options:
//!   --participants N      deployment size for planning        [default 2^20]
//!   --categories C        one-hot categories in the schema    [default 16]
//!   --trust-sens          accept analyst-declared sensitivities
//!   --goal METRIC         agg-secs | agg-bytes | exp-secs | max-secs |
//!                         exp-bytes | max-bytes               [default exp-secs]
//!   --counts a,b,c,...    simulated per-category populations (run only;
//!                         at most --participants and 2^20 devices in all)
//!   --windows N           run only: ingest uploads in N streaming windows
//!                         with seed-derived device churn, folding each
//!                         window into a checkpointed accumulator and
//!                         decrypting once at epoch close (outputs are
//!                         bitwise identical to the batch run over the
//!                         same surviving devices); without it the epoch
//!                         is one window holding every device, and both
//!                         print the same report
//!   --seed S              simulation seed                      [default 7]
//!   --threads N           worker threads for the aggregator's parallel
//!                         phases (0 = run inline, at most 1024)
//!                                              [default: all host CPUs]
//!
//! attack options:
//!   --seed S              adversary schedule seed              [default 0]
//!   --devices N           deployment size, at most 2^20        [default 48]
//!   --committees C        networked-MPC committees, each seated with 5
//!                         of the devices                       [default 3]
//!   --numeric             numeric (range-proof) pipeline instead of one-hot
//!   --no-net              skip the networked-MPC fault phase
//!   --service             run every epoch on a pre-built session
//!                         catalog's cached setup (the `serve` path)
//!   --aggregator          enable the malicious-aggregator axis: the §5.3
//!                         MHT audit must attribute the seed-derived cheat
//!                         exactly (any mismatch exits non-zero)
//!   --windows N           ingest the epoch in N seed-derived windows with
//!                         device churn; from 2 on a committee seat also
//!                         crashes during one VSR handoff, and every
//!                         detection must name its window   [default 1]
//!   --threads N           as for run
//!
//! serve options:
//!   --devices N           simulated deployment size, at most 2^20
//!                                                              [default 48]
//!   --categories C        one-hot categories                   [default 4]
//!   --seed S              catalog seed                         [default 7]
//!   --workers W           scheduler worker threads (0 = inline,
//!                         at most 1024)                        [default 2]
//!   --pool-capacity P     leasable aggregator pools (at most 1024)
//!                                                              [default 2]
//!   --open NAME:EPS:DELTA pre-open an analyst session (repeatable)
//! ```
//!
//! `serve` speaks the line protocol from `arboretum-service` — `OPEN`,
//! `SUBMIT`, `WAIT`, `RUN`, `INGEST`, `CLOSE`, `STATUS`, `QUIT` — one
//! request per line on stdin, one `OK`/`ERR` response per line on
//! stdout. Every query is one ingestion epoch (`INGEST` spreads it over
//! 1..=devices windows; `CLOSE` is `WAIT` plus the per-window totals),
//! and an allotment (`OPEN`, `--open`) must be finite and non-negative.
//! The catalog pays the sortition + keygen setup once at startup; every
//! served query reports zero setup op counts.
//!
//! Plans, outputs, and metrics are identical at every `--threads`
//! setting; the flag only changes wall-clock time. Every committee's MPC
//! runs on the virtual-time evented fabric.

use std::process::ExitCode;

use arboretum::lang::privacy::CertifyConfig;
use arboretum::planner::cost::Goal;
use arboretum::queries::corpus::all_queries;
use arboretum::runtime::executor::{Deployment, ExecutionConfig};
use arboretum::{Arboretum, DbSchema};

/// The most threads `--threads` or `--workers`, or pools
/// `--pool-capacity`, may ask for. Each is spawned up front, so a larger
/// count only exhausts memory or the thread limit before any work starts.
const MAX_THREADS: usize = 1024;

/// The largest deployment `run --counts`, `attack --devices` and `serve
/// --devices` may simulate: `--participants`' default. Every device's
/// row, registry entry and upload is built up front, so a larger count
/// only exhausts memory before any work starts.
const MAX_DEVICES: usize = 1 << 20;

/// Refuses a count above `max`.
fn at_most(flag: &str, n: usize, max: usize) -> Result<(), String> {
    if n > max {
        return Err(format!("{flag} {n} exceeds the maximum of {max}"));
    }
    Ok(())
}

struct Options {
    participants: u64,
    categories: usize,
    trust_sens: bool,
    goal: Goal,
    counts: Option<Vec<usize>>,
    windows: Option<usize>,
    seed: u64,
    threads: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            participants: 1 << 20,
            categories: 16,
            trust_sens: false,
            goal: Goal::ParticipantExpectedSecs,
            counts: None,
            windows: None,
            seed: 7,
            threads: None,
        }
    }
}

fn parse_goal(s: &str) -> Result<Goal, String> {
    Ok(match s {
        "agg-secs" => Goal::AggSecs,
        "agg-bytes" => Goal::AggBytes,
        "exp-secs" => Goal::ParticipantExpectedSecs,
        "max-secs" => Goal::ParticipantMaxSecs,
        "exp-bytes" => Goal::ParticipantExpectedBytes,
        "max-bytes" => Goal::ParticipantMaxBytes,
        other => return Err(format!("unknown goal {other:?}")),
    })
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--participants" => {
                o.participants = next(args, &mut i)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--categories" => {
                o.categories = next(args, &mut i)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--trust-sens" => o.trust_sens = true,
            "--goal" => o.goal = parse_goal(&next(args, &mut i)?)?,
            "--counts" => {
                let list = next(args, &mut i)?;
                let counts: Result<Vec<usize>, _> = list.split(',').map(str::parse).collect();
                o.counts = Some(counts.map_err(|e| format!("bad counts: {e}"))?);
            }
            "--windows" => {
                let w: usize = next(args, &mut i)?.parse().map_err(|e| format!("{e}"))?;
                if w == 0 {
                    return Err("--windows must be a positive integer".to_string());
                }
                o.windows = Some(w);
            }
            "--seed" => o.seed = next(args, &mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                o.threads = Some(next(args, &mut i)?.parse().map_err(|e| format!("{e}"))?);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 1;
    }
    Ok(o)
}

fn next(args: &[String], i: &mut usize) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}

/// Parses and runs `arboretum attack`: replays the seed-deterministic
/// adversary schedule and prints the harness's cross-check verdict.
fn attack(args: &[String]) -> ExitCode {
    use arboretum_testkit::{
        build_attack_catalog, dump_failure_artifact, run_attack, AttackConfig,
    };

    let mut cfg = AttackConfig::new(0);
    let mut threads = None;
    let mut service_path = false;
    let mut i = 0;
    while i < args.len() {
        let r = match args[i].as_str() {
            "--seed" => next(args, &mut i).and_then(|v| {
                cfg.seed = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            }),
            "--devices" => next(args, &mut i).and_then(|v| {
                cfg.n_devices = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            }),
            "--committees" => next(args, &mut i).and_then(|v| {
                cfg.n_committees = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            }),
            "--numeric" => {
                cfg.numeric = true;
                Ok(())
            }
            "--no-net" => {
                cfg.net_phase = false;
                Ok(())
            }
            "--service" => {
                service_path = true;
                Ok(())
            }
            "--aggregator" => {
                cfg.aggregator = true;
                Ok(())
            }
            "--windows" => next(args, &mut i).and_then(|v| {
                cfg.windows = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            }),
            "--threads" => next(args, &mut i).and_then(|v| {
                threads = Some(
                    v.parse()
                        .map_err(|e: std::num::ParseIntError| format!("{e}"))?,
                );
                Ok(())
            }),
            other => Err(format!("unknown attack option {other:?}")),
        };
        if let Err(e) = r {
            eprintln!("{e}");
            return usage();
        }
        i += 1;
    }
    if let Err(e) = at_most("--devices", cfg.n_devices, MAX_DEVICES) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Some(t) = threads {
        if let Err(e) = at_most("--threads", t, MAX_THREADS) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        cfg.par = arboretum::par::ParConfig::fixed(t);
    }
    let result = if service_path {
        build_attack_catalog(&cfg).and_then(|catalog| run_attack(&cfg, Some(&catalog)))
    } else {
        run_attack(&cfg, None)
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.summary());
            if outcome.ok() {
                ExitCode::SUCCESS
            } else {
                if let Ok(path) = dump_failure_artifact(&cfg, &outcome) {
                    eprintln!("artifact: {}", path.display());
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("attack run failed to execute: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses and runs `arboretum serve`: stands up a session catalog over
/// a simulated deployment and speaks the service line protocol on
/// stdin/stdout until `QUIT` or end of input.
fn serve(args: &[String]) -> ExitCode {
    use arboretum::dp::budget::PrivacyCost;
    use arboretum::service::{serve_connection, CatalogConfig, ServiceConfig, ServiceHandle};

    let mut devices = 48usize;
    let mut categories = 4usize;
    let mut seed = 7u64;
    let mut workers = 2usize;
    let mut pool_capacity = 2usize;
    let mut opens: Vec<(String, PrivacyCost)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let r = match args[i].as_str() {
            "--devices" => next(args, &mut i).and_then(|v| {
                devices = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            }),
            "--categories" => next(args, &mut i).and_then(|v| {
                categories = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            }),
            "--seed" => next(args, &mut i).and_then(|v| {
                seed = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            }),
            "--workers" => next(args, &mut i).and_then(|v| {
                workers = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            }),
            "--pool-capacity" => next(args, &mut i).and_then(|v| {
                pool_capacity = v.parse().map_err(|e| format!("{e}"))?;
                Ok(())
            }),
            "--open" => next(args, &mut i).and_then(|v| {
                let parts: Vec<&str> = v.split(':').collect();
                let [name, eps, delta] = parts.as_slice() else {
                    return Err(format!("--open wants NAME:EPS:DELTA, got {v:?}"));
                };
                let epsilon = eps.parse().map_err(|e| format!("{e}"))?;
                let delta = delta.parse().map_err(|e| format!("{e}"))?;
                opens.push((name.to_string(), PrivacyCost { epsilon, delta }));
                Ok(())
            }),
            other => Err(format!("unknown serve option {other:?}")),
        };
        if let Err(e) = r {
            eprintln!("{e}");
            return usage();
        }
        i += 1;
    }
    if categories == 0 || devices == 0 {
        eprintln!("--devices and --categories must be positive");
        return ExitCode::FAILURE;
    }
    if let Err(e) = at_most("--devices", devices, MAX_DEVICES)
        .and_then(|()| at_most("--workers", workers, MAX_THREADS))
        .and_then(|()| at_most("--pool-capacity", pool_capacity, MAX_THREADS))
    {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    let assignments: Vec<usize> = (0..devices).map(|i| i % categories).collect();
    let deployment = Deployment::one_hot(&assignments, categories);
    let catalog = CatalogConfig {
        seed,
        ..CatalogConfig::default()
    };
    let handle = match ServiceHandle::start(
        deployment,
        ServiceConfig {
            catalog,
            workers,
            pool_capacity,
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("catalog setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, allotment) in &opens {
        if let Err(e) = handle.open_session(name, *allotment) {
            eprintln!("cannot open session {name:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let s = handle.setup_counters();
    eprintln!(
        "serving {devices} devices x {categories} categories (seed {seed}, {workers} worker(s)); \
         setup paid once: {} committees, {} keygen, {} keygen-MPC rounds",
        s.sortition_committees, s.keygen_ops, s.keygen_mpc_rounds
    );
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    if let Err(e) = serve_connection(&handle, stdin.lock(), stdout.lock()) {
        eprintln!("connection error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: arboretum <certify|plan|run|corpus|attack|serve> [query-file] [options]\n\
         run `arboretum corpus` to list built-in queries; a query file\n\
         contains the Figure 2 language, e.g.:\n\
         \n\
         aggr = sum(db);\n\
         result = em(aggr, 0.5);\n\
         output(result);"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "corpus" => {
            println!(
                "{:<12} {:<28} {:>6} {:>5}",
                "name", "action", "lines", "new"
            );
            for q in all_queries(1 << 30) {
                println!(
                    "{:<12} {:<28} {:>6} {:>5}",
                    q.name,
                    q.action,
                    q.line_count(),
                    if q.is_new { "yes" } else { "" }
                );
            }
            ExitCode::SUCCESS
        }
        "attack" => attack(&args[1..]),
        "serve" => serve(&args[1..]),
        "certify" | "plan" | "run" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let opts = match parse_options(&args[2..]) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            dispatch(cmd, &source, &opts)
        }
        _ => usage(),
    }
}

fn dispatch(cmd: &str, source: &str, opts: &Options) -> ExitCode {
    if let Some(t) = opts.threads {
        if let Err(e) = at_most("--threads", t, MAX_THREADS) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        // Pins the process-wide default; sortition and the executor's
        // parallel phases resolve through it.
        arboretum::par::configure_global(arboretum::par::ParConfig::fixed(t));
    }
    let schema = DbSchema::one_hot(opts.participants, opts.categories);
    let certify_cfg = CertifyConfig {
        trust_declared_sensitivity: opts.trust_sens,
        ..Default::default()
    };
    let mut system = Arboretum::new(opts.participants);
    system.config.goal = opts.goal;
    // Streaming epochs offer the planner the per-window-vs-whole-epoch
    // choice; appended last, so plans only change when a per-window
    // aggregator-time cap binds.
    system.config.stream_windows = opts.windows.map(|w| w as u64);

    // The planner reads no clock; the CLI times the call it makes.
    let prepare_start = std::time::Instant::now();
    let prepared = match system.prepare(source, schema, certify_cfg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prepare_time = prepare_start.elapsed();
    let cert = prepared.certificate();
    println!(
        "certified: epsilon = {:.4}, delta = {:.2e}{}",
        cert.cost.epsilon,
        cert.cost.delta,
        cert.sampling_rate
            .map(|p| format!(", sampled at {p}"))
            .unwrap_or_default()
    );
    for m in &cert.mechanisms {
        println!(
            "  mechanism {:?}: sensitivity {}, epsilon {:.4}",
            m.builtin, m.sensitivity, m.cost.epsilon
        );
    }
    if cmd == "certify" {
        return ExitCode::SUCCESS;
    }

    println!(
        "\nplan: {} vignettes, {} committees of {} members ({:.5}% of devices serve)",
        prepared.plan.vignettes.len(),
        prepared.plan.total_committees,
        prepared.plan.committee_size,
        prepared.plan.committee_fraction() * 100.0
    );
    for v in &prepared.plan.vignettes {
        println!("  {:?} @ {:?} [{:?}]", v.op, v.location, v.scheme);
    }
    let m = &prepared.plan.metrics;
    println!(
        "\nmodeled costs at N = {}:\n  aggregator     {:>12.1} core-s   {:>10.2} GB sent\n  participant    {:>12.3} s exp    {:>10.3} MB exp\n                 {:>12.1} s max    {:>10.1} MB max",
        opts.participants,
        m.agg_secs,
        m.agg_bytes / 1e9,
        m.part_exp_secs,
        m.part_exp_bytes / 1e6,
        m.part_max_secs,
        m.part_max_bytes / 1e6,
    );
    println!(
        "planner: {} prefixes, {} candidates, certified and planned in {:?}",
        prepared.stats.prefixes_considered, prepared.stats.full_candidates, prepare_time
    );
    if cmd == "plan" {
        return ExitCode::SUCCESS;
    }

    // run: simulate a deployment.
    let counts = opts
        .counts
        .clone()
        .unwrap_or_else(|| vec![20; opts.categories]);
    if counts.len() != opts.categories {
        eprintln!(
            "--counts has {} entries but --categories is {}",
            counts.len(),
            opts.categories
        );
        return ExitCode::FAILURE;
    }
    // The plan was certified and sized for `--participants` devices; a
    // larger deployment is refused before its assignments are built.
    let placed = counts.iter().try_fold(0usize, |sum, &n| sum.checked_add(n));
    let Some(placed) = placed.filter(|&n| n as u64 <= opts.participants) else {
        eprintln!(
            "--counts places more devices than the {} --participants the plan was sized for",
            opts.participants
        );
        return ExitCode::FAILURE;
    };
    if let Err(e) = at_most("--counts total", placed, MAX_DEVICES) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let assignments: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(c, &n)| std::iter::repeat_n(c, n))
        .collect();
    if assignments.is_empty() {
        eprintln!("--counts must place at least one device");
        return ExitCode::FAILURE;
    }
    let deployment = Deployment::one_hot(&assignments, opts.categories);
    let exec = ExecutionConfig {
        seed: opts.seed,
        ..Default::default()
    };
    match system.run_epoch(&prepared, &deployment, &exec, opts.windows) {
        Ok(epoch) => {
            print_epoch(&epoch, deployment.db.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("execution failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints one executed epoch — `arboretum run` with or without
/// `--windows`: every window's checkpoint, any typed detection, and the
/// close-time report.
fn print_epoch(epoch: &arboretum::runtime::stream::StreamReport, devices: usize) {
    println!(
        "\nexecuted {} window(s) over {devices} simulated devices:",
        epoch.checkpoints.len()
    );
    for c in &epoch.checkpoints {
        println!(
            "  window {}: {} arrivals, {} accepted, {} rejected ({} cumulative){}{}",
            c.window,
            c.arrivals,
            c.accepted,
            c.rejected,
            c.cumulative_accepted,
            c.accumulator_digest
                .map(|d| format!(
                    ", acc {}",
                    d[..4]
                        .iter()
                        .map(|b| format!("{b:02x}"))
                        .collect::<String>()
                ))
                .unwrap_or_default(),
            if c.handoff_digest.is_some() {
                format!(", handoff {} B", c.handoff_bytes)
            } else {
                String::new()
            },
        );
    }
    if !epoch.detections.is_empty() {
        println!("  detections:");
        for d in &epoch.detections {
            println!("    window {} | {:?}: {:?}", d.window, d.subject, d.kind);
        }
    }
    let report = &epoch.report;
    println!("  outputs: {:?}", report.outputs);
    println!(
        "  inputs: {} accepted, {} rejected",
        report.accepted_inputs, report.rejected_inputs
    );
    println!(
        "  MPC: {} rounds, {:.2} MB, {} triples",
        report.mpc_metrics.rounds,
        report.mpc_metrics.bytes_sent_total as f64 / 1e6,
        report.mpc_metrics.triples
    );
    println!("  audit ok: {}", report.audit_ok);
    println!("  budget remaining: {:.4}", report.budget_after.epsilon);
}
