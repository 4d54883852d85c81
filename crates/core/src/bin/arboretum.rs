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
//!   --counts a,b,c,...    simulated per-category populations (run only)
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
//!                         phases (0 = run inline)
//!                                              [default: all host CPUs]
//!   --shards K            independent aggregator pools, each pinned to
//!                         a contiguous device shard       [default: 1]
//!   --fabric F            network fabric for the simulated MPC engines:
//!                         sim | evented                 [default: sim]
//!
//! attack options:
//!   --seed S              adversary schedule seed              [default 0]
//!   --devices N           deployment size                      [default 48]
//!   --committees C        networked-MPC committees             [default 3]
//!   --numeric             numeric (range-proof) pipeline instead of one-hot
//!   --no-net              skip the networked-MPC fault phase
//!   --service             route both runs through a pre-built session
//!                         catalog (the `serve` execution path)
//!   --aggregator          enable the malicious-aggregator axis: the §5.3
//!                         MHT audit must attribute the seed-derived cheat
//!                         exactly (any mismatch exits non-zero)
//!   --adaptive            drive the run with an adaptive adversary whose
//!                         decisions condition on observed traffic (the
//!                         failure artifact logs every decision)
//!   --stream              mid-stream battery instead of the batch one:
//!                         a seed-drawn device tampers in one ingestion
//!                         window and a committee seat crashes during a
//!                         VSR handoff; the cross-checks demand exactly
//!                         one typed detection each with window-exact
//!                         attribution and bitwise-untouched honest
//!                         checkpoints
//!   --windows N           ingestion windows for --stream       [default 4]
//!   --fabric F            fabric for the MPC engines: sim | evented
//!                         (outcomes are identical on either; the
//!                         networked fault phase always runs per-thread
//!                         parties on evented endpoints)
//!
//! serve options:
//!   --devices N           simulated deployment size            [default 48]
//!   --categories C        one-hot categories                   [default 4]
//!   --seed S              catalog seed                         [default 7]
//!   --workers W           scheduler worker threads (0 = inline) [default 2]
//!   --pool-capacity P     leasable aggregator pools            [default 2]
//!   --open NAME:EPS:DELTA pre-open an analyst session (repeatable)
//!   --fabric F            process-wide fabric default: sim | evented
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
//! Plans, outputs, and metrics are identical at every `--threads` and
//! `--shards` setting; the flags only change wall-clock time and which
//! pool counters accumulate the work.

use std::process::ExitCode;

use arboretum::lang::privacy::CertifyConfig;
use arboretum::planner::cost::Goal;
use arboretum::queries::corpus::all_queries;
use arboretum::runtime::executor::{Deployment, ExecutionConfig};
use arboretum::{Arboretum, DbSchema};

struct Options {
    participants: u64,
    categories: usize,
    trust_sens: bool,
    goal: Goal,
    counts: Option<Vec<usize>>,
    windows: Option<usize>,
    seed: u64,
    threads: Option<usize>,
    shards: Option<usize>,
    fabric: Option<arboretum::net::FabricKind>,
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
            shards: None,
            fabric: None,
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
            "--shards" => {
                o.shards = Some(next(args, &mut i)?.parse().map_err(|e| format!("{e}"))?);
            }
            "--fabric" => o.fabric = Some(next(args, &mut i)?.parse()?),
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
        build_attack_catalog, dump_failure_artifact, run_attack, run_attack_on_catalog,
        AttackConfig,
    };

    let mut cfg = AttackConfig::new(0);
    let (mut threads, mut shards) = (None, None);
    let mut service_path = false;
    let mut stream = false;
    let mut windows = 4usize;
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
            "--adaptive" => {
                cfg.adaptive = true;
                Ok(())
            }
            "--stream" => {
                stream = true;
                Ok(())
            }
            "--windows" => next(args, &mut i).and_then(|v| {
                windows = v.parse().map_err(|e| format!("{e}"))?;
                if windows == 0 {
                    return Err("--windows must be a positive integer".to_string());
                }
                Ok(())
            }),
            "--threads" => next(args, &mut i).and_then(|v| {
                threads = Some(
                    v.parse()
                        .map_err(|e: std::num::ParseIntError| format!("{e}"))?,
                );
                Ok(())
            }),
            "--shards" => next(args, &mut i).and_then(|v| {
                shards = Some(
                    v.parse()
                        .map_err(|e: std::num::ParseIntError| format!("{e}"))?,
                );
                Ok(())
            }),
            "--fabric" => next(args, &mut i).and_then(|v| {
                cfg.fabric = Some(v.parse()?);
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
    if let Some(t) = threads {
        cfg.par = arboretum::par::ParConfig::fixed(t);
    }
    if let Some(s) = shards {
        cfg.par = cfg.par.with_shards(s);
    }
    if stream {
        return stream_attack(&cfg, windows);
    }
    let result = if service_path {
        build_attack_catalog(&cfg).and_then(|catalog| run_attack_on_catalog(&cfg, &catalog))
    } else {
        run_attack(&cfg)
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

/// Runs the mid-stream adversary battery (`arboretum attack --stream`):
/// a seed-drawn device tampers in one ingestion window and a committee
/// seat crashes during a VSR handoff, and the cross-checks demand
/// window-exact typed detections with every honest checkpoint bitwise
/// untouched.
fn stream_attack(cfg: &arboretum_testkit::AttackConfig, windows: usize) -> ExitCode {
    use arboretum_testkit::{dump_stream_failure_artifact, run_stream_attack, StreamAttackConfig};

    let stream_cfg = StreamAttackConfig {
        seed: cfg.seed,
        n_devices: cfg.n_devices,
        windows,
        numeric: cfg.numeric,
        par: cfg.par,
        fabric: cfg.fabric,
        ..StreamAttackConfig::new(cfg.seed)
    };
    match run_stream_attack(&stream_cfg) {
        Ok(outcome) => {
            println!("{}", outcome.summary());
            if outcome.ok() {
                ExitCode::SUCCESS
            } else {
                if let Ok(path) = dump_stream_failure_artifact(&stream_cfg, &outcome) {
                    eprintln!("artifact: {}", path.display());
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("stream attack failed to execute: {e}");
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
    let mut fabric: Option<arboretum::net::FabricKind> = None;
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
            "--fabric" => next(args, &mut i).and_then(|v| {
                fabric = Some(v.parse::<arboretum::net::FabricKind>()?);
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
    if let Some(kind) = fabric {
        // The catalog and scheduler resolve through the process-wide
        // default; every query served this process uses this fabric.
        arboretum::net::configure_global_fabric(kind);
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
    if opts.threads.is_some() || opts.shards.is_some() {
        // Pins the process-wide defaults; the planner's search and the
        // executor's sharded phases both resolve through them.
        arboretum::par::configure_global(arboretum::par::ParConfig {
            threads: opts.threads,
            shards: opts.shards,
        });
    }
    if let Some(kind) = opts.fabric {
        // The executor's MPC engines resolve through the process-wide
        // default when `ExecutionConfig::fabric` is unset.
        arboretum::net::configure_global_fabric(kind);
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
    let assignments: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(c, &n)| std::iter::repeat_n(c, n))
        .collect();
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
