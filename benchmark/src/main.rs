//! The repository's end-to-end benchmark (`BENCHMARK.json`).
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark compare A B
//! ```
//!
//! With `--workload` it runs that workload once and prints, as its last
//! line, the result object the driver reads. Without, it runs every
//! workload, each in a fresh process of this binary (so `peak_rss_mb`
//! is per workload), plain and then traced. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod probes;
mod replay;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use run::{RunArgs, RunResult};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE]\n       benchmark compare A B";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<String>,
    setup_probe: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        out: None,
        setup_probe: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--setup-probe" => cli.setup_probe = Some(value()?),
            "--out" => cli.out = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Appends the run to `path`, a `workload seed trace name value` line
/// per check count and metric: what `compare` reads.
fn append_record(path: &str, args: &RunArgs, result: &RunResult) -> Result<(), String> {
    let key = format!("{} {} {}", args.workload, args.seed, u8::from(args.trace));
    let mut lines = format!(
        "{key} attempted {}\n{key} failed {}\n",
        result.attempted, result.failed
    );
    for (m, v) in &result.metrics {
        lines.push_str(&format!("{key} {} {v}\n", m.name));
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(lines.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

/// Every workload, each in a fresh process of this binary; `Ok(false)`
/// when any run failed a check.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let modes = cli.trace.map_or(vec![false, true], |t| vec![t]);
    let mut all_correct = true;
    for workload in spec::WORKLOADS {
        println!("== {workload}");
        for &trace in &modes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(out) = &cli.out {
                cmd.args(["--out", out]);
            }
            // The child inherits standard output, so its metrics print as it goes.
            let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
            all_correct &= status.success();
        }
    }
    Ok(all_correct)
}

fn real_main(started: Instant) -> Result<bool, String> {
    workloads::compute_on_calling_thread();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args.as_slice() else {
            return Err(USAGE.into());
        };
        let read = |p: &String| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            compare::RunSet::parse(&text).map_err(|e| format!("{p}: {e}"))
        };
        return Ok(compare::compare(&read(a)?, &read(b)?));
    }
    let cli = parse_cli(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some(name) = &cli.setup_probe {
        // Dropping the workload stops what it started.
        let set_up = run::set_up(name, cli.seed, started)?;
        drop(set_up.workload);
        println!("{}", set_up.seconds);
        for f in &set_up.failures {
            eprintln!("CHECK FAILED [first query]: {f}");
        }
        return Ok(set_up.failures.is_empty());
    }
    let Some(workload) = cli.workload.clone() else {
        return run_all(&cli);
    };
    let run_args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace.unwrap_or(false),
    };
    let result = run::run(&run_args, started)?;
    if let Some(out) = &cli.out {
        append_record(out, &run_args, &result)?;
    }
    println!("{}", result.line());
    Ok(result.correct())
}

fn main() -> ExitCode {
    match real_main(Instant::now()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
