//! Release-mode smoke driver for the evented fabric's headline
//! workload: one process runs hash sortition over the full device
//! registry and then an upload wave for `--devices N` (default 10^5)
//! simulated devices, all on the virtual-time evented fabric.
//! `--profile million` switches to [`WaveConfig::million`] — the
//! 10^6-device release preset the optimized sortition path is sized
//! for (the CI `wave` job runs it).
//!
//! Checks, in order:
//!
//! 1. Sortition parity: the optimized selection pipeline (fixed-base
//!    exponentiation, parallel ticket kernels, O(n) partial selection)
//!    seats committees bitwise identical to the serial full-sort
//!    reference under the wave beacon.
//! 2. Model parity: the full-population evented wave matches the
//!    closed-form traffic model bitwise, delivers every frame (the
//!    aggregate equals the device count), and keeps the buffer arena's
//!    peak live-buffer count at the batch bound.
//!
//! On failure the offending report is dumped as a JSON artifact under
//! `WAVE_ARTIFACT_DIR` (default `target/wave-failures`) and the process
//! exits nonzero — the artifact is what CI uploads.

use std::process::ExitCode;
use std::time::Instant;

use arboretum_field::FGold;
use arboretum_runtime::{run_wave, sortition_parity, WaveConfig, WaveReport};

fn artifact_dir() -> std::path::PathBuf {
    std::env::var("WAVE_ARTIFACT_DIR")
        .unwrap_or_else(|_| "target/wave-failures".into())
        .into()
}

fn dump_artifact(tag: &str, report: &WaveReport) -> Option<std::path::PathBuf> {
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("wave-{tag}-{}.json", report.devices));
    let m = &report.metrics;
    let o = &report.model;
    let body = format!(
        "{{\n  \"tag\": \"{tag}\",\n  \"devices\": {},\n  \
         \"identical\": {},\n  \"measured\": {{\"frames\": {}, \"payload\": {}, \
         \"payload_max\": {}, \"framed\": {}, \"rounds\": {}}},\n  \
         \"model\": {{\"frames\": {}, \"payload\": {}, \"payload_max\": {}, \
         \"framed\": {}, \"rounds\": {}}}\n}}\n",
        report.devices,
        report.identical(),
        m.frames,
        m.payload_bytes_total,
        m.payload_bytes_max,
        m.framed_bytes_total,
        m.rounds,
        o.frames,
        o.payload_bytes_total,
        o.payload_bytes_max,
        o.framed_bytes_total,
        o.rounds,
    );
    std::fs::write(&path, body).ok()?;
    Some(path)
}

fn fail(tag: &str, report: &WaveReport, why: &str) -> ExitCode {
    eprintln!("FAIL [{tag}]: {why}");
    eprintln!("  measured: {:?}", report.metrics);
    eprintln!("  model:    {:?}", report.model);
    if let Some(path) = dump_artifact(tag, report) {
        eprintln!("  artifact: {}", path.display());
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut cfg = WaveConfig {
        devices: 100_000,
        ..WaveConfig::default()
    };
    let mut devices_override: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--devices" => {
                devices_override = Some(
                    args.next()
                        .expect("--devices needs a value")
                        .trim()
                        .parse()
                        .expect("--devices takes a number"),
                );
            }
            "--profile" => match args.next().expect("--profile needs a value").trim() {
                "million" => cfg = WaveConfig::million(),
                "default" => {}
                other => {
                    eprintln!("unknown profile {other}; use default|million");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag {other}; use --devices N | --profile default|million");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(n) = devices_override {
        cfg.devices = n;
    }
    let devices = cfg.devices;

    // ---- 1. Fast-vs-reference sortition parity: the optimized
    // pipeline (fixed-base exponentiation, parallel ticket kernels,
    // O(n) partial selection) must seat bitwise-identical committees
    // to the serial full-sort reference, under the exact wave beacon
    // and committee shape, at a population where the reference path
    // is affordable.
    let parity_devices = 20_000usize.min(devices);
    if !sortition_parity(&cfg, parity_devices) {
        eprintln!(
            "FAIL [sortition-parity]: optimized sortition diverged from the \
             full-sort reference at {parity_devices} devices"
        );
        let dir = artifact_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("sortition-parity-{parity_devices}.json"));
            let body = format!(
                "{{\n  \"tag\": \"sortition-parity\",\n  \"devices\": {parity_devices},\n  \
                 \"committees\": {},\n  \"committee_size\": {},\n  \"identical\": false\n}}\n",
                cfg.committees, cfg.committee_size
            );
            if std::fs::write(&path, body).is_ok() {
                eprintln!("  artifact: {}", path.display());
            }
        }
        return ExitCode::FAILURE;
    }
    println!(
        "sortition parity: fast == reference at {parity_devices} devices \
         ({} committees of {})",
        cfg.committees, cfg.committee_size
    );

    // ---- 2. The full-population evented wave against the model.
    let start = Instant::now();
    let report = run_wave(&cfg);
    let elapsed = start.elapsed();
    if !report.identical() {
        return fail(
            "full-model",
            &report,
            "measured metrics diverge from the model",
        );
    }
    if report.aggregate != FGold::new(devices as u64) {
        return fail("full-delivery", &report, "aggregate shows dropped frames");
    }
    if report.arena.fresh > 4096 {
        return fail("full-arena", &report, "arena peak exceeds the batch bound");
    }
    println!(
        "evented wave: {} devices, sortition seated {} committees, \
         {} frames / {} framed bytes in {:.2?} \
         (peak {} live buffers, {} recycled), metrics == model",
        report.devices,
        report.seats.len(),
        report.metrics.frames,
        report.metrics.framed_bytes_total,
        elapsed,
        report.arena.fresh,
        report.arena.reused,
    );
    ExitCode::SUCCESS
}
