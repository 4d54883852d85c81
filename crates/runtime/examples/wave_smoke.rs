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
//! 1. Small-population cross-fabric parity: the same wave on the sim
//!    and evented fabrics produces bitwise-identical transport
//!    metrics, committee seatings, and aggregates.
//! 2. Sortition parity: the optimized selection pipeline (fixed-base
//!    exponentiation, parallel ticket kernels, O(n) partial selection)
//!    seats committees bitwise identical to the serial full-sort
//!    reference under the wave beacon.
//! 3. The full-population evented wave matches the closed-form traffic
//!    model bitwise, delivers every frame (the aggregate equals the
//!    device count), and keeps the buffer arena's peak live-buffer
//!    count at the batch bound.
//!
//! On failure the offending report is dumped as a JSON artifact under
//! `WAVE_ARTIFACT_DIR` (default `target/wave-failures`) and the process
//! exits nonzero — the artifact is what CI uploads.

use std::process::ExitCode;
use std::time::Instant;

use arboretum_field::FGold;
use arboretum_net::FabricKind;
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
        "{{\n  \"tag\": \"{tag}\",\n  \"fabric\": \"{}\",\n  \"devices\": {},\n  \
         \"identical\": {},\n  \"measured\": {{\"frames\": {}, \"payload\": {}, \
         \"payload_max\": {}, \"framed\": {}, \"rounds\": {}}},\n  \
         \"model\": {{\"frames\": {}, \"payload\": {}, \"payload_max\": {}, \
         \"framed\": {}, \"rounds\": {}}}\n}}\n",
        report.fabric,
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
        fabric: Some(FabricKind::Evented),
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

    // ---- 1. Cross-fabric parity at a dense-fabric-sized population.
    let small = 256usize;
    let parity: Vec<WaveReport> = FabricKind::ALL
        .into_iter()
        .map(|kind| {
            run_wave(&WaveConfig {
                devices: small,
                fabric: Some(kind),
                ..WaveConfig::default()
            })
        })
        .collect();
    for r in &parity {
        if !r.identical() {
            return fail("parity-model", r, "measured metrics diverge from the model");
        }
        if r.metrics != parity[0].metrics
            || r.seats != parity[0].seats
            || r.aggregate != parity[0].aggregate
        {
            return fail(
                "parity-cross",
                r,
                "fabrics diverge at the parity population",
            );
        }
    }
    println!(
        "parity: sim == evented at {small} devices \
         ({} frames, {} payload bytes, seats identical)",
        parity[0].metrics.frames, parity[0].metrics.payload_bytes_total
    );

    // ---- 2. Fast-vs-reference sortition parity: the optimized
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

    // ---- 3. The full-population evented wave.
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
    let arena = report.arena.expect("evented wave reports arena counters");
    if arena.fresh > 4096 {
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
        arena.fresh,
        arena.reused,
    );
    ExitCode::SUCCESS
}
