//! Cross-shape determinism sweep for streaming windowed aggregation.
//!
//! The streaming contract (`runtime::stream`) promises that the whole
//! [`StreamReport`] and the checkpoint bytes after every window are
//! identical across execution *shapes* — thread counts, shard counts,
//! and network fabrics — and that the close-level report is invariant
//! to window-boundary placement at a fixed surviving set. This battery
//! sweeps the full shape matrix
//! `threads {1, 8} × shards {1, 2} × fabrics {sim, evented}`
//! against a serial baseline, then re-bins the same surviving-device
//! set into different window partitions on the most parallel shape.
//!
//! Any divergence dumps a replayable schedule artifact (directory from
//! `STREAM_ARTIFACT_DIR`, default `target/stream-failures`) before
//! failing, so CI failures reproduce offline from the seed alone.

use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_net::FabricKind;
use arboretum_par::ParConfig;
use arboretum_planner::logical::{extract, LogicalPlan};
use arboretum_planner::plan::Plan;
use arboretum_planner::search::{plan, PlannerConfig};
use arboretum_runtime::executor::{Deployment, ExecutionConfig};
use arboretum_runtime::setup::{build_session_setup, SessionSetup};
use arboretum_runtime::stream::{ArrivalSchedule, StreamExecutor, StreamReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Prime deployment size ≥ the 25-device sortition floor, so shard and
/// window splits always leave remainders.
const N_DEVICES: usize = 29;
const CATEGORIES: usize = 4;
const SEED: u64 = 17;
const WINDOWS: usize = 4;

struct Fixture {
    deployment: Deployment,
    lp: LogicalPlan,
    plan: Plan,
    setup: SessionSetup,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let assignments: Vec<usize> = (0..N_DEVICES)
            .map(|i| [1, 3, 0, 2, 2, 0, 1][i % 7])
            .collect();
        let deployment = Deployment::one_hot(&assignments, CATEGORIES);
        let schema = DbSchema::one_hot(N_DEVICES as u64, CATEGORIES);
        let src = "aggr = sum(db); r = em(aggr, 8.0); output(r);";
        let lp = extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap();
        let (physical, _) = plan(&lp, &PlannerConfig::paper_defaults(1 << 30)).unwrap();
        let cfg = base_cfg(ParConfig::serial(), None);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let setup =
            build_session_setup(&deployment, cfg.committee_size, cfg.seed, &mut rng).unwrap();
        Fixture {
            deployment,
            lp,
            plan: physical,
            setup,
        }
    })
}

fn base_cfg(par: ParConfig, fabric: Option<FabricKind>) -> ExecutionConfig {
    ExecutionConfig {
        seed: SEED,
        par,
        fabric,
        ..ExecutionConfig::default()
    }
}

/// Drives one epoch window by window and returns its report with the
/// checkpoint bytes taken after every window. Each checkpoint is also
/// restored into a fresh executor of the same shape, which must
/// re-serialize to the same bytes.
fn run_shape(
    schedule: &ArrivalSchedule,
    par: ParConfig,
    fabric: Option<FabricKind>,
) -> (StreamReport, Vec<Vec<u8>>) {
    let f = fixture();
    let cfg = base_cfg(par, fabric);
    let open = || {
        StreamExecutor::open(
            &f.plan,
            &f.lp,
            &f.deployment,
            &cfg,
            schedule,
            Some(&f.setup),
            None,
            None,
        )
        .expect("open failed")
    };
    let mut exec = open();
    let mut checkpoints = Vec::new();
    for w in 0..schedule.n_windows {
        exec.ingest_next().expect("ingest failed");
        let bytes = exec.checkpoint_bytes().expect("checkpoint failed");
        let mut restored = open();
        restored.restore_from(&bytes).expect("restore failed");
        assert_eq!(
            restored.checkpoint_bytes().unwrap(),
            bytes,
            "window {w}: a restored executor re-serialized differently"
        );
        checkpoints.push(bytes);
    }
    (exec.close().expect("streamed epoch failed"), checkpoints)
}

/// Writes the replayable divergence artifact and returns its path: the
/// full arrival schedule (every device's arrival and drop window), the
/// diverging shape, and both reports.
fn dump_divergence(
    schedule: &ArrivalSchedule,
    shape: &str,
    baseline: &StreamReport,
    diverged: &StreamReport,
) -> PathBuf {
    let dir =
        std::env::var("STREAM_ARTIFACT_DIR").unwrap_or_else(|_| "target/stream-failures".into());
    std::fs::create_dir_all(&dir).expect("artifact dir");
    let path = PathBuf::from(dir).join(format!("seed-{}-{shape}.txt", schedule.seed));
    let mut body = format!(
        "stream determinism divergence\nreproduce: seed {} over {} devices x {} windows, shape {shape}\n\nschedule (device: arrival, drop):\n",
        schedule.seed, schedule.n_devices, schedule.n_windows,
    );
    for i in 0..schedule.n_devices {
        body.push_str(&format!(
            "  {i}: arrives w{}, drop {}\n",
            schedule.arrival[i],
            schedule.drop[i].map_or("never".into(), |d| format!("w{d}")),
        ));
    }
    body.push_str(&format!(
        "\nbaseline: {baseline:#?}\n\ndiverged: {diverged:#?}\n"
    ));
    std::fs::write(&path, body).expect("artifact write");
    path
}

#[test]
fn streamed_epochs_are_bitwise_identical_across_shapes() {
    let schedule = ArrivalSchedule::derive(SEED, N_DEVICES, WINDOWS);
    let (baseline, baseline_bytes) = run_shape(&schedule, ParConfig::serial(), None);
    assert!(baseline.report.audit_ok, "baseline audit failed");

    for threads in [1usize, 8] {
        for shards in [1usize, 2] {
            for fabric in FabricKind::ALL {
                let par = ParConfig::fixed(threads).with_shards(shards);
                let (got, got_bytes) = run_shape(&schedule, par, Some(fabric));
                let shape = format!("t{threads}-s{shards}-{fabric:?}");
                if got != baseline {
                    let path = dump_divergence(&schedule, &shape, &baseline, &got);
                    panic!(
                        "shape {shape} diverged from the serial baseline; artifact: {}",
                        path.display()
                    );
                }
                // A checkpoint is a function of the epoch, not of the
                // pools that computed it.
                for (w, (g, b)) in got_bytes.iter().zip(&baseline_bytes).enumerate() {
                    assert!(
                        g == b,
                        "shape {shape}: checkpoint bytes after window {w} differ from the \
                         serial single-shard run's ({} vs {} bytes)",
                        g.len(),
                        b.len()
                    );
                }
            }
        }
    }
}

#[test]
fn window_boundary_placement_cannot_change_the_epoch() {
    let schedule = ArrivalSchedule::derive(SEED, N_DEVICES, WINDOWS);
    let (baseline, _) = run_shape(&schedule, ParConfig::serial(), None);
    let survivors = schedule.survivors();

    // Re-bin the same surviving set into different partitions and run
    // each on the most parallel shape. The close-level report must match
    // the baseline whole. `checkpoints` legitimately differs — it holds
    // one row per window, and the partitions have different windows —
    // but its last accumulator digest (the ciphertext the epoch
    // decrypts) must not.
    let par = ParConfig::fixed(8).with_shards(2);
    for k in [1usize, 2, 7] {
        let chunk = survivors.len().div_ceil(k);
        let partition: Vec<Vec<usize>> = survivors.chunks(chunk).map(<[usize]>::to_vec).collect();
        let rebinned = ArrivalSchedule::from_partition(&partition, N_DEVICES);
        assert_eq!(
            rebinned.survivors(),
            survivors,
            "re-bin changed the surviving set"
        );
        let (got, _) = run_shape(&rebinned, par, Some(FabricKind::Evented));
        let final_digest = |r: &StreamReport| r.checkpoints.last().unwrap().accumulator_digest;
        if got.report != baseline.report || final_digest(&got) != final_digest(&baseline) {
            let path = dump_divergence(&rebinned, &format!("rebin-{k}"), &baseline, &got);
            panic!(
                "re-binning into {k} window(s) changed the epoch; artifact: {}",
                path.display()
            );
        }
    }
}
