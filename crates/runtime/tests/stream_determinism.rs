//! Cross-shape determinism sweep for streaming windowed aggregation.
//!
//! The streaming contract (`runtime::stream`) promises that outputs,
//! budget, audit verdict, and every checkpoint digest are bitwise
//! identical across execution *shapes* — thread counts, shard counts,
//! and network fabrics — and invariant to window-boundary placement at
//! a fixed arrival schedule. This battery sweeps the full shape matrix
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
use arboretum_runtime::stream::{execute_stream, ArrivalSchedule, StreamReport};
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

fn run_shape(
    schedule: &ArrivalSchedule,
    par: ParConfig,
    fabric: Option<FabricKind>,
) -> StreamReport {
    let f = fixture();
    let cfg = base_cfg(par, fabric);
    execute_stream(
        &f.plan,
        &f.lp,
        &f.deployment,
        &cfg,
        schedule,
        Some(&f.setup),
        None,
        None,
    )
    .expect("streamed epoch failed")
}

/// One window's shape-invariant record: counts, digests, handoff
/// volume.
#[derive(Debug, PartialEq)]
struct CheckpointRow {
    window: usize,
    accepted: usize,
    rejected: usize,
    cumulative: usize,
    acc_digest: Option<[u8; 32]>,
    handoff_digest: Option<[u8; 32]>,
    handoff_bytes: u64,
    handoff_frames: u64,
}

/// The deterministic projection of a streamed epoch: everything the
/// contract promises is shape-invariant. Pool counters (timing-bearing)
/// are deliberately excluded.
#[derive(Debug, PartialEq)]
struct Projection {
    outputs: Vec<i64>,
    accepted: usize,
    rejected: usize,
    budget_bits: u64,
    audit_ok: bool,
    aggregate_ops: u64,
    cert_body: Vec<u8>,
    mpc_rounds: u64,
    checkpoints: Vec<CheckpointRow>,
}

fn project(r: &StreamReport) -> Projection {
    Projection {
        outputs: r.report.outputs.clone(),
        accepted: r.report.accepted_inputs,
        rejected: r.report.rejected_inputs,
        budget_bits: r.report.budget_after.epsilon.to_bits(),
        audit_ok: r.report.audit_ok,
        aggregate_ops: r.report.aggregate_ops,
        cert_body: r.report.certificate.body(),
        mpc_rounds: r.report.mpc_metrics.rounds,
        checkpoints: r
            .checkpoints
            .iter()
            .map(|c| CheckpointRow {
                window: c.window,
                accepted: c.accepted,
                rejected: c.rejected,
                cumulative: c.cumulative_accepted,
                acc_digest: c.accumulator_digest,
                handoff_digest: c.handoff_digest,
                handoff_bytes: c.handoff_bytes,
                handoff_frames: c.handoff_frames,
            })
            .collect(),
    }
}

/// Writes the replayable divergence artifact and returns its path: the
/// full arrival schedule (every device's arrival and drop window), the
/// diverging shape, and both projections.
fn dump_divergence(
    schedule: &ArrivalSchedule,
    shape: &str,
    baseline: &Projection,
    diverged: &Projection,
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
    let baseline = project(&run_shape(&schedule, ParConfig::serial(), None));
    assert!(baseline.audit_ok, "baseline audit failed");

    for threads in [1usize, 8] {
        for shards in [1usize, 2] {
            for fabric in FabricKind::ALL {
                let par = ParConfig::fixed(threads).with_shards(shards);
                let got = project(&run_shape(&schedule, par, Some(fabric)));
                if got != baseline {
                    let shape = format!("t{threads}-s{shards}-{fabric:?}");
                    let path = dump_divergence(&schedule, &shape, &baseline, &got);
                    panic!(
                        "shape {shape} diverged from the serial baseline; artifact: {}",
                        path.display()
                    );
                }
            }
        }
    }
}

#[test]
fn window_boundary_placement_cannot_change_the_epoch() {
    let schedule = ArrivalSchedule::derive(SEED, N_DEVICES, WINDOWS);
    let baseline = project(&run_shape(&schedule, ParConfig::serial(), None));
    let survivors = schedule.survivors();

    // Re-bin the same surviving set into different partitions and run
    // each on the most parallel shape. Close-level results must match
    // the baseline bitwise; per-window records legitimately differ, but
    // the final accumulator digest (the ciphertext the epoch decrypts)
    // must not.
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
        let got = run_shape(&rebinned, par, Some(FabricKind::Evented));
        let gp = project(&got);
        let close_equal = gp.outputs == baseline.outputs
            && gp.accepted == baseline.accepted
            && gp.budget_bits == baseline.budget_bits
            && gp.audit_ok
            && gp.checkpoints.last().and_then(|c| c.acc_digest)
                == baseline.checkpoints.last().and_then(|c| c.acc_digest);
        if !close_equal {
            let path = dump_divergence(&rebinned, &format!("rebin-{k}"), &baseline, &gp);
            panic!(
                "re-binning into {k} window(s) changed the epoch; artifact: {}",
                path.display()
            );
        }
    }
}
