//! Property battery for the streaming windowed executor's
//! checkpoint-equivalence contract (`runtime::stream`).
//!
//! The headline invariant: for a fixed surviving-device set, **any**
//! window partition — including empty windows, singleton windows, and
//! schedules where devices drop before arriving — produces outputs,
//! budget, acceptance counts, certificate, and a final accumulator
//! ciphertext digest bitwise identical to the single-shot run of the
//! same set. A checkpoint taken at any window boundary restores into a
//! fresh executor and continues to the same epoch bitwise. Degenerate
//! schedules (all devices drop, epochs driven out of order) and hostile
//! checkpoint bytes resolve to typed [`StreamError`]s, never panics.
//!
//! The vendored proptest harness seeds its RNG from the test name, so
//! every run draws the same cases — no CI flake surface.

use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_par::ParConfig;
use arboretum_planner::logical::{extract, LogicalPlan};
use arboretum_planner::plan::Plan;
use arboretum_planner::search::{plan, PlannerConfig};
use arboretum_runtime::adversary::{Adversary, DeviceBehavior};
use arboretum_runtime::executor::{execute, Deployment, ExecutionConfig};
use arboretum_runtime::setup::{build_session_setup, SessionSetup};
use arboretum_runtime::stream::{
    execute_stream, ArrivalSchedule, StreamError, StreamExecutor, StreamReport,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

mod common;
use common::largest_alloc_during;

/// Deployment size for every property. Prime, so shard/window splits
/// always leave remainders (and ≥ 25: sortition seats 5 committees of
/// 5 from the registry).
const N_DEVICES: usize = 29;
const CATEGORIES: usize = 4;

struct Fixture {
    deployment: Deployment,
    lp: LogicalPlan,
    plan: Plan,
    /// The same query over a `sampleUniform(0.5)` view of the database.
    sampled: (LogicalPlan, Plan),
    setup: SessionSetup,
    cfg: ExecutionConfig,
}

fn planned(src: &str) -> (LogicalPlan, Plan) {
    let schema = DbSchema::one_hot(N_DEVICES as u64, CATEGORIES);
    let lp = extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap();
    let (physical, _) = plan(&lp, &PlannerConfig::paper_defaults(1 << 30)).unwrap();
    (lp, physical)
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let assignments: Vec<usize> = (0..N_DEVICES)
            .map(|i| [0, 0, 2, 2, 2, 1, 3][i % 7])
            .collect();
        let deployment = Deployment::one_hot(&assignments, CATEGORIES);
        let (lp, physical) = planned("aggr = sum(db); r = em(aggr, 8.0); output(r);");
        let sampled =
            planned("s = sampleUniform(0.5); aggr = sum(s); r = em(aggr, 8.0); output(r);");
        let cfg = ExecutionConfig {
            par: ParConfig::serial(),
            ..ExecutionConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let setup =
            build_session_setup(&deployment, cfg.committee_size, cfg.seed, &mut rng).unwrap();
        Fixture {
            deployment,
            lp,
            plan: physical,
            sampled,
            setup,
            cfg,
        }
    })
}

fn run_query(
    lp: &LogicalPlan,
    physical: &Plan,
    schedule: &ArrivalSchedule,
) -> Result<StreamReport, StreamError> {
    let f = fixture();
    execute_stream(
        physical,
        lp,
        &f.deployment,
        &f.cfg,
        schedule,
        Some(&f.setup),
        None,
        None,
    )
}

fn run_stream(schedule: &ArrivalSchedule) -> Result<StreamReport, StreamError> {
    let f = fixture();
    run_query(&f.lp, &f.plan, schedule)
}

/// The stream-vs-stream comparable projection: everything the contract
/// promises is partition-invariant (step logs and per-window pool
/// timings legitimately differ between partitions and are excluded).
fn assert_equivalent(a: &StreamReport, b: &StreamReport, tag: &str) {
    assert_eq!(a.report.outputs, b.report.outputs, "outputs: {tag}");
    assert_eq!(
        a.report.accepted_inputs, b.report.accepted_inputs,
        "accepted: {tag}"
    );
    assert_eq!(
        a.report.rejected_inputs, b.report.rejected_inputs,
        "rejected: {tag}"
    );
    assert_eq!(
        a.report.budget_after.epsilon.to_bits(),
        b.report.budget_after.epsilon.to_bits(),
        "budget: {tag}"
    );
    assert_eq!(a.report.mpc_metrics, b.report.mpc_metrics, "metrics: {tag}");
    assert_eq!(a.report.audit_ok, b.report.audit_ok, "audit: {tag}");
    assert_eq!(
        a.report.certificate.body(),
        b.report.certificate.body(),
        "certificate body: {tag}"
    );
    assert_eq!(
        a.report.aggregate_ops, b.report.aggregate_ops,
        "aggregate ops: {tag}"
    );
    // The accumulator the epoch decrypted: bitwise identical ciphertext.
    assert_eq!(
        a.checkpoints.last().unwrap().accumulator_digest,
        b.checkpoints.last().unwrap().accumulator_digest,
        "final accumulator digest: {tag}"
    );
    assert!(a.detections.is_empty() && b.detections.is_empty(), "{tag}");
}

/// Arbitrary churn schedules: 1–4 windows, every device draws an
/// arrival window and (with 1-in-3 pressure) a drop window.
#[derive(Clone, Copy, Debug)]
struct ScheduleStrategy;

impl Strategy for ScheduleStrategy {
    type Value = ArrivalSchedule;

    fn sample(&self, rng: &mut StdRng) -> ArrivalSchedule {
        let w = rng.gen_range(1usize..5);
        let arrival = (0..N_DEVICES).map(|_| rng.gen_range(0..w)).collect();
        let drop = (0..N_DEVICES)
            .map(|_| {
                if rng.gen_range(0u32..3) == 0 {
                    Some(rng.gen_range(0..w))
                } else {
                    None
                }
            })
            .collect();
        ArrivalSchedule {
            seed: 0,
            n_devices: N_DEVICES,
            n_windows: w,
            arrival,
            drop,
        }
    }
}

proptest! {
    // Each case runs the full protocol (verify + fold + handoffs + MPC
    // close) at least twice; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// THE headline invariant: any window partition of a surviving set
    /// is bitwise identical to the single-shot (one-window) run of that
    /// set — and never panics, whatever the churn pattern.
    #[test]
    fn any_partition_matches_the_single_shot_run(schedule in ScheduleStrategy) {
        let survivors = schedule.survivors();
        let streamed = run_stream(&schedule);
        if survivors.is_empty() {
            prop_assert_eq!(streamed.unwrap_err(), StreamError::NoSurvivors);
            return Ok(());
        }
        let streamed = streamed.unwrap();
        prop_assert_eq!(streamed.report.accepted_inputs, survivors.len());
        let one_shot_schedule =
            ArrivalSchedule::from_partition(&[survivors], N_DEVICES);
        let one_shot = run_stream(&one_shot_schedule).unwrap();
        assert_equivalent(&streamed, &one_shot, "partition vs one-shot");

        // The same holds for a sampled query: the secrecy-of-the-sample
        // draw is per device, so which uploads are binned out cannot
        // depend on the partition either (down to sampling every
        // survivor away, which both runs must refuse alike).
        let (lp, physical) = &fixture().sampled;
        match (
            run_query(lp, physical, &schedule),
            run_query(lp, physical, &one_shot_schedule),
        ) {
            (Ok(streamed), Ok(one_shot)) => {
                assert_equivalent(&streamed, &one_shot, "sampled partition vs one-shot");
            }
            (streamed, one_shot) => {
                prop_assert_eq!(streamed.unwrap_err(), StreamError::NoSurvivors);
                prop_assert_eq!(one_shot.unwrap_err(), StreamError::NoSurvivors);
            }
        }
    }

    /// A checkpoint taken at an arbitrary window boundary restores into
    /// a fresh executor and the continued epoch is bitwise identical to
    /// the uninterrupted one; re-serializing the restored state gives
    /// back the same bytes.
    #[test]
    fn checkpoint_restore_round_trips_exactly(
        schedule in ScheduleStrategy,
        cut_frac in 0.0f64..1.0,
    ) {
        if schedule.survivors().is_empty() {
            return Ok(());
        }
        let f = fixture();
        let cut = ((schedule.n_windows as f64 * cut_frac) as usize).min(schedule.n_windows);
        let mut interrupted = StreamExecutor::open(
            &f.plan, &f.lp, &f.deployment, &f.cfg, &schedule, Some(&f.setup), None, None,
        ).unwrap();
        for _ in 0..cut {
            interrupted.ingest_next().unwrap();
        }
        let bytes = interrupted.checkpoint_bytes().unwrap();

        let mut resumed = StreamExecutor::open(
            &f.plan, &f.lp, &f.deployment, &f.cfg, &schedule, Some(&f.setup), None, None,
        ).unwrap();
        resumed.restore_from(&bytes).unwrap();
        prop_assert_eq!(resumed.next_window(), cut);
        // The restored state re-serializes to the identical bytes.
        prop_assert_eq!(&resumed.checkpoint_bytes().unwrap(), &bytes);

        for _ in cut..schedule.n_windows {
            interrupted.ingest_next().unwrap();
            resumed.ingest_next().unwrap();
        }
        let a = interrupted.close().unwrap();
        let b = resumed.close().unwrap();
        assert_equivalent(&a, &b, "restored vs uninterrupted");
        // Restored continuation reproduces the per-window records too.
        prop_assert_eq!(a.checkpoints.len(), b.checkpoints.len());
        for (ca, cb) in a.checkpoints.iter().zip(&b.checkpoints) {
            prop_assert_eq!(ca.accumulator_digest, cb.accumulator_digest);
            prop_assert_eq!(ca.handoff_digest, cb.handoff_digest);
            prop_assert_eq!(ca.accepted, cb.accepted);
        }
    }

    /// Checkpoint bytes are untrusted input. Truncating them, flipping
    /// a byte, overwriting a length field with `u32::MAX`, or appending
    /// junk yields a typed error or a state that round-trips through
    /// `checkpoint_bytes` — never a panic, and never an allocation
    /// beyond a small multiple of the input length.
    #[test]
    fn hostile_checkpoint_bytes_are_refused_or_restore_a_valid_state(
        schedule in ScheduleStrategy,
        cut_frac in 0.0f64..1.0,
        mutation_seed in any::<u64>(),
    ) {
        let f = fixture();
        let open = || StreamExecutor::open(
            &f.plan, &f.lp, &f.deployment, &f.cfg, &schedule, Some(&f.setup), None, None,
        ).unwrap();
        let check = |mutated: &[u8], tag: &str| -> Result<(), StreamError> {
            let mut victim = open();
            let (restored, largest) = largest_alloc_during(|| victim.restore_from(mutated));
            assert!(
                largest <= 8 * mutated.len() + (64 << 10),
                "{tag}: a {}-byte checkpoint made restore_from request {largest} bytes at once",
                mutated.len(),
            );
            restored?;
            let bytes = victim.checkpoint_bytes().unwrap();
            let mut again = open();
            again.restore_from(&bytes).unwrap();
            assert_eq!(again.checkpoint_bytes().unwrap(), bytes, "{tag}: restored state");
            Ok(())
        };

        // A fresh executor's checkpoint ends in four u32 counts: steps,
        // two pool-stat vectors, checkpoints. Either hostile count used
        // to abort the process inside `Vec::with_capacity`.
        let fresh = open().checkpoint_bytes().unwrap();
        for (field, at) in [("n_steps", fresh.len() - 16), ("n_checkpoints", fresh.len() - 4)] {
            let mut mutated = fresh.clone();
            mutated[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            prop_assert!(
                matches!(check(&mutated, field), Err(StreamError::Checkpoint(_))),
                "{field} = u32::MAX must be a typed checkpoint error"
            );
        }

        // Mid-stream checkpoints, mutated at seed-derived positions.
        let cut = ((schedule.n_windows as f64 * cut_frac) as usize).min(schedule.n_windows);
        let mut exec = open();
        for _ in 0..cut {
            exec.ingest_next().unwrap();
        }
        let valid = exec.checkpoint_bytes().unwrap();
        check(&valid, "unmutated").unwrap();
        let mut rng = StdRng::seed_from_u64(mutation_seed);
        for _ in 0..24 {
            let at = rng.gen_range(0..valid.len());
            let mut mutated = valid.clone();
            let tag = match rng.gen_range(0u32..4) {
                0 => {
                    mutated.truncate(at);
                    "truncated"
                }
                1 => {
                    mutated[at] ^= 1 << rng.gen_range(0u32..8);
                    "flipped"
                }
                2 => {
                    let end = (at + 4).min(mutated.len());
                    mutated[at..end].fill(0xFF);
                    "length overwritten"
                }
                _ => {
                    mutated.extend((0..=at % 40).map(|_| rng.gen::<u8>()));
                    "junk appended"
                }
            };
            if let Err(e) = check(&mutated, tag) {
                prop_assert!(matches!(e, StreamError::Checkpoint(_)), "{tag} at {at}: {e:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Schedule derivation is a pure function: same inputs, same
    /// schedule; windows partition exactly the surviving set.
    #[test]
    fn derived_schedules_partition_their_survivors(seed in any::<u64>(), w in 1usize..7) {
        let s = ArrivalSchedule::derive(seed, N_DEVICES, w);
        prop_assert_eq!(&s, &ArrivalSchedule::derive(seed, N_DEVICES, w));
        let mut flat: Vec<usize> = s.windows().into_iter().flatten().collect();
        prop_assert_eq!(flat.len(), s.survivors().len());
        flat.sort_unstable();
        prop_assert_eq!(flat, s.survivors());
        prop_assert_eq!(s.digest(), s.digest());
    }
}

#[test]
fn empty_and_singleton_windows_fold_into_the_same_epoch() {
    // Window 1 is empty, window 2 is a single upload; both are typed
    // checkpoints, not errors, and the epoch still matches one-shot.
    let mut windows = vec![Vec::new(); 4];
    for d in 0..N_DEVICES {
        windows[match d {
            0 => 2,           // the singleton window
            _ => 3 * (d % 2), // windows 0 and 3; window 1 stays empty
        }]
        .push(d);
    }
    windows.iter_mut().for_each(|w| w.sort_unstable());
    let schedule = ArrivalSchedule::from_partition(&windows, N_DEVICES);
    let streamed = run_stream(&schedule).unwrap();
    assert_eq!(streamed.checkpoints[1].arrivals, 0);
    assert_eq!(streamed.checkpoints[1].accepted, 0);
    assert_eq!(streamed.checkpoints[2].arrivals, 1);
    assert_eq!(streamed.checkpoints[2].accepted, 1);
    // An empty window inherits the previous accumulator digest.
    assert_eq!(
        streamed.checkpoints[1].accumulator_digest,
        streamed.checkpoints[0].accumulator_digest
    );
    let one_shot = run_stream(&ArrivalSchedule::from_partition(
        &[schedule.survivors()],
        N_DEVICES,
    ))
    .unwrap();
    assert_equivalent(&streamed, &one_shot, "empty+singleton windows");
}

#[test]
fn all_devices_dropping_is_a_typed_error() {
    let schedule = ArrivalSchedule {
        seed: 0,
        n_devices: N_DEVICES,
        n_windows: 3,
        arrival: vec![1; N_DEVICES],
        drop: vec![Some(0); N_DEVICES],
    };
    assert!(schedule.survivors().is_empty());
    assert_eq!(run_stream(&schedule).unwrap_err(), StreamError::NoSurvivors);
}

#[test]
fn the_stream_matches_the_legacy_batch_executor_when_no_device_churns() {
    // With every device surviving, the windowed epoch must be bitwise
    // identical to the *legacy* single-shot executor on the same
    // standing setup: outputs, budget, certificate, metrics.
    let f = fixture();
    let schedule = ArrivalSchedule::derive(99, N_DEVICES, 3);
    let schedule = ArrivalSchedule {
        drop: vec![None; N_DEVICES],
        ..schedule
    };
    let streamed = run_stream(&schedule).unwrap();
    let (legacy, detections) = execute(
        &f.plan,
        &f.lp,
        &f.deployment,
        &f.cfg,
        Some(&f.setup),
        None,
        None,
    )
    .unwrap();
    assert!(detections.is_empty());
    assert_eq!(streamed.report.outputs, legacy.outputs);
    assert_eq!(streamed.report.accepted_inputs, legacy.accepted_inputs);
    assert_eq!(streamed.report.rejected_inputs, legacy.rejected_inputs);
    assert_eq!(
        streamed.report.budget_after.epsilon.to_bits(),
        legacy.budget_after.epsilon.to_bits()
    );
    assert_eq!(streamed.report.mpc_metrics, legacy.mpc_metrics);
    assert_eq!(
        streamed.report.certificate.body(),
        legacy.certificate.body()
    );
    assert_eq!(streamed.report.aggregate_ops, legacy.aggregate_ops);
    assert!(streamed.report.audit_ok && legacy.audit_ok);
}

#[test]
fn driving_the_epoch_out_of_order_is_a_typed_error() {
    let f = fixture();
    let schedule = ArrivalSchedule::from_partition(
        &[(0..N_DEVICES).collect::<Vec<_>>(), Vec::new()],
        N_DEVICES,
    );
    let mut exec = StreamExecutor::open(
        &f.plan,
        &f.lp,
        &f.deployment,
        &f.cfg,
        &schedule,
        Some(&f.setup),
        None,
        None,
    )
    .unwrap();
    exec.ingest_next().unwrap();
    // Closing with a window still pending is typed, and the executor
    // can even be driven on afterwards.
    let mut exec2 = StreamExecutor::open(
        &f.plan,
        &f.lp,
        &f.deployment,
        &f.cfg,
        &schedule,
        Some(&f.setup),
        None,
        None,
    )
    .unwrap();
    exec2.ingest_next().unwrap();
    assert!(matches!(
        exec2.close(),
        Err(StreamError::WindowOutOfOrder { expected: 1, .. })
    ));
    exec.ingest_next().unwrap();
    assert_eq!(exec.ingest_next().unwrap_err(), StreamError::EpochClosed);
    exec.close().unwrap();
}

#[test]
fn checkpointing_a_stream_with_detections_is_refused() {
    struct TamperInWindowZero;
    impl Adversary for TamperInWindowZero {
        fn device_behavior(&self, window: usize, device: usize) -> DeviceBehavior {
            if window == 0 && device == 0 {
                DeviceBehavior::TamperSigmaProof
            } else {
                DeviceBehavior::Honest
            }
        }
    }
    let f = fixture();
    let schedule = ArrivalSchedule::from_partition(
        &[(0..N_DEVICES).collect::<Vec<_>>(), Vec::new()],
        N_DEVICES,
    );
    let mut exec = StreamExecutor::open(
        &f.plan,
        &f.lp,
        &f.deployment,
        &f.cfg,
        &schedule,
        Some(&f.setup),
        None,
        Some(&TamperInWindowZero),
    )
    .unwrap();
    exec.ingest_next().unwrap();
    assert!(matches!(
        exec.checkpoint_bytes(),
        Err(StreamError::Checkpoint(_))
    ));
}

#[test]
fn restoring_under_a_different_schedule_is_refused() {
    let f = fixture();
    let schedule = ArrivalSchedule::derive(5, N_DEVICES, 3);
    let other = ArrivalSchedule::derive(6, N_DEVICES, 3);
    let mut exec = StreamExecutor::open(
        &f.plan,
        &f.lp,
        &f.deployment,
        &f.cfg,
        &schedule,
        Some(&f.setup),
        None,
        None,
    )
    .unwrap();
    exec.ingest_next().unwrap();
    let bytes = exec.checkpoint_bytes().unwrap();
    let mut wrong = StreamExecutor::open(
        &f.plan,
        &f.lp,
        &f.deployment,
        &f.cfg,
        &other,
        Some(&f.setup),
        None,
        None,
    )
    .unwrap();
    assert!(matches!(
        wrong.restore_from(&bytes),
        Err(StreamError::Checkpoint(_))
    ));
    // Truncation is typed too.
    let mut fresh = StreamExecutor::open(
        &f.plan,
        &f.lp,
        &f.deployment,
        &f.cfg,
        &schedule,
        Some(&f.setup),
        None,
        None,
    )
    .unwrap();
    assert!(matches!(
        fresh.restore_from(&bytes[..bytes.len() - 3]),
        Err(StreamError::Checkpoint(_))
    ));
}
