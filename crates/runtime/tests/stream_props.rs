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
//! checkpoint bytes resolve to typed [`ExecError`]s, never panics.
//!
//! The vendored proptest harness seeds its RNG from the test name, so
//! every run draws the same cases — no CI flake surface.

use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_net::Message;
use arboretum_par::ParConfig;
use arboretum_planner::logical::{extract, LogicalPlan};
use arboretum_planner::plan::Plan;
use arboretum_planner::search::{plan, PlannerConfig};
use arboretum_runtime::adversary::{Adversary, DeviceBehavior};
use arboretum_runtime::executor::{execute, Deployment, ExecError, ExecutionConfig};
use arboretum_runtime::setup::{build_session_setup, SessionSetup};
use arboretum_runtime::stream::{execute_stream, ArrivalSchedule, StreamExecutor, StreamReport};
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
) -> Result<StreamReport, ExecError> {
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

fn run_stream(schedule: &ArrivalSchedule) -> Result<StreamReport, ExecError> {
    let f = fixture();
    run_query(&f.lp, &f.plan, schedule)
}

/// Two partitions of one surviving set: the close-level report is
/// compared whole. `checkpoints` legitimately differs — one row per
/// window, and the partitions have different windows — except for the
/// accumulator the epoch decrypted, which must be the same ciphertext.
fn assert_equivalent(a: &StreamReport, b: &StreamReport, tag: &str) {
    assert_eq!(a.report, b.report, "report: {tag}");
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
            prop_assert_eq!(streamed.unwrap_err(), ExecError::NoSurvivors);
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
                prop_assert_eq!(streamed.unwrap_err(), ExecError::NoSurvivors);
                prop_assert_eq!(one_shot.unwrap_err(), ExecError::NoSurvivors);
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
        // Same schedule: the whole epoch, per-window rows included.
        prop_assert_eq!(interrupted.close().unwrap(), resumed.close().unwrap());
    }

    /// Checkpoint bytes are untrusted input. Truncating them, flipping
    /// a byte, overwriting a length field with `u32::MAX`, appending
    /// junk, or rewriting counts so the fields contradict each other
    /// yields a typed error or a state that round-trips through
    /// `checkpoint_bytes` *and* drives on through `close` — never a
    /// panic, and never an allocation beyond a small multiple of the
    /// input length (restore) or of what the honest epoch asks for
    /// (ingest + close).
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
        // Ingests what remains and closes: any typed outcome is fine.
        let finish = |mut exec: StreamExecutor| {
            largest_alloc_during(move || {
                while exec.next_window() < schedule.n_windows {
                    exec.ingest_next()?;
                }
                exec.close()
            }).1
        };
        let honest_largest = finish(open());
        let check = |mutated: &[u8], tag: &str| -> Result<(), ExecError> {
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
            let largest = finish(victim);
            assert!(
                largest <= 2 * honest_largest + (64 << 10),
                "{tag}: the restored epoch requested {largest} bytes at once \
                 (the honest epoch: {honest_largest})",
            );
            Ok(())
        };
        let refused = |mutated: &[u8], tag: &str| {
            assert!(
                matches!(check(mutated, tag), Err(ExecError::Checkpoint(_))),
                "{tag} must be a typed checkpoint error"
            );
        };

        // A fresh executor's checkpoint ends in two u32 counts: steps,
        // checkpoints. Either hostile count used to abort the process
        // inside `Vec::with_capacity`.
        let fresh = open().checkpoint_bytes().unwrap();
        for (field, at) in [("n_steps", fresh.len() - 8), ("n_checkpoints", fresh.len() - 4)] {
            let mut mutated = fresh.clone();
            mutated[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            refused(&mutated, &format!("{field} = u32::MAX"));
        }

        // Structured forgeries: every byte parses, but the counts
        // describe a state `checkpoint_bytes` cannot produce (the first
        // used to restore `Ok` and panic in `close`, the second to close
        // into a report with no checkpoints).
        let mut full = open();
        for _ in 0..schedule.n_windows {
            full.ingest_next().unwrap();
        }
        let full = full.checkpoint_bytes().unwrap();
        let layout = CheckpointLayout::of(&full);
        let put = |bytes: &mut [u8], at: usize, v: u64| {
            bytes[at..at + 8].copy_from_slice(&v.to_be_bytes());
        };
        let mut no_steps = full[..layout.steps_at].to_vec();
        no_steps.extend_from_slice(&0u32.to_be_bytes());
        no_steps.extend_from_slice(&full[layout.rows_at..]);
        refused(&no_steps, "empty step log");
        let mut no_rows = full[..layout.rows_at].to_vec();
        no_rows.extend_from_slice(&0u32.to_be_bytes());
        refused(&no_rows, "no checkpoint rows");
        let mut wrong_window = full.clone();
        put(&mut wrong_window, layout.rows[0] + ROW_WINDOW, 1);
        refused(&wrong_window, "row 0 claims window 1");
        let mut miscounted = full.clone();
        put(&mut miscounted, HEADER_ACCEPTED, schedule.survivors().len() as u64 + 1);
        refused(&miscounted, "accepted count disagrees with the rows");
        let mut decreasing = full.clone();
        put(&mut decreasing, layout.rows[0] + ROW_CUMULATIVE, u64::MAX >> 1);
        refused(&decreasing, "cumulative accepted count decreases");
        // Counts that agree with each other but not with the
        // accumulator: claim no upload was ever accepted when one was
        // (or one when none was).
        let claimed = u64::from(schedule.survivors().is_empty());
        let mut acc_mismatch = full.clone();
        put(&mut acc_mismatch, HEADER_ACCEPTED, claimed);
        for (i, &row) in layout.rows.iter().enumerate() {
            let last = i + 1 == layout.rows.len();
            put(&mut acc_mismatch, row + ROW_CUMULATIVE, if last { claimed } else { 0 });
        }
        refused(&acc_mismatch, "accumulator presence disagrees with the accepted count");

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
                prop_assert!(matches!(e, ExecError::Checkpoint(_)), "{tag} at {at}: {e:?}");
            }
        }
    }
}

/// Offset of the accepted-upload count in a checkpoint: magic (4),
/// version (2), schedule digest (32), then `next_window` (8).
const HEADER_ACCEPTED: usize = 4 + 2 + 32 + 8;
/// Offsets of `window` and `cumulative_accepted` inside one row.
const ROW_WINDOW: usize = 0;
const ROW_CUMULATIVE: usize = 4 * 8;

/// Where a valid checkpoint's variable-length sections start, so a test
/// can rewrite one count and leave every other byte well-formed.
struct CheckpointLayout {
    /// The step log's `u32` count.
    steps_at: usize,
    /// The checkpoint rows' `u32` count.
    rows_at: usize,
    /// The first byte of each row.
    rows: Vec<usize>,
}

impl CheckpointLayout {
    fn of(bytes: &[u8]) -> Self {
        let u32_at = |at: usize| u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        // Header and five u64 counters, then the accumulator flag.
        let mut pos = HEADER_ACCEPTED + 4 * 8;
        let acc_frames = match bytes[pos] {
            0 => 0,
            _ => 2 * bytes[pos + 1] as usize,
        };
        pos += if acc_frames == 0 { 1 } else { 2 };
        // Accumulator frames, then the committee frame.
        for _ in 0..acc_frames + 1 {
            pos += Message::decode_frame(&bytes[pos..]).unwrap().1;
        }
        let steps_at = pos;
        let n_steps = u32_at(pos);
        pos += 4;
        for _ in 0..n_steps {
            pos += 4 + u32_at(pos);
        }
        let rows_at = pos;
        let n_rows = u32_at(pos);
        pos += 4;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            rows.push(pos);
            pos += 5 * 8;
            // Two optional digests: a flag byte, then 32 bytes if set.
            for _ in 0..2 {
                pos += 1 + 32 * bytes[pos] as usize;
            }
            pos += 2 * 8;
        }
        assert_eq!(pos, bytes.len(), "layout walk must consume the checkpoint");
        Self {
            steps_at,
            rows_at,
            rows,
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
    assert_eq!(run_stream(&schedule).unwrap_err(), ExecError::NoSurvivors);
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
    assert_eq!(streamed.report, legacy);
    assert!(legacy.audit_ok);
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
        Err(ExecError::WindowOutOfOrder { expected: 1, .. })
    ));
    exec.ingest_next().unwrap();
    assert_eq!(exec.ingest_next().unwrap_err(), ExecError::EpochClosed);
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
        Err(ExecError::Checkpoint(_))
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
        Err(ExecError::Checkpoint(_))
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
        Err(ExecError::Checkpoint(_))
    ));
}

#[test]
fn a_version_1_checkpoint_is_refused() {
    // Version 1 carried pool timings; its bytes were not a function of
    // the epoch. A header that is valid in every other respect (magic,
    // schedule digest) is refused by version alone.
    let f = fixture();
    let schedule = ArrivalSchedule::derive(5, N_DEVICES, 3);
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
    let mut bytes = exec.checkpoint_bytes().unwrap();
    assert_eq!(bytes[4..6], 2u16.to_be_bytes());
    bytes[4..6].copy_from_slice(&1u16.to_be_bytes());
    assert_eq!(
        exec.restore_from(&bytes),
        Err(ExecError::Checkpoint(
            "unsupported checkpoint version".into()
        ))
    );
}
