//! Seed-sweep adversary suite: every malicious behavior the runtime
//! claims to reject is injected via `arboretum-testkit` schedules and
//! must be detected with the right typed error and attribution, with
//! zero false positives and a surviving-set answer bitwise identical to
//! an honest reference run.
//!
//! The one-hot, numeric and thread-count sweeps run every seed as a
//! batch query (one window) and as a four-window epoch with device churn
//! and a handoff crash. `ADVERSARY_SEEDS` widens the sweep (CI runs 16);
//! any failing seed reproduces with
//! `cargo run --bin arboretum -- attack --seed N --windows W` and dumps
//! an artifact under `ADVERSARY_ARTIFACT_DIR` (default
//! `target/adversary-failures`).

use arboretum_par::ParConfig;
use arboretum_testkit::{dump_failure_artifact, run_attack, AttackConfig};

fn sweep_width() -> u64 {
    std::env::var("ADVERSARY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// The window counts every sweep runs at: a batch query and a streamed
/// epoch.
const WINDOWS: [usize; 2] = [1, 4];

fn assert_pass(cfg: &AttackConfig) {
    let outcome = run_attack(cfg, None).unwrap_or_else(|e| panic!("seed {}: {e}", cfg.seed));
    if !outcome.ok() {
        let artifact = dump_failure_artifact(cfg, &outcome).ok();
        panic!(
            "seed {} failed cross-checks (artifact: {artifact:?})\n{}",
            cfg.seed,
            outcome.summary()
        );
    }
}

#[test]
fn one_hot_seed_sweep_detects_every_injected_behavior() {
    // Each seed's typed detection set and surviving answer must match
    // the schedule's prediction and the honest reference.
    for windows in WINDOWS {
        for seed in 0..sweep_width() {
            assert_pass(&AttackConfig {
                windows,
                ..AttackConfig::new(seed)
            });
        }
    }
}

#[test]
fn forged_ticket_seed_sweep_attributes_exact_culprits() {
    // Satellite of the batch-verification work: every seed derives a
    // forgery plan (which tickets, which corruption from the catalog),
    // and the deterministic-combiner batch verifier must return exactly
    // that index set — hash-binding prefilter and bisection fallback
    // both exercised — with the per-ticket oracle agreeing everywhere.
    for seed in 0..sweep_width() {
        arboretum_testkit::run_forgery_sweep(seed, 320)
            .unwrap_or_else(|e| panic!("forgery sweep failed: {e}"));
    }
}

#[test]
fn numeric_seed_sweep_detects_every_injected_behavior() {
    // The numeric pipeline exercises the range-proof detection family;
    // the net phase is identical to the one-hot sweep's, so skip it.
    for windows in WINDOWS {
        for seed in 100..100 + sweep_width().min(8) {
            assert_pass(&AttackConfig {
                numeric: true,
                net_phase: false,
                windows,
                ..AttackConfig::new(seed)
            });
        }
    }
}

#[test]
fn detections_and_outputs_identical_across_threads() {
    // With and without the aggregator axis: the aggregator's detection
    // and the failed audit verdict must not move with the thread count
    // either.
    for (windows, aggregator) in WINDOWS
        .iter()
        .flat_map(|&w| [false, true].map(move |a| (w, a)))
    {
        for seed in [3u64, 7] {
            let base_cfg = AttackConfig {
                net_phase: false,
                windows,
                aggregator,
                ..AttackConfig::new(seed)
            };
            let base = run_attack(&base_cfg, None).expect("serial attack run failed");
            assert!(base.ok(), "seed {seed} serial:\n{}", base.summary());
            for threads in [1usize, 2, 8] {
                let cfg = AttackConfig {
                    par: ParConfig::fixed(threads),
                    ..base_cfg.clone()
                };
                let got = run_attack(&cfg, None).expect("parallel attack run failed");
                assert!(
                    got.ok(),
                    "seed {seed} windows {windows} aggregator {aggregator} threads \
                     {threads}:\n{}",
                    got.summary()
                );
                assert_eq!(
                    got.adversarial, base.adversarial,
                    "epoch drifted at windows {windows} aggregator {aggregator} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn aggregator_seed_sweep_yields_exactly_one_exact_detection() {
    // `seed % 6` walks the whole AggregatorBehavior catalog, so the
    // 16-seed sweep covers every behavior at least twice. Each seed
    // must produce exactly one Subject::Aggregator detection carrying
    // the exact predicted kind (step attribution included), with
    // outputs/budget/audit bitwise identical to the honest reference —
    // both already enforced by the harness cross-checks.
    // The epoch layout moves every step index, so the sweep runs at
    // both window counts.
    use arboretum_runtime::Subject;
    for (windows, seed) in WINDOWS
        .iter()
        .flat_map(|&w| (0..sweep_width()).map(move |s| (w, s)))
    {
        let cfg = AttackConfig {
            net_phase: false,
            aggregator: true,
            windows,
            ..AttackConfig::new(seed)
        };
        let outcome = run_attack(&cfg, None).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if !outcome.ok() {
            let artifact = dump_failure_artifact(&cfg, &outcome).ok();
            panic!(
                "seed {seed} windows {windows} failed aggregator cross-checks \
                 (artifact: {artifact:?})\n{}",
                outcome.summary()
            );
        }
        let expected = outcome
            .expected_aggregator
            .clone()
            .expect("aggregator axis predicts a kind");
        let agg: Vec<_> = outcome
            .adversarial
            .detections
            .iter()
            .filter(|d| d.subject == Subject::Aggregator)
            .collect();
        assert_eq!(
            agg.len(),
            1,
            "seed {seed}: want exactly one aggregator detection"
        );
        assert_eq!(agg[0].kind, expected, "seed {seed}: wrong step attribution");
    }
}

#[test]
fn aggregator_sweep_replays_deterministically_across_threads() {
    // With every axis on but the net phase, the full decision log and
    // the epoch must be identical across thread counts. A divergence
    // dumps the replayable artifact.
    for seed in 0..sweep_width().min(6) {
        let base_cfg = AttackConfig {
            net_phase: false,
            aggregator: true,
            ..AttackConfig::new(seed)
        };
        let base = run_attack(&base_cfg, None).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if !base.ok() {
            let artifact = dump_failure_artifact(&base_cfg, &base).ok();
            panic!(
                "seed {seed} failed aggregator cross-checks (artifact: {artifact:?})\n{}",
                base.summary()
            );
        }
        let base_decisions = &base.schedule.decisions;
        assert!(!base_decisions.is_empty());
        for threads in [1usize, 2, 8] {
            let cfg = AttackConfig {
                par: ParConfig::fixed(threads),
                ..base_cfg.clone()
            };
            let got = run_attack(&cfg, None).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                got.ok(),
                "seed {seed} threads {threads}:\n{}",
                got.summary()
            );
            if got.schedule.decisions != *base_decisions {
                let artifact = dump_failure_artifact(&cfg, &got).ok();
                panic!(
                    "seed {seed}: decisions diverged at threads {threads} \
                     (replayable artifact: {artifact:?})"
                );
            }
            assert_eq!(got.adversarial, base.adversarial);
        }
    }
}

#[test]
fn net_phase_fails_over_to_the_first_survivable_committee() {
    // The schedule's net faults drive the failover chain: every
    // committee before the first survivable one fails, and that one
    // completes. Seed 0 faults no committee fatally, seed 3 the first
    // two, and seed 13 all three until the schedule spares the last.
    for (seed, survivor) in [(0u64, 0usize), (3, 2), (13, 2)] {
        let cfg = AttackConfig {
            aggregator: true,
            ..AttackConfig::new(seed)
        };
        let outcome = run_attack(&cfg, None).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if !outcome.ok() {
            let artifact = dump_failure_artifact(&cfg, &outcome).ok();
            panic!(
                "seed {seed} net phase failed (artifact: {artifact:?})\n{}",
                outcome.summary()
            );
        }
        let faults = &outcome.schedule.net_faults;
        assert_eq!(
            faults.iter().position(|f| !f.is_fatal()),
            Some(survivor),
            "seed {seed}: {faults:?}"
        );
        let net = outcome.net.as_ref().expect("the net phase ran");
        assert_eq!(net.committee, survivor, "seed {seed}");
        let failed: Vec<usize> = net.failures.iter().map(|(c, _)| *c).collect();
        assert_eq!(failed, (0..survivor).collect::<Vec<_>>(), "seed {seed}");
    }
}

#[test]
fn honest_aggregator_hook_leaves_no_trace() {
    // An adversary implementing ONLY the aggregator hook — honestly —
    // must be indistinguishable from no adversary at all: the whole
    // report compares equal.
    use arboretum_dp::budget::PrivacyCost;
    use arboretum_lang::parser::parse;
    use arboretum_lang::privacy::CertifyConfig;
    use arboretum_planner::logical::extract;
    use arboretum_planner::search::{plan, PlannerConfig};
    use arboretum_runtime::{execute, Adversary, AggregatorBehavior, Deployment, ExecutionConfig};

    struct HonestAggregatorOnly;
    impl Adversary for HonestAggregatorOnly {
        fn aggregator_behavior(&self) -> AggregatorBehavior {
            AggregatorBehavior::Honest
        }
    }

    let assignments: Vec<usize> = (0..30).map(|i| i % 3).collect();
    let deployment = Deployment::one_hot(&assignments, 3);
    let program = parse("aggr = sum(db); r = em(aggr, 8.0); output(r);").unwrap();
    let lp = extract(&program, &deployment.schema, CertifyConfig::default()).unwrap();
    let (physical, _) = plan(&lp, &PlannerConfig::paper_defaults(1 << 30)).unwrap();
    let cfg = ExecutionConfig {
        seed: 5,
        budget: PrivacyCost {
            epsilon: 100.0,
            delta: 1e-6,
        },
        ..ExecutionConfig::default()
    };
    let (plain, _) = execute(&physical, &lp, &deployment, &cfg, None, None, None).unwrap();
    let (adv, detections) = execute(
        &physical,
        &lp,
        &deployment,
        &cfg,
        None,
        None,
        Some(&HonestAggregatorOnly),
    )
    .unwrap();
    assert!(detections.is_empty(), "false positives: {detections:?}");
    assert_eq!(adv, plain, "honest-aggregator adversary left a trace");
}

#[test]
fn all_fatal_committees_exhaust_failover_with_typed_error() {
    use arboretum_field::FGold;
    use arboretum_mpc::MpcEngine;
    use arboretum_net::fault::FaultPlan;
    use arboretum_runtime::{run_with_failover, NetExecConfig, NetExecError};

    let cfg = NetExecConfig {
        committees: 2,
        faults: vec![Some(FaultPlan::crash(0, 0)), Some(FaultPlan::crash(1, 0))],
    };
    let res = run_with_failover(&cfg, |e: &mut MpcEngine| {
        let a = e.input(0, FGold::new(1))?;
        let b = e.input(1, FGold::new(2))?;
        let s = e.add(&a, &b);
        e.open_batch(&[&s])
    });
    match res {
        Err(NetExecError::AllCommitteesDead { attempts }) => assert_eq!(attempts, 2),
        other => panic!("expected AllCommitteesDead, got {other:?}"),
    }
}

#[test]
fn honest_adversary_leaves_no_trace() {
    use arboretum_dp::budget::PrivacyCost;
    use arboretum_lang::parser::parse;
    use arboretum_lang::privacy::CertifyConfig;
    use arboretum_planner::logical::extract;
    use arboretum_planner::search::{plan, PlannerConfig};
    use arboretum_runtime::{execute, Deployment, ExecutionConfig, HonestAdversary};

    let assignments: Vec<usize> = (0..30).map(|i| i % 3).collect();
    let deployment = Deployment::one_hot(&assignments, 3);
    let program = parse("aggr = sum(db); r = em(aggr, 8.0); output(r);").unwrap();
    let lp = extract(&program, &deployment.schema, CertifyConfig::default()).unwrap();
    let (physical, _) = plan(&lp, &PlannerConfig::paper_defaults(1 << 30)).unwrap();
    let cfg = ExecutionConfig {
        seed: 5,
        budget: PrivacyCost {
            epsilon: 100.0,
            delta: 1e-6,
        },
        ..ExecutionConfig::default()
    };
    let (plain, _) = execute(&physical, &lp, &deployment, &cfg, None, None, None).unwrap();
    let (adv, detections) = execute(
        &physical,
        &lp,
        &deployment,
        &cfg,
        None,
        None,
        Some(&HonestAdversary),
    )
    .unwrap();
    assert!(detections.is_empty(), "false positives: {detections:?}");
    assert_eq!(adv, plain);
    assert_eq!(adv.rejected_inputs, 0);
    assert_eq!(adv.certificate.signatures.len(), cfg.committee_size);
    assert!(adv.certificate.verify(&deployment.registry));
}
