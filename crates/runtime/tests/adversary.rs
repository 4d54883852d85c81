//! Seed-sweep adversary suite: every malicious behavior the runtime
//! claims to reject is injected via `arboretum-testkit` schedules and
//! must be detected with the right typed error and attribution, with
//! zero false positives and a surviving-set answer bitwise identical to
//! an honest reference run.
//!
//! `ADVERSARY_SEEDS` widens the sweep (CI runs 16); any failing seed
//! reproduces with `cargo run --bin arboretum -- attack --seed N` and
//! dumps an artifact under `ADVERSARY_ARTIFACT_DIR` (default
//! `target/adversary-failures`).

use arboretum_net::FabricKind;
use arboretum_par::ParConfig;
use arboretum_testkit::{dump_failure_artifact, run_attack, AttackConfig};

fn sweep_width() -> u64 {
    std::env::var("ADVERSARY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

fn assert_pass(cfg: &AttackConfig) {
    let outcome = run_attack(cfg).unwrap_or_else(|e| panic!("seed {}: {e}", cfg.seed));
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
fn one_hot_seed_sweep_detects_every_injected_behavior_on_every_fabric() {
    // The sweep runs once per fabric; each seed's typed detection set
    // and surviving answer must be bitwise identical across fabrics.
    for seed in 0..sweep_width() {
        let run = |kind| {
            let cfg = AttackConfig {
                fabric: Some(kind),
                ..AttackConfig::new(seed)
            };
            let got = run_attack(&cfg).unwrap_or_else(|e| panic!("seed {seed} {kind}: {e}"));
            if !got.ok() {
                let artifact = dump_failure_artifact(&cfg, &got).ok();
                panic!(
                    "seed {seed} failed cross-checks on {kind} (artifact: {artifact:?})\n{}",
                    got.summary()
                );
            }
            got
        };
        let reference = run(FabricKind::Evented);
        let got = run(FabricKind::Sim);
        assert_eq!(
            got.adversarial.detections, reference.adversarial.detections,
            "seed {seed}: detections drifted between evented and sim"
        );
        assert_eq!(
            got.adversarial.report.outputs, reference.adversarial.report.outputs,
            "seed {seed}: outputs drifted between evented and sim"
        );
        assert_eq!(
            got.adversarial.report.accepted_inputs, reference.adversarial.report.accepted_inputs,
            "seed {seed}: accepted inputs drifted between evented and sim"
        );
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
    for seed in 100..100 + sweep_width().min(8) {
        assert_pass(&AttackConfig {
            numeric: true,
            net_phase: false,
            ..AttackConfig::new(seed)
        });
    }
}

#[test]
fn detections_and_outputs_identical_across_threads_and_shards() {
    for seed in [3u64, 7] {
        let base_cfg = AttackConfig {
            net_phase: false,
            ..AttackConfig::new(seed)
        };
        let base = run_attack(&base_cfg).expect("serial attack run failed");
        assert!(base.ok(), "seed {seed} serial:\n{}", base.summary());
        for threads in [1usize, 8] {
            for shards in [1usize, 2] {
                let cfg = AttackConfig {
                    par: ParConfig::fixed(threads).with_shards(shards),
                    ..base_cfg.clone()
                };
                let got = run_attack(&cfg).expect("parallel attack run failed");
                assert!(
                    got.ok(),
                    "seed {seed} threads {threads} shards {shards}:\n{}",
                    got.summary()
                );
                assert_eq!(
                    got.adversarial, base.adversarial,
                    "report or detections drifted at threads {threads} shards {shards}"
                );
            }
        }
    }
}

#[test]
fn aggregator_seed_sweep_yields_exactly_one_exact_detection_on_every_fabric() {
    // `seed % 6` walks the whole AggregatorBehavior catalog, so the
    // 16-seed sweep covers every behavior at least twice. Each seed
    // must produce exactly one Subject::Aggregator detection carrying
    // the exact predicted kind (step attribution included), with
    // outputs/budget/audit bitwise identical to the honest reference —
    // both already enforced by the harness cross-checks — and the
    // detection set identical across both fabrics.
    use arboretum_runtime::Subject;
    for seed in 0..sweep_width() {
        let mk = |fabric| AttackConfig {
            fabric: Some(fabric),
            net_phase: false,
            aggregator: true,
            ..AttackConfig::new(seed)
        };
        let cfg = mk(FabricKind::Evented);
        let reference = run_attack(&cfg).unwrap_or_else(|e| panic!("seed {seed} evented: {e}"));
        if !reference.ok() {
            let artifact = dump_failure_artifact(&cfg, &reference).ok();
            panic!(
                "seed {seed} failed aggregator cross-checks (artifact: {artifact:?})\n{}",
                reference.summary()
            );
        }
        let expected = reference
            .expected_aggregator
            .clone()
            .expect("aggregator axis predicts a kind");
        let agg: Vec<_> = reference
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
        let got =
            run_attack(&mk(FabricKind::Sim)).unwrap_or_else(|e| panic!("seed {seed} sim: {e}"));
        assert!(got.ok(), "seed {seed} sim:\n{}", got.summary());
        assert_eq!(
            got.adversarial.detections, reference.adversarial.detections,
            "seed {seed}: aggregator detections drifted between evented and sim"
        );
        assert_eq!(
            got.adversarial.report.outputs,
            reference.adversarial.report.outputs
        );
    }
}

#[test]
fn adaptive_sweep_replays_deterministically_across_threads_shards_and_fabrics() {
    // Satellite: adaptive decisions are a pure function of
    // (seed, observed-transcript-prefix), so the full decision log —
    // subject, transcript digest, draw, and choice per decision — must
    // be identical across thread counts, shard counts, and fabrics. A
    // divergence dumps the replayable decision-log artifact.
    for seed in 0..sweep_width().min(6) {
        let base_cfg = AttackConfig {
            fabric: Some(FabricKind::Evented),
            net_phase: false,
            aggregator: true,
            adaptive: true,
            ..AttackConfig::new(seed)
        };
        let base = run_attack(&base_cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if !base.ok() {
            let artifact = dump_failure_artifact(&base_cfg, &base).ok();
            panic!(
                "seed {seed} failed adaptive cross-checks (artifact: {artifact:?})\n{}",
                base.summary()
            );
        }
        let base_realized = base.adaptive.as_ref().expect("adaptive run");
        assert!(!base_realized.decisions.is_empty());
        for fabric in [FabricKind::Evented, FabricKind::Sim] {
            for threads in [1usize, 8] {
                for shards in [1usize, 2] {
                    let cfg = AttackConfig {
                        fabric: Some(fabric),
                        par: ParConfig::fixed(threads).with_shards(shards),
                        ..base_cfg.clone()
                    };
                    let got =
                        run_attack(&cfg).unwrap_or_else(|e| panic!("seed {seed} {fabric}: {e}"));
                    assert!(
                        got.ok(),
                        "seed {seed} {fabric} threads {threads} shards {shards}:\n{}",
                        got.summary()
                    );
                    let realized = got.adaptive.as_ref().expect("adaptive run");
                    if realized.decisions != base_realized.decisions {
                        let artifact = dump_failure_artifact(&cfg, &got).ok();
                        panic!(
                            "seed {seed}: adaptive decisions diverged at {fabric} threads \
                             {threads} shards {shards} (replayable artifact: {artifact:?})"
                        );
                    }
                    assert_eq!(got.adversarial, base.adversarial);
                }
            }
        }
    }
}

#[test]
fn adaptive_net_phase_respects_realized_fault_decisions() {
    // With the net phase on, the adaptively chosen fault plans drive
    // the failover chain, and the harness cross-checks completion on a
    // survivable committee against the realized (not static) schedule.
    for seed in [0u64, 4] {
        let cfg = AttackConfig {
            adaptive: true,
            aggregator: true,
            ..AttackConfig::new(seed)
        };
        let outcome = run_attack(&cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if !outcome.ok() {
            let artifact = dump_failure_artifact(&cfg, &outcome).ok();
            panic!(
                "seed {seed} adaptive net phase failed (artifact: {artifact:?})\n{}",
                outcome.summary()
            );
        }
        let realized = outcome.adaptive.as_ref().expect("adaptive run");
        assert!(
            realized.net_faults.is_some(),
            "net faults were never decided"
        );
        assert!(outcome.net.is_some());
    }
}

#[test]
fn honest_aggregator_hook_leaves_no_trace_on_any_fabric() {
    // An adversary implementing ONLY the aggregator hook — honestly —
    // must be indistinguishable from no adversary at all: the whole
    // report compares equal on every fabric.
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
    for fabric in FabricKind::ALL {
        let cfg = ExecutionConfig {
            seed: 5,
            budget: PrivacyCost {
                epsilon: 100.0,
                delta: 1e-6,
            },
            fabric: Some(fabric),
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
        assert!(
            detections.is_empty(),
            "{fabric}: false positives: {detections:?}"
        );
        assert_eq!(
            adv, plain,
            "{fabric}: honest-aggregator adversary left a trace"
        );
    }
}

#[test]
fn all_fatal_committees_exhaust_failover_with_typed_error() {
    use arboretum_field::FGold;
    use arboretum_mpc::MpcOps;
    use arboretum_net::fault::FaultPlan;
    use arboretum_runtime::{run_with_failover, NetExecConfig, NetExecError, NetParty};

    let cfg = NetExecConfig {
        committees: 2,
        faults: vec![Some(FaultPlan::crash(0, 0)), Some(FaultPlan::crash(1, 0))],
        timeout: std::time::Duration::from_millis(100),
        ..NetExecConfig::default()
    };
    let res = run_with_failover(&cfg, |p: &mut NetParty| {
        let a = p.input(0, FGold::new(1))?;
        let b = p.input(1, FGold::new(2))?;
        let s = p.add(&a, &b);
        p.open_batch(&[&s])
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
