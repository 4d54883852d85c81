//! Determinism regression tests for the parallel subsystem: every
//! parallel hot path must produce results identical to its serial
//! counterpart at *any* thread count — bitwise for BGV aggregates and
//! executor reports, plan-for-plan for the planner.
//!
//! These tests pin the determinism contract of `arboretum-par` (fixed,
//! index-determined work decomposition; randomness confined to serial
//! phases) against regressions in any of the wired call sites.

use arboretum_bgv::{
    encode_coeffs, encrypt, keygen, par_sum_chunks, sum, BgvContext, BgvParams, Ciphertext,
    PublicKey,
};
use arboretum_dp::budget::PrivacyCost;
use arboretum_field::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS};
use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_par::{par_map_arc, ParConfig, ThreadPool};
use arboretum_planner::logical::extract;
use arboretum_planner::search::{plan, PlannerConfig};
use arboretum_runtime::executor::{execute, Deployment, ExecutionConfig};
use arboretum_runtime::stream::{execute_stream, ArrivalSchedule, DEFAULT_STREAM_CHUNK};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Thread counts every contract is checked at (0 = inline fallback).
const THREAD_COUNTS: [usize; 4] = [0, 1, 2, 8];

/// Counts of contiguous shards a device set is cut into. Workload sizes
/// in the shard tests are deliberately *not* divisible by 2, 3, or 8, so
/// every sweep leaves a remainder shard.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// A fan-in ⊞ fold: rounds of [`par_sum_chunks`] down to one ciphertext.
/// The executor runs no such tree (each block adds its running sum into
/// the window's); this checks the pooled chunk kernel, which must agree
/// bitwise with a serial sum whatever the grouping.
fn fold(pool: &ThreadPool, ctx: &Arc<BgvContext>, cts: Vec<Ciphertext>) -> Ciphertext {
    let mut parts = cts;
    while parts.len() > 1 {
        parts = par_sum_chunks(pool, ctx, parts, DEFAULT_STREAM_CHUNK);
    }
    parts.pop().unwrap()
}

/// The BGV context and public key the aggregate tests encrypt under.
fn bgv_fixture(rng: &mut StdRng) -> (Arc<BgvContext>, PublicKey) {
    let params = BgvParams::new(
        64,
        vec![BGV_Q1, BGV_Q2],
        BGV_Q_ROOTS[..2].to_vec(),
        1 << 30,
        None,
    )
    .unwrap();
    let ctx = Arc::new(BgvContext::new(params));
    let (_, pk) = keygen(&ctx, rng);
    (ctx, pk)
}

#[test]
fn bgv_aggregate_is_bitwise_identical_at_any_thread_count() {
    let mut rng = StdRng::seed_from_u64(41);
    let (ctx, pk) = bgv_fixture(&mut rng);
    let cts: Vec<_> = (0..257u64)
        .map(|i| {
            let msg = encode_coeffs(&ctx, &[i % 11, i % 7]).unwrap();
            encrypt(&ctx, &pk, &msg, &mut rng)
        })
        .collect();
    let serial = sum(&ctx, &cts).unwrap();
    for threads in THREAD_COUNTS {
        let pool = ParConfig::fixed(threads).pool();
        // 257 → 9 → 1: a remainder chunk at each level of the fold.
        let folded = fold(&pool, &ctx, cts.clone());
        // Ciphertext equality is exact coefficient equality — bitwise.
        assert_eq!(folded, serial, "aggregate diverged at {threads} threads");
    }
}

#[test]
fn planner_returns_identical_plan_at_any_thread_count() {
    let src = "aggr = sum(db); r = em(aggr, 1.0); output(r);";
    let schema = DbSchema::one_hot(1 << 30, 1 << 12);
    let lp = extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap();
    let cfg = PlannerConfig::paper_defaults(1 << 30);
    let (reference, ref_stats) = plan(&lp, &cfg).unwrap();
    let ref_cost = reference.metrics.get(cfg.goal);
    // The search takes no pool; what can vary is who calls it. One
    // search per thread, concurrently, each must return the reference
    // plan and — the planner reads no clock — the reference statistics.
    for threads in THREAD_COUNTS {
        let results: Vec<_> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..threads.max(1))
                .map(|_| s.spawn(|| plan(&lp, &cfg).unwrap()))
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (p, stats) in results {
            assert_eq!(p.metrics.get(cfg.goal), ref_cost, "{threads} threads");
            assert_eq!(p.signature(), reference.signature(), "{threads} threads");
            assert_eq!(stats, ref_stats, "{threads} threads");
        }
    }
}

#[test]
fn executor_report_is_identical_at_any_thread_count() {
    let categories = 4;
    let assignments: Vec<usize> = (0..48).map(|i| [0, 0, 2, 2, 2, 1, 3][i % 7]).collect();
    let deployment = Deployment::one_hot(&assignments, categories);
    let schema = DbSchema::one_hot(deployment.db.len() as u64, categories);
    let src = "aggr = sum(db); r = em(aggr, 8.0); output(r);";
    let lp = extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap();
    let (physical, _) = plan(&lp, &PlannerConfig::paper_defaults(1 << 30)).unwrap();

    let run = |threads: usize| {
        let cfg = ExecutionConfig {
            // Some malicious uploads so the parallel verification phase
            // actually rejects inputs.
            malicious_fraction: 0.2,
            par: ParConfig::fixed(threads),
            ..ExecutionConfig::default()
        };
        execute(&physical, &lp, &deployment, &cfg, None, None, None)
            .unwrap()
            .0
    };

    let reference = run(0);
    assert!(reference.rejected_inputs > 0, "want exercised rejections");
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads), reference, "{threads} threads");
    }
}

#[test]
fn executor_respects_budget_across_thread_counts() {
    // A degenerate budget must fail identically no matter the pool.
    let assignments: Vec<usize> = (0..30).map(|i| i % 3).collect();
    let deployment = Deployment::one_hot(&assignments, 3);
    let schema = DbSchema::one_hot(30, 3);
    let src = "aggr = sum(db); r = em(aggr, 8.0); output(r);";
    let lp = extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap();
    let (physical, _) = plan(&lp, &PlannerConfig::paper_defaults(1 << 30)).unwrap();
    for threads in THREAD_COUNTS {
        let cfg = ExecutionConfig {
            budget: PrivacyCost {
                epsilon: 0.1,
                delta: 1e-9,
            },
            par: ParConfig::fixed(threads),
            ..ExecutionConfig::default()
        };
        let err = execute(&physical, &lp, &deployment, &cfg, None, None, None).unwrap_err();
        assert_eq!(
            err,
            arboretum_runtime::executor::ExecError::BudgetExhausted,
            "{threads} threads"
        );
    }
}

#[test]
fn bgv_aggregate_is_bitwise_identical_at_any_shard_count() {
    let mut rng = StdRng::seed_from_u64(41);
    let (ctx, pk) = bgv_fixture(&mut rng);
    // 67 is prime: every K in SHARD_COUNTS hits a remainder shard.
    let cts: Vec<_> = (0..67u64)
        .map(|i| {
            let msg = encode_coeffs(&ctx, &[i % 11, i % 7]).unwrap();
            encrypt(&ctx, &pk, &msg, &mut rng)
        })
        .collect();
    let serial = sum(&ctx, &cts).unwrap();
    // Each shard folded on its own, the partials folded in shard order —
    // how the streaming executor merges its windows' partials.
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let pool = ParConfig::fixed(threads).pool();
            let partials: Vec<Ciphertext> = cts
                .chunks(cts.len().div_ceil(shards))
                .map(|part| fold(&pool, &ctx, part.to_vec()))
                .collect();
            let got = fold(&pool, &ctx, partials);
            assert_eq!(got, serial, "shards={shards} threads={threads}");
        }
    }
}

#[test]
fn planner_returns_identical_plan_at_any_shard_count() {
    let src = "aggr = sum(db); r = em(aggr, 1.0); output(r);";
    let schema = DbSchema::one_hot(1 << 30, 1 << 12);
    let lp = Arc::new(extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap());
    let cfg = Arc::new(PlannerConfig::paper_defaults(1 << 30));
    let (reference, ref_stats) = plan(&lp, &cfg).unwrap();
    let goal = cfg.goal;
    let ref_cost = reference.metrics.get(goal);
    // One search per shard, run as tasks of one pool rather than on
    // threads of their own (see the thread-count test above): the
    // searches land on pool workers, or inline on a zero-worker pool.
    for shards in SHARD_COUNTS {
        for threads in [0usize, 2] {
            let pool = ParConfig::fixed(threads).pool();
            let (lp, cfg) = (Arc::clone(&lp), Arc::clone(&cfg));
            let searches = Arc::new(vec![(); shards]);
            for (p, stats) in par_map_arc(&pool, &searches, move |_, _| plan(&lp, &cfg).unwrap()) {
                let tag = format!("shards={shards} threads={threads}");
                assert_eq!(p.metrics.get(goal), ref_cost, "{tag}");
                assert_eq!(p.signature(), reference.signature(), "{tag}");
                assert_eq!(stats, ref_stats, "{tag}");
            }
        }
    }
}

#[test]
fn executor_report_is_identical_at_any_shard_and_thread_count() {
    let categories = 4;
    // 53 devices (prime): every shard count leaves a remainder.
    let assignments: Vec<usize> = (0..53).map(|i| [0, 0, 2, 2, 2, 1, 3][i % 7]).collect();
    let deployment = Deployment::one_hot(&assignments, categories);
    let n = deployment.db.len();
    let schema = DbSchema::one_hot(n as u64, categories);
    let src = "aggr = sum(db); r = em(aggr, 8.0); output(r);";
    let lp = extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap();
    let (physical, _) = plan(&lp, &PlannerConfig::paper_defaults(1 << 30)).unwrap();
    let cfg = |threads: usize| ExecutionConfig {
        malicious_fraction: 0.2,
        par: ParConfig::fixed(threads),
        ..ExecutionConfig::default()
    };

    // The serial batch run is the reference everything else must
    // reproduce: the whole report, certificate signatures included.
    let reference = execute(&physical, &lp, &deployment, &cfg(0), None, None, None)
        .unwrap()
        .0;
    assert!(reference.rejected_inputs > 0, "want exercised rejections");
    // The devices cut into K contiguous shards, one arrival window each.
    for shards in SHARD_COUNTS {
        let windows: Vec<Vec<usize>> = (0..n)
            .collect::<Vec<_>>()
            .chunks(n.div_ceil(shards))
            .map(<[usize]>::to_vec)
            .collect();
        let schedule = ArrivalSchedule::from_partition(&windows, n);
        for threads in THREAD_COUNTS {
            let cfg = cfg(threads);
            let epoch = execute_stream(
                &physical,
                &lp,
                &deployment,
                &cfg,
                &schedule,
                None,
                None,
                None,
            )
            .unwrap();
            assert_eq!(epoch.report, reference, "shards={shards} threads={threads}");
        }
    }
}
