//! Determinism regression tests for the parallel subsystem: every
//! parallel hot path must produce results identical to its serial
//! counterpart at *any* thread count — bitwise for BGV aggregates and
//! executor reports, plan-for-plan for the planner.
//!
//! These tests pin the determinism contract of `arboretum-par` (fixed,
//! index-determined work decomposition; randomness confined to serial
//! phases) against regressions in any of the wired call sites.

use arboretum_bgv::{encode_coeffs, encrypt, keygen, par_sum_sharded, sum, BgvContext, BgvParams};
use arboretum_dp::budget::PrivacyCost;
use arboretum_field::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS};
use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_par::ParConfig;
use arboretum_planner::logical::extract;
use arboretum_planner::search::{plan, PlannerConfig};
use arboretum_runtime::executor::{execute, Deployment, ExecutionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Thread counts every contract is checked at (0 = inline fallback).
const THREAD_COUNTS: [usize; 4] = [0, 1, 2, 8];

/// Shard counts the sharded contracts are swept over. Workload sizes in
/// the sharded tests are deliberately *not* divisible by 2, 3, or 8, so
/// every sweep exercises the remainder distribution of `ShardPlan`.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn bgv_aggregate_is_bitwise_identical_at_any_thread_count() {
    let params = BgvParams::new(
        64,
        vec![BGV_Q1, BGV_Q2],
        BGV_Q_ROOTS[..2].to_vec(),
        1 << 30,
        None,
    )
    .unwrap();
    let ctx = Arc::new(BgvContext::new(params));
    let mut rng = StdRng::seed_from_u64(41);
    let (_, pk) = keygen(&ctx, &mut rng);
    let cts: Vec<_> = (0..257u64)
        .map(|i| {
            let msg = encode_coeffs(&ctx, &[i % 11, i % 7]).unwrap();
            encrypt(&ctx, &pk, &msg, &mut rng)
        })
        .collect();
    let serial = sum(&ctx, &cts).unwrap();
    for threads in THREAD_COUNTS {
        let pool = ParConfig::fixed(threads).with_shards(1).sharded_pool();
        let parallel = par_sum_sharded(&pool, &ctx, cts.clone()).unwrap();
        // Ciphertext equality is exact coefficient equality — bitwise.
        assert_eq!(parallel, serial, "aggregate diverged at {threads} threads");
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
    let params = BgvParams::new(
        64,
        vec![BGV_Q1, BGV_Q2],
        BGV_Q_ROOTS[..2].to_vec(),
        1 << 30,
        None,
    )
    .unwrap();
    let ctx = Arc::new(BgvContext::new(params));
    let mut rng = StdRng::seed_from_u64(41);
    let (_, pk) = keygen(&ctx, &mut rng);
    // 67 is prime: every K in SHARD_COUNTS hits a remainder shard.
    let cts: Vec<_> = (0..67u64)
        .map(|i| {
            let msg = encode_coeffs(&ctx, &[i % 11, i % 7]).unwrap();
            encrypt(&ctx, &pk, &msg, &mut rng)
        })
        .collect();
    let serial = sum(&ctx, &cts).unwrap();
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let set = ParConfig::fixed(threads).with_shards(shards).sharded_pool();
            let got = par_sum_sharded(&set, &ctx, cts.clone()).unwrap();
            assert_eq!(got, serial, "shards={shards} threads={threads}");
        }
    }
}

#[test]
fn planner_returns_identical_plan_at_any_shard_count() {
    let src = "aggr = sum(db); r = em(aggr, 1.0); output(r);";
    let schema = DbSchema::one_hot(1 << 30, 1 << 12);
    let lp = extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap();
    let cfg = PlannerConfig::paper_defaults(1 << 30);
    let (reference, ref_stats) = plan(&lp, &cfg).unwrap();
    let ref_cost = reference.metrics.get(cfg.goal);
    // One search per shard driver, concurrently (see the thread-count
    // test above for why the caller is the only axis left).
    for shards in SHARD_COUNTS {
        for threads in [0usize, 2] {
            let set = ParConfig::fixed(threads).with_shards(shards).sharded_pool();
            for (p, stats) in set.run(|_, _| plan(&lp, &cfg).unwrap()) {
                let tag = format!("shards={shards} threads={threads}");
                assert_eq!(p.metrics.get(cfg.goal), ref_cost, "{tag}");
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
    let schema = DbSchema::one_hot(deployment.db.len() as u64, categories);
    let src = "aggr = sum(db); r = em(aggr, 8.0); output(r);";
    let lp = extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap();
    let (physical, _) = plan(&lp, &PlannerConfig::paper_defaults(1 << 30)).unwrap();

    let run = |threads: usize, shards: usize| {
        let cfg = ExecutionConfig {
            malicious_fraction: 0.2,
            par: ParConfig::fixed(threads).with_shards(shards),
            ..ExecutionConfig::default()
        };
        execute(&physical, &lp, &deployment, &cfg, None, None, None)
            .unwrap()
            .0
    };

    // The serial single-shard run is the reference everything else must
    // reproduce: the whole report, certificate signatures included.
    let reference = run(0, 1);
    assert!(reference.rejected_inputs > 0, "want exercised rejections");
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            assert_eq!(
                run(threads, shards),
                reference,
                "shards={shards} threads={threads}"
            );
        }
    }
}
