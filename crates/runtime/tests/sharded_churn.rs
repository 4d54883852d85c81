//! Shard assignment composed with §5.1 churn: committee tasks are
//! partitioned across a [`arboretum_par::ShardedPool`]'s shards, a
//! fault plan crashes one task's first committee, and the session
//! layer's failover must hand exactly that task to the next committee —
//! without perturbing any other shard's partials (their outputs,
//! committee choice, and transport metrics stay bitwise identical to a
//! fault-free run) and without ever hanging (every receive is bounded
//! by the fabric timeout).

use std::sync::Arc;
use std::time::{Duration, Instant};

use arboretum_field::FGold;
use arboretum_mpc::{MpcError, MpcOps};
use arboretum_net::FaultPlan;
use arboretum_par::{par_map_arc_sharded, ParConfig};
use arboretum_runtime::net_exec::{
    run_concurrent_sharded, run_with_failover, NetExecConfig, NetExecError, NetExecReport, NetParty,
};

/// The per-task protocol: a tiny shared sum whose result depends on the
/// task index, so cross-task mix-ups cannot cancel out.
fn protocol(k: u64) -> impl Fn(&mut NetParty) -> Result<Vec<FGold>, MpcError> + Send + Sync {
    move |p: &mut NetParty| {
        let a = p.input(0, FGold::new(100 + k))?;
        let b = p.input(1, FGold::new(3 * k + 1))?;
        let s = p.add(&a, &b);
        p.open_batch(&[&s])
    }
}

/// Per-task configs: task `faulty` gets a crash in its first committee,
/// everyone else runs fault-free. Seeds are salted by the global task
/// index exactly like `run_concurrent_sharded`, so fault-free tasks are
/// comparable across harnesses.
fn task_configs(n: usize, faulty: usize) -> Vec<NetExecConfig> {
    (0..n)
        .map(|k| {
            let salt = (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let base = NetExecConfig {
                committees: 2,
                timeout: Duration::from_millis(300),
                ..NetExecConfig::default()
            };
            NetExecConfig {
                dealer_seed: base.dealer_seed ^ salt,
                party_seed: base.party_seed ^ salt,
                faults: if k == faulty {
                    vec![Some(FaultPlan::crash(2, 0)), None]
                } else {
                    Vec::new()
                },
                ..base
            }
        })
        .collect()
}

/// Runs every task through the full failover path on the given sharded
/// pool set, tasks partitioned contiguously across shards.
fn run_sharded(
    shards: usize,
    threads: usize,
    configs: &[NetExecConfig],
) -> Vec<Result<NetExecReport, NetExecError>> {
    let set = ParConfig::fixed(threads).with_shards(shards).sharded_pool();
    let configs = Arc::new(configs.to_vec());
    par_map_arc_sharded(&set, &configs, move |k, cfg| {
        let proto = protocol(k as u64);
        run_with_failover(cfg, move |p: &mut NetParty| proto(p))
    })
}

#[test]
fn crashed_committee_fails_over_without_perturbing_other_shards() {
    const TASKS: usize = 5; // remainder shards at K ∈ {2, 3}.
    const FAULTY: usize = 2;
    let faulty_cfgs = task_configs(TASKS, FAULTY);
    let clean_cfgs = task_configs(TASKS, usize::MAX);

    // Serial fault-free reference: what every healthy shard must see.
    let reference = run_sharded(1, 0, &clean_cfgs);
    for (k, r) in reference.iter().enumerate() {
        let r = r.as_ref().unwrap();
        assert_eq!(r.committee, 0, "clean task {k} should not fail over");
    }

    let deadline = Instant::now();
    for shards in [1usize, 2, 3] {
        for threads in [0usize, 2] {
            let got = run_sharded(shards, threads, &faulty_cfgs);
            assert_eq!(got.len(), TASKS);
            for (k, (r, g)) in reference.iter().zip(&got).enumerate() {
                let tag = format!("task {k} shards={shards} threads={threads}");
                let g = g.as_ref().unwrap_or_else(|e| panic!("{tag}: {e}"));
                let r = r.as_ref().unwrap();
                if k == FAULTY {
                    // The crashed committee's task — and only it — moves
                    // to committee 1, with the failure on record. The
                    // *outputs* still match the reference: failover
                    // reruns the same protocol on fresh preprocessing.
                    assert_eq!(g.committee, 1, "{tag}");
                    assert_eq!(g.failures.len(), 1, "{tag}");
                    assert_eq!(g.failures[0].0, 0, "{tag}");
                    assert_eq!(g.outputs, r.outputs, "{tag}");
                } else {
                    // Other shards' partials are untouched by the
                    // neighbor's churn: bitwise-identical reports.
                    assert_eq!(g.committee, r.committee, "{tag}");
                    assert!(g.failures.is_empty(), "{tag}");
                    assert_eq!(g.outputs, r.outputs, "{tag}");
                    assert_eq!(g.metrics, r.metrics, "{tag}");
                }
            }
        }
    }
    // No-hang guarantee: 6 sweeps of 5 tasks, each bounded by the
    // 300 ms fabric timeout; far under a minute even on one CPU.
    assert!(
        deadline.elapsed() < Duration::from_secs(60),
        "sharded churn sweep took {:?}",
        deadline.elapsed()
    );
}

#[test]
fn shared_fault_schedule_fails_over_identically_across_shard_counts() {
    // `run_concurrent_sharded` shares one config across tasks, so a
    // crash schedule on committee 0 makes *every* task fail over; the
    // failover path itself must be deterministic across shard counts.
    let cfg = NetExecConfig {
        committees: 2,
        timeout: Duration::from_millis(300),
        faults: vec![Some(FaultPlan::crash(2, 0)), None],
        ..NetExecConfig::default()
    };
    let make_tasks = || -> Vec<_> {
        (0..5u64)
            .map(|k| {
                move |p: &mut NetParty| -> Result<Vec<FGold>, MpcError> {
                    let a = p.input(0, FGold::new(7 + k))?;
                    let b = p.input(1, FGold::new(k + 1))?;
                    let s = p.add(&a, &b);
                    p.open_batch(&[&s])
                }
            })
            .collect()
    };
    let serial_pool = ParConfig::serial().with_shards(1).sharded_pool();
    let reference = run_concurrent_sharded(&serial_pool, &cfg, make_tasks());
    for shards in [1usize, 2, 3] {
        let set = ParConfig::fixed(2).with_shards(shards).sharded_pool();
        let got = run_concurrent_sharded(&set, &cfg, make_tasks());
        for (k, (r, g)) in reference.iter().zip(&got).enumerate() {
            let (r, g) = (r.as_ref().unwrap(), g.as_ref().unwrap());
            let tag = format!("task {k} shards={shards}");
            assert_eq!(g.committee, 1, "{tag}");
            assert_eq!(g.outputs, r.outputs, "{tag}");
            assert_eq!(g.committee, r.committee, "{tag}");
            assert_eq!(g.metrics, r.metrics, "{tag}");
            assert_eq!(g.failures.len(), r.failures.len(), "{tag}");
        }
    }
}
