//! Fault-injection × churn-failover integration on committees of
//! per-thread parties: a committee member crashes mid-protocol, and the
//! session layer's churn reassignment moves the task to the next live
//! committee. Every path is bounded by receive timeouts on the evented
//! fabric's virtual clock — these tests also act as the no-hang
//! guarantee (a wedged run fails the harness timeout, but the
//! assertions below complete in well under a second).

use std::time::{Duration, Instant};

use arboretum_field::FGold;
use arboretum_mpc::{argmax_tournament, MpcError, MpcOps};
use arboretum_net::FaultPlan;
use arboretum_runtime::{run_with_failover, NetExecConfig, NetExecError, NetParty};

/// Beaver multiplication plus a small argmax — enough protocol depth
/// that a crash after a few transport operations lands mid-run.
fn demo_protocol(p: &mut NetParty) -> Result<Vec<FGold>, MpcError> {
    let a = p.input(0, FGold::new(6))?;
    let b = p.input(1, FGold::new(7))?;
    let prod = p.mul(&a, &b)?;
    let xs = vec![prod, a, b];
    let (mx, am) = argmax_tournament(p, &xs, 8)?;
    p.open_batch(&[&prod, &mx, &am])
}

fn expected() -> Vec<FGold> {
    vec![FGold::new(42), FGold::new(42), FGold::new(0)]
}

#[test]
fn crash_mid_protocol_fails_over_to_the_next_committee() {
    // Committee 0: party 3 crashes after 20 transport operations —
    // well into the protocol, past the input phase. Committee 1 is
    // clean and takes over the task.
    let cfg = NetExecConfig {
        committees: 2,
        faults: vec![Some(FaultPlan::crash(3, 20)), None],
        timeout: Duration::from_millis(200),
        ..NetExecConfig::default()
    };
    let start = Instant::now();
    let report = run_with_failover(&cfg, demo_protocol).unwrap();
    assert_eq!(report.outputs, expected());
    assert_eq!(report.committee, 1, "the task must move to committee 1");
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].0, 0, "committee 0 must be the failure");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "failover must be bounded by timeouts, not hang"
    );
}

#[test]
fn every_committee_faulty_returns_a_typed_error_not_a_hang() {
    // Both committees lose a member immediately; churn tolerance 0.2
    // on m = 5 allows at most one offline member, but a crashed member
    // stalls its peers into timeouts, so both committees die.
    let cfg = NetExecConfig {
        committees: 2,
        faults: vec![Some(FaultPlan::crash(1, 0)), Some(FaultPlan::crash(4, 5))],
        timeout: Duration::from_millis(150),
        ..NetExecConfig::default()
    };
    let start = Instant::now();
    let err = run_with_failover(&cfg, demo_protocol).unwrap_err();
    match err {
        NetExecError::AllCommitteesDead { attempts } => assert_eq!(attempts, 2),
        NetExecError::Exhausted { attempts, .. } => assert_eq!(attempts, 2),
        other => panic!("expected a failover-exhaustion error, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "exhaustion must be reached through timeouts, not a hang"
    );
}

#[test]
fn partition_heals_via_reassignment() {
    // Committee 0 is split 0|1 (king link severed): opening cannot
    // complete there, and the task reaches committee 1.
    let cfg = NetExecConfig {
        committees: 2,
        faults: vec![
            Some(FaultPlan {
                partitions: vec![(0, 1)],
                ..FaultPlan::default()
            }),
            None,
        ],
        timeout: Duration::from_millis(200),
        ..NetExecConfig::default()
    };
    let report = run_with_failover(&cfg, demo_protocol).unwrap();
    assert_eq!(report.outputs, expected());
    assert_eq!(report.committee, 1);
}

#[test]
fn evented_fault_scenarios_resolve_without_wall_clock_waits() {
    // The all-committees-die scenario again, with a receive timeout
    // no test could afford to sleep through: every stalled receive
    // resolves in virtual time, so the whole failover cascade completes
    // in milliseconds.
    let cfg = NetExecConfig {
        committees: 2,
        faults: vec![Some(FaultPlan::crash(1, 0)), Some(FaultPlan::crash(4, 5))],
        timeout: Duration::from_secs(30),
        ..NetExecConfig::default()
    };
    let start = Instant::now();
    let err = run_with_failover(&cfg, demo_protocol).unwrap_err();
    assert!(matches!(
        err,
        NetExecError::AllCommitteesDead { .. } | NetExecError::Exhausted { .. }
    ));
    assert!(
        start.elapsed() < Duration::from_millis(2000),
        "evented timeouts are virtual; no 30 s real waits may stack up"
    );
}
