//! Fault-injection × churn-failover integration: each committee runs the
//! protocol as one MPC engine on an evented fabric carrying that
//! committee's fault plan. A member crashes or a link is cut
//! mid-protocol, the engine returns the transport error, and churn
//! reassignment moves the task to the next live committee. An empty
//! link on the act-as-anyone fabric is an immediate timeout, so no path
//! waits on a wall clock — these tests also act as the no-hang guarantee
//! (a wedged run fails the harness timeout, but the assertions below
//! complete in well under a second).

use std::time::{Duration, Instant};

use arboretum_field::FGold;
use arboretum_mpc::{argmax_tournament, MpcEngine, MpcError};
use arboretum_net::FaultPlan;
use arboretum_runtime::{run_with_failover, NetExecConfig, NetExecError};

/// Beaver multiplication plus a small argmax — enough protocol depth
/// that a crash after a few transport operations lands mid-run.
fn demo_protocol(e: &mut MpcEngine) -> Result<Vec<FGold>, MpcError> {
    let a = e.input(0, FGold::new(6))?;
    let b = e.input(1, FGold::new(7))?;
    let prod = e.mul(&a, &b)?;
    let xs = vec![prod, a, b];
    let (mx, am) = argmax_tournament(e, &xs, 8)?;
    e.open_batch(&[&xs[0], &mx, &am])
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
    };
    let start = Instant::now();
    let report = run_with_failover(&cfg, demo_protocol).unwrap();
    assert_eq!(report.outputs, expected());
    assert_eq!(report.committee, 1, "the task must move to committee 1");
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].0, 0, "committee 0 must be the failure");
    assert!(
        report.failures[0].1.contains("party 3 has crashed"),
        "{:?}",
        report.failures[0]
    );
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "failover must be bounded, not hang"
    );
}

#[test]
fn every_committee_faulty_returns_a_typed_error_not_a_hang() {
    // Both committees lose a member early; a crashed member's peers
    // cannot complete, so both committees die.
    let cfg = NetExecConfig {
        committees: 2,
        faults: vec![Some(FaultPlan::crash(1, 0)), Some(FaultPlan::crash(4, 5))],
    };
    let start = Instant::now();
    let err = run_with_failover(&cfg, demo_protocol).unwrap_err();
    assert_eq!(err, NetExecError::AllCommitteesDead { attempts: 2 });
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "exhaustion must be reached without a hang"
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
    };
    let report = run_with_failover(&cfg, demo_protocol).unwrap();
    assert_eq!(report.outputs, expected());
    assert_eq!(report.committee, 1);
    assert!(
        report.failures[0].1.contains("partitioned"),
        "{:?}",
        report.failures
    );
}

#[test]
fn evented_fault_scenarios_resolve_without_wall_clock_waits() {
    // The all-committees-die scenario, now with a slow member on top:
    // its delay is charged to the fabric's virtual clock, so the whole
    // failover cascade completes in milliseconds of wall clock.
    let slow_crash = |party, ops| FaultPlan {
        slow: vec![(0, 30.0)],
        ..FaultPlan::crash(party, ops)
    };
    let cfg = NetExecConfig {
        committees: 2,
        faults: vec![Some(slow_crash(1, 0)), Some(slow_crash(4, 5))],
    };
    let start = Instant::now();
    let err = run_with_failover(&cfg, demo_protocol).unwrap_err();
    assert!(matches!(err, NetExecError::AllCommitteesDead { .. }));
    assert!(
        start.elapsed() < Duration::from_millis(2000),
        "virtual delays must not turn into 30 s real waits"
    );
}
