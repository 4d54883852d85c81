//! A longitudinal study: many queries over one deployment session,
//! served by the multi-tenant service.
//!
//! Demonstrates the system's long-lived behavior (§5.1–§5.2) through
//! the `ServiceHandle` API: the session catalog pays the fixed
//! sortition + BGV-keygen cost exactly once at startup, so every query
//! in the analyst's monthly stream reports **zero** setup op counts
//! (the amortization story of §5); each month ingests its uploads in
//! weekly streaming windows (`submit_stream`) yet charges the privacy
//! ledger once per epoch, not once per window; the ledger carries
//! across months and eventually refuses service with a typed error;
//! the plan cache answers the repeated monthly query without
//! re-planning; and committee churn is handled by task reassignment.
//!
//! Run with: `cargo run --example longitudinal_study`

use arboretum::dp::budget::PrivacyCost;
use arboretum::runtime::session::reassign_for_churn;
use arboretum::service::{CatalogConfig, ServiceConfig, ServiceHandle};
use arboretum::{Arboretum, Deployment, ExecutionConfig};

fn main() {
    let categories = 5;
    let monthly = "aggr = sum(db);\nr = em(aggr, 2.0);\noutput(r);";

    // A fixed cohort answering a monthly top-1 question.
    let weights = [30usize, 55, 20, 40, 15];
    let assignments: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(c, &w)| std::iter::repeat_n(c, w))
        .collect();
    let deployment = Deployment::one_hot(&assignments, categories);

    // Contrast: a one-shot execution pays the fixed setup cost itself.
    let system = Arboretum::new(1 << 20);
    let prepared = system
        .prepare(monthly, deployment.schema, Default::default())
        .expect("monthly query certifies");
    let one_shot = system
        .run(&prepared, &deployment, &ExecutionConfig::default())
        .expect("one-shot run succeeds");
    assert!(
        !one_shot.setup.is_zero(),
        "a one-shot execution performs its own sortition + keygen"
    );
    println!(
        "one-shot execution paid setup itself: {} committees seated, {} keygen, {} keygen-MPC rounds",
        one_shot.setup.sortition_committees,
        one_shot.setup.keygen_ops,
        one_shot.setup.keygen_mpc_rounds,
    );

    // The standing service pays it once, at catalog creation.
    let service = ServiceHandle::start(
        deployment,
        ServiceConfig {
            catalog: CatalogConfig::default(),
            workers: 2,
            pool_capacity: 2,
        },
    )
    .expect("catalog setup succeeds");
    println!(
        "service catalog paid setup once up front: {:?}\n",
        service.setup_counters()
    );
    service
        .open_session(
            "analyst",
            PrivacyCost {
                epsilon: 7.0,
                delta: 1e-8,
            },
        )
        .expect("session opens");

    // Each month the cohort's uploads arrive over four weekly windows.
    // The streamed epoch folds each window into a checkpointed
    // accumulator and decrypts once at close — same outputs, same
    // single budget charge as a one-shot month.
    let weekly_windows = 4;
    println!(
        "monthly top-1 under a total budget of epsilon = 7.0, \
         ingested in {weekly_windows} weekly windows per month:\n"
    );
    let mut month = 1u64;
    let mut winners = Vec::new();
    let mut budget_left = service.ledger("analyst").expect("open").remaining().epsilon;
    loop {
        let closed = service
            .submit_stream("analyst", monthly, weekly_windows)
            .and_then(|id| service.wait_stream(id));
        match closed {
            Ok(epoch) => {
                let report = &epoch.report;
                // Every service query runs against the cached setup:
                // zero additional sortition/keygen work, by op count —
                // streamed epochs included.
                assert!(
                    report.setup.is_zero(),
                    "month {month} re-paid setup: {:?}",
                    report.setup
                );
                assert_eq!(epoch.checkpoints.len(), weekly_windows);
                // The epoch is charged once at stream open, not per
                // window: exactly one ledger debit per month.
                let now_left = service.ledger("analyst").expect("open").remaining().epsilon;
                assert!(
                    now_left < budget_left,
                    "month {month} did not charge the ledger"
                );
                budget_left = now_left;
                println!(
                    "month {month}: winner = category {}, weekly arrivals = {:?} ({} accepted), budget left = {:.2}, setup ops = 0 (amortized)",
                    report.outputs[0],
                    epoch.checkpoints.iter().map(|c| c.accepted).collect::<Vec<_>>(),
                    report.accepted_inputs,
                    budget_left,
                );
                winners.push(report.outputs[0]);
            }
            Err(e) => {
                println!("month {month}: query refused — {e}");
                break;
            }
        }
        month += 1;
    }

    let (hits, misses) = service.plan_cache_stats();
    println!(
        "\n{} queries completed; winners: {winners:?}",
        winners.len()
    );
    println!("plan cache: {hits} hits, {misses} miss(es) — the monthly query planned once");
    assert_eq!(misses, 1, "identical monthly query must re-plan only once");
    assert!(hits >= 1);

    // Churn: a 15%-tolerant plan with three committees where committee 1
    // collapses — its task fails over to committee 2 (§5.1).
    let assignment =
        reassign_for_churn(&[40, 40, 40], &[3, 12, 1], 0.15).expect("not all committees dead");
    println!("\nchurn failover (committee 1 lost 12/40 members): tasks run on {assignment:?}");
}
