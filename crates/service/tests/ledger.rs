//! Budget enforcement across queries: a typed rejection leaves every
//! ledger bitwise unchanged, does not shift later seeds, and never
//! affects another analyst's concurrent query.

use arboretum_dp::budget::{BudgetError, LedgerBookError, PrivacyCost};
use arboretum_runtime::executor::{Deployment, ExecError};
use arboretum_service::{CatalogConfig, ServiceConfig, ServiceError, ServiceHandle};

use std::sync::Arc;

const Q_EPS1: &str = "aggr = sum(db);\nr = em(aggr, 1.0);\noutput(r);";
const Q_EPS05: &str = "aggr = sum(db);\nr = em(aggr, 0.5);\noutput(r);";

fn deployment() -> Deployment {
    let assignments: Vec<usize> = (0..30).map(|i| i % 3).collect();
    Deployment::one_hot(&assignments, 3)
}

fn service(workers: usize) -> ServiceHandle {
    ServiceHandle::start(
        deployment(),
        ServiceConfig {
            catalog: CatalogConfig::default(),
            workers,
            pool_capacity: 2,
        },
    )
    .unwrap()
}

#[test]
fn exhausted_analyst_gets_typed_rejection_and_bitwise_unchanged_ledger() {
    let handle = service(0);
    handle.open_session("poor", PrivacyCost::pure(1.8)).unwrap();
    handle.open_session("rich", PrivacyCost::pure(6.0)).unwrap();

    // First query fits (cost ε = 1.0).
    handle.run("poor", Q_EPS1).unwrap();
    let ledger_before = handle.ledger("poor").unwrap();
    let deployment_before = handle.deployment_ledger();

    // Second ε = 1.0 query exceeds the remaining 0.8: typed refusal.
    let err = handle.submit("poor", Q_EPS1).unwrap_err();
    match err {
        ServiceError::Ledger(LedgerBookError::Analyst { analyst, source }) => {
            assert_eq!(analyst, "poor");
            assert!(matches!(source, BudgetError::EpsilonExhausted { .. }));
        }
        other => panic!("expected analyst budget refusal, got {other:?}"),
    }

    // Both ledgers bitwise unchanged by the refusal.
    assert_eq!(handle.ledger("poor").unwrap(), ledger_before);
    assert_eq!(handle.deployment_ledger(), deployment_before);

    // The refusal is audited but consumed no query id.
    let audit = handle.audit_log();
    let refused: Vec<_> = audit.iter().filter(|r| r.refusal.is_some()).collect();
    assert_eq!(refused.len(), 1);
    assert_eq!(refused[0].analyst, "poor");
    assert_eq!(refused[0].query_id, None);
    assert_eq!(handle.queries_admitted(), 1);

    // A refusal does not shift later seeds: poor's next admitted query
    // matches a run where the refusal never happened.
    let report = handle.run("poor", Q_EPS05).unwrap();
    let clean = service(0);
    clean.open_session("poor", PrivacyCost::pure(1.8)).unwrap();
    clean.run("poor", Q_EPS1).unwrap();
    let clean_report = clean.run("poor", Q_EPS05).unwrap();
    assert_eq!(report.outputs, clean_report.outputs);
    assert_eq!(
        report.budget_after.epsilon.to_bits(),
        clean_report.budget_after.epsilon.to_bits()
    );
}

#[test]
fn rejection_does_not_affect_the_other_analysts_concurrent_query() {
    let handle = Arc::new(service(2));
    handle.open_session("poor", PrivacyCost::pure(0.4)).unwrap();
    handle.open_session("rich", PrivacyCost::pure(6.0)).unwrap();

    // Rich submits from another thread while poor's submission is
    // refused on this one.
    let rich = {
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || {
            let id = handle.submit("rich", Q_EPS1).unwrap();
            handle.wait(id).unwrap()
        })
    };
    let err = handle.submit("poor", Q_EPS1).unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Ledger(LedgerBookError::Analyst { .. })
    ));
    let rich_report = rich.join().unwrap();

    // Rich's result is bitwise the result of a solo run.
    let solo = service(0);
    solo.open_session("rich", PrivacyCost::pure(6.0)).unwrap();
    let solo_report = solo.run("rich", Q_EPS1).unwrap();
    assert_eq!(rich_report.outputs, solo_report.outputs);
    assert_eq!(rich_report.mpc_metrics, solo_report.mpc_metrics);
    assert_eq!(
        rich_report.budget_after.epsilon.to_bits(),
        solo_report.budget_after.epsilon.to_bits()
    );
    // Poor's ledger is untouched; rich's shows exactly one charge.
    assert_eq!(handle.ledger("poor").unwrap().spent().epsilon, 0.0);
    assert!((handle.ledger("rich").unwrap().spent().epsilon - 1.0).abs() < 1e-12);
}

#[test]
fn deployment_cap_refuses_even_a_funded_analyst() {
    let catalog = CatalogConfig {
        deployment_budget: PrivacyCost {
            epsilon: 1.5,
            delta: 1e-4,
        },
        ..CatalogConfig::default()
    };
    let handle = ServiceHandle::start(
        deployment(),
        ServiceConfig {
            catalog,
            workers: 0,
            pool_capacity: 1,
        },
    )
    .unwrap();
    handle.open_session("a", PrivacyCost::pure(6.0)).unwrap();
    handle.open_session("b", PrivacyCost::pure(6.0)).unwrap();
    handle.run("a", Q_EPS1).unwrap();
    // B has plenty of personal budget, but the population's total
    // privacy loss cap (sequential composition across analysts) binds.
    let err = handle.submit("b", Q_EPS1).unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Ledger(LedgerBookError::Deployment(_))
    ));
    assert_eq!(handle.ledger("b").unwrap().spent().epsilon, 0.0);
}

/// A numeric schema whose column sums could wrap mod the plaintext
/// modulus is refused at start, before the catalog seats a committee or
/// opens a ledger: 40 devices at up to 2^27 − 1 (what a 27-bit range
/// proof over `[0, 2^26]` admits) could sum past 2^30.
#[test]
fn a_schema_whose_sums_can_wrap_is_refused_at_start() {
    let schema = arboretum_lang::ast::DbSchema::numeric(1 << 20, 1, 0, 1 << 26);
    let deployment = Deployment::from_rows(vec![vec![(1 << 26) - 1]; 40], schema);
    let err = ServiceHandle::start(deployment, ServiceConfig::default())
        .err()
        .expect("the schema is refused");
    assert!(
        matches!(&err, ServiceError::Exec(ExecError::Unsupported(msg)) if msg.contains("[0, 67108864]")),
        "{err:?}"
    );
}
