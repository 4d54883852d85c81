//! End-to-end execution tests: plan → sortition → keygen → encrypted
//! input with ZKPs → aggregation → VSR → MPC mechanism → audited output.

use arboretum_dp::budget::PrivacyCost;
use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_planner::logical::extract;
use arboretum_planner::search::{plan, PlannerConfig};
use arboretum_runtime::executor::{execute, Deployment, ExecError, ExecutionConfig};

fn assignments(counts: &[usize]) -> Vec<usize> {
    counts
        .iter()
        .enumerate()
        .flat_map(|(c, &n)| std::iter::repeat_n(c, n))
        .collect()
}

fn setup(
    src: &str,
    counts: &[usize],
) -> (
    arboretum_planner::plan::Plan,
    arboretum_planner::logical::LogicalPlan,
    Deployment,
) {
    let categories = counts.len();
    let deployment = Deployment::one_hot(&assignments(counts), categories);
    let schema = DbSchema::one_hot(deployment.db.len() as u64, categories);
    let lp = extract(&parse(src).unwrap(), &schema, CertifyConfig::default()).unwrap();
    let cfg = PlannerConfig::paper_defaults(1 << 30);
    let (physical, _) = plan(&lp, &cfg).unwrap();
    (physical, lp, deployment)
}

#[test]
fn top1_end_to_end_finds_dominant_category() {
    // Category 2 dominates; with a large epsilon the EM must select it.
    let (physical, lp, deployment) = setup(
        "aggr = sum(db); r = em(aggr, 8.0); output(r);",
        &[5, 3, 60, 4],
    );
    let (report, _) = execute(
        &physical,
        &lp,
        &deployment,
        &ExecutionConfig::default(),
        None,
        None,
        None,
    )
    .unwrap();
    assert_eq!(report.outputs, vec![2]);
    assert_eq!(report.rejected_inputs, 0);
    assert_eq!(report.accepted_inputs, 72);
    assert!(report.audit_ok);
    assert!(report.certificate.verify(&deployment.registry));
    assert!(report.mpc_metrics.rounds > 0);
    assert!(report.mpc_metrics.bytes_sent_total > 0);
    // Budget decremented by the query's epsilon.
    assert!((report.budget_after.epsilon - 2.0).abs() < 1e-9);
}

#[test]
fn laplace_histogram_end_to_end() {
    let (physical, lp, deployment) = setup(
        "aggr = sum(db); r = laplace(aggr, 1, 4.0); output(r);",
        &[30, 10, 20],
    );
    let (report, _) = execute(
        &physical,
        &lp,
        &deployment,
        &ExecutionConfig::default(),
        None,
        None,
        None,
    )
    .unwrap();
    assert_eq!(report.outputs.len(), 3);
    for (got, want) in report.outputs.iter().zip([30i64, 10, 20]) {
        assert!(
            (got - want).abs() <= 5,
            "noised count {got} too far from {want}"
        );
    }
}

#[test]
fn topk_end_to_end_returns_k_categories() {
    let (physical, lp, deployment) = setup(
        "aggr = sum(db); t = emTopK(aggr, 2, 6.0); output(t);",
        &[40, 2, 35, 1],
    );
    let (report, _) = execute(
        &physical,
        &lp,
        &deployment,
        &ExecutionConfig::default(),
        None,
        None,
        None,
    )
    .unwrap();
    assert_eq!(report.outputs.len(), 2);
    assert!(report.outputs.contains(&0));
    assert!(report.outputs.contains(&2));
}

#[test]
fn malicious_inputs_rejected_but_result_stands() {
    let (physical, lp, deployment) = setup(
        "aggr = sum(db); r = em(aggr, 8.0); output(r);",
        &[10, 80, 10],
    );
    let cfg = ExecutionConfig {
        malicious_fraction: 0.1,
        ..Default::default()
    };
    let (report, _) = execute(&physical, &lp, &deployment, &cfg, None, None, None).unwrap();
    assert!(report.rejected_inputs > 0, "some inputs must be rejected");
    assert_eq!(
        report.rejected_inputs + report.accepted_inputs,
        deployment.db.len()
    );
    assert_eq!(report.outputs, vec![1], "majority category still wins");
}

#[test]
fn budget_exhaustion_blocks_query() {
    let (physical, lp, deployment) =
        setup("aggr = sum(db); r = em(aggr, 8.0); output(r);", &[10, 20]);
    let cfg = ExecutionConfig {
        budget: PrivacyCost {
            epsilon: 0.5, // Below the query's 8.0.
            delta: 1e-6,
        },
        ..Default::default()
    };
    assert_eq!(
        execute(&physical, &lp, &deployment, &cfg, None, None, None).unwrap_err(),
        ExecError::BudgetExhausted
    );
}

#[test]
fn deterministic_given_seed() {
    let (physical, lp, deployment) = setup(
        "aggr = sum(db); r = em(aggr, 2.0); output(r);",
        &[20, 25, 18],
    );
    let cfg = ExecutionConfig::default();
    let (a, _) = execute(&physical, &lp, &deployment, &cfg, None, None, None).unwrap();
    let (b, _) = execute(&physical, &lp, &deployment, &cfg, None, None, None).unwrap();
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.mpc_metrics, b.mpc_metrics);
}

#[test]
fn wan_execution_estimate_exceeds_lan() {
    let (physical, lp, deployment) = setup(
        "aggr = sum(db); r = em(aggr, 8.0); output(r);",
        &[10, 40, 5],
    );
    let lan_cfg = ExecutionConfig::default();
    let wan_cfg = ExecutionConfig {
        latency: arboretum_mpc::network::LatencyModel::geo_distributed(5),
        ..Default::default()
    };
    let (lan, _) = execute(&physical, &lp, &deployment, &lan_cfg, None, None, None).unwrap();
    let (wan, _) = execute(&physical, &lp, &deployment, &wan_cfg, None, None, None).unwrap();
    assert_eq!(lan.outputs, wan.outputs, "latency must not change results");
    assert!(
        wan.mpc_elapsed_estimate_secs > 2.0 * lan.mpc_elapsed_estimate_secs,
        "WAN {} vs LAN {}",
        wan.mpc_elapsed_estimate_secs,
        lan.mpc_elapsed_estimate_secs
    );
    assert!(lan.mpc_elapsed_estimate_secs > 0.0);
}

#[test]
fn program_without_aggregation_rejected() {
    // A (contrived) plan applied to a program with no sum(db) must fail
    // cleanly rather than panic.
    use arboretum_lang::parser::parse;
    let (physical, mut lp, deployment) =
        setup("aggr = sum(db); r = em(aggr, 8.0); output(r);", &[10, 20]);
    lp.program = parse("x = 1; output(x);").unwrap();
    let err = execute(
        &physical,
        &lp,
        &deployment,
        &ExecutionConfig::default(),
        None,
        None,
        None,
    )
    .unwrap_err();
    assert!(matches!(err, ExecError::Unsupported(_)), "{err:?}");
}

#[test]
fn all_inputs_rejected_is_an_error_not_a_panic() {
    let (physical, lp, deployment) =
        setup("aggr = sum(db); r = em(aggr, 8.0); output(r);", &[10, 20]);
    let cfg = ExecutionConfig {
        malicious_fraction: 1.0,
        ..Default::default()
    };
    // The epoch's own typed refusal reaches a batch caller as it is.
    let err = execute(&physical, &lp, &deployment, &cfg, None, None, None).unwrap_err();
    assert_eq!(err, ExecError::NoSurvivors);
}

#[test]
fn certificate_rejects_wrong_registry() {
    let (physical, lp, deployment) =
        setup("aggr = sum(db); r = em(aggr, 8.0); output(r);", &[10, 20]);
    let (report, _) = execute(
        &physical,
        &lp,
        &deployment,
        &ExecutionConfig::default(),
        None,
        None,
        None,
    )
    .unwrap();
    // A different registry (different devices) must not accept the cert.
    let other = Deployment::one_hot(&assignments(&[15, 15]), 2);
    // Note: same device count but the cert signers' indices point at
    // different keys only if ids differ; shift ids by rebuilding.
    let shifted = arboretum_sortition::select::Registry::new(
        (100..100 + other.db.len() as u64)
            .map(arboretum_sortition::select::Device::from_id)
            .collect(),
    );
    assert!(!report.certificate.verify(&shifted));
}
