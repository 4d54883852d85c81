//! Quickstart: the paper's running example end-to-end.
//!
//! "Which zip code contains the most participants?" — a categorical top-1
//! query, written as if the database were a local array. Arboretum
//! certifies differential privacy, plans the distributed execution, and
//! runs it over a simulated deployment with real BGV encryption, ZK
//! input proofs, sortition, and MPC committees.
//!
//! Run with: `cargo run --example quickstart`

use arboretum::{Arboretum, CertifyConfig, DbSchema, Deployment, ExecutionConfig};

fn main() {
    // The analyst's query: the whole program, no crypto in sight
    // (Figure 3 of the paper).
    let source = "aggr = sum(db);\n\
                  result = em(aggr, 6.0);\n\
                  output(result);";

    // Eight "zip codes"; the planner is told the deployment has 2^20
    // devices (costs are modeled at that scale), while the concrete
    // simulation below runs a few hundred.
    let categories = 8;
    let schema = DbSchema::one_hot(1 << 20, categories);

    let system = Arboretum::new(1 << 20);
    let prepared = system
        .prepare(source, schema, CertifyConfig::default())
        .expect("query certifies and plans");

    println!("=== Certification ===");
    let cert = prepared.certificate();
    println!(
        "privacy cost: epsilon = {:.3}, delta = {:.1e}",
        cert.cost.epsilon, cert.cost.delta
    );

    println!("\n=== Chosen plan ===");
    println!(
        "{} vignettes, {} committees of {} members ({}% of devices serve)",
        prepared.plan.vignettes.len(),
        prepared.plan.total_committees,
        prepared.plan.committee_size,
        format_pct(prepared.plan.committee_fraction()),
    );
    for v in &prepared.plan.vignettes {
        println!("  - {:?} @ {:?} [{:?}]", v.op, v.location, v.scheme);
    }
    let m = &prepared.plan.metrics;
    println!("\n=== Modeled costs at N = 2^20 ===");
    println!(
        "aggregator: {:.1} core-s, {:.1} MB sent",
        m.agg_secs,
        m.agg_bytes / 1e6
    );
    println!(
        "participant: {:.2} s expected / {:.1} s max, {:.2} MB expected / {:.1} MB max",
        m.part_exp_secs,
        m.part_max_secs,
        m.part_exp_bytes / 1e6,
        m.part_max_bytes / 1e6
    );
    println!(
        "planner explored {} prefixes, {} full candidates",
        prepared.stats.prefixes_considered, prepared.stats.full_candidates
    );

    // A concrete simulated deployment: zip code 3 dominates.
    let mut assignments = Vec::new();
    for (zip, weight) in [
        (0, 20),
        (1, 12),
        (2, 18),
        (3, 90),
        (4, 9),
        (5, 14),
        (6, 7),
        (7, 10),
    ] {
        assignments.extend(std::iter::repeat_n(zip, weight));
    }
    let deployment = Deployment::one_hot(&assignments, categories);

    println!(
        "\n=== Executing on {} simulated devices ===",
        assignments.len()
    );
    let report = system
        .run(&prepared, &deployment, &ExecutionConfig::default())
        .expect("execution succeeds");
    println!("released output: zip code {}", report.outputs[0]);
    println!(
        "inputs: {} accepted, {} rejected by ZKP checks",
        report.accepted_inputs, report.rejected_inputs
    );
    println!(
        "MPC: {} rounds, {:.2} MB total traffic, {} triples",
        report.mpc_metrics.rounds,
        report.mpc_metrics.bytes_sent_total as f64 / 1e6,
        report.mpc_metrics.triples
    );
    println!("step audit passed: {}", report.audit_ok);
    println!(
        "budget remaining: epsilon = {:.3}",
        report.budget_after.epsilon
    );
    assert_eq!(report.outputs[0], 3, "the dominant zip code should win");
}

fn format_pct(f: f64) -> String {
    format!("{:.4}", f * 100.0)
}
