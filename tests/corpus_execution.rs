//! Concrete end-to-end execution of the full Table 2 corpus.
//!
//! Every query runs through the complete pipeline — certification,
//! planning, sortition, keygen, encrypted input with ZKPs, homomorphic
//! aggregation, VSR, and the generalized MPC evaluator — on a small
//! simulated deployment, and the released outputs are checked against
//! the ground truth.

use arboretum::dp::budget::PrivacyCost;
use arboretum::queries::corpus;
use arboretum::runtime::executor::{execute, Deployment, ExecutionConfig};
use arboretum::{Arboretum, DbSchema};

fn exec_cfg(eps: f64) -> ExecutionConfig {
    ExecutionConfig {
        budget: PrivacyCost {
            epsilon: eps,
            delta: 1e-6,
        },
        ..Default::default()
    }
}

fn one_hot_deployment(counts: &[usize]) -> Deployment {
    let assignments: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(c, &n)| std::iter::repeat_n(c, n))
        .collect();
    Deployment::one_hot(&assignments, counts.len())
}

/// Plans `source` against `schema` and executes on `deployment`.
fn run(
    source: &str,
    schema: DbSchema,
    trust: bool,
    deployment: &Deployment,
    eps_budget: f64,
) -> Vec<i64> {
    let system = Arboretum::new(schema.participants.max(1 << 20));
    let certify = arboretum::CertifyConfig {
        trust_declared_sensitivity: trust,
        ..Default::default()
    };
    let prepared = system.prepare(source, schema, certify).expect("plans");
    execute(
        &prepared.plan,
        &prepared.logical,
        deployment,
        &exec_cfg(eps_budget),
        None,
        None,
        None,
    )
    .expect("executes")
    .0
    .outputs
}

/// Rewrites the corpus query's epsilon literals up for small-scale
/// utility (the corpus uses the paper's 0.1, far too noisy for dozens of
/// devices).
fn boost_eps(src: &str) -> String {
    src.replace("0.1", "8.0")
        .replace("0.05", "8.0")
        .replace("1.0", "8.0")
}

#[test]
fn top1_full_corpus_source() {
    let q = corpus::top1(1 << 20, 6);
    let d = one_hot_deployment(&[4, 9, 55, 3, 8, 2]);
    let out = run(&boost_eps(&q.source), d.schema, false, &d, 10.0);
    assert_eq!(out, vec![2]);
}

#[test]
fn topk_full_corpus_source() {
    let q = corpus::top_k(1 << 20, 6, 3);
    let d = one_hot_deployment(&[60, 2, 50, 1, 40, 3]);
    let out = run(&boost_eps(&q.source), d.schema, false, &d, 20.0);
    assert_eq!(out.len(), 3);
    for want in [0, 2, 4] {
        assert!(out.contains(&want), "{out:?} missing {want}");
    }
}

#[test]
fn gap_full_corpus_source() {
    let q = corpus::gap(1 << 20, 4);
    let d = one_hot_deployment(&[80, 20, 5, 3]);
    let out = run(&boost_eps(&q.source), d.schema, false, &d, 10.0);
    assert_eq!(out[0], 0, "winner");
    assert!(
        (out[1] - 60).abs() <= 10,
        "gap {} should be near 60",
        out[1]
    );
}

#[test]
fn auction_full_corpus_source() {
    // Bids in 5 price buckets; revenue r·|bids ≥ r| peaks at bucket 3:
    // counts [2, 1, 1, 20, 2] → above = [26, 24, 23, 22, 2],
    // scores [0, 24, 46, 66, 8].
    let q = corpus::auction(1 << 20, 5);
    let d = one_hot_deployment(&[2, 1, 1, 20, 2]);
    let out = run(&boost_eps(&q.source), d.schema, true, &d, 10.0);
    assert_eq!(out, vec![3]);
}

#[test]
fn hypotest_full_corpus_source() {
    // 40 devices all in category 0; threshold N/2 with the *schema* N.
    let q = corpus::hypotest(40);
    let d = one_hot_deployment(&[40]);
    let out = run(&boost_eps(&q.source), d.schema, false, &d, 10.0);
    assert_eq!(out.len(), 2);
    assert_eq!(out[0], 1, "count 40 > threshold 20");
    assert!((out[1] - 40).abs() <= 3, "noisy count {}", out[1]);
}

#[test]
fn secrecy_style_query_executes() {
    // The corpus secrecy query samples at 1%, far below what dozens of
    // devices can support; run the same structure at 50%.
    let src = "sdb = sampleUniform(0.5);\n\
               aggr = sum(sdb);\n\
               noised = laplace(aggr, 1, 8.0);\n\
               output(noised);";
    let d = one_hot_deployment(&[120, 60]);
    let schema = DbSchema::one_hot(1 << 20, 2);
    let out = run(src, schema, false, &d, 10.0);
    assert_eq!(out.len(), 2);
    // Roughly half of each category sampled.
    assert!((30..=90).contains(&out[0]), "sampled count {}", out[0]);
    assert!((12..=48).contains(&out[1]), "sampled count {}", out[1]);
}

#[test]
fn median_full_corpus_source() {
    // 30 values in 5 buckets: cumulative [2, 6, 18, 27, 30], half = 15 →
    // bucket 2 holds the median.
    let q = corpus::median(1 << 20, 5);
    let d = one_hot_deployment(&[2, 4, 12, 9, 3]);
    let out = run(&boost_eps(&q.source), d.schema, true, &d, 10.0);
    assert_eq!(out, vec![2]);
}

#[test]
fn quantile_extension_end_to_end() {
    // 40 values in 5 buckets, 3/4-quantile: cumulative [8, 16, 24, 32, 40],
    // target 30 → bucket 3 (cum 32) is closest.
    let q = corpus::quantile(1 << 20, 5, 3, 4);
    let d = one_hot_deployment(&[8, 8, 8, 8, 8]);
    let out = run(&boost_eps(&q.source), d.schema, true, &d, 10.0);
    assert_eq!(out, vec![3]);
}

#[test]
fn cms_full_corpus_source() {
    let q = corpus::cms(1 << 20);
    let d = one_hot_deployment(&[75]);
    let out = run(&boost_eps(&q.source), d.schema, false, &d, 10.0);
    assert_eq!(out.len(), 1);
    assert!((out[0] - 75).abs() <= 3, "{}", out[0]);
}

#[test]
fn cms_sketch_semantics_end_to_end() {
    // The real Honeycrisp workload: clients sketch an item from a large
    // domain; the released noisy sketch estimates per-item frequencies.
    use arboretum::dp::sketch::CountMeanSketch;
    let cms = CountMeanSketch::new(4, 32);
    // 60 clients: item 7 × 40, item 3 × 15, item 100 × 5.
    let mut db = Vec::new();
    for (item, count) in [(7u64, 40usize), (3, 15), (100, 5)] {
        for _ in 0..count {
            db.push(cms.encode(item));
        }
    }
    let n = db.len() as u64;
    let schema = DbSchema::numeric(1 << 20, cms.row_width(), 0, 1);
    let d = Deployment::from_rows(db, schema);
    let src = "sketch = sum(db);\nnoised = laplace(sketch, 2, 8.0);\noutput(noised);";
    let out = run(src, schema, true, &d, 10.0);
    assert_eq!(out.len(), cms.row_width());
    let sums: Vec<f64> = out.iter().map(|&v| v as f64).collect();
    let est = cms.estimate(&sums, n);
    assert!((est(7) - 40.0).abs() < 12.0, "est(7) = {}", est(7));
    assert!(est(7) > est(3), "frequency order preserved");
    assert!(
        est(999) < est(7) / 2.0,
        "absent item {} must estimate well below the heavy hitter {}",
        est(999),
        est(7)
    );
}

#[test]
fn bayes_full_corpus_source() {
    // 12 feature-class cells for a compact run.
    let q = corpus::bayes(1 << 20, 12);
    let counts: Vec<usize> = (0..12).map(|i| 5 + 3 * i).collect();
    let d = one_hot_deployment(&counts);
    let out = run(&boost_eps(&q.source), d.schema, false, &d, 10.0);
    assert_eq!(out.len(), 12);
    for (got, want) in out.iter().zip(&counts) {
        assert!((got - *want as i64).abs() <= 3, "{got} vs {want}");
    }
}

#[test]
fn k_medians_full_corpus_source() {
    // Numeric schema: rows hold a one-hot cluster indicator (first k
    // fields) plus per-cluster clipped coordinate sums (last k fields).
    let k = 3;
    let q = corpus::k_medians(1 << 20, k);
    let mut db = Vec::new();
    // Cluster j has 10 points at coordinate 100·(j+1).
    for j in 0..k {
        for _ in 0..10 {
            let mut row = vec![0i64; 2 * k];
            row[j] = 1;
            row[k + j] = 100 * (j as i64 + 1);
            db.push(row);
        }
    }
    let d = Deployment::from_rows(db, q.schema);
    let out = run(&boost_eps(&q.source), q.schema, true, &d, 100.0);
    assert_eq!(out.len(), k);
    // med[j] = noisy(1000·(j+1))/noisy(10) ≈ 100·(j+1).
    for (j, got) in out.iter().enumerate() {
        let want = 100 * (j as i64 + 1);
        assert!(
            (got - want).abs() <= want / 4 + 20,
            "cluster {j}: got {got}, want ~{want}"
        );
    }
}

#[test]
fn numeric_malicious_inputs_rejected_by_range_proofs() {
    let k = 2;
    let q = corpus::k_medians(1 << 20, k);
    let db: Vec<Vec<i64>> = (0..30).map(|_| vec![1, 0, 500, 0]).collect();
    let d = Deployment::from_rows(db, q.schema);
    let system = Arboretum::new(1 << 20);
    let certify = arboretum::CertifyConfig {
        trust_declared_sensitivity: true,
        ..Default::default()
    };
    let prepared = system
        .prepare(&boost_eps(&q.source), q.schema, certify)
        .unwrap();
    let cfg = ExecutionConfig {
        malicious_fraction: 0.2,
        budget: PrivacyCost {
            epsilon: 100.0,
            delta: 1e-6,
        },
        ..Default::default()
    };
    let (report, _) = execute(
        &prepared.plan,
        &prepared.logical,
        &d,
        &cfg,
        None,
        None,
        None,
    )
    .unwrap();
    assert!(
        report.rejected_inputs > 0,
        "out-of-range inputs must be rejected"
    );
    assert_eq!(report.rejected_inputs + report.accepted_inputs, 30);
}
