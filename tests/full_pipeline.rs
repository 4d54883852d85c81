//! Integration: the full pipeline (parse → certify → plan) for all ten
//! evaluation queries, and concrete execution for the supported shapes.

use arboretum::queries::corpus::all_queries;
use arboretum::runtime::executor::{execute, Deployment, ExecError, ExecutionConfig};
use arboretum::{Arboretum, PreparedQuery};

/// Plans every Table 2 query at the paper's scale settings (but a small
/// N for planner speed in CI).
#[test]
fn all_ten_queries_plan() {
    let n = 1u64 << 26;
    let system = Arboretum::new(n);
    for q in all_queries(n) {
        let prepared = system
            .prepare(&q.source, q.schema, q.certify)
            .unwrap_or_else(|e| panic!("{} failed to plan: {e}", q.name));
        assert!(
            prepared.plan.total_committees >= 1,
            "{}: no committees",
            q.name
        );
        assert!(
            prepared.plan.metrics.part_exp_secs > 0.0,
            "{}: zero participant cost",
            q.name
        );
        assert!(
            prepared.stats.full_candidates >= 1,
            "{}: no candidates",
            q.name
        );
    }
}

/// Expected participant costs follow the paper's ordering: exponential-
/// mechanism queries cost more than Laplace-only ones, and topK is the
/// most expensive (Figure 6's shape).
#[test]
fn figure6_cost_ordering() {
    let n = 1u64 << 30;
    let system = Arboretum::new(n);
    let mut costs = std::collections::HashMap::new();
    for q in all_queries(n) {
        let prepared = system
            .prepare(&q.source, q.schema, q.certify)
            .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        costs.insert(q.name, prepared.plan.metrics.part_exp_secs);
    }
    assert!(costs["topK"] > costs["top1"], "topK repeats the argmax");
    assert!(costs["top1"] > costs["cms"], "EM costs more than Laplace");
    assert!(costs["gap"] > costs["cms"]);
    assert!(costs["bayes"] < costs["top1"], "Laplace bayes is cheap");
}

fn run_small(system: &Arboretum, prepared: &PreparedQuery, counts: &[usize]) -> Vec<i64> {
    let assignments: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(c, &n)| std::iter::repeat_n(c, n))
        .collect();
    let deployment = Deployment::one_hot(&assignments, counts.len());
    let (report, _) = execute(
        &prepared.plan,
        &prepared.logical,
        &deployment,
        &ExecutionConfig::default(),
        None,
        None,
        None,
    )
    .expect("execution succeeds");
    let _ = system;
    report.outputs
}

/// Execution agrees with the reference interpreter's semantics for the
/// top-1 query: both select the dominant category.
#[test]
fn executor_agrees_with_interpreter_on_top1() {
    use arboretum::lang::interp::{Interp, Value};
    use arboretum::lang::parser::parse;
    use arboretum::DbSchema;

    let counts = [6usize, 80, 9, 5];
    let source = "aggr = sum(db); r = em(aggr, 8.0); output(r);";
    let system = Arboretum::new(1 << 22);
    let prepared = system
        .prepare(
            source,
            DbSchema::one_hot(1 << 22, counts.len()),
            Default::default(),
        )
        .unwrap();
    let distributed = run_small(&system, &prepared, &counts);

    // Reference semantics on the same data.
    let db: Vec<Vec<i64>> = counts
        .iter()
        .enumerate()
        .flat_map(|(c, &n)| {
            std::iter::repeat_with(move || {
                let mut row = vec![0i64; 4];
                row[c] = 1;
                row
            })
            .take(n)
        })
        .collect();
    let reference = Interp::new(&db, 3).run(&parse(source).unwrap()).unwrap();
    assert_eq!(distributed, vec![1]);
    assert_eq!(reference, vec![Value::Int(1)]);
}

/// Laplace-histogram execution releases approximately correct counts.
#[test]
fn histogram_execution_accuracy() {
    let counts = [25usize, 55, 15];
    let system = Arboretum::new(1 << 22);
    let prepared = system
        .prepare(
            "aggr = sum(db); h = laplace(aggr, 1, 2.0); output(h);",
            arboretum::DbSchema::one_hot(1 << 22, 3),
            Default::default(),
        )
        .unwrap();
    let out = run_small(&system, &prepared, &counts);
    for (got, want) in out.iter().zip([25i64, 55, 15]) {
        assert!((got - want).abs() <= 6, "{got} vs {want}");
    }
}

/// Post-processing a released value is free under DP, so a certified
/// query that sums, maximises or clips a released mechanism result runs
/// at the committee.
#[test]
fn certified_post_processing_executes() {
    let system = Arboretum::new(1 << 22);
    for (source, len, range) in [
        (
            "r = laplace(aggr, 1, 1.0); s = sum(r); output(s);",
            1,
            0..=100,
        ),
        (
            "r = laplace(aggr, 1, 1.0); x = max(r); output(x);",
            1,
            0..=40,
        ),
        (
            "r = emTopK(aggr, 2, 1.0); c = clip(r, 0, 1); output(c);",
            2,
            0..=1,
        ),
    ] {
        let prepared = system
            .prepare(
                &format!("aggr = sum(db); {source}"),
                arboretum::DbSchema::one_hot(1 << 22, 4),
                Default::default(),
            )
            .unwrap_or_else(|e| panic!("{source}: {e}"));
        let out = run_small(&system, &prepared, &[12; 4]);
        assert_eq!(out.len(), len, "{source}: {out:?}");
        assert!(out.iter().all(|v| range.contains(v)), "{source}: {out:?}");
    }
}

/// The planner's committee math holds up at the paper's headline scale:
/// topK at N = 2^30 keeps the serving fraction below 1% and the keygen
/// committee around 40 members.
#[test]
fn paper_scale_committee_shape() {
    let n = 1u64 << 30;
    let system = Arboretum::new(n);
    let q = arboretum::queries::corpus::top_k(n, 1 << 15, 5);
    let prepared = system.prepare(&q.source, q.schema, q.certify).unwrap();
    let m = prepared.plan.committee_size;
    assert!((30..=60).contains(&m), "committee size {m}");
    let frac = prepared.plan.committee_fraction();
    assert!(frac < 0.01, "serving fraction {frac}");
    assert!(
        prepared.plan.total_committees > 1000,
        "topK at 2^15 categories spreads across many committees: {}",
        prepared.plan.total_committees
    );
}

/// Runs `sum(db)` over `n` one-field devices all holding `value`, under
/// a `[lo, hi]` numeric schema, and releases the first column sum.
fn released_sum(
    lo: i64,
    hi: i64,
    value: i64,
    n: usize,
) -> Result<Vec<i64>, arboretum::ArboretumError> {
    let schema = arboretum::DbSchema::numeric(1 << 20, 1, lo, hi);
    let system = Arboretum::new(1 << 20);
    let certify = arboretum::CertifyConfig {
        allow_declassify: true,
        ..Default::default()
    };
    let prepared = system
        .prepare(
            "aggr = sum(db); output(declassify(aggr[0]));",
            schema,
            certify,
        )
        .expect("plans");
    let deployment = Deployment::from_rows(vec![vec![value]; n], schema);
    system
        .run(&prepared, &deployment, &ExecutionConfig::default())
        .map(|report| report.outputs)
}

/// BGV plaintexts are residues mod t = 2^30. A numeric schema whose
/// column sums could reach t is refused when the session is set up:
/// the sum must not wrap silently, and a negative value must not fail
/// the run partway through a window.
#[test]
fn numeric_sums_the_plaintext_space_cannot_hold_are_refused() {
    let refusal = |result: Result<Vec<i64>, arboretum::ArboretumError>| match result {
        Err(arboretum::ArboretumError::Execute(ExecError::Unsupported(msg))) => msg,
        other => panic!("expected a typed refusal, got {other:?}"),
    };
    // 40 · (2^26 − 1) = 2,684,354,520 would wrap to 536,963,672.
    let msg = refusal(released_sum(0, 1 << 26, (1 << 26) - 1, 40));
    assert!(msg.contains("[0, 67108864]"), "{msg}");
    // A negative value is no residue mod t: unrefused, its encoding
    // would fail partway through the window.
    let msg = refusal(released_sum(-10, 10, -3, 40));
    assert!(msg.contains("[-10, 10]"), "{msg}");
    // Exactly t − 1 at the largest value a 24-bit proof admits:
    // 63 · 17,043,521 = 2^30 − 1 fits, and one device more does not.
    let (lo, hi) = (266_306, 17_043_521);
    assert_eq!(63 * hi, (1 << 30) - 1);
    assert_eq!(released_sum(lo, hi, hi, 63).unwrap(), vec![(1 << 30) - 1]);
    refusal(released_sum(lo, hi, hi, 64));
}
