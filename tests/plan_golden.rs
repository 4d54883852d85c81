//! Golden table of what the planner returns for the Table 2 corpus.
//!
//! Every row was generated on 48b825d, the commit before committee
//! sizing left the branch-and-bound's inner loop (one size memo per
//! `plan()` call, candidates scored before they are cloned into a
//! `Plan`), and is committed unchanged: the chosen plan's signature, its
//! committee count and size, the bits of every metric and the three
//! search statistics are the parent's. A failure here means the search
//! visits, scores or breaks ties differently — not that the table is
//! stale; regenerate a row only in a PR that says it changes plans.
//!
//! Row format: `label sig=<hex> committees=<n> m=<n>
//! metrics=<agg_secs,agg_bytes,part_exp_secs,part_max_secs,
//! part_exp_bytes,part_max_bytes,window_agg_secs as f64 bits>
//! stats=<prefixes>/<candidates>/<pruned>`.

use arboretum::planner::logical::{extract, LogicalPlan};
use arboretum::planner::search::{plan, PlannerConfig};
use arboretum::queries::corpus::{all_queries, QuerySpec};
use arboretum::{Goal, Limits};

const N: u64 = 1 << 30;

fn logical(q: &QuerySpec) -> LogicalPlan {
    extract(&q.program(), &q.schema, q.certify).expect("corpus query extracts")
}

fn row(label: &str, lp: &LogicalPlan, cfg: &PlannerConfig) -> String {
    let (p, s) = plan(lp, cfg).expect("corpus query plans");
    let m = &p.metrics;
    let bits = [
        m.agg_secs,
        m.agg_bytes,
        m.part_exp_secs,
        m.part_max_secs,
        m.part_exp_bytes,
        m.part_max_bytes,
        m.window_agg_secs,
    ]
    .map(|v| format!("{:016x}", v.to_bits()))
    .join(",");
    format!(
        "{label} sig={:016x} committees={} m={} metrics={bits} stats={}/{}/{}",
        p.signature(),
        p.total_committees,
        p.committee_size,
        s.prefixes_considered,
        s.full_candidates,
        s.pruned,
    )
}

fn check(actual: &[String], expected: &str) {
    let actual = actual.join("\n");
    assert!(
        actual == expected.trim(),
        "plans moved; the table the search produces now:\n{actual}\n"
    );
}

/// The ten corpus queries at their own schemas, paper defaults.
#[test]
fn corpus_plans_are_the_parents() {
    let cfg = PlannerConfig::paper_defaults(N);
    let rows: Vec<String> = all_queries(N)
        .iter()
        .map(|q| row(q.name, &logical(q), &cfg))
        .collect();
    check(&rows, CORPUS);
}

/// The §7.3 ablation walk (no pruning) on the two smallest searches.
#[test]
fn unpruned_plans_are_the_parents() {
    let mut cfg = PlannerConfig::paper_defaults(N);
    cfg.use_heuristics = false;
    let rows: Vec<String> = all_queries(N)
        .iter()
        .filter(|q| UNPRUNED_QUERIES.contains(&q.name))
        .map(|q| row(q.name, &logical(q), &cfg))
        .collect();
    check(&rows, UNPRUNED);
}

/// `top1` under every goal (no limits, so the goal alone picks), with
/// windowed ingestion offered, and with a per-window cap that forces it.
#[test]
fn goal_and_stream_plans_are_the_parents() {
    let top1 = logical(&all_queries(N)[0]);
    let mut rows = Vec::new();
    for goal in [
        Goal::AggSecs,
        Goal::AggBytes,
        Goal::ParticipantExpectedSecs,
        Goal::ParticipantMaxSecs,
        Goal::ParticipantExpectedBytes,
        Goal::ParticipantMaxBytes,
    ] {
        let mut cfg = PlannerConfig::paper_defaults(N);
        cfg.goal = goal;
        cfg.limits = Limits::default();
        rows.push(row(&format!("top1/{goal:?}"), &top1, &cfg));
    }
    let mut cfg = PlannerConfig::paper_defaults(N);
    cfg.stream_windows = Some(8);
    rows.push(row("top1/windows=8", &top1, &cfg));
    let sum_secs = N as f64 * (cfg.cost_model.agg_ingest_secs + cfg.cost_model.bgv_add_secs);
    cfg.limits.window_agg_secs = Some(0.5 * sum_secs);
    rows.push(row("top1/windows=8,capped", &top1, &cfg));
    check(&rows, GOALS_AND_STREAMS);
}

const UNPRUNED_QUERIES: [&str; 2] = ["cms", "bayes"];

const CORPUS: &str = "\
top1 sig=5134a1e8f74262bf committees=3138 m=36 metrics=41716db0ef9628cb,431179eaca3c5125,3fffa27ff2ed1095,4090207507507507,41317aaaca3c5125,41c1e1a300000000,4164855da272862f stats=769/324/114
topK sig=cd39e0ab87537524 committees=7234 m=38 metrics=41716db1097e90fe,4311ae0cdb30c956,400002221c4b4197,4091015f15f15f16,4131aeccdb30c956,41c2dff32aaaaaab,4164855da272862f stats=699/254/184
gap sig=670de5e166affda1 committees=4162 m=36 metrics=41716db0f57c1be5,4311829d85d7bedc,3fffb0e23c11a2de,4090207507507507,4131835d85d7bedc,41c1e1a300000000,4164855da272862f stats=1053/304/134
auction sig=e8f9debbd4de466c committees=3138 m=36 metrics=417191b0ef9628cb,431179eaca3c5125,3fffa27ff2ed1095,4090207507507507,41317aaaca3c5125,41c1e1a300000000,4164855da272862f stats=3846/1619/571
hypotest sig=eb59b07598aa2247 committees=4 m=29 metrics=4171691a77d1cc18,42e10015d0820592,3fe0b4963594ffc3,4052200000000000,41010615d0820592,418ccf14d5555555,41647c30d306a2b2 stats=96/9/56
secrecy sig=f38e0703729a18c0 committees=2114 m=36 metrics=41716db0e9b035bd,43113a0ac7332c92,3fff0250dcfbb180,4086800000000000,41313acac7332c92,41c1e1a300000000,4164855da272862f stats=131/51/21
median sig=37cf9fd0d7214534 committees=3138 m=36 metrics=417259b0ef9628cb,431179eaca3c5125,3fffa27ff2ed1095,4090207507507507,41317aaaca3c5125,41c1e1a300000000,4164855da272862f stats=3845/1618/572
cms sig=35f3e06ee39bc80e committees=4 m=29 metrics=4171691a75d1cc10,42e10015d0820592,3fe0b4963594ffc3,4052200000000000,41010615d0820592,418ccf14d5555555,41647c30d306a2b2 stats=22/3/14
bayes sig=5b52e42f3f991ed6 committees=11 m=29 metrics=4171691a75da1cac,42e10141347fce6e,3fe0daabf55e8bb1,407a1b6db6db6db7,41010741347fce6e,41a4f299db6db6db,41647c30d306a2b2 stats=56/13/26
k-medians sig=0ddd7bbb7c347c8e committees=14 m=29 metrics=4171691a75ddad8f,42e10082bdbc230d,3fe0bb124ab141c1,405ddb6db6db6db7,41010682bdbc230d,418ccf14d5555555,41647c30d306a2b2 stats=321/37/189
";

const UNPRUNED: &str = "\
cms sig=35f3e06ee39bc80e committees=4 m=29 metrics=4171691a75d1cc10,42e10015d0820592,3fe0b4963594ffc3,4052200000000000,41010615d0820592,418ccf14d5555555,41647c30d306a2b2 stats=151/72/0
bayes sig=5b52e42f3f991ed6 committees=11 m=29 metrics=4171691a75da1cac,42e10141347fce6e,3fe0daabf55e8bb1,407a1b6db6db6db7,41010741347fce6e,41a4f299db6db6db,41647c30d306a2b2 stats=151/72/0
";

const GOALS_AND_STREAMS: &str = "\
top1/AggSecs sig=5838387ef0a1a18a committees=1602 m=36 metrics=415cac0af526e979,43213e14f7262891,3fff9e6730e4ad9f,40afc8ea0ea0ea0e,41317ce8ded45125,41d8ac307b6db6db,4024f8b827fa1a0d stats=583/138/300
top1/AggBytes sig=36d022473744343c committees=3 m=29 metrics=41720db0dd855da2,431104d3c023ed0d,3ffe791e663bb180,40f0938924924924,41310593c023ed0d,422513898e861861,4164855da272862f stats=151/71/7
top1/ParticipantExpectedSecs sig=36d022473744343c committees=3 m=29 metrics=41720db0dd855da2,431104d3c023ed0d,3ffe791e663bb180,40f0938924924924,41310593c023ed0d,422513898e861861,4164855da272862f stats=448/76/290
top1/ParticipantMaxSecs sig=a924573002b7b661 committees=41986 m=38 metrics=41716db1dcc95bfe,4311bd8b80658c62,40001ad97326af4d,4087c00000000000,4131be4b80658c62,41c2dff32aaaaaab,4164855da272862f stats=769/324/114
top1/ParticipantExpectedBytes sig=36d022473744343c committees=3 m=29 metrics=41720db0dd855da2,431104d3c023ed0d,3ffe791e663bb180,40f0938924924924,41310593c023ed0d,422513898e861861,4164855da272862f stats=224/71/79
top1/ParticipantMaxBytes sig=0a5a0a92a838d3e0 committees=5122 m=36 metrics=41716db0fb03afb7,43117cbb31b9bedc,3fffa82cce5ac771,4090207507507507,41317d7b31b9bedc,41c1e1a300000000,4164855da272862f stats=769/324/114
top1/windows=8 sig=5134a1e8f74262bf committees=3138 m=36 metrics=41716db0ef9628cb,431179eaca3c5125,3fffa27ff2ed1095,4090207507507507,41317aaaca3c5125,41c1e1a300000000,4164855da272862f stats=897/378/133
top1/windows=8,capped sig=4954c240dab9cc55 committees=3138 m=36 metrics=41716db10c62f599,431179eb501c5125,3fffa27ff2ed1095,4090207507507507,41317aaaca3c5125,41c1e1a300000000,4134855de272862f stats=770/324/115
";
