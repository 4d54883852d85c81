//! Pins the committee protocol the secure evaluator (`runtime::mpc_eval`)
//! runs, run by run: what it releases, what it meters, what crosses the
//! fabric, and how many dealer draws it made.
//!
//! Every corpus query of `mpc_eval_props.rs`'s hostile-literal battery,
//! plus a Laplace histogram, runs from the statement after its `sum(..)`
//! on dealer-shared counts, at two committee shapes, under both
//! exponential-mechanism styles. Each run is one line
//! of [`GOLDEN`]: the released outputs (or the evaluator's refusal), the
//! `NetMetrics` fields, the `TransportMetrics` fields, and the engine
//! RNG's next `u64` after evaluation — equal only if the same number of
//! draws happened in the same order.
//!
//! The table was generated before the evaluator and engine were rewritten
//! to write each sharing once. A mismatch means the protocol changed (a
//! message, a draw, an opened value), not that the table is stale. The
//! four k-medians rows' outputs alone were regenerated when Laplace
//! releases began to snap onto the integer grid and the query began to
//! clip its noisy count to at least one; their metering did not move.

use std::collections::HashMap;

use arboretum_field::FGold;
use arboretum_lang::ast::{Builtin, Expr, Stmt};
use arboretum_lang::parser::parse;
use arboretum_mpc::engine::MpcEngine;
use arboretum_queries::corpus;
use arboretum_runtime::mpc_eval::{MVal, MechStyle, MpcEvaluator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 3;
const COUNTS: [i64; 4] = [7, 30, 12, 5];

/// `(name, source)` of every pinned query.
fn queries() -> Vec<(&'static str, String)> {
    let n = 1 << 20;
    let mut qs: Vec<(&'static str, String)> = [
        corpus::top1(n, 4),
        corpus::top_k(n, 4, 2),
        corpus::gap(n, 4),
        corpus::auction(n, 4),
        corpus::hypotest(40),
        corpus::secrecy(n, 4),
        corpus::median(n, 4),
        corpus::cms(n),
        corpus::bayes(n, 4),
        corpus::k_medians(n, 2),
        corpus::quantile(n, 4, 1, 4),
    ]
    .into_iter()
    .map(|q| (q.name, q.source))
    .collect();
    qs.push((
        "histogram",
        "aggr = sum(db); h = laplace(aggr, 1, 8.0); output(h);".into(),
    ));
    qs
}

/// One run, rendered as its [`GOLDEN`] line.
fn run(name: &str, src: &str, m: usize, t: usize, style: MechStyle) -> String {
    let program = parse(src).expect("corpus query parses");
    let (sum_var, resume_at) = program
        .stmts
        .iter()
        .enumerate()
        .find_map(|(i, s)| match s {
            Stmt::Assign(name, Expr::Call(Builtin::Sum, _)) => Some((name.clone(), i + 1)),
            _ => None,
        })
        .expect("query aggregates with sum(..)");
    let mut engine = MpcEngine::new(m, t, true, SEED);
    let shares = COUNTS
        .iter()
        .map(|&c| engine.dealer_share(FGold::from_i64(c)))
        .collect();
    let env = HashMap::from([(sum_var, MVal::SharedArr(shares))]);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut ev = MpcEvaluator::new(&mut engine, &mut rng, env, style);
    let out = match ev.block(&program.stmts[resume_at..]) {
        Ok(()) => format!("{:?}", ev.outputs),
        Err(e) => format!("Err({:?})", e.message),
    };
    let n = engine.net.metrics.clone();
    let w = engine.transport_metrics();
    let next: u64 = engine.rng().gen();
    format!(
        "{name} {m}/{t} Evented {style:?} out={out} \
         net={},{},{},{},{},{} wire={},{},{},{},{} rng={next:016x}",
        n.rounds,
        n.bytes_sent_total,
        n.bytes_sent_max,
        n.field_mults,
        n.triples,
        n.opens,
        w.rounds,
        w.payload_bytes_total,
        w.payload_bytes_max,
        w.frames,
        w.framed_bytes_total,
    )
}

#[test]
fn committee_protocol_matches_the_pinned_runs() {
    let mut got = Vec::new();
    for (name, src) in queries() {
        for (m, t) in [(5, 2), (7, 3)] {
            for style in [MechStyle::Gumbel, MechStyle::ExpSample] {
                got.push(run(name, &src, m, t, style));
            }
        }
    }
    let diverged: Vec<String> = got
        .iter()
        .zip(GOLDEN)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n   got {g}"))
        .collect();
    assert!(
        diverged.is_empty() && got.len() == GOLDEN.len(),
        "{} of {} runs diverged ({} pinned):\n{}",
        diverged.len(),
        got.len(),
        GOLDEN.len(),
        diverged.join("\n")
    );
}

/// `name m/t Evented style out=… net=rounds,bytes_total,bytes_max,
/// field_mults,triples,opens wire=rounds,payload_total,payload_max,
/// frames,framed_total rng=next_u64`. `Evented` names the engine's one
/// fabric; the rows keep it so they stay the lines first pinned.
const GOLDEN: &[&str] = &[
    "top1 5/2 Evented Gumbel out=[1] net=11473,504992,111520,37350,7521,274 wire=273,56992,21920,1183,66456 rng=1c8da02c48a45964",
    "top1 5/2 Evented ExpSample out=[2] net=11,1152,384,80,16,4 wire=3,832,320,13,936 rng=ec616a6e46e96dec",
    "top1 7/3 Evented Gumbel out=[1] net=11473,710496,120288,52290,7521,274 wire=273,83296,30688,1729,97128 rng=372f1c49dfff0f41",
    "top1 7/3 Evented ExpSample out=[2] net=11,1664,512,112,16,4 wire=3,1216,448,19,1368 rng=1c3f3ba863d5c7d1",
    "topK 5/2 Evented Gumbel out=[1, 0] net=11746,543056,126160,38250,7735,457 wire=546,95056,36560,2366,113984 rng=8c1c5564af45ef64",
    "topK 5/2 Evented ExpSample out=[2, 1] net=11,1152,384,80,16,4 wire=3,832,320,13,936 rng=ec616a6e46e96dec",
    "topK 7/3 Evented Gumbel out=[1, 0] net=11746,766128,140784,53550,7735,457 wire=546,138928,51184,3458,166592 rng=fd0359a88775d66c",
    "topK 7/3 Evented ExpSample out=[2, 1] net=11,1664,512,112,16,4 wire=3,1216,448,19,1368 rng=1c3f3ba863d5c7d1",
    "gap 5/2 Evented Gumbel out=[1, 19] net=11746,543056,126160,38250,7735,457 wire=546,95056,36560,2366,113984 rng=8c1c5564af45ef64",
    "gap 5/2 Evented ExpSample out=[2, -2] net=11,1152,384,80,16,4 wire=3,832,320,13,936 rng=ec616a6e46e96dec",
    "gap 7/3 Evented Gumbel out=[1, 19] net=11746,766128,140784,53550,7735,457 wire=546,138928,51184,3458,166592 rng=fd0359a88775d66c",
    "gap 7/3 Evented ExpSample out=[2, -2] net=11,1664,512,112,16,4 wire=3,1216,448,19,1368 rng=1c3f3ba863d5c7d1",
    "auction 5/2 Evented Gumbel out=[1] net=11473,504992,111520,37350,7521,274 wire=273,56992,21920,1183,66456 rng=1c8da02c48a45964",
    "auction 5/2 Evented ExpSample out=[2] net=11,1152,384,80,16,4 wire=3,832,320,13,936 rng=ec616a6e46e96dec",
    "auction 7/3 Evented Gumbel out=[1] net=11473,710496,120288,52290,7521,274 wire=273,83296,30688,1729,97128 rng=372f1c49dfff0f41",
    "auction 7/3 Evented ExpSample out=[2] net=11,1664,512,112,16,4 wire=3,1216,448,19,1368 rng=1c3f3ba863d5c7d1",
    "hypotest 5/2 Evented Gumbel out=[0, 3] net=1453,58208,11680,4750,950,1 wire=3,208,80,13,312 rng=ec616a6e46e96dec",
    "hypotest 5/2 Evented ExpSample out=[0, 3] net=1453,58208,11680,4750,950,1 wire=3,208,80,13,312 rng=ec616a6e46e96dec",
    "hypotest 7/3 Evented Gumbel out=[0, 3] net=1453,81504,11712,6650,950,1 wire=3,304,112,19,456 rng=1c3f3ba863d5c7d1",
    "hypotest 7/3 Evented ExpSample out=[0, 3] net=1453,81504,11712,6650,950,1 wire=3,304,112,19,456 rng=1c3f3ba863d5c7d1",
    "secrecy 5/2 Evented Gumbel out=[6, 28, 12, 3] net=5803,232832,46720,19000,3800,4 wire=3,832,320,13,936 rng=1d945b106e15f0c6",
    "secrecy 5/2 Evented ExpSample out=[6, 28, 12, 3] net=5803,232832,46720,19000,3800,4 wire=3,832,320,13,936 rng=1d945b106e15f0c6",
    "secrecy 7/3 Evented Gumbel out=[6, 28, 12, 3] net=5803,326016,46848,26600,3800,4 wire=3,1216,448,19,1368 rng=e9fc90971daf4aaf",
    "secrecy 7/3 Evented ExpSample out=[6, 28, 12, 3] net=5803,326016,46848,26600,3800,4 wire=3,1216,448,19,1368 rng=e9fc90971daf4aaf",
    "median 5/2 Evented Gumbel out=[1] net=11605,575920,138800,39030,7999,615 wire=405,127920,49200,1755,141960 rng=c2d26bec9fd77e7d",
    "median 5/2 Evented ExpSample out=[2] net=143,72080,27664,1760,494,345 wire=135,71760,27600,585,76440 rng=46ad5256ae30ec4d",
    "median 7/3 Evented Gumbel out=[1] net=11605,814160,158480,54642,7999,615 wire=405,186960,68880,2565,207480 rng=9a1ce9bba6f80c49",
    "median 7/3 Evented ExpSample out=[2] net=143,105328,38704,2464,494,345 wire=135,104880,38640,855,111720 rng=a70407c4c7b6a3a0",
    "cms 5/2 Evented Gumbel out=[3, 14, 20, -11] net=5803,232832,46720,19000,3800,4 wire=3,832,320,13,936 rng=1d945b106e15f0c6",
    "cms 5/2 Evented ExpSample out=[3, 14, 20, -11] net=5803,232832,46720,19000,3800,4 wire=3,832,320,13,936 rng=1d945b106e15f0c6",
    "cms 7/3 Evented Gumbel out=[3, 14, 20, -11] net=5803,326016,46848,26600,3800,4 wire=3,1216,448,19,1368 rng=e9fc90971daf4aaf",
    "cms 7/3 Evented ExpSample out=[3, 14, 20, -11] net=5803,326016,46848,26600,3800,4 wire=3,1216,448,19,1368 rng=e9fc90971daf4aaf",
    "bayes 5/2 Evented Gumbel out=[3, 14, 20, -11] net=5803,232832,46720,19000,3800,4 wire=3,832,320,13,936 rng=1d945b106e15f0c6",
    "bayes 5/2 Evented ExpSample out=[3, 14, 20, -11] net=5803,232832,46720,19000,3800,4 wire=3,832,320,13,936 rng=1d945b106e15f0c6",
    "bayes 7/3 Evented Gumbel out=[3, 14, 20, -11] net=5803,326016,46848,26600,3800,4 wire=3,1216,448,19,1368 rng=e9fc90971daf4aaf",
    "bayes 7/3 Evented ExpSample out=[3, 14, 20, -11] net=5803,326016,46848,26600,3800,4 wire=3,1216,448,19,1368 rng=e9fc90971daf4aaf",
    "k-medians 5/2 Evented Gumbel out=[-30428, -664] net=5812,232832,46720,19000,3800,4 wire=12,832,320,52,1248 rng=1d945b106e15f0c6",
    "k-medians 5/2 Evented ExpSample out=[-30428, -664] net=5812,232832,46720,19000,3800,4 wire=12,832,320,52,1248 rng=1d945b106e15f0c6",
    "k-medians 7/3 Evented Gumbel out=[-30428, -664] net=5812,326016,46848,26600,3800,4 wire=12,1216,448,76,1824 rng=e9fc90971daf4aaf",
    "k-medians 7/3 Evented ExpSample out=[-30428, -664] net=5812,326016,46848,26600,3800,4 wire=12,1216,448,76,1824 rng=e9fc90971daf4aaf",
    "quantile 5/2 Evented Gumbel out=[0] net=11605,575920,138800,39030,7999,615 wire=405,127920,49200,1755,141960 rng=c2d26bec9fd77e7d",
    "quantile 5/2 Evented ExpSample out=[1] net=143,72080,27664,1760,494,345 wire=135,71760,27600,585,76440 rng=46ad5256ae30ec4d",
    "quantile 7/3 Evented Gumbel out=[0] net=11605,814160,158480,54642,7999,615 wire=405,186960,68880,2565,207480 rng=9a1ce9bba6f80c49",
    "quantile 7/3 Evented ExpSample out=[1] net=143,105328,38704,2464,494,345 wire=135,104880,38640,855,111720 rng=a70407c4c7b6a3a0",
    "histogram 5/2 Evented Gumbel out=[6, 29, 12, 4] net=5803,232832,46720,19000,3800,4 wire=3,832,320,13,936 rng=1d945b106e15f0c6",
    "histogram 5/2 Evented ExpSample out=[6, 29, 12, 4] net=5803,232832,46720,19000,3800,4 wire=3,832,320,13,936 rng=1d945b106e15f0c6",
    "histogram 7/3 Evented Gumbel out=[6, 29, 12, 4] net=5803,326016,46848,26600,3800,4 wire=3,1216,448,19,1368 rng=e9fc90971daf4aaf",
    "histogram 7/3 Evented ExpSample out=[6, 29, 12, 4] net=5803,326016,46848,26600,3800,4 wire=3,1216,448,19,1368 rng=e9fc90971daf4aaf",
];
