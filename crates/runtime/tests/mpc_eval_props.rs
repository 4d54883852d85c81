//! Properties of the secure evaluator (`runtime::mpc_eval`) against the
//! clear reference interpreter (`lang::interp`).
//!
//! * Hostile literals: every integer literal of every corpus query is
//!   replaced by negative, huge and extreme values. Both evaluators must
//!   answer with an error or a valid run — never a panic, a wrapped
//!   index, or an allocation sized by the literal.
//! * Random programs: nested secret `if`s over scalar and array targets,
//!   with comparisons feeding multiplications, open to exactly what the
//!   interpreter computes on the clear inputs — the deferred, layered
//!   execution is invisible in results.
//!
//! The vendored proptest harness seeds its RNG from the test name, so
//! every run draws the same cases.

use std::collections::HashMap;

use arboretum_field::FGold;
use arboretum_lang::ast::{Builtin, Expr, Program, Stmt};
use arboretum_lang::interp::{Interp, Value};
use arboretum_lang::parser::parse;
use arboretum_mpc::engine::MpcEngine;
use arboretum_queries::corpus;
use arboretum_runtime::mpc_eval::{MVal, MechStyle, MpcEvalError, MpcEvaluator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::largest_alloc_during;

/// Runs `program` from the statement after its `v = sum(..)` on shares
/// of `counts`, as the executor does.
fn secure_run(
    program: &Program,
    counts: &[i64],
    style: MechStyle,
    seed: u64,
) -> Result<Vec<i64>, MpcEvalError> {
    let (sum_var, resume_at) = program
        .stmts
        .iter()
        .enumerate()
        .find_map(|(i, s)| match s {
            Stmt::Assign(name, Expr::Call(Builtin::Sum, _)) => Some((name.clone(), i + 1)),
            _ => None,
        })
        .expect("query aggregates with sum(..)");
    let mut engine = MpcEngine::new(5, 2, true, seed);
    let shares = counts
        .iter()
        .map(|&c| engine.dealer_share(FGold::from_i64(c)))
        .collect();
    let env = HashMap::from([(sum_var, MVal::SharedArr(shares))]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ev = MpcEvaluator::new(&mut engine, &mut rng, env, style);
    ev.block(&program.stmts[resume_at..])?;
    Ok(ev.outputs)
}

/// Byte ranges of the integer literals of `src` (digit runs that are not
/// part of an identifier or a decimal).
fn int_literals(src: &str) -> Vec<std::ops::Range<usize>> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        let glued = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b'.';
        if !(start > 0 && glued(b[start - 1]) || i < b.len() && glued(b[i])) {
            out.push(start..i);
        }
    }
    out
}

#[test]
fn corpus_literal_mutations_error_or_run_within_bounds() {
    const HOSTILE: [&str; 5] = [
        "(0 - 1)",
        "0",
        "4000000000000",
        "9223372036854775807",
        "(0 - 9223372036854775807 - 1)",
    ];
    // The corpus at test scale: four categories, two clusters.
    let n = 1 << 20;
    let queries = [
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
    ];
    let counts = [7i64, 30, 12, 5];
    let db = vec![counts.to_vec()];
    let mut ran = 0;
    for q in &queries {
        for lit in int_literals(&q.source) {
            for hostile in HOSTILE {
                let src = [&q.source[..lit.start], hostile, &q.source[lit.end..]].concat();
                let Ok(program) = parse(&src) else { continue };
                let ((), largest) = largest_alloc_during(|| {
                    // Either outcome is fine; a panic fails the test.
                    let _ = Interp::new(&db, 3).run(&program);
                    for style in [MechStyle::Gumbel, MechStyle::ExpSample] {
                        if let Ok(out) = secure_run(&program, &counts, style, 3) {
                            assert!(out.len() <= 8, "{}: {hostile} released {out:?}", q.name);
                        }
                    }
                });
                assert!(
                    largest < 1 << 24,
                    "{} with {hostile} at {lit:?} asked for {largest} bytes at once",
                    q.name
                );
                ran += 1;
            }
        }
    }
    assert!(ran > 200, "only {ran} mutants parsed");
}

/// A random program over `aggr` (four secret counts), scalars `s0..s2`
/// and a secret array `a[0..3]`: assignments and secret `if`s nested up
/// to three deep. Every variable exists before the first branch, so a
/// one-sided assignment always has an old value to select against.
struct Gen {
    rng: StdRng,
    budget: usize,
}

impl Gen {
    fn term(&mut self) -> String {
        match self.rng.gen_range(0..6) {
            0 => format!("s{}", self.rng.gen_range(0..3)),
            1 => format!("a[{}]", self.rng.gen_range(0..3)),
            2 => format!("aggr[{}]", self.rng.gen_range(0..4)),
            3 => format!(
                "s{} * {}",
                self.rng.gen_range(0..3),
                self.rng.gen_range(0..3)
            ),
            // Secret × secret: a deferred multiplication, possibly of a
            // value a pending selection produced.
            4 => format!(
                "aggr[{}] * a[{}]",
                self.rng.gen_range(0..4),
                self.rng.gen_range(0..3)
            ),
            _ => format!("{}", self.rng.gen_range(0..20)),
        }
    }

    fn expr(&mut self) -> String {
        let op = if self.rng.gen_range(0..2) == 0 {
            "+"
        } else {
            "-"
        };
        format!("{} {op} {}", self.term(), self.term())
    }

    fn block(&mut self, depth: usize, out: &mut String) {
        for _ in 0..self.rng.gen_range(1..3) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            match self.rng.gen_range(0..3) {
                0 => out.push_str(&format!(
                    "s{} = {};\n",
                    self.rng.gen_range(0..3),
                    self.expr()
                )),
                // Array slots stay secret: a secret term leads.
                1 => out.push_str(&format!(
                    "a[{}] = aggr[{}] + {};\n",
                    self.rng.gen_range(0..3),
                    self.rng.gen_range(0..4),
                    self.term()
                )),
                _ if depth < 3 => {
                    let cmp = ["<", "<=", ">", ">="][self.rng.gen_range(0..4)];
                    out.push_str(&format!("if {} {cmp} {} then\n", self.expr(), self.expr()));
                    self.block(depth + 1, out);
                    if self.rng.gen_range(0..3) > 0 {
                        out.push_str("else\n");
                        self.block(depth + 1, out);
                    }
                    out.push_str("endif\n");
                }
                _ => out.push_str(&format!("s0 = s0 + {};\n", self.term())),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_open_to_the_interpreters_results(
        counts in prop::collection::vec(0i64..10, 4),
        seed in any::<u64>(),
    ) {
        let mut src = String::from(
            "aggr = sum(db);\n\
             s0 = aggr[0]; s1 = aggr[1] - aggr[2]; s2 = 3;\n\
             a[0] = aggr[3]; a[1] = aggr[0] + 2; a[2] = aggr[1];\n",
        );
        let mut gen = Gen { rng: StdRng::seed_from_u64(seed), budget: 7 };
        while gen.budget > 0 {
            gen.block(0, &mut src);
        }
        src.push_str(
            "output(declassify(s0)); output(declassify(s1)); output(declassify(s2));\n\
             output(declassify(a[0])); output(declassify(a[1])); output(declassify(a[2]));\n",
        );
        let program = parse(&src).unwrap();
        let want: Vec<i64> = Interp::new(std::slice::from_ref(&counts), seed)
            .run(&program)
            .unwrap()
            .into_iter()
            .map(|v| match v {
                Value::Int(x) => x,
                other => panic!("non-integer output {other:?} of\n{src}"),
            })
            .collect();
        let got = secure_run(&program, &counts, MechStyle::Gumbel, seed);
        prop_assert_eq!(got, Ok(want), "{}", src);
    }
}
