//! Property-based tests for the query language.

use arboretum_lang::ast::{DbSchema, Expr, Stmt};
use arboretum_lang::interp::{Interp, Value};
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::{certify, CertifyConfig};
use arboretum_lang::types::infer;
use arboretum_queries::corpus::all_queries;
use proptest::prelude::*;

/// The parser's (private) nesting bound, restated: what it accepts must
/// stay within it.
const MAX_NESTING: usize = 64;

/// Height of an expression tree (a leaf is 1).
fn expr_height(e: &Expr) -> usize {
    1 + match e {
        Expr::Int(_) | Expr::Fix(_) | Expr::Bool(_) | Expr::Var(_) => 0,
        Expr::Un(_, a) => expr_height(a),
        Expr::Index(a, b) | Expr::Bin(_, a, b) => expr_height(a).max(expr_height(b)),
        Expr::Call(_, args) => args.iter().map(expr_height).max().unwrap_or(0),
    }
}

/// `(deepest block nesting, tallest expression)` of a statement list.
fn nesting(stmts: &[Stmt]) -> (usize, usize) {
    let both = |a: (usize, usize), b: (usize, usize)| (a.0.max(b.0), a.1.max(b.1));
    stmts
        .iter()
        .map(|s| {
            let (exprs, inner) = match s {
                Stmt::Assign(_, e) | Stmt::Expr(e) => (vec![e], (0, 0)),
                Stmt::IndexAssign(_, i, e) => (vec![i, e], (0, 0)),
                Stmt::For { from, to, body, .. } => (vec![from, to], nesting(body)),
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => (vec![cond], both(nesting(then_branch), nesting(else_branch))),
            };
            let tallest = exprs.into_iter().map(expr_height).max().unwrap_or(0);
            (1 + inner.0, tallest.max(inner.1))
        })
        .fold((0, 0), both)
}

/// `parse` on hostile text: an error or a program within the bound,
/// never a panic or a stack overflow.
fn parse_stays_bounded(src: &str) {
    if let Ok(p) = parse(src) {
        let (blocks, height) = nesting(&p.stmts);
        assert!(
            blocks <= MAX_NESTING && height <= MAX_NESTING,
            "accepted {blocks} blocks, height {height}: {:.80}",
            src
        );
    }
}

#[test]
fn corpus_mutations_error_or_stay_within_the_nesting_bound() {
    for q in all_queries(1 << 20) {
        let src = q.source.as_str();
        assert!(src.is_ascii(), "{}", q.name);
        parse(src).unwrap_or_else(|e| panic!("{}: {e}", q.name));
        for at in 0..=src.len() {
            parse_stays_bounded(&src[..at]);
        }
        for at in 0..src.len() {
            let mut bytes = src.as_bytes().to_vec();
            bytes[at] ^= 1 << (at % 7);
            parse_stays_bounded(std::str::from_utf8(&bytes).expect("ASCII stays ASCII"));
        }
        for piece in ["(", "-", "!", "+1", "if 1 then "] {
            let splice = |at: usize, k: usize| {
                parse_stays_bounded(&[&src[..at], &piece.repeat(k), &src[at..]].concat());
            };
            for k in [1, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1] {
                (0..=src.len()).for_each(|at| splice(at, k));
            }
            for at in [0, src.len() / 3, 2 * src.len() / 3, src.len()] {
                splice(at, 100_000);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arithmetic_expressions_evaluate_like_rust(a in -1000i64..1000, b in -1000i64..1000, c in 1i64..100) {
        let src = format!("x = ({a} + {b}) * {c} - {a} / {c}; output(x);");
        let p = parse(&src).unwrap();
        let db = vec![vec![0i64]];
        let out = Interp::new(&db, 0).run(&p).unwrap();
        let want = (a + b) * c - a / c;
        prop_assert_eq!(out, vec![Value::Int(want)]);
    }

    #[test]
    fn interpreter_respects_ranges(counts in prop::collection::vec(0usize..30, 2..6), seed in any::<u64>()) {
        // sum(db) over a one-hot database always equals the histogram,
        // and type inference's range covers every observed value.
        let k = counts.len();
        let db: Vec<Vec<i64>> = counts
            .iter()
            .enumerate()
            .flat_map(|(c, &n)| std::iter::repeat_with(move || {
                let mut row = vec![0i64; k];
                row[c] = 1;
                row
            }).take(n))
            .collect();
        if db.is_empty() {
            return Ok(());
        }
        let src = "a = sum(db); output(a);";
        let p = parse(src).unwrap();
        let out = Interp::new(&db, seed).run(&p).unwrap();
        let Value::IntArray(got) = &out[0] else { panic!("expected array") };
        for (g, &w) in got.iter().zip(&counts) {
            prop_assert_eq!(*g, w as i64);
        }
        let schema = DbSchema::one_hot(db.len() as u64, k);
        let t = infer(&p, &schema).unwrap();
        let r = t.vars["a"].range;
        for &g in got {
            prop_assert!(r.lo <= g as i128 && g as i128 <= r.hi);
        }
    }

    #[test]
    fn loops_compute_closed_forms(n in 1i64..60) {
        // Sum of 1..n via a loop equals n(n+1)/2.
        let src = format!(
            "s = 0; for i = 1 to {n} do s = s + i; endfor output(s);"
        );
        let p = parse(&src).unwrap();
        let db = vec![vec![0i64]];
        let out = Interp::new(&db, 0).run(&p).unwrap();
        prop_assert_eq!(out, vec![Value::Int(n * (n + 1) / 2)]);
    }

    #[test]
    fn certification_epsilon_matches_literal(eps_m in 1u32..40) {
        let eps = eps_m as f64 / 10.0;
        let src = format!("a = sum(db); r = em(a, {eps:.1}); output(r);");
        let p = parse(&src).unwrap();
        let schema = DbSchema::one_hot(1000, 4);
        let cert = certify(&p, &schema, CertifyConfig::default()).unwrap();
        prop_assert!((cert.cost.epsilon - eps).abs() < 1e-9);
    }

    #[test]
    fn tainted_outputs_always_rejected(col in 0usize..4) {
        // No matter which column, releasing a raw sum must fail.
        let src = format!("a = sum(db); output(a[{col}]);");
        let p = parse(&src).unwrap();
        let schema = DbSchema::one_hot(1000, 4);
        prop_assert!(certify(&p, &schema, CertifyConfig::default()).is_err());
    }

    #[test]
    fn parse_print_structures_stable(n_stmts in 1usize..10) {
        // Programs of repeated well-formed statements parse to the
        // expected statement count.
        let src = (0..n_stmts)
            .map(|i| format!("x{i} = {i} + 1;"))
            .collect::<Vec<_>>()
            .join("\n");
        let p = parse(&src).unwrap();
        prop_assert_eq!(p.stmts.len(), n_stmts);
    }

    #[test]
    fn garbage_never_panics(src in "[a-z0-9 =+*();\\[\\]<>!&|{}.\"'-]{0,80}") {
        // The parser returns errors, never panics, on arbitrary input.
        let _ = parse(&src);
    }
}
