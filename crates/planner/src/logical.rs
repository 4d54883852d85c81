//! Logical-plan extraction.
//!
//! Before enumerating physical alternatives, the planner analyzes the
//! certified program into a sequence of *logical operators*: database
//! aggregation, encrypted score preparation, DP mechanisms, and
//! post-processing. Each logical operator then has several physical
//! instantiations (§4.3) — e.g. `sum` as an aggregator loop or a
//! committee sum tree; `em` as Gumbel-argmax or exponentiate-and-sample.

use arboretum_lang::ast::{BinOp, Builtin, DbSchema, Expr, Program, Stmt};
use arboretum_lang::interp::{self, Value};
use arboretum_lang::privacy::{certify, Certificate, CertifyConfig, CertifyError};

/// The mechanisms a logical plan can invoke.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MechanismKind {
    /// Exponential mechanism returning one category.
    EmSelect,
    /// One-shot top-k selection (`k` stored alongside).
    EmTopK,
    /// Exponential mechanism with free gap.
    EmGap,
    /// Laplace noise on counts.
    Laplace,
}

/// One logical operator.
#[derive(Clone, Debug, PartialEq)]
pub enum LogicalOp {
    /// Secret sampling of the population at rate `phi`.
    Sample {
        /// Sampling rate.
        phi: f64,
    },
    /// Sum the (encrypted) database into per-category counts.
    Aggregate {
        /// Number of categories (vector width).
        categories: u64,
    },
    /// Encrypted computation that transforms counts into quality scores
    /// (prefix sums, per-candidate revenue, test statistics, ...).
    ScorePrep {
        /// Arithmetic operations per category.
        ops_per_category: u64,
        /// Whether comparisons are needed (forces FHE/MPC).
        needs_comparisons: bool,
    },
    /// A DP mechanism over the (encrypted) score vector.
    Mechanism {
        /// Which mechanism.
        kind: MechanismKind,
        /// Number of candidate categories / score entries.
        categories: u64,
        /// `k` for top-k (1 otherwise).
        k: u64,
    },
    /// Cleartext post-processing of released values on the aggregator.
    PostProcess {
        /// Rough operation count.
        ops: u64,
    },
    /// Release outputs to the analyst.
    Output,
}

/// A certified logical plan.
#[derive(Clone, Debug)]
pub struct LogicalPlan {
    /// Operators in execution order.
    pub ops: Vec<LogicalOp>,
    /// The privacy certificate.
    pub certificate: Certificate,
    /// The database schema.
    pub schema: DbSchema,
    /// The certified source program (the runtime's MPC evaluator executes
    /// its post-aggregation statements on secret shares).
    pub program: Program,
}

impl LogicalPlan {
    /// Number of categories handled by the widest operator.
    pub fn max_categories(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                LogicalOp::Aggregate { categories } | LogicalOp::Mechanism { categories, .. } => {
                    *categories
                }
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether any operator needs comparisons (and hence FHE or MPC).
    pub fn needs_comparisons(&self) -> bool {
        self.ops.iter().any(|op| {
            matches!(
                op,
                LogicalOp::ScorePrep {
                    needs_comparisons: true,
                    ..
                } | LogicalOp::Mechanism {
                    kind: MechanismKind::EmSelect | MechanismKind::EmTopK | MechanismKind::EmGap,
                    ..
                }
            )
        })
    }
}

/// Extraction failures.
#[derive(Debug)]
pub enum ExtractError {
    /// Certification failed.
    Certify(CertifyError),
    /// The program has no mechanism and no output.
    NothingToDo,
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Certify(e) => write!(f, "certification failed: {e}"),
            Self::NothingToDo => write!(f, "program releases nothing"),
        }
    }
}

impl std::error::Error for ExtractError {}

impl From<CertifyError> for ExtractError {
    fn from(e: CertifyError) -> Self {
        Self::Certify(e)
    }
}

/// Certifies a program and extracts its logical plan.
///
/// # Errors
///
/// Returns [`ExtractError`] if certification fails or the program
/// produces no output.
pub fn extract(
    program: &Program,
    schema: &DbSchema,
    cfg: CertifyConfig,
) -> Result<LogicalPlan, ExtractError> {
    let certificate = certify(program, schema, cfg)?;
    let mut ops = Vec::new();
    let mut walker = Walker {
        ops: &mut ops,
        schema,
        db_views: vec!["db".to_string()],
        tainted_loop_ops: 0,
        tainted_loop_cmps: false,
        post_ops: 0,
        saw_output: false,
    };
    walker.block(&program.stmts);
    walker.flush_score_prep();
    let post_ops = walker.post_ops;
    let saw_output = walker.saw_output;
    if post_ops > 0 {
        ops.push(LogicalOp::PostProcess { ops: post_ops });
    }
    if !saw_output {
        return Err(ExtractError::NothingToDo);
    }
    ops.push(LogicalOp::Output);
    Ok(LogicalPlan {
        ops,
        certificate,
        schema: *schema,
        program: program.clone(),
    })
}

struct Walker<'a> {
    ops: &'a mut Vec<LogicalOp>,
    schema: &'a DbSchema,
    /// Variables bound to (sampled) views of the database.
    db_views: Vec<String>,
    /// Pending encrypted score-preparation work (loops over tainted data).
    tainted_loop_ops: u64,
    tainted_loop_cmps: bool,
    /// Pending cleartext post-processing work (after the last mechanism).
    post_ops: u64,
    saw_output: bool,
}

impl Walker<'_> {
    fn mechanism_seen(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, LogicalOp::Mechanism { .. }))
    }

    fn flush_score_prep(&mut self) {
        if self.tainted_loop_ops > 0 {
            let categories = self.schema.row_width.max(1) as u64;
            self.ops.push(LogicalOp::ScorePrep {
                ops_per_category: self.tainted_loop_ops.div_ceil(categories),
                needs_comparisons: self.tainted_loop_cmps,
            });
            self.tainted_loop_ops = 0;
            self.tainted_loop_cmps = false;
        }
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s, 1);
        }
    }

    fn stmt(&mut self, stmt: &Stmt, multiplier: u64) {
        match stmt {
            Stmt::Assign(name, e) if matches!(e, Expr::Call(Builtin::SampleUniform, _)) => {
                self.db_views.push(name.clone());
                self.expr(e, multiplier);
            }
            Stmt::Assign(_, e) | Stmt::IndexAssign(_, _, e) => {
                let (aggregated, mech_seen) = (self.aggregated(), self.mechanism_seen());
                let ops_before = self.ops.len();
                self.expr(e, multiplier);
                if self.ops.len() != ops_before {
                    // The statement *is* an operator call; its work is
                    // accounted by that operator, not as prep.
                    return;
                }
                // Work between aggregation and mechanism counts as score
                // prep; work after all mechanisms as post-processing.
                let units = multiplier.saturating_mul(expr_size(e));
                if mech_seen {
                    self.post_ops = self.post_ops.saturating_add(units);
                } else if aggregated {
                    self.tainted_loop_ops = self.tainted_loop_ops.saturating_add(units);
                    self.tainted_loop_cmps |= expr_has_comparison(e);
                }
            }
            Stmt::For { from, to, body, .. } => {
                let iters = match (const_int(from), const_int(to)) {
                    (Some(a), Some(b)) if b >= a => b.abs_diff(a).saturating_add(1),
                    _ => self.schema.row_width as u64,
                };
                for s in body {
                    self.stmt(s, multiplier.saturating_mul(iters));
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond, multiplier);
                if self.aggregated() && !self.mechanism_seen() {
                    self.tainted_loop_cmps |= expr_has_comparison(cond);
                    self.tainted_loop_ops = self.tainted_loop_ops.saturating_add(multiplier);
                }
                for s in then_branch.iter().chain(else_branch) {
                    self.stmt(s, multiplier);
                }
            }
            Stmt::Expr(e) => self.expr(e, multiplier),
        }
    }

    fn aggregated(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, LogicalOp::Aggregate { .. }))
    }

    fn expr(&mut self, e: &Expr, multiplier: u64) {
        match e {
            Expr::Call(Builtin::SampleUniform, args) => {
                if let Some(Expr::Fix(phi)) = args.first() {
                    self.ops.push(LogicalOp::Sample { phi: *phi });
                }
            }
            Expr::Call(Builtin::Sum, args) => {
                let over_db = matches!(&args[0], Expr::Var(n) if self.db_views.contains(n))
                    || matches!(&args[0], Expr::Call(Builtin::SampleUniform, _));
                if over_db {
                    for a in args {
                        self.expr(a, multiplier);
                    }
                    self.ops.push(LogicalOp::Aggregate {
                        categories: self.schema.row_width as u64,
                    });
                } else {
                    for a in args {
                        self.expr(a, multiplier);
                    }
                    if self.aggregated() && !self.mechanism_seen() {
                        self.tainted_loop_ops = self.tainted_loop_ops.saturating_add(
                            multiplier.saturating_mul(self.schema.row_width as u64),
                        );
                    }
                }
            }
            Expr::Call(b @ (Builtin::Em | Builtin::EmTopK | Builtin::EmGap), args) => {
                for a in args {
                    self.expr(a, multiplier);
                }
                self.flush_score_prep();
                let k = if *b == Builtin::EmTopK {
                    const_int(&args[1]).unwrap_or(1) as u64
                } else {
                    1
                };
                let kind = match b {
                    Builtin::Em => MechanismKind::EmSelect,
                    Builtin::EmTopK => MechanismKind::EmTopK,
                    _ => MechanismKind::EmGap,
                };
                self.ops.push(LogicalOp::Mechanism {
                    kind,
                    categories: self.schema.row_width as u64,
                    k,
                });
            }
            Expr::Call(Builtin::Laplace, args) => {
                for a in args {
                    self.expr(a, multiplier);
                }
                self.flush_score_prep();
                self.ops.push(LogicalOp::Mechanism {
                    kind: MechanismKind::Laplace,
                    categories: self.schema.row_width as u64,
                    k: 1,
                });
            }
            Expr::Call(Builtin::Output, args) => {
                for a in args {
                    self.expr(a, multiplier);
                }
                self.saw_output = true;
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.expr(a, multiplier);
                }
            }
            Expr::Bin(_, l, r) => {
                self.expr(l, multiplier);
                self.expr(r, multiplier);
            }
            Expr::Un(_, inner) | Expr::Index(inner, _) => self.expr(inner, multiplier),
            _ => {}
        }
    }
}

/// The value of an integer expression built from literals by `+`, `-`
/// and `*`, computed by the interpreter's arithmetic: `None` for any
/// other expression and for one that overflows.
fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Bin(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), l, r) => {
            let (a, b) = (Value::Int(const_int(l)?), Value::Int(const_int(r)?));
            interp::binop(*op, a, b).ok()?.as_int().ok()
        }
        _ => None,
    }
}

fn expr_size(e: &Expr) -> u64 {
    match e {
        Expr::Bin(_, l, r) => 1 + expr_size(l) + expr_size(r),
        Expr::Un(_, i) | Expr::Index(i, _) => 1 + expr_size(i),
        Expr::Call(_, args) => 1 + args.iter().map(expr_size).sum::<u64>(),
        _ => 1,
    }
}

fn expr_has_comparison(e: &Expr) -> bool {
    match e {
        Expr::Bin(op, l, r) => {
            op.is_comparison() || expr_has_comparison(l) || expr_has_comparison(r)
        }
        Expr::Un(_, i) | Expr::Index(i, _) => expr_has_comparison(i),
        Expr::Call(Builtin::Max | Builtin::ArgMax, _) => true,
        Expr::Call(_, args) => args.iter().any(expr_has_comparison),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_lang::parser::parse;

    fn schema() -> DbSchema {
        DbSchema::one_hot(1 << 30, 1 << 15)
    }

    fn extract_src(src: &str) -> LogicalPlan {
        extract(&parse(src).unwrap(), &schema(), CertifyConfig::default()).unwrap()
    }

    #[test]
    fn top1_logical_plan() {
        let lp = extract_src("aggr = sum(db); r = em(aggr, 0.1); output(r);");
        assert_eq!(lp.ops.len(), 3);
        assert!(matches!(lp.ops[0], LogicalOp::Aggregate { categories } if categories == 1 << 15));
        assert!(matches!(
            lp.ops[1],
            LogicalOp::Mechanism {
                kind: MechanismKind::EmSelect,
                k: 1,
                ..
            }
        ));
        assert_eq!(lp.ops[2], LogicalOp::Output);
        assert!(lp.needs_comparisons());
    }

    #[test]
    fn laplace_plan_avoids_comparisons() {
        let lp = extract_src("aggr = sum(db); r = laplace(aggr, 1, 0.1); output(r);");
        assert!(!lp.needs_comparisons());
        assert!(matches!(
            lp.ops[1],
            LogicalOp::Mechanism {
                kind: MechanismKind::Laplace,
                ..
            }
        ));
    }

    #[test]
    fn topk_carries_k() {
        let lp = extract_src("aggr = sum(db); t = emTopK(aggr, 5, 0.1); output(t);");
        assert!(matches!(
            lp.ops[1],
            LogicalOp::Mechanism {
                kind: MechanismKind::EmTopK,
                k: 5,
                ..
            }
        ));
    }

    #[test]
    fn sampling_recorded() {
        let lp =
            extract_src("s = sampleUniform(0.01); aggr = sum(s); r = em(aggr, 1.0); output(r);");
        assert!(matches!(lp.ops[0], LogicalOp::Sample { phi } if (phi - 0.01).abs() < 1e-12));
        assert_eq!(lp.certificate.sampling_rate, Some(0.01));
    }

    #[test]
    fn score_prep_loop_detected() {
        // Prefix sums between aggregation and mechanism count as encrypted
        // score preparation with comparisons absent.
        let lp = extract_src(
            "aggr = sum(db);\n\
             cum[0] = aggr[0];\n\
             for i = 1 to 9 do cum[i] = cum[i-1] + aggr[i]; endfor\n\
             r = em(cum, 32768, 0.1);\n\
             output(r);",
        );
        let has_prep = lp
            .ops
            .iter()
            .any(|op| matches!(op, LogicalOp::ScorePrep { .. }));
        assert!(
            has_prep,
            "prefix-sum loop must become ScorePrep: {:?}",
            lp.ops
        );
    }

    #[test]
    fn post_processing_detected() {
        let lp = extract_src(
            "aggr = sum(db);\n\
             r = em(aggr, 0.1);\n\
             s = r * 2 + 1;\n\
             output(s);",
        );
        assert!(lp
            .ops
            .iter()
            .any(|op| matches!(op, LogicalOp::PostProcess { .. })));
    }

    /// A loop bound that overflows `i64` is unknown, like any bound that
    /// is not a constant: the loop counts `row_width` iterations. A
    /// wrapped bound (`2^32 · 2^32 + 10` is 10 in wrapping arithmetic)
    /// used to plan 11 iterations, and a debug build panicked. A bound
    /// pair whose iteration count exceeds `u64` saturates.
    #[test]
    fn overflowing_loop_bounds_are_unknown() {
        let post_ops = |bounds: &str| {
            let lp = extract_src(&format!(
                "aggr = sum(db);\n\
                 r = em(aggr, 0.1);\n\
                 s = 0;\n\
                 for i = {bounds} do s = s + 1; endfor\n\
                 output(r);"
            ));
            lp.ops
                .iter()
                .find_map(|op| match op {
                    LogicalOp::PostProcess { ops } => Some(*ops),
                    _ => None,
                })
                .expect("the loop is post-processing")
        };
        // `s = 0` is one unit; each iteration of `s = s + 1` is three.
        let unknown = 1 + 3 * (1 << 15);
        assert_eq!(post_ops("1 to 10"), 1 + 3 * 10);
        assert_eq!(post_ops("0 to 9223372036854775807 + 1"), unknown);
        assert_eq!(post_ops("0 to 4294967296 * 4294967296 + 10"), unknown);
        assert_eq!(post_ops("0 - 9223372036854775807 - 2 to 0"), unknown);
        assert_eq!(
            post_ops("0 - 9223372036854775807 - 1 to 9223372036854775807"),
            u64::MAX
        );
    }

    #[test]
    fn uncertified_program_rejected() {
        let p = parse("aggr = sum(db); output(aggr);").unwrap();
        assert!(matches!(
            extract(&p, &schema(), CertifyConfig::default()),
            Err(ExtractError::Certify(_))
        ));
    }

    #[test]
    fn outputless_program_rejected() {
        let p = parse("aggr = sum(db); r = em(aggr, 0.1);").unwrap();
        assert!(matches!(
            extract(&p, &schema(), CertifyConfig::default()),
            Err(ExtractError::NothingToDo)
        ));
    }
}
