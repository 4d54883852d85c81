//! Basic type and value-range inference (§4.4).
//!
//! Assigns every variable a basic type (`int`, `fix`, `bool`, or an array
//! thereof) and a conservative value range. Ranges drive cryptosystem
//! parameter choice downstream (e.g. the BGV plaintext modulus must
//! exceed the largest possible sum). Bounds are deliberately
//! conservative — e.g. the range of `a * b` is the interval product — and
//! the analyst can tighten them with `clip`.
//!
//! Loops are analyzed to a fixpoint with widening: the body's transfer
//! function is iterated a few times, and ranges still growing afterwards
//! are widened using the iteration count (linear extrapolation for
//! accumulators) or to the full `i64` range.

use std::collections::HashMap;

use crate::ast::{BinOp, Builtin, DbSchema, Expr, Program, Stmt, UnOp};

/// Basic types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    /// Integer scalar.
    Int,
    /// Fixed-point scalar.
    Fixp,
    /// Boolean scalar.
    Bool,
    /// Integer array.
    IntArray,
    /// Fixed-point array.
    FixArray,
    /// The database (a 2-D integer array).
    Db,
}

impl Ty {
    /// Element type of an array type.
    pub fn element(self) -> Option<Ty> {
        match self {
            Self::IntArray => Some(Self::Int),
            Self::FixArray => Some(Self::Fixp),
            Self::Db => Some(Self::IntArray),
            _ => None,
        }
    }

    /// Whether this is a scalar numeric type.
    pub fn is_numeric_scalar(self) -> bool {
        matches!(self, Self::Int | Self::Fixp)
    }
}

/// A conservative integer interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Range {
    /// Lower bound (inclusive).
    pub lo: i128,
    /// Upper bound (inclusive).
    pub hi: i128,
}

#[allow(clippy::should_implement_trait)] // Interval arithmetic helpers, not operator overloads.
impl Range {
    /// The full (widened) range.
    pub const FULL: Self = Self {
        lo: i64::MIN as i128,
        hi: i64::MAX as i128,
    };

    /// A single-point range.
    pub fn point(v: i128) -> Self {
        Self { lo: v, hi: v }
    }

    /// Creates a range, normalizing inverted bounds.
    pub fn new(lo: i128, hi: i128) -> Self {
        if lo <= hi {
            Self { lo, hi }
        } else {
            Self { lo: hi, hi: lo }
        }
    }

    /// Interval join (union hull).
    pub fn join(self, other: Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Interval addition.
    pub fn add(self, other: Self) -> Self {
        Self {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    /// Interval subtraction.
    pub fn sub(self, other: Self) -> Self {
        Self {
            lo: self.lo.saturating_sub(other.hi),
            hi: self.hi.saturating_sub(other.lo),
        }
    }

    /// Interval multiplication (product hull of the corner products).
    pub fn mul(self, other: Self) -> Self {
        let [a, b, c, d] = [
            self.lo.saturating_mul(other.lo),
            self.lo.saturating_mul(other.hi),
            self.hi.saturating_mul(other.lo),
            self.hi.saturating_mul(other.hi),
        ];
        Self {
            lo: a.min(b).min(c.min(d)),
            hi: a.max(b).max(c.max(d)),
        }
    }

    /// Largest absolute value in the range.
    pub fn magnitude(self) -> i128 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Width of the range (`hi − lo`).
    pub fn width(self) -> i128 {
        self.hi.saturating_sub(self.lo)
    }
}

/// Inferred information about one variable or expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TypeInfo {
    /// The basic type.
    pub ty: Ty,
    /// Element (or scalar) value range.
    pub range: Range,
    /// Array length, when statically known.
    pub len: Option<u64>,
}

impl TypeInfo {
    fn scalar(ty: Ty, range: Range) -> Self {
        Self {
            ty,
            range,
            len: None,
        }
    }

    fn array(ty: Ty, range: Range, len: Option<u64>) -> Self {
        Self { ty, range, len }
    }
}

/// A type error with context.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for TypeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, TypeError> {
    Err(TypeError {
        message: msg.into(),
    })
}

/// The result of type inference over a whole program.
#[derive(Clone, Debug)]
pub struct TypedProgram {
    /// Final variable environment.
    pub vars: HashMap<String, TypeInfo>,
    /// Types of the output expressions, in order.
    pub outputs: Vec<TypeInfo>,
}

/// Runs type and range inference.
///
/// # Errors
///
/// Returns [`TypeError`] on ill-typed programs.
pub fn infer(program: &Program, schema: &DbSchema) -> Result<TypedProgram, TypeError> {
    let mut env: HashMap<String, TypeInfo> = HashMap::new();
    env.insert(
        "db".into(),
        TypeInfo::array(
            Ty::Db,
            Range::new(schema.lo as i128, schema.hi as i128),
            Some(schema.participants),
        ),
    );
    let mut outputs = Vec::new();
    infer_block(&program.stmts, &mut env, &mut outputs, schema)?;
    Ok(TypedProgram { vars: env, outputs })
}

fn infer_block(
    stmts: &[Stmt],
    env: &mut HashMap<String, TypeInfo>,
    outputs: &mut Vec<TypeInfo>,
    schema: &DbSchema,
) -> Result<(), TypeError> {
    for s in stmts {
        infer_stmt(s, env, outputs, schema)?;
    }
    Ok(())
}

fn join_envs(
    a: &HashMap<String, TypeInfo>,
    b: &HashMap<String, TypeInfo>,
) -> Result<HashMap<String, TypeInfo>, TypeError> {
    let mut out = HashMap::new();
    for (k, va) in a {
        if let Some(vb) = b.get(k) {
            if va.ty != vb.ty {
                return err(format!(
                    "variable {k} has inconsistent types across branches"
                ));
            }
            out.insert(
                k.clone(),
                TypeInfo {
                    ty: va.ty,
                    range: va.range.join(vb.range),
                    len: if va.len == vb.len { va.len } else { None },
                },
            );
        }
    }
    Ok(out)
}

fn infer_stmt(
    stmt: &Stmt,
    env: &mut HashMap<String, TypeInfo>,
    outputs: &mut Vec<TypeInfo>,
    schema: &DbSchema,
) -> Result<(), TypeError> {
    match stmt {
        Stmt::Assign(name, e) => {
            let info = infer_expr(e, env, schema)?;
            env.insert(name.clone(), info);
            Ok(())
        }
        Stmt::IndexAssign(name, idx, value) => {
            let idx_info = infer_expr(idx, env, schema)?;
            if idx_info.ty != Ty::Int {
                return err(format!("index into {name} must be int"));
            }
            let val = infer_expr(value, env, schema)?;
            let elem_ty = match val.ty {
                Ty::Int | Ty::Bool => Ty::IntArray,
                Ty::Fixp => Ty::FixArray,
                other => return err(format!("cannot store {other:?} into array {name}")),
            };
            let new_len = u64::try_from(idx_info.range.hi.max(0)).ok().map(|h| h + 1);
            let entry = env
                .entry(name.clone())
                .or_insert(TypeInfo::array(elem_ty, val.range, new_len));
            if entry.ty != elem_ty {
                return err(format!("array {name} mixes element types"));
            }
            entry.range = entry.range.join(val.range);
            entry.len = match (entry.len, new_len) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
            Ok(())
        }
        Stmt::For {
            var,
            from,
            to,
            body,
        } => {
            let from_i = infer_expr(from, env, schema)?;
            let to_i = infer_expr(to, env, schema)?;
            if from_i.ty != Ty::Int || to_i.ty != Ty::Int {
                return err("loop bounds must be int");
            }
            let iter_range = Range::new(from_i.range.lo, to_i.range.hi);
            env.insert(var.clone(), TypeInfo::scalar(Ty::Int, iter_range));
            let iters = iter_range.width().saturating_add(1).max(0) as u128;
            // Fixpoint with widening: iterate the body transfer function.
            let mut prev = env.clone();
            const PASSES: usize = 3;
            for pass in 0..PASSES {
                infer_block(body, env, &mut Vec::new(), schema)?;
                env.insert(var.clone(), TypeInfo::scalar(Ty::Int, iter_range));
                if pass > 0 {
                    // Widen variables whose ranges are still growing:
                    // extrapolate linear growth by the iteration count.
                    let mut changed = false;
                    for (k, v) in env.iter_mut() {
                        if let Some(p) = prev.get(k) {
                            if p.ty == v.ty && p.range != v.range {
                                changed = true;
                                let grow_lo = (p.range.lo - v.range.lo).max(0) as u128;
                                let grow_hi = (v.range.hi - p.range.hi).max(0) as u128;
                                let lo = p.range.lo.saturating_sub(
                                    (grow_lo.saturating_mul(iters)).min(i128::MAX as u128) as i128,
                                );
                                let hi = p.range.hi.saturating_add(
                                    (grow_hi.saturating_mul(iters)).min(i128::MAX as u128) as i128,
                                );
                                v.range = Range::new(lo, hi);
                            }
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                prev = env.clone();
            }
            // Re-run outputs inside loops against the stabilized env.
            infer_block(body, env, outputs, schema)?;
            env.insert(var.clone(), TypeInfo::scalar(Ty::Int, iter_range));
            Ok(())
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let c = infer_expr(cond, env, schema)?;
            if c.ty != Ty::Bool {
                return err("if condition must be bool");
            }
            let mut then_env = env.clone();
            let mut else_env = env.clone();
            infer_block(then_branch, &mut then_env, outputs, schema)?;
            infer_block(else_branch, &mut else_env, outputs, schema)?;
            *env = join_envs(&then_env, &else_env)?;
            Ok(())
        }
        Stmt::Expr(e) => {
            if let Expr::Call(Builtin::Output, args) = e {
                for a in args {
                    let info = infer_expr(a, env, schema)?;
                    outputs.push(info);
                }
                Ok(())
            } else {
                infer_expr(e, env, schema).map(|_| ())
            }
        }
    }
}

fn infer_expr(
    e: &Expr,
    env: &HashMap<String, TypeInfo>,
    schema: &DbSchema,
) -> Result<TypeInfo, TypeError> {
    match e {
        Expr::Int(v) => Ok(TypeInfo::scalar(Ty::Int, Range::point(*v as i128))),
        Expr::Fix(_) => Ok(TypeInfo::scalar(Ty::Fixp, Range::FULL)),
        Expr::Bool(_) => Ok(TypeInfo::scalar(Ty::Bool, Range::new(0, 1))),
        Expr::Var(name) => env.get(name).copied().ok_or_else(|| TypeError {
            message: format!("unknown variable {name}"),
        }),
        Expr::Index(base, idx) => {
            let b = infer_expr(base, env, schema)?;
            let i = infer_expr(idx, env, schema)?;
            if i.ty != Ty::Int {
                return err("index must be int");
            }
            match b.ty {
                Ty::Db => Ok(TypeInfo::array(
                    Ty::IntArray,
                    Range::new(schema.lo as i128, schema.hi as i128),
                    Some(schema.row_width as u64),
                )),
                Ty::IntArray => Ok(TypeInfo::scalar(Ty::Int, b.range)),
                Ty::FixArray => Ok(TypeInfo::scalar(Ty::Fixp, b.range)),
                other => err(format!("cannot index into {other:?}")),
            }
        }
        Expr::Un(UnOp::Not, inner) => {
            let i = infer_expr(inner, env, schema)?;
            if i.ty != Ty::Bool {
                return err("! requires bool");
            }
            Ok(i)
        }
        Expr::Un(UnOp::Neg, inner) => {
            let i = infer_expr(inner, env, schema)?;
            if !i.ty.is_numeric_scalar() {
                return err("unary - requires a numeric scalar");
            }
            Ok(TypeInfo::scalar(i.ty, Range::new(-i.range.hi, -i.range.lo)))
        }
        Expr::Bin(op, l, r) => {
            let li = infer_expr(l, env, schema)?;
            let ri = infer_expr(r, env, schema)?;
            if op.is_logical() {
                if li.ty != Ty::Bool || ri.ty != Ty::Bool {
                    return err("logical operators require bools");
                }
                return Ok(TypeInfo::scalar(Ty::Bool, Range::new(0, 1)));
            }
            if !li.ty.is_numeric_scalar() || !ri.ty.is_numeric_scalar() {
                return err(format!("operator {op:?} requires numeric scalars"));
            }
            let ty = if li.ty == Ty::Fixp || ri.ty == Ty::Fixp {
                Ty::Fixp
            } else {
                Ty::Int
            };
            let range = match op {
                BinOp::Add => li.range.add(ri.range),
                BinOp::Sub => li.range.sub(ri.range),
                BinOp::Mul => li.range.mul(ri.range),
                BinOp::Div => {
                    // Conservative: magnitude cannot grow for |divisor|>=1.
                    if ty == Ty::Int {
                        li.range
                    } else {
                        Range::FULL
                    }
                }
                // Comparisons: the logical operators returned above.
                _ => return Ok(TypeInfo::scalar(Ty::Bool, Range::new(0, 1))),
            };
            Ok(TypeInfo::scalar(ty, range))
        }
        Expr::Call(builtin, args) => infer_call(*builtin, args, env, schema),
    }
}

fn infer_call(
    builtin: Builtin,
    args: &[Expr],
    env: &HashMap<String, TypeInfo>,
    schema: &DbSchema,
) -> Result<TypeInfo, TypeError> {
    let arg_infos: Vec<TypeInfo> = args
        .iter()
        .map(|a| infer_expr(a, env, schema))
        .collect::<Result<_, _>>()?;
    let need = |n: usize| -> Result<(), TypeError> {
        if args.len() == n {
            Ok(())
        } else {
            err(format!(
                "{} expects {n} argument(s), got {}",
                builtin.name(),
                args.len()
            ))
        }
    };
    match builtin {
        Builtin::Sum => {
            need(1)?;
            match arg_infos[0].ty {
                Ty::Db => {
                    let n = schema.participants as i128;
                    Ok(TypeInfo::array(
                        Ty::IntArray,
                        Range::new(n * schema.lo as i128, n * schema.hi as i128),
                        Some(schema.row_width as u64),
                    ))
                }
                Ty::IntArray => {
                    let len = arg_infos[0].len.unwrap_or(u64::MAX) as i128;
                    Ok(TypeInfo::scalar(
                        Ty::Int,
                        Range::new(
                            arg_infos[0].range.lo.saturating_mul(len),
                            arg_infos[0].range.hi.saturating_mul(len),
                        ),
                    ))
                }
                Ty::FixArray => Ok(TypeInfo::scalar(Ty::Fixp, Range::FULL)),
                other => err(format!("sum of {other:?}")),
            }
        }
        Builtin::Max => {
            need(1)?;
            match arg_infos[0].ty.element() {
                Some(elem) if elem.is_numeric_scalar() => {
                    Ok(TypeInfo::scalar(elem, arg_infos[0].range))
                }
                _ => err("max requires a numeric array"),
            }
        }
        Builtin::ArgMax => {
            need(1)?;
            let len = arg_infos[0].len.unwrap_or(u64::MAX);
            Ok(TypeInfo::scalar(
                Ty::Int,
                Range::new(0, len.saturating_sub(1) as i128),
            ))
        }
        Builtin::Em => {
            if args.len() != 2 && args.len() != 3 {
                return err("em expects (scores, eps) or (scores, sens, eps)");
            }
            if arg_infos[0].ty != Ty::IntArray && arg_infos[0].ty != Ty::FixArray {
                return err("em requires a score array");
            }
            let len = arg_infos[0].len.unwrap_or(u64::MAX);
            Ok(TypeInfo::scalar(
                Ty::Int,
                Range::new(0, len.saturating_sub(1) as i128),
            ))
        }
        Builtin::EmTopK => {
            if args.len() != 3 && args.len() != 4 {
                return err("emTopK expects (scores, k, eps) or (scores, k, sens, eps)");
            }
            let k = match args[1] {
                Expr::Int(k) if k > 0 => k as u64,
                _ => return err("emTopK's k must be a positive integer literal"),
            };
            let len = arg_infos[0].len.unwrap_or(u64::MAX);
            Ok(TypeInfo::array(
                Ty::IntArray,
                Range::new(0, len.saturating_sub(1) as i128),
                Some(k),
            ))
        }
        Builtin::EmGap => {
            if args.len() != 2 && args.len() != 3 {
                return err("emGap expects (scores, eps) or (scores, sens, eps)");
            }
            Ok(TypeInfo::array(Ty::FixArray, Range::FULL, Some(2)))
        }
        Builtin::Laplace => {
            need(3)?;
            if !arg_infos[0].ty.is_numeric_scalar() && arg_infos[0].ty != Ty::IntArray {
                return err("laplace requires a numeric value or int array");
            }
            if arg_infos[0].ty == Ty::IntArray {
                Ok(TypeInfo::array(Ty::FixArray, Range::FULL, arg_infos[0].len))
            } else {
                Ok(TypeInfo::scalar(Ty::Fixp, Range::FULL))
            }
        }
        Builtin::Exp | Builtin::Log => {
            need(1)?;
            if !arg_infos[0].ty.is_numeric_scalar() {
                return err(format!("{} requires a numeric scalar", builtin.name()));
            }
            Ok(TypeInfo::scalar(Ty::Fixp, Range::FULL))
        }
        Builtin::Clip => {
            need(3)?;
            let (lo, hi) = match (&args[1], &args[2]) {
                (Expr::Int(a), Expr::Int(b)) => (*a as i128, *b as i128),
                _ => return err("clip bounds must be integer literals"),
            };
            if lo > hi {
                return err("clip bounds inverted");
            }
            Ok(TypeInfo {
                ty: arg_infos[0].ty,
                range: Range::new(lo, hi),
                len: arg_infos[0].len,
            })
        }
        Builtin::SampleUniform => {
            need(1)?;
            // Returns the sampled database view.
            Ok(TypeInfo::array(
                Ty::Db,
                Range::new(schema.lo as i128, schema.hi as i128),
                Some(schema.participants),
            ))
        }
        Builtin::Declassify => {
            need(1)?;
            Ok(arg_infos[0])
        }
        Builtin::Output => {
            if args.is_empty() {
                return err("output needs at least one argument");
            }
            Ok(arg_infos[0])
        }
        Builtin::Len => {
            need(1)?;
            let len = arg_infos[0]
                .len
                .map(|l| Range::point(l as i128))
                .unwrap_or(Range::new(0, i64::MAX as i128));
            Ok(TypeInfo::scalar(Ty::Int, len))
        }
        Builtin::Random => {
            need(1)?;
            Ok(TypeInfo::scalar(
                Ty::Int,
                Range::new(0, arg_infos[0].range.hi.saturating_sub(1).max(0)),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn schema() -> DbSchema {
        DbSchema::one_hot(1 << 20, 10)
    }

    #[test]
    fn top1_types() {
        let p = parse("aggr = sum(db); result = em(aggr, 0.1); output(result);").unwrap();
        let t = infer(&p, &schema()).unwrap();
        let aggr = t.vars["aggr"];
        assert_eq!(aggr.ty, Ty::IntArray);
        assert_eq!(aggr.len, Some(10));
        // Column sums of one-hot bits over 2^20 users fit [0, 2^20].
        assert_eq!(aggr.range, Range::new(0, 1 << 20));
        assert_eq!(t.outputs.len(), 1);
        assert_eq!(t.outputs[0].ty, Ty::Int);
        assert_eq!(t.outputs[0].range, Range::new(0, 9));
    }

    #[test]
    fn arithmetic_ranges() {
        let p = parse("x = 3 + 4 * 5; y = x - 100;").unwrap();
        let t = infer(&p, &schema()).unwrap();
        assert_eq!(t.vars["x"].range, Range::point(23));
        assert_eq!(t.vars["y"].range, Range::point(-77));
    }

    #[test]
    fn clip_tightens_ranges() {
        let p = parse("a = sum(db); b = clip(a[0], 0, 100);").unwrap();
        let t = infer(&p, &schema()).unwrap();
        assert_eq!(t.vars["b"].range, Range::new(0, 100));
    }

    #[test]
    fn loop_accumulator_widens_with_iteration_count() {
        // s accumulates 1 per iteration over 100 iterations.
        let p = parse("s = 0; for i = 1 to 100 do s = s + 1; endfor").unwrap();
        let t = infer(&p, &schema()).unwrap();
        let r = t.vars["s"].range;
        assert!(
            r.hi >= 100,
            "accumulator upper bound {} must cover 100",
            r.hi
        );
        assert!(r.lo >= 0);
    }

    #[test]
    fn branches_join() {
        let p = parse("if 1 < 2 then x = 5; else x = 10; endif").unwrap();
        let t = infer(&p, &schema()).unwrap();
        assert_eq!(t.vars["x"].range, Range::new(5, 10));
    }

    #[test]
    fn branch_type_conflict_rejected() {
        let p = parse("if 1 < 2 then x = 5; else x = 0.5; endif").unwrap();
        assert!(infer(&p, &schema()).is_err());
    }

    #[test]
    fn array_built_by_index_assignment() {
        let p = parse("for i = 0 to 9 do a[i] = i * 2; endfor").unwrap();
        let t = infer(&p, &schema()).unwrap();
        let a = t.vars["a"];
        assert_eq!(a.ty, Ty::IntArray);
        assert_eq!(a.len, Some(10));
        assert!(a.range.hi >= 18);
    }

    #[test]
    fn type_errors_reported() {
        let s = schema();
        for bad in [
            "x = true + 1;",
            "if 3 then y = 1; endif",
            "z = unknown_var;",
            "m = max(5);",
            "c = clip(sum(db), 5, 1);",
        ] {
            let p = parse(bad).unwrap();
            assert!(infer(&p, &s).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn db_indexing() {
        let p = parse("row = db[3]; v = db[3][4];").unwrap();
        let t = infer(&p, &schema()).unwrap();
        assert_eq!(t.vars["row"].ty, Ty::IntArray);
        assert_eq!(t.vars["row"].len, Some(10));
        assert_eq!(t.vars["v"].ty, Ty::Int);
        assert_eq!(t.vars["v"].range, Range::new(0, 1));
    }

    #[test]
    fn em_topk_length() {
        let p = parse("a = sum(db); top = emTopK(a, 5, 0.1);").unwrap();
        let t = infer(&p, &schema()).unwrap();
        assert_eq!(t.vars["top"].len, Some(5));
        assert_eq!(t.vars["top"].range, Range::new(0, 9));
    }
}
