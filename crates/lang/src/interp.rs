//! Reference interpreter for the query language.
//!
//! Executes a query on a concrete database exactly as if the data were in
//! one place (the semantics the analyst writes against, §4.1). The
//! planner's distributed plans are validated against this interpreter:
//! a transformed plan must compute the same distribution over outputs.
//!
//! This module is the one definition of what a public value does. The
//! value-level operations — [`binop`], [`unop`], [`index`], [`store`],
//! [`builtin`] and [`mech_params`] — need no interpreter state, and the
//! committee's secure evaluator (`runtime::mpc_eval`) calls them for
//! every operation whose operands are all public, so the two evaluators
//! cannot disagree on a public value.

use std::collections::HashMap;

use arboretum_dp::mechanisms::{em_gumbel, em_with_gap, top_k_oneshot, MechanismError};
use arboretum_dp::noise::{laplace_fix, snap};
use arboretum_field::fixed::{Fix, FixOverflow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ast::{BinOp, Builtin, Expr, Program, Stmt, UnOp};

/// Longest array an indexed assignment may grow. Arrays a query builds
/// are indexed by category, and a database row has at most one BGV
/// ciphertext's `2^15` slots of them (§7.1's largest schema), so a
/// larger index is a hostile or mistaken literal — an error, not an
/// allocation. The secure evaluator enforces the same bound.
pub const MAX_ARRAY_LEN: usize = 1 << 15;

/// Runtime values.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Integer scalar.
    Int(i64),
    /// Fixed-point scalar.
    Fix(Fix),
    /// Boolean scalar.
    Bool(bool),
    /// Integer array.
    IntArray(Vec<i64>),
    /// Fixed-point array.
    FixArray(Vec<Fix>),
}

impl Value {
    /// Extracts an integer, coercing booleans; any other value is an
    /// error.
    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            Self::Int(v) => Ok(*v),
            Self::Bool(b) => Ok(i64::from(*b)),
            other => Err(EvalError::new(format!("expected int, got {other:?}"))),
        }
    }

    /// Extracts a fixed-point value, coercing integers.
    fn as_fix(&self) -> Result<Fix, EvalError> {
        match self {
            Self::Fix(v) => Ok(*v),
            Self::Int(v) => Ok(Fix::from_int(*v)?),
            other => Err(EvalError::new(format!("expected fix, got {other:?}"))),
        }
    }

    /// Extracts a boolean; any other value is an error.
    pub fn as_bool(&self) -> Result<bool, EvalError> {
        match self {
            Self::Bool(b) => Ok(*b),
            other => Err(EvalError::new(format!("expected bool, got {other:?}"))),
        }
    }
}

/// Runtime errors.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// Description.
    pub message: String,
}

impl EvalError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

impl From<FixOverflow> for EvalError {
    fn from(e: FixOverflow) -> Self {
        Self::new(e.to_string())
    }
}

impl From<MechanismError> for EvalError {
    fn from(e: MechanismError) -> Self {
        Self::new(e.to_string())
    }
}

/// A public array index: non-negative and below [`MAX_ARRAY_LEN`], so a
/// hostile literal is an error, not a wrapped index or a terabyte
/// `resize`.
pub fn slot_index(i: &Value) -> Result<usize, EvalError> {
    let i = i.as_int()?;
    usize::try_from(i)
        .ok()
        .filter(|&i| i < MAX_ARRAY_LEN)
        .ok_or_else(|| EvalError::new(format!("index {i} outside 0..{MAX_ARRAY_LEN}")))
}

/// Slot `i` of an array; a scalar or an index past the end is an error.
pub fn index(arr: &Value, i: usize) -> Result<Value, EvalError> {
    let got = match arr {
        Value::IntArray(a) => a.get(i).copied().map(Value::Int),
        Value::FixArray(a) => a.get(i).copied().map(Value::Fix),
        other => return Err(EvalError::new(format!("cannot index {other:?}"))),
    };
    got.ok_or_else(|| EvalError::new(format!("index {i} out of bounds")))
}

/// The number of slots of an array; a scalar is an error.
pub fn len(arr: &Value) -> Result<usize, EvalError> {
    match arr {
        Value::IntArray(a) => Ok(a.len()),
        Value::FixArray(a) => Ok(a.len()),
        other => Err(EvalError::new(format!("len of {other:?}"))),
    }
}

/// Shortens an array to its first `n` slots, undoing a [`store`] that
/// grew it.
pub fn truncate(arr: &mut Value, n: usize) {
    match arr {
        Value::IntArray(a) => a.truncate(n),
        Value::FixArray(a) => a.truncate(n),
        _ => {}
    }
}

/// Writes `v` into slot `i` of `arr` (a new array if `None`), growing it
/// with zeros, and returns the array. A fixed-point value written into an
/// integer array promotes the whole array to fixed point.
pub fn store(arr: Option<Value>, i: usize, v: Value) -> Result<Value, EvalError> {
    fn put<T: Clone>(mut a: Vec<T>, i: usize, x: T, zero: T) -> Vec<T> {
        if a.len() <= i {
            a.resize(i + 1, zero);
        }
        a[i] = x;
        a
    }
    Ok(match (arr, v) {
        (None, Value::Fix(f)) => Value::FixArray(put(Vec::new(), i, f, Fix::ZERO)),
        (None, v) => Value::IntArray(put(Vec::new(), i, v.as_int()?, 0)),
        (Some(Value::IntArray(a)), Value::Fix(f)) => {
            let promoted = a.into_iter().map(Fix::from_int).collect::<Result<_, _>>()?;
            Value::FixArray(put(promoted, i, f, Fix::ZERO))
        }
        (Some(Value::IntArray(a)), v) => Value::IntArray(put(a, i, v.as_int()?, 0)),
        (Some(Value::FixArray(a)), v) => Value::FixArray(put(a, i, v.as_fix()?, Fix::ZERO)),
        (Some(e), v) => return Err(EvalError::new(format!("cannot store {v:?} into {e:?}"))),
    })
}

/// A unary operator on a public value; an overflow is an error.
pub fn unop(op: UnOp, v: Value) -> Result<Value, EvalError> {
    match (op, v) {
        (UnOp::Not, v) => Ok(Value::Bool(!v.as_bool()?)),
        (UnOp::Neg, Value::Int(x)) => x
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| EvalError::new(format!("integer overflow in -{x}"))),
        (UnOp::Neg, Value::Fix(x)) => Ok(Value::Fix(-x)),
        (UnOp::Neg, other) => Err(EvalError::new(format!("cannot negate {other:?}"))),
    }
}

/// A binary operator on public values. Arithmetic and comparisons are
/// fixed point if either operand is, integer otherwise (booleans count
/// as 0/1); every overflow and division by zero is an error.
pub fn binop(op: BinOp, l: Value, r: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    let fixy = matches!(l, Value::Fix(_)) || matches!(r, Value::Fix(_));
    match op {
        And => Ok(Value::Bool(l.as_bool()? && r.as_bool()?)),
        Or => Ok(Value::Bool(l.as_bool()? || r.as_bool()?)),
        Lt | Le | Gt | Ge | Eq | Ne => {
            let ord = if fixy {
                l.as_fix()?.cmp(&r.as_fix()?)
            } else {
                l.as_int()?.cmp(&r.as_int()?)
            };
            Ok(Value::Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                Eq => ord.is_eq(),
                _ => ord.is_ne(),
            }))
        }
        Add | Sub | Mul | Div if fixy => {
            let (a, b) = (l.as_fix()?, r.as_fix()?);
            Ok(Value::Fix(match op {
                Add => a.checked_add(b),
                Sub => a.checked_sub(b),
                Mul => a.checked_mul(b),
                _ => a.checked_div(b),
            }?))
        }
        Add | Sub | Mul | Div => {
            let (a, b) = (l.as_int()?, r.as_int()?);
            if op == Div && b == 0 {
                return Err(EvalError::new("division by zero"));
            }
            match op {
                Add => a.checked_add(b),
                Sub => a.checked_sub(b),
                Mul => a.checked_mul(b),
                _ => a.checked_div(b),
            }
            .map(Value::Int)
            .ok_or_else(|| EvalError::new(format!("integer overflow in {a} {op:?} {b}")))
        }
    }
}

/// `args` as exactly `N` values.
fn arity<const N: usize>(b: Builtin, args: Vec<Value>) -> Result<[Value; N], EvalError> {
    <[Value; N]>::try_from(args)
        .map_err(|a| EvalError::new(format!("{} takes {N} arguments, got {}", b.name(), a.len())))
}

/// A builtin applied to public values: everything but `output` and
/// `sampleUniform`, which act on the interpreter's outputs and database
/// view. Mechanisms and `random` draw from `rng`. A wrong argument
/// count or type, an overflow, an empty array or clipping range, and a
/// mechanism's refusal are errors.
pub fn builtin(b: Builtin, args: Vec<Value>, rng: &mut StdRng) -> Result<Value, EvalError> {
    match b {
        Builtin::Em | Builtin::EmGap | Builtin::EmTopK | Builtin::Laplace => {
            let Some((scores, tail)) = args.split_first() else {
                return Err(EvalError::new(format!("{} needs arguments", b.name())));
            };
            mechanism(b, scores, tail, rng)
        }
        Builtin::Sum => match arity(b, args)? {
            [Value::IntArray(v)] => v
                .iter()
                .try_fold(0i64, |acc, &x| acc.checked_add(x))
                .map(Value::Int)
                .ok_or_else(|| EvalError::new("integer overflow in sum")),
            [Value::FixArray(v)] => Ok(Value::Fix(
                v.iter().try_fold(Fix::ZERO, |acc, &x| acc.checked_add(x))?,
            )),
            [other] => Err(EvalError::new(format!("cannot sum {other:?}"))),
        },
        Builtin::Max | Builtin::ArgMax => {
            let [x] = arity(b, args)?;
            // The last maximum, as `Iterator::max` picks it.
            let i = match &x {
                Value::IntArray(v) => (0..v.len()).max_by_key(|&i| v[i]),
                Value::FixArray(v) => (0..v.len()).max_by_key(|&i| v[i]),
                other => {
                    let msg = format!("cannot take {} of {other:?}", b.name());
                    return Err(EvalError::new(msg));
                }
            }
            .ok_or_else(|| EvalError::new(format!("{} of empty array", b.name())))?;
            if b == Builtin::Max {
                index(&x, i)
            } else {
                Ok(Value::Int(i as i64))
            }
        }
        Builtin::Len => {
            let [x] = arity(b, args)?;
            Ok(Value::Int(len(&x)? as i64))
        }
        Builtin::Clip => {
            let [x, lo, hi] = arity(b, args)?;
            let (lo, hi) = (lo.as_int()?, hi.as_int()?);
            if lo > hi {
                return Err(EvalError::new(format!(
                    "cannot clip to the empty range {lo}..{hi}"
                )));
            }
            let (flo, fhi) = (Fix::from_int(lo), Fix::from_int(hi));
            match x {
                Value::Int(v) => Ok(Value::Int(v.clamp(lo, hi))),
                Value::IntArray(v) => Ok(Value::IntArray(
                    v.into_iter().map(|x| x.clamp(lo, hi)).collect(),
                )),
                Value::Fix(v) => Ok(Value::Fix(v.clamp(flo?, fhi?))),
                Value::FixArray(v) => {
                    let (lo, hi) = (flo?, fhi?);
                    Ok(Value::FixArray(
                        v.into_iter().map(|x| x.clamp(lo, hi)).collect(),
                    ))
                }
                other => Err(EvalError::new(format!("cannot clip {other:?}"))),
            }
        }
        Builtin::Exp => {
            let [x] = arity(b, args)?;
            Ok(Value::Fix(x.as_fix()?.exp()?))
        }
        Builtin::Log => {
            let [x] = arity(b, args)?;
            Ok(Value::Fix(x.as_fix()?.ln()?))
        }
        Builtin::Random => {
            let [bound] = arity(b, args)?;
            let bound = bound.as_int()?;
            if bound <= 0 {
                return Err(EvalError::new("random bound must be positive"));
            }
            Ok(Value::Int(rng.gen_range(0..bound)))
        }
        Builtin::Declassify => {
            let [x] = arity(b, args)?;
            Ok(x)
        }
        Builtin::Output | Builtin::SampleUniform => Err(EvalError::new(format!(
            "{} acts on the interpreter's state, not on values",
            b.name()
        ))),
    }
}

/// A mechanism's parameters `(k, sensitivity, ε)` from its arguments
/// after the scores: `em(s, [sens,] eps)`, `emGap(s, [sens,] eps)`,
/// `emTopK(s, k, [sens,] eps)` and `laplace(x, sens, eps)`. Sensitivity
/// defaults to 1 and `k` to 1. A wrong argument count, a non-positive
/// `k`, sensitivity or ε, and a noise scale outside fixed point — Laplace
/// noise's `sens/ε`, or the exponential mechanisms' Gumbel `2·sens/ε` —
/// are errors.
pub fn mech_params(b: Builtin, tail: &[Value]) -> Result<(usize, f64, f64), EvalError> {
    let (k, sens, eps) = match (b, tail) {
        (Builtin::Em | Builtin::EmGap, [eps]) => (None, None, eps),
        (Builtin::Em | Builtin::EmGap, [sens, eps]) => (None, Some(sens), eps),
        (Builtin::EmTopK, [k, eps]) => (Some(k), None, eps),
        (Builtin::EmTopK, [k, sens, eps]) => (Some(k), Some(sens), eps),
        (Builtin::Laplace, [sens, eps]) => (None, Some(sens), eps),
        _ => return Err(EvalError::new(format!("bad mechanism arity for {b:?}"))),
    };
    let k = k.map_or(Ok(1), |k| {
        let k = k.as_int()?;
        usize::try_from(k)
            .ok()
            .filter(|&k| k > 0)
            .ok_or_else(|| EvalError::new(format!("top-k needs a positive k, got {k}")))
    })?;
    let sens = sens.map_or(Ok(1.0), |s| s.as_fix().map(Fix::to_f64))?;
    let eps = eps.as_fix()?.to_f64();
    if eps <= 0.0 || sens <= 0.0 {
        return Err(EvalError::new("mechanism parameters must be positive"));
    }
    let scale = if b == Builtin::Laplace { 1.0 } else { 2.0 } * sens / eps;
    Fix::from_f64(scale)?;
    Ok((k, sens, eps))
}

/// A mechanism in the clear over public scores. A Laplace release and
/// `emGap`'s gap are snapped onto the integer grid, so what follows the
/// mechanism cannot read the noise's fractional bits.
fn mechanism(
    b: Builtin,
    scores: &Value,
    tail: &[Value],
    rng: &mut StdRng,
) -> Result<Value, EvalError> {
    let (k, sens, eps) = mech_params(b, tail)?;
    if b == Builtin::Laplace {
        let scale = Fix::from_f64(sens / eps)?;
        let mut noisy = |x: Fix| snap(x.checked_add(laplace_fix(rng, scale)).unwrap_or(Fix::MAX));
        return Ok(match scores {
            Value::IntArray(v) => Value::FixArray(
                v.iter()
                    .map(|&x| noisy(Fix::from_int(x).unwrap_or(Fix::MAX)))
                    .collect(),
            ),
            other => Value::Fix(noisy(other.as_fix()?)),
        });
    }
    let Value::IntArray(scores) = scores else {
        return Err(EvalError::new(format!(
            "expected int array, got {scores:?}"
        )));
    };
    Ok(match b {
        Builtin::Em => Value::Int(em_gumbel(scores, sens, eps, rng)? as i64),
        Builtin::EmGap => {
            let (i, gap) = em_with_gap(scores, sens, eps, rng)?;
            Value::FixArray(vec![Fix::from_int(i as i64)?, snap(gap)])
        }
        // `mech_params` admitted only the four mechanisms.
        _ => Value::IntArray(
            top_k_oneshot(scores, k, sens, eps, rng)?
                .into_iter()
                .map(|i| i as i64)
                .collect(),
        ),
    })
}

/// The interpreter.
pub struct Interp<'a> {
    db: &'a [Vec<i64>],
    /// Active database view (indices into `db`) after sampling.
    view: Vec<usize>,
    /// Variables bound to (sampled) views of the database.
    db_views: Vec<String>,
    env: HashMap<String, Value>,
    rng: StdRng,
    /// Collected outputs.
    pub outputs: Vec<Value>,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter over a concrete database.
    pub fn new(db: &'a [Vec<i64>], seed: u64) -> Self {
        Self {
            db,
            view: (0..db.len()).collect(),
            db_views: vec!["db".to_string()],
            env: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            outputs: Vec::new(),
        }
    }

    /// Runs a program to completion, returning the outputs.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] on runtime failures (bad indices, type
    /// mismatches the static checker did not see, mechanism errors).
    pub fn run(&mut self, program: &Program) -> Result<Vec<Value>, EvalError> {
        self.block(&program.stmts)?;
        Ok(self.outputs.clone())
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), EvalError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), EvalError> {
        match stmt {
            Stmt::Assign(name, e) => {
                if matches!(e, Expr::Call(Builtin::SampleUniform, _)) {
                    self.db_views.push(name.clone());
                }
                let v = self.expr(e)?;
                self.env.insert(name.clone(), v);
                Ok(())
            }
            Stmt::IndexAssign(name, idx, value) => {
                let i = slot_index(&self.expr(idx)?)?;
                let v = self.expr(value)?;
                let arr = store(self.env.remove(name), i, v)?;
                self.env.insert(name.clone(), arr);
                Ok(())
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let a = self.expr(from)?.as_int()?;
                let b = self.expr(to)?.as_int()?;
                for i in a..=b {
                    self.env.insert(var.clone(), Value::Int(i));
                    self.block(body)?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.expr(cond)?.as_bool()? {
                    self.block(then_branch)
                } else {
                    self.block(else_branch)
                }
            }
            Stmt::Expr(e) => self.expr(e).map(|_| ()),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Value, EvalError> {
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Fix(v) => Ok(Value::Fix(Fix::from_f64(*v)?)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Var(name) => {
                if name == "db" {
                    return Err(EvalError::new(
                        "db can only be used via sum(db), db[i], or sampleUniform",
                    ));
                }
                self.env
                    .get(name)
                    .cloned()
                    .ok_or_else(|| EvalError::new(format!("unknown variable {name}")))
            }
            Expr::Index(base, idx) => {
                let i = self.expr(idx)?;
                // db[i] and db[i][j] read a row of the database view.
                if let Expr::Var(name) = base.as_ref() {
                    if self.db_views.contains(name) {
                        let i = i.as_int()?;
                        return usize::try_from(i)
                            .ok()
                            .and_then(|i| self.view.get(i))
                            .map(|&ri| Value::IntArray(self.db[ri].clone()))
                            .ok_or_else(|| EvalError::new(format!("db row {i} out of range")));
                    }
                }
                index(&self.expr(base)?, slot_index(&i)?)
            }
            Expr::Un(op, inner) => unop(*op, self.expr(inner)?),
            Expr::Bin(op, l, r) => {
                let lv = self.expr(l)?;
                let rv = self.expr(r)?;
                binop(*op, lv, rv)
            }
            Expr::Call(b, args) => self.call(*b, args),
        }
    }

    fn column_sums(&self) -> Result<Vec<i64>, EvalError> {
        let width = self.db.first().map(Vec::len).unwrap_or(0);
        let mut sums = vec![0i64; width];
        for &ri in &self.view {
            for (s, &v) in sums.iter_mut().zip(&self.db[ri]) {
                *s = s
                    .checked_add(v)
                    .ok_or_else(|| EvalError::new("integer overflow in sum(db)"))?;
            }
        }
        Ok(sums)
    }

    /// The builtins that read the database view or write outputs; every
    /// other call is [`builtin`] on the evaluated arguments.
    fn call(&mut self, b: Builtin, args: &[Expr]) -> Result<Value, EvalError> {
        match (b, args) {
            (Builtin::Sum, [Expr::Var(name)]) if self.db_views.contains(name) => {
                Ok(Value::IntArray(self.column_sums()?))
            }
            (Builtin::Sum, [sample @ Expr::Call(Builtin::SampleUniform, _)]) => {
                self.expr(sample)?;
                Ok(Value::IntArray(self.column_sums()?))
            }
            (Builtin::SampleUniform, [rate]) => {
                let phi = self.expr(rate)?.as_fix()?.to_f64();
                if !(0.0..=1.0).contains(&phi) {
                    return Err(EvalError::new(format!("sampling rate {phi} out of range")));
                }
                self.view = (0..self.db.len())
                    .filter(|_| self.rng.gen::<f64>() < phi)
                    .collect();
                // Represent the sampled view; sum(sampleUniform(..)) reads
                // the updated view.
                Ok(Value::Int(self.view.len() as i64))
            }
            (Builtin::Output, _) => {
                for a in args {
                    let v = self.expr(a)?;
                    self.outputs.push(v);
                }
                Ok(Value::Bool(true))
            }
            _ => {
                let args = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<_, _>>()?;
                builtin(b, args, &mut self.rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// A database where category `c` has `counts[c]` one-hot rows.
    fn one_hot_db(counts: &[usize]) -> Vec<Vec<i64>> {
        let k = counts.len();
        let mut db = Vec::new();
        for (c, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                let mut row = vec![0i64; k];
                row[c] = 1;
                db.push(row);
            }
        }
        db
    }

    fn run(src: &str, db: &[Vec<i64>], seed: u64) -> Vec<Value> {
        let p = parse(src).unwrap();
        Interp::new(db, seed).run(&p).unwrap()
    }

    #[test]
    fn top1_finds_dominant_category() {
        let db = one_hot_db(&[5, 100, 3]);
        let out = run("aggr = sum(db); r = em(aggr, 5.0); output(r);", &db, 1);
        assert_eq!(out, vec![Value::Int(1)]);
    }

    #[test]
    fn sum_and_arithmetic() {
        let db = one_hot_db(&[2, 3]);
        let out = run("a = sum(db); output(a[0] + a[1] * 10);", &db, 1);
        assert_eq!(out, vec![Value::Int(32)]);
    }

    #[test]
    fn loops_and_arrays() {
        let out = run(
            "for i = 0 to 4 do sq[i] = i * i; endfor output(sum(sq));",
            &one_hot_db(&[1]),
            1,
        );
        assert_eq!(out, vec![Value::Int(30)]);
    }

    #[test]
    fn conditionals() {
        let out = run(
            "x = 7; if x > 5 then y = 1; else y = 2; endif output(y);",
            &one_hot_db(&[1]),
            1,
        );
        assert_eq!(out, vec![Value::Int(1)]);
    }

    #[test]
    fn figure4_gumbel_instantiation_runs() {
        // The right-hand instantiation of Figure 4, written out in the
        // language itself (with the noise pre-added via laplace as a
        // stand-in for the committee's Gumbel noise).
        let db = one_hot_db(&[3, 50, 1, 2]);
        let out = run(
            "s = sum(db);\n\
             x = 0;\n\
             for i = 1 to len(s) - 1 do\n\
               if s[i] > s[x] then x = i; endif\n\
             endfor\n\
             output(declassify(x));",
            &db,
            2,
        );
        assert_eq!(out, vec![Value::Int(1)]);
    }

    #[test]
    fn laplace_is_centered() {
        let db = one_hot_db(&[100]);
        let mut total = 0.0;
        for seed in 0..200 {
            let out = run("a = sum(db); output(laplace(a[0], 1, 1.0));", &db, seed);
            match &out[0] {
                Value::Fix(f) => total += f.to_f64(),
                other => panic!("expected fix, got {other:?}"),
            }
        }
        let mean = total / 200.0;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn sampling_shrinks_view() {
        let db = one_hot_db(&[10_000]);
        let out = run("s = sampleUniform(0.1); a = sum(db); output(a[0]);", &db, 3);
        match out[0] {
            Value::Int(v) => {
                assert!(v > 800 && v < 1200, "sampled count {v} far from 1000")
            }
            ref other => panic!("expected int, got {other:?}"),
        }
    }

    #[test]
    fn topk_returns_top_categories() {
        let db = one_hot_db(&[100, 5, 90, 2, 80]);
        let out = run("a = sum(db); t = emTopK(a, 3, 10.0); output(t);", &db, 4);
        match &out[0] {
            Value::IntArray(v) => {
                assert_eq!(v.len(), 3);
                for want in [0, 2, 4] {
                    assert!(v.contains(&want), "{v:?} missing {want}");
                }
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn runtime_errors_surface() {
        let db = one_hot_db(&[1]);
        let p = parse("x = 1 / 0;").unwrap();
        assert!(Interp::new(&db, 0).run(&p).is_err());
        let p = parse("x = a[5];").unwrap();
        assert!(Interp::new(&db, 0).run(&p).is_err());
        let p = parse("a = sum(db); x = a[99];").unwrap();
        assert!(Interp::new(&db, 0).run(&p).is_err());
        // Hostile literals: an error, not a 32 TB `resize` or a panic.
        for src in [
            "x[4000000000000] = 1;",
            "x[0 - 1] = 1;",
            "x = (0 - 9223372036854775807 - 1) / (0 - 1);",
        ] {
            assert!(
                Interp::new(&db, 0).run(&parse(src).unwrap()).is_err(),
                "{src}"
            );
        }
    }

    #[test]
    fn gap_mechanism_in_interpreter() {
        let db = one_hot_db(&[90, 30, 5]);
        let out = run(
            "a = sum(db); g = emGap(a, 8.0); output(g[0]); output(g[1]);",
            &db,
            6,
        );
        assert_eq!(out[0], Value::Fix(Fix::from_int(0).unwrap()));
        match out[1] {
            Value::Fix(gap) => assert!((gap.to_f64() - 60.0).abs() < 10.0, "{gap}"),
            ref other => panic!("expected fix, got {other:?}"),
        }
    }

    #[test]
    fn laplace_and_gap_releases_sit_on_the_integer_grid() {
        // Post-processing that scales a release by 2^16 would expose the
        // noise's fractional bits; snapped releases are whole numbers.
        let db = one_hot_db(&[20, 9]);
        for seed in 0..16 {
            let out = run(
                "a = sum(db); r = laplace(a, 1, 0.1); g = emGap(a, 1.0); \
                 output(r[0] * 65536.0); output(g[1] * 65536.0);",
                &db,
                seed,
            );
            for v in out {
                let Value::Fix(x) = v else {
                    panic!("expected fix, got {v:?}")
                };
                assert_eq!(x.raw() % (1 << 32), 0, "seed {seed}: {x}");
            }
        }
    }

    #[test]
    fn max_and_argmax_builtins() {
        let db = one_hot_db(&[3, 12, 7]);
        let out = run("a = sum(db); output(max(a)); output(argmax(a));", &db, 1);
        assert_eq!(out, vec![Value::Int(12), Value::Int(1)]);
    }

    #[test]
    fn exp_log_builtins() {
        let db = one_hot_db(&[1]);
        let out = run("x = exp(1.0); y = log(x); output(y);", &db, 1);
        match out[0] {
            Value::Fix(v) => assert!((v.to_f64() - 1.0).abs() < 0.01, "{v}"),
            ref other => panic!("expected fix, got {other:?}"),
        }
    }

    #[test]
    fn clip_and_len_builtins() {
        let db = one_hot_db(&[50, 2]);
        let out = run(
            "a = sum(db); c = clip(a, 0, 10); output(c); output(len(a));",
            &db,
            1,
        );
        assert_eq!(out[0], Value::IntArray(vec![10, 2]));
        assert_eq!(out[1], Value::Int(2));
    }

    #[test]
    fn deterministic_given_seed() {
        let db = one_hot_db(&[10, 12, 9]);
        let src = "a = sum(db); r = em(a, 0.5); output(r);";
        assert_eq!(run(src, &db, 7), run(src, &db, 7));
    }
}
