//! Reference interpreter for the query language.
//!
//! Executes a query on a concrete database exactly as if the data were in
//! one place (the semantics the analyst writes against, §4.1). The
//! planner's distributed plans are validated against this interpreter:
//! a transformed plan must compute the same distribution over outputs.

use std::collections::HashMap;

use arboretum_dp::mechanisms::{em_gumbel, em_with_gap, top_k_oneshot};
use arboretum_dp::noise::laplace_fix;
use arboretum_field::fixed::Fix;
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
    /// Extracts an integer, coercing booleans.
    fn as_int(&self) -> Result<i64, EvalError> {
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
            Self::Int(v) => Fix::from_int(*v).map_err(|e| EvalError::new(e.to_string())),
            other => Err(EvalError::new(format!("expected fix, got {other:?}"))),
        }
    }

    fn as_bool(&self) -> Result<bool, EvalError> {
        match self {
            Self::Bool(b) => Ok(*b),
            other => Err(EvalError::new(format!("expected bool, got {other:?}"))),
        }
    }

    fn as_int_array(&self) -> Result<&[i64], EvalError> {
        match self {
            Self::IntArray(v) => Ok(v),
            other => Err(EvalError::new(format!("expected int array, got {other:?}"))),
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
                let i = self.expr(idx)?.as_int()?;
                let i = usize::try_from(i)
                    .ok()
                    .filter(|&i| i < MAX_ARRAY_LEN)
                    .ok_or_else(|| {
                        EvalError::new(format!("index {i} into {name} outside 0..{MAX_ARRAY_LEN}"))
                    })?;
                let v = self.expr(value)?;
                let entry = self.env.entry(name.clone()).or_insert_with(|| match v {
                    Value::Fix(_) => Value::FixArray(Vec::new()),
                    _ => Value::IntArray(Vec::new()),
                });
                match (entry, v) {
                    (Value::IntArray(arr), v @ (Value::Int(_) | Value::Bool(_))) => {
                        if arr.len() <= i {
                            arr.resize(i + 1, 0);
                        }
                        arr[i] = v.as_int()?;
                        Ok(())
                    }
                    (Value::FixArray(arr), v) => {
                        if arr.len() <= i {
                            arr.resize(i + 1, Fix::ZERO);
                        }
                        arr[i] = v.as_fix()?;
                        Ok(())
                    }
                    (Value::IntArray(arr), Value::Fix(f)) => {
                        // Promote the array to fixed point.
                        let mut fa: Vec<Fix> = arr
                            .iter()
                            .map(|&x| Fix::from_int(x).unwrap_or(Fix::MAX))
                            .collect();
                        if fa.len() <= i {
                            fa.resize(i + 1, Fix::ZERO);
                        }
                        fa[i] = f;
                        self.env.insert(name.clone(), Value::FixArray(fa));
                        Ok(())
                    }
                    (e, v) => Err(EvalError::new(format!("cannot store {v:?} into {e:?}"))),
                }
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
            Expr::Fix(v) => Fix::from_f64(*v)
                .map(Value::Fix)
                .map_err(|e| EvalError::new(e.to_string())),
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
                let i = self.expr(idx)?.as_int()?;
                if i < 0 {
                    return Err(EvalError::new(format!("negative index {i}")));
                }
                let i = i as usize;
                // db[i] and db[i][j] need special handling.
                if let Expr::Var(name) = base.as_ref() {
                    if self.db_views.contains(name) {
                        let row = self
                            .view
                            .get(i)
                            .map(|&ri| self.db[ri].clone())
                            .ok_or_else(|| EvalError::new(format!("db row {i} out of range")))?;
                        return Ok(Value::IntArray(row));
                    }
                }
                match self.expr(base)? {
                    Value::IntArray(arr) => arr
                        .get(i)
                        .copied()
                        .map(Value::Int)
                        .ok_or_else(|| EvalError::new(format!("index {i} out of bounds"))),
                    Value::FixArray(arr) => arr
                        .get(i)
                        .copied()
                        .map(Value::Fix)
                        .ok_or_else(|| EvalError::new(format!("index {i} out of bounds"))),
                    other => Err(EvalError::new(format!("cannot index {other:?}"))),
                }
            }
            Expr::Un(UnOp::Not, inner) => Ok(Value::Bool(!self.expr(inner)?.as_bool()?)),
            Expr::Un(UnOp::Neg, inner) => match self.expr(inner)? {
                Value::Int(v) => Ok(Value::Int(-v)),
                Value::Fix(v) => Ok(Value::Fix(-v)),
                other => Err(EvalError::new(format!("cannot negate {other:?}"))),
            },
            Expr::Bin(op, l, r) => {
                let lv = self.expr(l)?;
                let rv = self.expr(r)?;
                self.binop(*op, lv, rv)
            }
            Expr::Call(builtin, args) => self.call(*builtin, args),
        }
    }

    fn binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, EvalError> {
        use BinOp::*;
        match op {
            And => Ok(Value::Bool(l.as_bool()? && r.as_bool()?)),
            Or => Ok(Value::Bool(l.as_bool()? || r.as_bool()?)),
            _ => {
                let fixy = matches!(l, Value::Fix(_)) || matches!(r, Value::Fix(_));
                if fixy {
                    let (a, b) = (l.as_fix()?, r.as_fix()?);
                    Ok(match op {
                        Add => Value::Fix(a + b),
                        Sub => Value::Fix(a - b),
                        Mul => Value::Fix(a * b),
                        Div => Value::Fix(
                            a.checked_div(b)
                                .map_err(|e| EvalError::new(e.to_string()))?,
                        ),
                        Lt => Value::Bool(a < b),
                        Le => Value::Bool(a <= b),
                        Gt => Value::Bool(a > b),
                        Ge => Value::Bool(a >= b),
                        Eq => Value::Bool(a == b),
                        Ne => Value::Bool(a != b),
                        And | Or => unreachable!(),
                    })
                } else {
                    let (a, b) = (l.as_int()?, r.as_int()?);
                    Ok(match op {
                        Add => Value::Int(
                            a.checked_add(b)
                                .ok_or_else(|| EvalError::new("integer overflow in +"))?,
                        ),
                        Sub => Value::Int(
                            a.checked_sub(b)
                                .ok_or_else(|| EvalError::new("integer overflow in -"))?,
                        ),
                        Mul => Value::Int(
                            a.checked_mul(b)
                                .ok_or_else(|| EvalError::new("integer overflow in *"))?,
                        ),
                        Div => {
                            if b == 0 {
                                return Err(EvalError::new("division by zero"));
                            }
                            Value::Int(
                                a.checked_div(b)
                                    .ok_or_else(|| EvalError::new("integer overflow in /"))?,
                            )
                        }
                        Lt => Value::Bool(a < b),
                        Le => Value::Bool(a <= b),
                        Gt => Value::Bool(a > b),
                        Ge => Value::Bool(a >= b),
                        Eq => Value::Bool(a == b),
                        Ne => Value::Bool(a != b),
                        And | Or => unreachable!(),
                    })
                }
            }
        }
    }

    fn column_sums(&self) -> Vec<i64> {
        let width = self.db.first().map(Vec::len).unwrap_or(0);
        let mut sums = vec![0i64; width];
        for &ri in &self.view {
            for (s, &v) in sums.iter_mut().zip(&self.db[ri]) {
                *s += v;
            }
        }
        sums
    }

    fn mechanism_args(args: &[Expr], with_k: bool) -> (Option<usize>, usize, usize) {
        // Returns (k, sens_idx_opt encoded via usize::MAX, eps_idx).
        // Layout: em(scores, eps) | em(scores, sens, eps)
        //         emTopK(scores, k, eps) | emTopK(scores, k, sens, eps)
        if with_k {
            if args.len() == 3 {
                (Some(1), usize::MAX, 2)
            } else {
                (Some(1), 2, 3)
            }
        } else if args.len() == 2 {
            (None, usize::MAX, 1)
        } else {
            (None, 1, 2)
        }
    }

    fn call(&mut self, builtin: Builtin, args: &[Expr]) -> Result<Value, EvalError> {
        match builtin {
            Builtin::Sum => {
                if let Expr::Var(name) = &args[0] {
                    if self.db_views.contains(name) {
                        return Ok(Value::IntArray(self.column_sums()));
                    }
                }
                if let Expr::Call(Builtin::SampleUniform, _) = &args[0] {
                    self.expr(&args[0])?;
                    return Ok(Value::IntArray(self.column_sums()));
                }
                match self.expr(&args[0])? {
                    Value::IntArray(v) => Ok(Value::Int(v.iter().sum())),
                    Value::FixArray(v) => {
                        let mut acc = Fix::ZERO;
                        for x in v {
                            acc = acc
                                .checked_add(x)
                                .map_err(|e| EvalError::new(e.to_string()))?;
                        }
                        Ok(Value::Fix(acc))
                    }
                    other => Err(EvalError::new(format!("cannot sum {other:?}"))),
                }
            }
            Builtin::Max => match self.expr(&args[0])? {
                Value::IntArray(v) => v
                    .iter()
                    .max()
                    .copied()
                    .map(Value::Int)
                    .ok_or_else(|| EvalError::new("max of empty array")),
                Value::FixArray(v) => v
                    .iter()
                    .max()
                    .copied()
                    .map(Value::Fix)
                    .ok_or_else(|| EvalError::new("max of empty array")),
                other => Err(EvalError::new(format!("cannot take max of {other:?}"))),
            },
            Builtin::ArgMax => match self.expr(&args[0])? {
                Value::IntArray(v) => v
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, v)| *v)
                    .map(|(i, _)| Value::Int(i as i64))
                    .ok_or_else(|| EvalError::new("argmax of empty array")),
                Value::FixArray(v) => v
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.cmp(b.1))
                    .map(|(i, _)| Value::Int(i as i64))
                    .ok_or_else(|| EvalError::new("argmax of empty array")),
                other => Err(EvalError::new(format!("cannot take argmax of {other:?}"))),
            },
            Builtin::Em | Builtin::EmGap | Builtin::EmTopK => {
                let (k_idx, sens_idx, eps_idx) =
                    Self::mechanism_args(args, builtin == Builtin::EmTopK);
                let scores = self.expr(&args[0])?.as_int_array()?.to_vec();
                let sens = if sens_idx == usize::MAX {
                    1.0
                } else {
                    self.expr(&args[sens_idx])?.as_fix()?.to_f64()
                };
                let eps = self.expr(&args[eps_idx])?.as_fix()?.to_f64();
                match builtin {
                    Builtin::Em => em_gumbel(&scores, sens, eps, &mut self.rng)
                        .map(|i| Value::Int(i as i64))
                        .map_err(|e| EvalError::new(e.to_string())),
                    Builtin::EmGap => em_with_gap(&scores, sens, eps, &mut self.rng)
                        .map(|(i, gap)| {
                            Value::FixArray(vec![Fix::from_int(i as i64).unwrap_or(Fix::MAX), gap])
                        })
                        .map_err(|e| EvalError::new(e.to_string())),
                    Builtin::EmTopK => {
                        let k = self.expr(&args[k_idx.expect("topk has k")])?.as_int()?;
                        top_k_oneshot(&scores, k as usize, sens, eps, &mut self.rng)
                            .map(|v| Value::IntArray(v.into_iter().map(|i| i as i64).collect()))
                            .map_err(|e| EvalError::new(e.to_string()))
                    }
                    _ => unreachable!(),
                }
            }
            Builtin::Laplace => {
                let sens = self.expr(&args[1])?.as_fix()?.to_f64();
                let eps = self.expr(&args[2])?.as_fix()?.to_f64();
                let scale = Fix::from_f64(sens / eps).map_err(|e| EvalError::new(e.to_string()))?;
                match self.expr(&args[0])? {
                    Value::IntArray(v) => Ok(Value::FixArray(
                        v.iter()
                            .map(|&x| {
                                Fix::from_int(x)
                                    .unwrap_or(Fix::MAX)
                                    .checked_add(laplace_fix(&mut self.rng, scale))
                                    .unwrap_or(Fix::MAX)
                            })
                            .collect(),
                    )),
                    other => {
                        let x = other.as_fix()?;
                        Ok(Value::Fix(
                            x.checked_add(laplace_fix(&mut self.rng, scale))
                                .unwrap_or(Fix::MAX),
                        ))
                    }
                }
            }
            Builtin::Exp => {
                let x = self.expr(&args[0])?.as_fix()?;
                x.exp()
                    .map(Value::Fix)
                    .map_err(|e| EvalError::new(e.to_string()))
            }
            Builtin::Log => {
                let x = self.expr(&args[0])?.as_fix()?;
                x.ln()
                    .map(Value::Fix)
                    .map_err(|e| EvalError::new(e.to_string()))
            }
            Builtin::Clip => {
                let lo = self.expr(&args[1])?.as_int()?;
                let hi = self.expr(&args[2])?.as_int()?;
                match self.expr(&args[0])? {
                    Value::Int(v) => Ok(Value::Int(v.clamp(lo, hi))),
                    Value::IntArray(v) => Ok(Value::IntArray(
                        v.into_iter().map(|x| x.clamp(lo, hi)).collect(),
                    )),
                    Value::Fix(v) => {
                        let flo = Fix::from_int(lo).map_err(|e| EvalError::new(e.to_string()))?;
                        let fhi = Fix::from_int(hi).map_err(|e| EvalError::new(e.to_string()))?;
                        Ok(Value::Fix(v.max(flo).min(fhi)))
                    }
                    other => Err(EvalError::new(format!("cannot clip {other:?}"))),
                }
            }
            Builtin::SampleUniform => {
                let phi = self.expr(&args[0])?.as_fix()?.to_f64();
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
            Builtin::Declassify => self.expr(&args[0]),
            Builtin::Output => {
                for a in args {
                    let v = self.expr(a)?;
                    self.outputs.push(v);
                }
                Ok(Value::Bool(true))
            }
            Builtin::Len => match self.expr(&args[0])? {
                Value::IntArray(v) => Ok(Value::Int(v.len() as i64)),
                Value::FixArray(v) => Ok(Value::Int(v.len() as i64)),
                other => Err(EvalError::new(format!("len of {other:?}"))),
            },
            Builtin::Random => {
                let bound = self.expr(&args[0])?.as_int()?;
                if bound <= 0 {
                    return Err(EvalError::new("random bound must be positive"));
                }
                Ok(Value::Int(self.rng.gen_range(0..bound)))
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
