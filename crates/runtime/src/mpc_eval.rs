//! The generalized MPC query evaluator (§5.4).
//!
//! Executes arbitrary query-language statements over *secret-shared*
//! values: the aggregated counts enter as shares, arithmetic and
//! comparisons run as MPC protocols (Beaver multiplication, borrow-chain
//! comparison, oblivious selection for branches on secret conditions,
//! probabilistic shifting for division by powers of two), and the DP
//! mechanisms execute as committee vignettes (noise injection with
//! metered functionality costs, secure argmax tournaments). Released
//! mechanism results become public and subsequent statements run in the
//! clear — so every query in the corpus, including `median`'s prefix
//! sums and `auction`'s revenue scores, executes concretely end to end.
//!
//! Conventions: shared values are sign-embedded integers; mechanisms
//! lift them to Q30.16 fixed point internally. Loops and array indices
//! must be public (the planner's vignette model guarantees this for
//! certified queries).
//!
//! **Committees pay per opening, so secret operations are batched, not
//! run where the program mentions them** (§3.3, §4.6). A comparison or a
//! secret × secret multiplication becomes a node of the pending buffer
//! and its result a [`Sec`] naming that node; linear arithmetic on a
//! `Sec` is local and stays deferred with it. The buffer is flushed only
//! where a concrete sharing or a public value is demanded — `declassify`,
//! every mechanism, `max`/`argmax`, the shift behind `/`, and the end of
//! [`MpcEvaluator::block`] — and a flush runs it in dependency layers,
//! one `less_than_batch` plus one `mul_batch` per layer in node order. A
//! loop of `C` independent comparisons therefore costs the openings of
//! one; only triples and bytes grow with `C`.
//!
//! **A secret `if` merges exactly what its branches wrote.** Both
//! branches run, each on its own copy of the environment, and every
//! assignment target is logged in program order: `(name, None)` for a
//! variable, `(name, Some(i))` for an array slot. The log reveals
//! nothing: which variables a branch assigns is program text, and slot
//! indices are public by the convention above. The merge selects
//! `bit ? then : else` per logged target — one deferred multiplication
//! each — and never touches a value neither branch assigned.

use std::collections::{HashMap, HashSet};

use arboretum_dp::mechanisms::em_exponentiate;
use arboretum_dp::noise::{gumbel_fix, laplace_fix};
use arboretum_field::fixed::Fix;
use arboretum_field::FGold;
use arboretum_lang::ast::{BinOp, Builtin, Expr, Stmt, UnOp};
use arboretum_lang::interp::MAX_ARRAY_LEN;
use arboretum_mpc::compare::{argmax_tournament, less_than_batch};
use arboretum_mpc::engine::{MpcEngine, Shared};
use arboretum_mpc::fixp::{
    field_to_fix, inject_with_cost, shift_right, FunctionalityCost, SharedFix,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Comparison width for shared comparisons (covers fix-scaled counts
/// plus noise plus offset).
const CMP_BITS: usize = 40;

/// Offset added before comparisons/argmax so sign-embedded values become
/// positive.
const CMP_OFFSET: u64 = 1 << 38;

/// How the exponential mechanism is instantiated (chosen by the planner).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MechStyle {
    /// Gumbel noise + secure argmax (Figure 4 right / Figure 5).
    Gumbel,
    /// Exponentiate-and-sample (Figure 4 left), evaluated as a metered
    /// ideal functionality.
    ExpSample,
}

/// A secret integer inside the evaluator: a concrete sharing plus public
/// multiples of the results of operations still waiting in the pending
/// buffer (by node index).
#[derive(Clone, Debug)]
pub struct Sec {
    base: Shared,
    terms: Vec<(FGold, usize)>,
}

impl From<Shared> for Sec {
    fn from(base: Shared) -> Self {
        Self {
            base,
            terms: Vec::new(),
        }
    }
}

impl Sec {
    fn scale(mut self, k: FGold) -> Self {
        self.base.shares.iter_mut().for_each(|s| *s *= k);
        self.terms.iter_mut().for_each(|(c, _)| *c *= k);
        self
    }

    fn offset(mut self, c: FGold) -> Self {
        self.base.shares.iter_mut().for_each(|s| *s += c);
        self
    }

    fn plus(mut self, other: &Sec) -> Self {
        for (s, &o) in self.base.shares.iter_mut().zip(&other.base.shares) {
            *s += o;
        }
        self.terms.extend_from_slice(&other.terms);
        self
    }

    fn minus(self, other: &Sec) -> Self {
        self.plus(&other.clone().scale(-FGold::ONE))
    }

    /// `1 − self`, the negation of a shared bit.
    fn not(self) -> Self {
        self.scale(-FGold::ONE).offset(FGold::ONE)
    }
}

/// One entry of the pending-operation buffer; operands may name earlier
/// entries.
#[derive(Debug)]
enum Node {
    /// `x < y`, operands already offset into `[0, 2^CMP_BITS)`.
    Lt(Sec, Sec),
    /// `x · y`.
    Mul(Sec, Sec),
    /// Flushed: the operation's result.
    Done(Shared),
}

/// A value in the evaluator: public or secret-shared.
#[derive(Clone, Debug)]
pub enum MVal {
    /// Public integer.
    PubInt(i64),
    /// Public fixed-point value.
    PubFix(Fix),
    /// Public boolean.
    PubBool(bool),
    /// Public integer array.
    PubIntArr(Vec<i64>),
    /// Public fixed-point array.
    PubFixArr(Vec<Fix>),
    /// Secret-shared integer, as a caller hands it in.
    Shared(Shared),
    /// Secret-shared integer array, as a caller hands it in.
    SharedArr(Vec<Shared>),
    /// Secret integer inside the evaluator ([`MpcEvaluator::new`] lifts
    /// the caller's `Shared` to this).
    Secret(Sec),
    /// Secret integer array inside the evaluator.
    SecretArr(Vec<Sec>),
}

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcEvalError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for MpcEvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MPC evaluation: {}", self.message)
    }
}

impl std::error::Error for MpcEvalError {}

fn fail(e: impl std::fmt::Display) -> MpcEvalError {
    MpcEvalError {
        message: e.to_string(),
    }
}

fn err<T>(msg: impl std::fmt::Display) -> Result<T, MpcEvalError> {
    Err(fail(msg))
}

/// The evaluator state.
pub struct MpcEvaluator<'a> {
    /// The committee MPC engine.
    pub engine: &'a mut MpcEngine,
    /// Simulation randomness (noise sampling inside metered
    /// functionalities).
    pub rng: &'a mut StdRng,
    /// Variable environment (secrets held as `Secret`/`SecretArr`).
    env: HashMap<String, MVal>,
    /// Released outputs (integers; fixed-point outputs are floored).
    pub outputs: Vec<i64>,
    /// Exponential-mechanism instantiation.
    pub mech_style: MechStyle,
    /// Depth of enclosing branches on secret conditions (outputs and
    /// mechanisms are forbidden inside).
    oblivious_depth: usize,
    /// Assignment targets of the innermost enclosing secret `if`, both
    /// branches, in program order.
    written: Vec<(String, Option<usize>)>,
    /// The pending-operation buffer; `nodes[..flushed]` are all `Done`.
    nodes: Vec<Node>,
    flushed: usize,
}

#[allow(clippy::should_implement_trait)]
impl<'a> MpcEvaluator<'a> {
    /// Creates an evaluator with an initial environment.
    pub fn new(
        engine: &'a mut MpcEngine,
        rng: &'a mut StdRng,
        env: HashMap<String, MVal>,
        mech_style: MechStyle,
    ) -> Self {
        let lift = |v| match v {
            MVal::Shared(s) => MVal::Secret(s.into()),
            MVal::SharedArr(a) => MVal::SecretArr(a.into_iter().map(Sec::from).collect()),
            v => v,
        };
        Self {
            engine,
            rng,
            env: env.into_iter().map(|(k, v)| (k, lift(v))).collect(),
            outputs: Vec::new(),
            mech_style,
            oblivious_depth: 0,
            written: Vec::new(),
            nodes: Vec::new(),
            flushed: 0,
        }
    }

    /// Runs a statement block, then every secret operation it left
    /// pending.
    ///
    /// # Errors
    ///
    /// Returns [`MpcEvalError`] on unsupported constructs or protocol
    /// failures.
    pub fn block(&mut self, stmts: &[Stmt]) -> Result<(), MpcEvalError> {
        self.stmts(stmts)?;
        self.flush()
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), MpcEvalError> {
        stmts.iter().try_for_each(|s| self.stmt(s))
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), MpcEvalError> {
        match stmt {
            Stmt::Assign(name, e) => {
                let v = self.expr(e)?;
                self.store(name, None, v)
            }
            Stmt::IndexAssign(name, idx, value) => {
                let i = self.pub_index(idx)?;
                let v = self.expr(value)?;
                self.store(name, Some(i), v)
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let a = self.pub_int(from)?;
                let b = self.pub_int(to)?;
                for i in a..=b {
                    self.store(var, None, MVal::PubInt(i))?;
                    self.stmts(body)?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => match self.expr(cond)? {
                MVal::PubBool(c) => self.stmts(if c { then_branch } else { else_branch }),
                MVal::Secret(bit) => self.oblivious_if(&bit, then_branch, else_branch),
                other => err(format!("if condition must be bool, got {other:?}")),
            },
            Stmt::Expr(e) => self.expr(e).map(|_| ()),
        }
    }

    /// Writes a variable (`at == None`) or an array slot, logging the
    /// target while a secret branch is running.
    fn store(&mut self, name: &str, at: Option<usize>, v: MVal) -> Result<(), MpcEvalError> {
        fn put<T: Clone>(arr: &mut Vec<T>, i: usize, x: T, zero: T) {
            if arr.len() <= i {
                arr.resize(i + 1, zero);
            }
            arr[i] = x;
        }
        if self.oblivious_depth > 0 {
            self.written.push((name.to_string(), at));
        }
        let Some(i) = at else {
            self.env.insert(name.to_string(), v);
            return Ok(());
        };
        let constant = |x: i64| Sec::from(self.engine.constant(FGold::from_i64(x)));
        let entry = self
            .env
            .entry(name.to_string())
            .or_insert_with(|| match &v {
                MVal::Secret(_) => MVal::SecretArr(Vec::new()),
                MVal::PubFix(_) => MVal::PubFixArr(Vec::new()),
                _ => MVal::PubIntArr(Vec::new()),
            });
        // Mixed public/shared array writes promote to shared.
        if let (MVal::PubIntArr(old), MVal::Secret(_)) = (&*entry, &v) {
            *entry = MVal::SecretArr(old.iter().map(|&x| constant(x)).collect());
        }
        match (entry, v) {
            (MVal::SecretArr(arr), MVal::Secret(s)) => put(arr, i, s, constant(0)),
            (MVal::PubIntArr(arr), MVal::PubInt(x)) => put(arr, i, x, 0),
            (MVal::PubFixArr(arr), MVal::PubFix(x)) => put(arr, i, x, Fix::ZERO),
            (e, v) => return err(format!("cannot store {v:?} into {e:?}")),
        }
        Ok(())
    }

    /// Branch on a secret condition: run both branches, each on its own
    /// copy of the environment, and obliviously select exactly the
    /// targets they wrote.
    fn oblivious_if(
        &mut self,
        bit: &Sec,
        then_branch: &[Stmt],
        else_branch: &[Stmt],
    ) -> Result<(), MpcEvalError> {
        let saved = self.env.clone();
        let outer = std::mem::take(&mut self.written);
        self.oblivious_depth += 1;
        self.stmts(then_branch)?;
        let then_env = std::mem::replace(&mut self.env, saved);
        self.stmts(else_branch)?;
        self.oblivious_depth -= 1;
        let targets = std::mem::replace(&mut self.written, outer);
        // `self.env` now holds the else branch's state; overwrite each
        // written target with the selection. `store` logs the target
        // again if an enclosing secret branch is still open.
        let slot = |env: &HashMap<String, MVal>, name: &str, at: Option<usize>| match at {
            None => env.get(name).cloned(),
            Some(i) => env.get(name).and_then(|arr| element(arr, i).ok()),
        };
        let mut seen = HashSet::new();
        for (name, at) in &targets {
            if !seen.insert((name, at)) {
                continue;
            }
            let (Some(t), Some(f)) = (slot(&then_env, name, *at), slot(&self.env, name, *at))
            else {
                return err(format!("variable {name} defined in only one secret branch"));
            };
            let merged = self.select(bit, &t, &f)?;
            self.store(name, *at, merged)?;
        }
        Ok(())
    }

    /// `bit ? t : f` for one written target.
    fn select(&mut self, bit: &Sec, t: &MVal, f: &MVal) -> Result<MVal, MpcEvalError> {
        // Fast path: identical public values need no protocol.
        match (t, f) {
            (MVal::PubInt(a), MVal::PubInt(b)) if a == b => return Ok(MVal::PubInt(*a)),
            (MVal::PubBool(a), MVal::PubBool(b)) if a == b => return Ok(MVal::PubBool(*a)),
            (MVal::PubFix(a), MVal::PubFix(b)) if a == b => return Ok(MVal::PubFix(*a)),
            (MVal::PubIntArr(a), MVal::PubIntArr(b)) if a == b => {
                return Ok(MVal::PubIntArr(a.clone()))
            }
            _ => {}
        }
        match (self.as_sec(t), self.as_sec(f)) {
            (Ok(a), Ok(b)) => Ok(MVal::Secret(self.mux(bit, a, b))),
            (Err(_), Err(_)) => {
                let (a, b) = (self.sec_array(t)?, self.sec_array(f)?);
                if a.len() != b.len() {
                    return err("mismatched branch values in secret if");
                }
                let merged = a.into_iter().zip(b).map(|(x, y)| self.mux(bit, x, y));
                Ok(MVal::SecretArr(merged.collect()))
            }
            _ => err("mismatched branch values in secret if"),
        }
    }

    /// Appends a node to the pending buffer; the result names it.
    fn defer(&mut self, node: Node) -> Sec {
        self.nodes.push(node);
        Sec {
            base: self.engine.zero(),
            terms: vec![(FGold::ONE, self.nodes.len() - 1)],
        }
    }

    /// The shared bit `a < b`, with the offset making sign-embedded
    /// operands positive.
    fn lt(&mut self, a: Sec, b: Sec) -> Sec {
        let off = FGold::new(CMP_OFFSET);
        self.defer(Node::Lt(a.offset(off), b.offset(off)))
    }

    /// `bit ? t : f` as `f + bit · (t − f)`.
    fn mux(&mut self, bit: &Sec, t: Sec, f: Sec) -> Sec {
        self.defer(Node::Mul(bit.clone(), t.minus(&f))).plus(&f)
    }

    /// The concrete sharing of `s`, if every node it names has run.
    fn ready(&self, s: &Sec) -> Option<Shared> {
        let mut out = s.base.clone();
        for &(c, id) in &s.terms {
            let Node::Done(v) = &self.nodes[id] else {
                return None;
            };
            for (o, &y) in out.shares.iter_mut().zip(&v.shares) {
                *o += c * y;
            }
        }
        Some(out)
    }

    /// Runs the pending buffer in dependency layers: every waiting node
    /// whose operands are concrete joins the layer's one comparison
    /// batch or its one multiplication batch, in node order. A node names
    /// only earlier nodes, so the first waiting one is always ready and
    /// every pass makes progress.
    fn flush(&mut self) -> Result<(), MpcEvalError> {
        fn pairs(layer: &[(usize, Shared, Shared)]) -> Vec<(&Shared, &Shared)> {
            layer.iter().map(|(_, x, y)| (x, y)).collect()
        }
        while self.flushed < self.nodes.len() {
            let (mut lts, mut muls) = (Vec::new(), Vec::new());
            for id in self.flushed..self.nodes.len() {
                let (layer, x, y) = match &self.nodes[id] {
                    Node::Lt(x, y) => (&mut lts, x, y),
                    Node::Mul(x, y) => (&mut muls, x, y),
                    Node::Done(_) => continue,
                };
                if let (Some(x), Some(y)) = (self.ready(x), self.ready(y)) {
                    layer.push((id, x, y));
                }
            }
            let bits = less_than_batch(self.engine, &pairs(&lts), CMP_BITS).map_err(fail)?;
            // (An empty comparison batch is free; an empty multiplication
            // batch would still pay its opening.)
            let prods = if muls.is_empty() {
                Vec::new()
            } else {
                self.engine.mul_batch(&pairs(&muls)).map_err(fail)?
            };
            for ((id, ..), out) in lts.iter().chain(&muls).zip(bits.into_iter().chain(prods)) {
                self.nodes[*id] = Node::Done(out);
            }
            while matches!(self.nodes.get(self.flushed), Some(Node::Done(_))) {
                self.flushed += 1;
            }
        }
        Ok(())
    }

    /// The concrete sharing of `s`, flushing the buffer first.
    fn force(&mut self, s: &Sec) -> Result<Shared, MpcEvalError> {
        self.flush()?;
        Ok(self.ready(s).expect("flush ran every node"))
    }

    fn as_sec(&self, v: &MVal) -> Result<Sec, MpcEvalError> {
        match v {
            MVal::Secret(s) => Ok(s.clone()),
            MVal::PubInt(x) => Ok(self.engine.constant(FGold::from_i64(*x)).into()),
            MVal::PubBool(b) => Ok(self.engine.constant(FGold::new(u64::from(*b))).into()),
            other => err(format!("expected scalar, got {other:?}")),
        }
    }

    fn sec_array(&self, v: &MVal) -> Result<Vec<Sec>, MpcEvalError> {
        match v {
            MVal::SecretArr(a) => Ok(a.clone()),
            MVal::PubIntArr(a) => Ok(a
                .iter()
                .map(|&x| self.engine.constant(FGold::from_i64(x)).into())
                .collect()),
            MVal::Secret(s) => Ok(vec![s.clone()]),
            other => err(format!("expected array, got {other:?}")),
        }
    }

    /// The concrete sharings of an array (or one scalar), flushing the
    /// buffer first.
    fn shared_array(&mut self, v: &MVal) -> Result<Vec<Shared>, MpcEvalError> {
        let secs = self.sec_array(v)?;
        self.flush()?;
        Ok(secs
            .iter()
            .map(|s| self.ready(s).expect("flush ran every node"))
            .collect())
    }

    fn pub_int(&mut self, e: &Expr) -> Result<i64, MpcEvalError> {
        match self.expr(e)? {
            MVal::PubInt(v) => Ok(v),
            other => err(format!("expected public int, got {other:?}")),
        }
    }

    /// A public array index: non-negative and below the longest array a
    /// schema row can seed, so a hostile literal is an error, not a
    /// wrapped index or a terabyte `resize`.
    fn pub_index(&mut self, e: &Expr) -> Result<usize, MpcEvalError> {
        let i = self.pub_int(e)?;
        usize::try_from(i)
            .ok()
            .filter(|&i| i < MAX_ARRAY_LEN)
            .ok_or_else(|| fail(format!("index {i} outside 0..{MAX_ARRAY_LEN}")))
    }

    fn expr(&mut self, e: &Expr) -> Result<MVal, MpcEvalError> {
        match e {
            Expr::Int(v) => Ok(MVal::PubInt(*v)),
            Expr::Fix(v) => Fix::from_f64(*v).map(MVal::PubFix).map_err(fail),
            Expr::Bool(b) => Ok(MVal::PubBool(*b)),
            Expr::Var(name) => self.var(name).cloned(),
            Expr::Index(base, idx) => {
                let i = self.pub_index(idx)?;
                match &**base {
                    // Reads one slot without copying the array.
                    Expr::Var(name) => element(self.var(name)?, i),
                    _ => element(&self.expr(base)?, i),
                }
            }
            Expr::Un(UnOp::Neg, inner) => {
                let v = self.expr(inner)?;
                self.bin(BinOp::Sub, MVal::PubInt(0), v)
            }
            Expr::Un(UnOp::Not, inner) => match self.expr(inner)? {
                MVal::PubBool(b) => Ok(MVal::PubBool(!b)),
                MVal::Secret(bit) => Ok(MVal::Secret(bit.not())),
                other => err(format!("cannot negate {other:?}")),
            },
            Expr::Bin(op, l, r) => {
                let lv = self.expr(l)?;
                let rv = self.expr(r)?;
                self.bin(*op, lv, rv)
            }
            Expr::Call(b, args) => self.call(*b, args),
        }
    }

    fn var(&self, name: &str) -> Result<&MVal, MpcEvalError> {
        self.env
            .get(name)
            .ok_or_else(|| fail(format!("unknown variable {name}")))
    }

    fn bin(&mut self, op: BinOp, l: MVal, r: MVal) -> Result<MVal, MpcEvalError> {
        use BinOp::*;
        // Fully public: delegate to clear arithmetic.
        let secret = |v: &MVal| matches!(v, MVal::Secret(_) | MVal::SecretArr(_));
        if !secret(&l) && !secret(&r) {
            return self.pub_bin(op, l, r);
        }
        // At least one shared operand: integers only.
        let ls = self.as_sec(&l)?;
        let rs = self.as_sec(&r)?;
        Ok(MVal::Secret(match op {
            Add => ls.plus(&rs),
            Sub => ls.minus(&rs),
            // Shared × public is linear; shared × shared is deferred.
            Mul => match (l, r) {
                (_, MVal::PubInt(k)) => ls.scale(FGold::from_i64(k)),
                (MVal::PubInt(k), _) => rs.scale(FGold::from_i64(k)),
                _ => self.defer(Node::Mul(ls, rs)),
            },
            Div => {
                let MVal::PubInt(k) = r else {
                    return err("secure division requires a public divisor");
                };
                if k <= 0 || (k & (k - 1)) != 0 {
                    return err(format!(
                        "secure division only supports positive power-of-two divisors, got {k}"
                    ));
                }
                if k == 1 {
                    return Ok(MVal::Secret(ls));
                }
                // The shift opens a masked value: it needs the operand.
                let x = self.force(&ls)?;
                shift_right(self.engine, &x, k.trailing_zeros())
                    .map_err(fail)?
                    .into()
            }
            // Normalize to one strict less-than: a >= b == !(a < b) and
            // a <= b == !(b < a).
            Lt => self.lt(ls, rs),
            Gt => self.lt(rs, ls),
            Ge => self.lt(ls, rs).not(),
            Le => self.lt(rs, ls).not(),
            Eq | Ne => return err("secure equality tests are not supported"),
            And | Or => return err("secure logical connectives are not supported"),
        }))
    }

    fn pub_bin(&mut self, op: BinOp, l: MVal, r: MVal) -> Result<MVal, MpcEvalError> {
        use BinOp::*;
        let fixy = matches!(l, MVal::PubFix(_)) || matches!(r, MVal::PubFix(_));
        if matches!(op, And | Or) {
            let (MVal::PubBool(a), MVal::PubBool(b)) = (&l, &r) else {
                return err("logical operators need booleans");
            };
            return Ok(MVal::PubBool(if op == And { *a && *b } else { *a || *b }));
        }
        if fixy {
            let a = self.as_pub_fix(&l)?;
            let b = self.as_pub_fix(&r)?;
            return Ok(match op {
                Add => MVal::PubFix(a.checked_add(b).map_err(fail)?),
                Sub => MVal::PubFix(a.checked_sub(b).map_err(fail)?),
                Mul => MVal::PubFix(a.checked_mul(b).map_err(fail)?),
                Div => MVal::PubFix(a.checked_div(b).map_err(fail)?),
                Lt => MVal::PubBool(a < b),
                Le => MVal::PubBool(a <= b),
                Gt => MVal::PubBool(a > b),
                Ge => MVal::PubBool(a >= b),
                Eq => MVal::PubBool(a == b),
                Ne => MVal::PubBool(a != b),
                And | Or => unreachable!(),
            });
        }
        let (MVal::PubInt(a), MVal::PubInt(b)) = (&l, &r) else {
            return err(format!("bad public operands: {l:?}, {r:?}"));
        };
        let (a, b) = (*a, *b);
        let int = |v: Option<i64>| {
            v.map(MVal::PubInt)
                .ok_or_else(|| fail(format!("integer overflow in {a} {op:?} {b}")))
        };
        Ok(match op {
            Add => int(a.checked_add(b))?,
            Sub => int(a.checked_sub(b))?,
            Mul => int(a.checked_mul(b))?,
            Div if b == 0 => return err("division by zero"),
            Div => int(a.checked_div(b))?,
            Lt => MVal::PubBool(a < b),
            Le => MVal::PubBool(a <= b),
            Gt => MVal::PubBool(a > b),
            Ge => MVal::PubBool(a >= b),
            Eq => MVal::PubBool(a == b),
            Ne => MVal::PubBool(a != b),
            And | Or => unreachable!(),
        })
    }

    fn as_pub_fix(&self, v: &MVal) -> Result<Fix, MpcEvalError> {
        match v {
            MVal::PubFix(f) => Ok(*f),
            MVal::PubInt(i) => Fix::from_int(*i).map_err(fail),
            other => err(format!("expected public numeric, got {other:?}")),
        }
    }

    fn call(&mut self, b: Builtin, args: &[Expr]) -> Result<MVal, MpcEvalError> {
        match b {
            Builtin::Output => {
                if self.oblivious_depth > 0 {
                    return err("output inside a secret branch");
                }
                for a in args {
                    match self.expr(a)? {
                        MVal::PubInt(v) => self.outputs.push(v),
                        MVal::PubFix(f) => self.outputs.push(f.floor()),
                        MVal::PubBool(v) => self.outputs.push(i64::from(v)),
                        MVal::PubIntArr(vs) => self.outputs.extend(vs),
                        MVal::PubFixArr(vs) => self.outputs.extend(vs.iter().map(|f| f.floor())),
                        other => return err(format!("cannot release secret value {other:?}")),
                    }
                }
                Ok(MVal::PubBool(true))
            }
            Builtin::Declassify => {
                // The planner only inserts declassify on mechanism-safe
                // values (§4.5); open the share.
                match self.expr(&args[0])? {
                    MVal::Secret(s) => {
                        let s = self.force(&s)?;
                        let v = self.engine.open(&s).map_err(fail)?;
                        Ok(MVal::PubInt(v.signed_value()))
                    }
                    public => Ok(public),
                }
            }
            Builtin::Sum => match self.expr(&args[0])? {
                MVal::SecretArr(a) => {
                    let zero = Sec::from(self.engine.zero());
                    Ok(MVal::Secret(a.iter().fold(zero, Sec::plus)))
                }
                MVal::PubIntArr(a) => a
                    .iter()
                    .try_fold(0i64, |acc, &x| acc.checked_add(x))
                    .map(MVal::PubInt)
                    .ok_or_else(|| fail("integer overflow in sum")),
                other => err(format!("cannot sum {other:?} (db sums happen upstream)")),
            },
            Builtin::Len => match self.expr(&args[0])? {
                MVal::SecretArr(a) => Ok(MVal::PubInt(a.len() as i64)),
                MVal::PubIntArr(a) => Ok(MVal::PubInt(a.len() as i64)),
                MVal::PubFixArr(a) => Ok(MVal::PubInt(a.len() as i64)),
                other => err(format!("len of {other:?}")),
            },
            Builtin::Max | Builtin::ArgMax => {
                let v = self.expr(&args[0])?;
                let arr = self.shared_array(&v)?;
                let off = FGold::new(CMP_OFFSET);
                let offs: Vec<Shared> = arr.iter().map(|s| self.engine.add_const(s, off)).collect();
                let (mx, idx) = argmax_tournament(self.engine, &offs, CMP_BITS).map_err(fail)?;
                if b == Builtin::Max {
                    Ok(MVal::Secret(self.engine.add_const(&mx, -off).into()))
                } else {
                    Ok(MVal::Secret(idx.into()))
                }
            }
            Builtin::Clip => {
                let v = self.expr(&args[0])?;
                let lo = self.pub_int(&args[1])?;
                let hi = self.pub_int(&args[2])?;
                match v {
                    MVal::PubInt(x) if lo <= hi => Ok(MVal::PubInt(x.clamp(lo, hi))),
                    MVal::Secret(s) => {
                        let lo = self.as_sec(&MVal::PubInt(lo))?;
                        let hi = self.as_sec(&MVal::PubInt(hi))?;
                        let below = self.lt(s.clone(), lo.clone());
                        let clipped_lo = self.mux(&below, lo, s);
                        let above = self.lt(hi.clone(), clipped_lo.clone());
                        Ok(MVal::Secret(self.mux(&above, hi, clipped_lo)))
                    }
                    other => err(format!("cannot clip {other:?} to {lo}..{hi}")),
                }
            }
            Builtin::Em | Builtin::EmTopK | Builtin::EmGap | Builtin::Laplace => {
                if self.oblivious_depth > 0 {
                    return err("mechanisms inside secret branches are not supported");
                }
                self.mechanism(b, args)
            }
            Builtin::Random => {
                let bound = self.pub_int(&args[0])?;
                if bound <= 0 {
                    return err("random bound must be positive");
                }
                Ok(MVal::PubInt(self.rng.gen_range(0..bound)))
            }
            Builtin::Exp | Builtin::Log => {
                // Public-only transcendentals (secret ones would be FHE
                // gadget vignettes, which the planner avoids for the
                // corpus queries).
                let x = self.expr(&args[0])?;
                let f = self.as_pub_fix(&x)?;
                let r = if b == Builtin::Exp { f.exp() } else { f.ln() };
                r.map(MVal::PubFix).map_err(fail)
            }
            Builtin::SampleUniform => err("sampleUniform must be handled at input time"),
        }
    }

    /// Mechanism arguments: `(scores_expr, [k], [sens], eps)`.
    fn mechanism(&mut self, b: Builtin, args: &[Expr]) -> Result<MVal, MpcEvalError> {
        let scores_val = self.expr(&args[0])?;
        // Parse tail arguments.
        let tail: Vec<f64> = args[1..]
            .iter()
            .map(|a| {
                let v = self.expr(a)?;
                self.as_pub_fix(&v).map(|f| f.to_f64())
            })
            .collect::<Result<_, _>>()?;
        let (k, sens, eps) = match (b, tail.as_slice()) {
            (Builtin::Em | Builtin::EmGap, [eps]) => (1usize, 1.0, *eps),
            (Builtin::Em | Builtin::EmGap, [sens, eps]) => (1, *sens, *eps),
            (Builtin::EmTopK, [k, eps]) => (*k as usize, 1.0, *eps),
            (Builtin::EmTopK, [k, sens, eps]) => (*k as usize, *sens, *eps),
            (Builtin::Laplace, [sens, eps]) => (1, *sens, *eps),
            _ => return err(format!("bad mechanism arity for {b:?}")),
        };
        if eps <= 0.0 || sens <= 0.0 {
            return err("mechanism parameters must be positive");
        }

        if b == Builtin::Laplace {
            let scale = Fix::from_f64(sens / eps).map_err(fail)?;
            let shares = match &scores_val {
                MVal::PubInt(x) => vec![self.engine.constant(FGold::from_i64(*x))],
                MVal::Secret(_) | MVal::SecretArr(_) => self.shared_array(&scores_val)?,
                other => return err(format!("laplace over {other:?}")),
            };
            // Lift each integer share to Q30.16, add its noise, and open
            // the whole vector in one round trip.
            let noised: Vec<Shared> = shares
                .iter()
                .map(|s| {
                    let noise = laplace_fix(self.rng, scale);
                    let injected =
                        inject_with_cost(self.engine, noise, FunctionalityCost::laplace());
                    let lifted = self.engine.mul_const(s, FGold::new(1 << 16));
                    self.engine.add(&lifted, &injected.inner)
                })
                .collect();
            let mut released = self
                .engine
                .open_batch(&noised.iter().collect::<Vec<_>>())
                .map_err(fail)?
                .into_iter()
                .map(|v| field_to_fix(v).map_err(fail))
                .collect::<Result<Vec<Fix>, _>>()?;
            return Ok(match scores_val {
                MVal::SecretArr(_) => MVal::PubFixArr(released),
                _ => MVal::PubFix(released.remove(0)),
            });
        }

        // Exponential-mechanism family.
        let arr = self.shared_array(&scores_val)?;
        if arr.is_empty() {
            return err("empty score vector");
        }
        let k = k.min(arr.len());
        match self.mech_style {
            MechStyle::ExpSample => {
                // Metered ideal functionality: the committee scan +
                // aggregator FHE exponentiation (Figure 4 left).
                inject_with_cost(
                    self.engine,
                    Fix::ZERO,
                    FunctionalityCost {
                        mults: 4 * arr.len() as u64,
                        rounds: 2 * arr.len() as u64,
                    },
                );
                let clear: Vec<i64> = self
                    .engine
                    .open_batch(&arr.iter().collect::<Vec<_>>())
                    .map_err(fail)?
                    .into_iter()
                    .map(|v| v.signed_value())
                    .collect();
                let mut working = clear.clone();
                let mut winners = Vec::with_capacity(k);
                for _ in 0..k {
                    let w = em_exponentiate(&working, sens, eps, self.rng).map_err(fail)?;
                    winners.push(w as i64);
                    working[w] = i64::MIN / 4;
                }
                // The gap variant also releases the noisy winner/runner-up
                // margin (free under the same epsilon).
                let gap = if b == Builtin::EmGap && clear.len() >= 2 {
                    let scale = Fix::from_f64(2.0 * sens / eps).map_err(fail)?;
                    let w = winners[0] as usize;
                    let runner = working
                        .iter()
                        .copied()
                        .max()
                        .expect("len >= 2 after one removal");
                    let noisy_diff = Fix::from_int(clear[w] - runner)
                        .unwrap_or(Fix::MAX)
                        .checked_add(gumbel_fix(self.rng, scale))
                        .unwrap_or(Fix::MAX);
                    Some(noisy_diff)
                } else {
                    None
                };
                self.em_result(b, winners, gap)
            }
            MechStyle::Gumbel => {
                let scale = Fix::from_f64(2.0 * sens / eps).map_err(fail)?;
                // Noise every score once (one-shot, Durfee–Rogers).
                let off = FGold::new(CMP_OFFSET);
                let mut noised: Vec<(usize, Shared)> = Vec::with_capacity(arr.len());
                for (i, s) in arr.iter().enumerate() {
                    let noise = gumbel_fix(self.rng, scale);
                    let injected =
                        inject_with_cost(self.engine, noise, FunctionalityCost::gumbel());
                    let lifted = self.engine.mul_const(s, FGold::new(1 << 16));
                    let sum = self.engine.add(&lifted, &injected.inner);
                    noised.push((i, self.engine.add_const(&sum, off)));
                }
                let mut winners = Vec::with_capacity(k);
                let mut gap: Option<Fix> = None;
                let mut remaining = noised;
                for pass in 0..k {
                    let values: Vec<Shared> = remaining.iter().map(|(_, s)| s.clone()).collect();
                    let (mx, idx) =
                        argmax_tournament(self.engine, &values, CMP_BITS + 2).map_err(fail)?;
                    let pos = self.engine.open(&idx).map_err(fail)?.value() as usize;
                    let pos = pos.min(remaining.len() - 1);
                    let (orig, _) = remaining.remove(pos);
                    winners.push(orig as i64);
                    // The gap variant also releases best − runner-up.
                    if b == Builtin::EmGap && pass == 0 && !remaining.is_empty() {
                        let rest: Vec<Shared> = remaining.iter().map(|(_, s)| s.clone()).collect();
                        let (mx2, _) =
                            argmax_tournament(self.engine, &rest, CMP_BITS + 2).map_err(fail)?;
                        let diff = self.engine.sub(&mx, &mx2);
                        let opened = SharedFix { inner: diff }.open(self.engine).map_err(fail)?;
                        gap = Some(opened);
                    }
                }
                self.em_result(b, winners, gap)
            }
        }
    }

    fn em_result(
        &mut self,
        b: Builtin,
        winners: Vec<i64>,
        gap: Option<Fix>,
    ) -> Result<MVal, MpcEvalError> {
        match b {
            Builtin::Em => Ok(MVal::PubInt(winners[0])),
            Builtin::EmTopK => Ok(MVal::PubIntArr(winners)),
            Builtin::EmGap => {
                let g = gap.unwrap_or(Fix::ZERO);
                Ok(MVal::PubFixArr(vec![
                    Fix::from_int(winners[0]).unwrap_or(Fix::MAX),
                    g,
                ]))
            }
            _ => unreachable!("mechanism dispatch"),
        }
    }
}

/// Slot `i` of an array value.
fn element(v: &MVal, i: usize) -> Result<MVal, MpcEvalError> {
    let got = match v {
        MVal::SecretArr(a) => a.get(i).cloned().map(MVal::Secret),
        MVal::PubIntArr(a) => a.get(i).copied().map(MVal::PubInt),
        MVal::PubFixArr(a) => a.get(i).copied().map(MVal::PubFix),
        other => return err(format!("cannot index {other:?}")),
    };
    got.ok_or_else(|| fail(format!("index {i} out of bounds")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_lang::parser::parse;
    use rand::SeedableRng;

    fn run(src: &str, counts: &[i64], style: MechStyle, seed: u64) -> Vec<i64> {
        let program = parse(src).unwrap();
        let mut engine = MpcEngine::new(5, 2, false, seed);
        let shares: Vec<Shared> = counts
            .iter()
            .map(|&c| engine.input(0, FGold::from_i64(c)))
            .collect();
        let mut env = HashMap::new();
        env.insert("aggr".to_string(), MVal::SharedArr(shares));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ev = MpcEvaluator::new(&mut engine, &mut rng, env, style);
        // Skip the leading `aggr = sum(db);` statement — the shares are
        // pre-bound, as the executor does.
        ev.block(&program.stmts[1..]).unwrap();
        ev.outputs
    }

    #[test]
    fn top1_over_shares() {
        let out = run(
            "aggr = sum(db); r = em(aggr, 8.0); output(r);",
            &[3, 60, 5, 2],
            MechStyle::Gumbel,
            1,
        );
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn prefix_sums_and_median_over_shares() {
        // The median query's score-prep: prefix sums, rank distances,
        // then EM — all on shares. Data: 21 values in 4 buckets,
        // cumulative [3, 9, 19, 21], half = 10, distances [7, 1, 9, 11]
        // → bucket 1 is the median bucket.
        let src = "aggr = sum(db);\n\
             cum[0] = aggr[0];\n\
             for i = 1 to 3 do cum[i] = cum[i-1] + aggr[i]; endfor\n\
             total = cum[3];\n\
             half = total / 2;\n\
             for i = 0 to 3 do\n\
               if cum[i] > half then d[i] = cum[i] - half; else d[i] = half - cum[i]; endif\n\
               score[i] = 0 - d[i];\n\
             endfor\n\
             r = em(score, 1, 9.0);\n\
             output(r);";
        let out = run(src, &[3, 6, 10, 2], MechStyle::Gumbel, 3);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn auction_scores_over_shares() {
        // Revenue r·(bidders at or above r): counts [1, 1, 10] →
        // above = [12, 11, 10], scores [0, 11, 20] → price 2 wins.
        let src = "aggr = sum(db);\n\
             above[2] = aggr[2];\n\
             for i = 1 to 2 do above[2 - i] = above[3 - i] + aggr[2 - i]; endfor\n\
             for r = 0 to 2 do score[r] = r * above[r]; endfor\n\
             w = em(score, 2, 9.0);\n\
             output(w);";
        let out = run(src, &[1, 1, 10], MechStyle::Gumbel, 5);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn laplace_histogram_over_shares() {
        let out = run(
            "aggr = sum(db); h = laplace(aggr, 1, 8.0); output(h);",
            &[30, 10, 20],
            MechStyle::Gumbel,
            7,
        );
        assert_eq!(out.len(), 3);
        for (got, want) in out.iter().zip([30i64, 10, 20]) {
            assert!((got - want).abs() <= 3, "{got} vs {want}");
        }
    }

    #[test]
    fn topk_and_gap_over_shares() {
        let out = run(
            "aggr = sum(db); t = emTopK(aggr, 2, 9.0); output(t);",
            &[50, 2, 40, 1],
            MechStyle::Gumbel,
            9,
        );
        assert_eq!(out.len(), 2);
        assert!(out.contains(&0) && out.contains(&2), "{out:?}");

        let out = run(
            "aggr = sum(db); g = emGap(aggr, 9.0); output(g);",
            &[100, 40, 5],
            MechStyle::Gumbel,
            11,
        );
        assert_eq!(out[0], 0, "winner");
        assert!((out[1] - 60).abs() <= 8, "gap {} far from 60", out[1]);
    }

    #[test]
    fn exp_sample_style_works() {
        let out = run(
            "aggr = sum(db); r = em(aggr, 8.0); output(r);",
            &[3, 60, 5],
            MechStyle::ExpSample,
            13,
        );
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn hypotest_branches_on_public() {
        let src = "aggr = sum(db);\n\
             count = aggr[0];\n\
             noisy = laplace(count, 1, 8.0);\n\
             thr = 25;\n\
             if noisy > thr then d = 1; else d = 0; endif\n\
             output(d);";
        let out = run(src, &[40], MechStyle::Gumbel, 15);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn secret_outputs_rejected() {
        let program = parse("aggr = sum(db); output(aggr[0]);").unwrap();
        let mut engine = MpcEngine::new(5, 2, false, 1);
        let shares = vec![engine.input(0, FGold::new(5))];
        let mut env = HashMap::new();
        env.insert("aggr".to_string(), MVal::SharedArr(shares));
        let mut rng = StdRng::seed_from_u64(1);
        let mut ev = MpcEvaluator::new(&mut engine, &mut rng, env, MechStyle::Gumbel);
        let errv = ev.block(&program.stmts[1..]).unwrap_err();
        assert!(errv.message.contains("secret"), "{errv}");
    }

    #[test]
    fn clip_on_shares() {
        let src = "aggr = sum(db); c = clip(aggr[0], 0, 10); r = laplace(c, 1, 50.0); output(r);";
        let out = run(src, &[100], MechStyle::Gumbel, 17);
        assert!((out[0] - 10).abs() <= 1, "clipped to 10, got {}", out[0]);
    }

    #[test]
    fn division_by_secret_or_odd_divisor_rejected() {
        let program = parse("aggr = sum(db); q = aggr[0] / aggr[1]; output(q);").unwrap();
        let mut engine = MpcEngine::new(5, 2, false, 1);
        let shares = vec![
            engine.input(0, FGold::new(6)),
            engine.input(0, FGold::new(3)),
        ];
        let mut env = HashMap::new();
        env.insert("aggr".to_string(), MVal::SharedArr(shares));
        let mut rng = StdRng::seed_from_u64(1);
        let mut ev = MpcEvaluator::new(&mut engine, &mut rng, env, MechStyle::Gumbel);
        let e = ev.block(&program.stmts[1..]).unwrap_err();
        assert!(e.message.contains("public divisor"), "{e}");

        let program = parse("aggr = sum(db); q = aggr[0] / 3; output(q);").unwrap();
        let mut engine = MpcEngine::new(5, 2, false, 1);
        let shares = vec![engine.input(0, FGold::new(6))];
        let mut env = HashMap::new();
        env.insert("aggr".to_string(), MVal::SharedArr(shares));
        let mut rng = StdRng::seed_from_u64(1);
        let mut ev = MpcEvaluator::new(&mut engine, &mut rng, env, MechStyle::Gumbel);
        let e = ev.block(&program.stmts[1..]).unwrap_err();
        assert!(e.message.contains("power-of-two"), "{e}");
    }

    #[test]
    fn mechanism_inside_secret_branch_rejected() {
        let src = "aggr = sum(db);
             if aggr[0] > aggr[1] then r = em(aggr, 8.0); else r = 0; endif
             output(r);";
        let program = parse(src).unwrap();
        let mut engine = MpcEngine::new(5, 2, false, 1);
        let shares = vec![
            engine.input(0, FGold::new(6)),
            engine.input(0, FGold::new(3)),
        ];
        let mut env = HashMap::new();
        env.insert("aggr".to_string(), MVal::SharedArr(shares));
        let mut rng = StdRng::seed_from_u64(1);
        let mut ev = MpcEvaluator::new(&mut engine, &mut rng, env, MechStyle::Gumbel);
        let e = ev.block(&program.stmts[1..]).unwrap_err();
        assert!(e.message.contains("secret branch"), "{e}");
    }

    #[test]
    fn nested_oblivious_branches() {
        // Two nested secret ifs select among four assignments.
        let src = "aggr = sum(db);
             if aggr[0] > aggr[1] then
               if aggr[0] > aggr[2] then w = 0; else w = 2; endif
             else
               if aggr[1] > aggr[2] then w = 1; else w = 2; endif
             endif
             r = laplace(w, 1, 100.0);
             output(r);";
        let program = parse(src).unwrap();
        for (counts, want) in [([9i64, 4, 2], 0i64), ([3, 8, 2], 1), ([1, 2, 9], 2)] {
            let mut engine = MpcEngine::new(5, 2, false, 1);
            let shares: Vec<Shared> = counts
                .iter()
                .map(|&c| engine.input(0, FGold::from_i64(c)))
                .collect();
            let mut env = HashMap::new();
            env.insert("aggr".to_string(), MVal::SharedArr(shares));
            let mut rng = StdRng::seed_from_u64(2);
            let mut ev = MpcEvaluator::new(&mut engine, &mut rng, env, MechStyle::Gumbel);
            ev.block(&program.stmts[1..]).unwrap();
            assert!(
                (ev.outputs[0] - want).abs() <= 1,
                "{counts:?}: {} vs {want}",
                ev.outputs[0]
            );
        }
    }

    #[test]
    fn shared_division_by_power_of_two() {
        let src = "aggr = sum(db); h = aggr[0] / 4; r = laplace(h, 1, 60.0); output(r);";
        let out = run(src, &[100], MechStyle::Gumbel, 19);
        assert!((out[0] - 25).abs() <= 1, "100/4: got {}", out[0]);
    }

    /// Runs `src` past its leading `aggr = sum(db);` on dealer-shared
    /// counts (no input rounds) and returns the result with the rounds
    /// and triples the engine metered.
    fn metered(
        src: &str,
        counts: &[i64],
        style: MechStyle,
        malicious: bool,
    ) -> (Result<Vec<i64>, MpcEvalError>, u64, u64) {
        let program = parse(src).unwrap();
        let mut engine = MpcEngine::new(5, 2, malicious, 21);
        let shares = counts
            .iter()
            .map(|&c| engine.dealer_share(FGold::from_i64(c)))
            .collect();
        let env = HashMap::from([("aggr".to_string(), MVal::SharedArr(shares))]);
        let mut rng = StdRng::seed_from_u64(21);
        let mut ev = MpcEvaluator::new(&mut engine, &mut rng, env, style);
        let out = ev.block(&program.stmts[1..]).map(|()| ev.outputs.clone());
        (out, engine.net.metrics.rounds, engine.net.metrics.triples)
    }

    /// Triples of one comparison: 62 dealer mask bits, one multiplication
    /// per borrow-chain bit, one for the final XOR.
    const CMP_TRIPLES: u64 = 62 + CMP_BITS as u64 + 1;
    /// Openings of one comparison *batch*, whatever its size: the masked
    /// values, one per chain bit, the XOR.
    const CMP_OPENINGS: u64 = CMP_BITS as u64 + 2;

    /// The corpus `median`/`quantile` shape over `c` buckets:
    /// `target = total * num / den`.
    fn rank_query(c: usize, num: i64, den: i64) -> String {
        format!(
            "aggr = sum(db);\n\
             cum[0] = aggr[0];\n\
             for i = 1 to {last} do cum[i] = cum[i - 1] + aggr[i]; endfor\n\
             target = cum[{last}] * {num} / {den};\n\
             for i = 0 to {last} do\n\
               if cum[i] > target then d[i] = cum[i] - target; else d[i] = target - cum[i]; endif\n\
               score[i] = 0 - d[i];\n\
             endfor\n\
             r = em(score, {num}, 9.0);\n\
             output(r);",
            last = c - 1
        )
    }

    #[test]
    fn median_rounds_do_not_grow_with_categories() {
        // Openings: the shift, one comparison batch, one selection batch,
        // the score opening — 45 for any C. ExpSample meters 2C rounds
        // and 4C multiplications of its own; the shift draws 62 bits.
        for malicious in [false, true] {
            let per_opening = if malicious { 3 } else { 2 };
            for c in [4usize, 128] {
                // Equal buckets: the prefix sum reaches half at C/2 − 1.
                let (out, rounds, triples) = metered(
                    &rank_query(c, 1, 2),
                    &vec![10; c],
                    MechStyle::ExpSample,
                    malicious,
                );
                assert_eq!(out.unwrap(), vec![c as i64 / 2 - 1], "C={c}");
                let c = c as u64;
                assert_eq!(
                    rounds,
                    (1 + CMP_OPENINGS + 1 + 1) * per_opening + 2 * c,
                    "C={c}"
                );
                assert_eq!(triples, 62 + c * (CMP_TRIPLES + 1) + 4 * c, "C={c}");
            }
        }
    }

    #[test]
    fn quantile_costs_what_median_costs() {
        // `total * 3` is linear; `/ 4` is the one shift.
        let (out, rounds, triples) = metered(
            &rank_query(8, 3, 4),
            &[5, 5, 5, 5, 5, 5, 5, 5],
            MechStyle::ExpSample,
            false,
        );
        assert_eq!(
            out.unwrap(),
            vec![5],
            "30 of 40 values lie in buckets 0..=5"
        );
        assert_eq!(rounds, (1 + CMP_OPENINGS + 1 + 1) * 2 + 2 * 8);
        assert_eq!(triples, 62 + 8 * (CMP_TRIPLES + 1) + 4 * 8);
    }

    #[test]
    fn clip_is_two_compare_and_select_layers() {
        let src = "aggr = sum(db); c = clip(aggr[0], 0, 10); r = laplace(c, 1, 50.0); output(r);";
        let (out, rounds, triples) = metered(src, &[100], MechStyle::Gumbel, false);
        assert!((out.unwrap()[0] - 10).abs() <= 1);
        let laplace = FunctionalityCost::laplace();
        assert_eq!(rounds, (2 * (CMP_OPENINGS + 1) + 1) * 2 + laplace.rounds);
        assert_eq!(triples, 2 * (CMP_TRIPLES + 1) + laplace.mults);
    }

    #[test]
    fn nested_secret_ifs_share_one_comparison_batch() {
        // Three comparisons in one batch; the two inner selections in one
        // layer, the outer one in the next; then the Laplace opening.
        let src = "aggr = sum(db);
             if aggr[0] > aggr[1] then
               if aggr[0] > aggr[2] then w = 0; else w = 2; endif
             else
               if aggr[1] > aggr[2] then w = 1; else w = 2; endif
             endif
             r = laplace(w, 1, 100.0);
             output(r);";
        let (out, rounds, triples) = metered(src, &[3, 8, 2], MechStyle::Gumbel, false);
        assert!((out.unwrap()[0] - 1).abs() <= 1);
        let laplace = FunctionalityCost::laplace();
        assert_eq!(rounds, (CMP_OPENINGS + 2 + 1) * 2 + laplace.rounds);
        assert_eq!(triples, 3 * CMP_TRIPLES + 3 + laplace.mults);
    }

    #[test]
    fn one_sided_branches_select_against_the_old_value() {
        // `x` is written only by the then branch and `y` only by the else
        // branch: one comparison, two selections in one layer, then the
        // two declassifying openings. `aggr` itself is never merged.
        let src = "aggr = sum(db); x = aggr[0]; y = 5;
             if aggr[0] > aggr[1] then x = aggr[1]; else y = 7; endif
             output(declassify(x)); output(declassify(y));";
        for (counts, want) in [([9i64, 4], [4i64, 5]), ([4, 9], [4, 7])] {
            let (out, rounds, triples) = metered(src, &counts, MechStyle::Gumbel, false);
            assert_eq!(out.unwrap(), want, "{counts:?}");
            assert_eq!(rounds, (CMP_OPENINGS + 1 + 2) * 2);
            assert_eq!(triples, CMP_TRIPLES + 2);
        }
        // A variable born in one branch only has no old value to select.
        let src = "aggr = sum(db); if aggr[0] > aggr[1] then z = 1; endif";
        let e = metered(src, &[9, 4], MechStyle::Gumbel, false)
            .0
            .unwrap_err();
        assert!(e.message.contains("only one secret branch"), "{e}");
        let src = "aggr = sum(db); if aggr[0] > aggr[1] then d[0] = aggr[0]; endif";
        let e = metered(src, &[9, 4], MechStyle::Gumbel, false)
            .0
            .unwrap_err();
        assert!(e.message.contains("only one secret branch"), "{e}");
    }

    #[test]
    fn hostile_public_indices_and_arithmetic_are_errors() {
        for (stmt, want) in [
            ("x[0 - 1] = aggr[0];", "outside 0.."),
            ("x[4000000000000] = aggr[0];", "outside 0.."),
            ("x = aggr[0 - 1];", "outside 0.."),
            ("x = (0 - 9223372036854775807 - 1) / (0 - 1);", "overflow"),
            ("x = 9223372036854775807 + 1;", "overflow"),
            ("x = (0 - 9223372036854775807) - 2;", "overflow"),
            ("x = 4000000000000 * 4000000000000;", "overflow"),
            ("x = 20000.5 * 200000.5;", "overflow"),
            ("x = clip(5, 10, 0);", "cannot clip"),
        ] {
            let src = format!("aggr = sum(db); {stmt}");
            let e = metered(&src, &[1, 2], MechStyle::Gumbel, false)
                .0
                .unwrap_err();
            assert!(e.message.contains(want), "{stmt}: {e}");
        }
    }
}
