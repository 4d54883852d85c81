//! Arboretum's query language (§4.1–§4.2).
//!
//! Analysts write queries against a logical `db[i][j]` array in a small
//! imperative language (Figure 2), loosely based on Fuzzi. This crate
//! provides:
//!
//! * [`ast`] — the syntax tree, builtins, and the database schema;
//! * [`lexer`] / [`parser`] — source → AST;
//! * [`types`] — basic type and conservative value-range inference (§4.4),
//!   which downstream drives cryptosystem parameter choice;
//! * [`privacy`] — Fuzzi-style DP certification: taint tracking (explicit
//!   and implicit flows), sensitivity propagation, and `(ε, δ)` budget
//!   accounting (§4.2);
//! * [`interp`] — the reference interpreter defining the centralized
//!   semantics that distributed plans must preserve, and the one
//!   definition of public values: `runtime::mpc_eval` calls its
//!   value-level operations for every operation on public operands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Every module reads analyst-written source or runs it: none may panic
// on it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod privacy;
pub mod types;

pub use ast::{BinOp, Builtin, DbSchema, Expr, Program, Stmt, UnOp};
pub use interp::{EvalError, Interp, Value};
pub use parser::{parse, ParseError};
pub use privacy::{certify, Certificate, CertifyConfig, CertifyError, MechanismUse};
pub use types::{infer, Range, Ty, TypeError, TypeInfo, TypedProgram};
