//! Recursive-descent parser for the grammar of Figure 2.
//!
//! ```text
//! stmt := stmt; stmt | var = exp | exp | var[exp] = exp |
//!         for var = exp to exp do stmt endfor |
//!         if exp then stmt else stmt endif
//! exp  := exp op exp | var | var[exp] | func(exp, ...) | lit
//! op   := + | - | * | / | && | || | < | <= | > | >= | ! | ==
//! ```
//!
//! Operator precedence (loosest to tightest): `||`, `&&`, comparisons,
//! `+ -`, `* /`, unary `! -`, postfix indexing.
//!
//! Source text comes from analysts, so nesting is bounded (see
//! `MAX_NESTING`): a program past the bound is a [`ParseError`], never a
//! stack overflow here or in any later walk of the tree.

use crate::ast::{BinOp, Builtin, Expr, Program, Stmt, UnOp};
use crate::lexer::{lex, LexError, Token};

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Token index of the error.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        Self {
            at: 0,
            message: e.to_string(),
        }
    }
}

/// Deepest nesting [`parse`] accepts. The one bound is applied twice:
/// to how deep the parser recurses (statements inside `for`/`if` blocks,
/// then parentheses, call arguments, index expressions and unary
/// operators inside a statement) and to the height of every expression
/// tree it builds, which also catches operator and index chains
/// (`1+1+…`, `x[0][0]…`) that recurse nowhere while parsing but nest to
/// the left. Whatever walks a parsed program — type inference,
/// certification, plan extraction, the interpreters, `Drop` — therefore
/// recurses at most `2 * MAX_NESTING` levels (blocks, then one expression).
const MAX_NESTING: usize = 64;

/// An expression and the height of its tree (a leaf is 1).
type Tall = (Expr, usize);

/// Parses query-language source into a [`Program`].
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, including input nested
/// deeper than the parser's fixed bound.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmts = p.stmt_list(&[])?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after program"));
    }
    Ok(Program { stmts })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Live levels of [`Parser::nested`] recursion.
    depth: usize,
}

impl Parser {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: format!("{msg} (next token: {:?})", self.tokens.get(self.pos)),
        }
    }

    fn too_deep(&self) -> ParseError {
        self.err(&format!("nesting deeper than {MAX_NESTING}"))
    }

    /// Runs `f` one recursion level down, refusing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Height of a node whose tallest child has height `child`.
    fn above(&self, child: usize) -> Result<usize, ParseError> {
        if child >= MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(child + 1)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes `t` or names it in a [`ParseError`].
    fn expect_token(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {t:?}")))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parses statements until one of `stops` (or end of input).
    fn stmt_list(&mut self, stops: &[Token]) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(t) if stops.contains(t) => break,
                _ => {}
            }
            out.push(self.nested(Self::stmt)?);
            // Optional semicolons between statements.
            while self.eat(&Token::Semi) {}
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::For) => {
                self.bump();
                let var = self.ident()?;
                self.expect_token(&Token::Assign)?;
                let from = self.expr()?;
                self.expect_token(&Token::To)?;
                let to = self.expr()?;
                self.expect_token(&Token::Do)?;
                let body = self.stmt_list(&[Token::EndFor])?;
                self.expect_token(&Token::EndFor)?;
                Ok(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                })
            }
            Some(Token::If) => {
                self.bump();
                let cond = self.expr()?;
                self.expect_token(&Token::Then)?;
                let then_branch = self.stmt_list(&[Token::Else, Token::EndIf])?;
                let else_branch = if self.eat(&Token::Else) {
                    self.stmt_list(&[Token::EndIf])?
                } else {
                    Vec::new()
                };
                self.expect_token(&Token::EndIf)?;
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Some(Token::Ident(_)) => {
                // Could be assignment, index assignment, or expression.
                let save = self.pos;
                let name = self.ident()?;
                match self.peek() {
                    Some(Token::Assign) => {
                        self.bump();
                        let value = self.expr()?;
                        Ok(Stmt::Assign(name, value))
                    }
                    Some(Token::LBracket) => {
                        self.bump();
                        let idx = self.expr()?;
                        self.expect_token(&Token::RBracket)?;
                        if self.eat(&Token::Assign) {
                            let value = self.expr()?;
                            Ok(Stmt::IndexAssign(name, idx, value))
                        } else {
                            // It was an expression like x[i] + ...; rewind.
                            self.pos = save;
                            Ok(Stmt::Expr(self.expr()?))
                        }
                    }
                    _ => {
                        self.pos = save;
                        Ok(Stmt::Expr(self.expr()?))
                    }
                }
            }
            Some(_) => Ok(Stmt::Expr(self.expr()?)),
            None => Err(self.err("expected statement")),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.expr_h()?.0)
    }

    fn expr_h(&mut self) -> Result<Tall, ParseError> {
        self.nested(Self::or_expr)
    }

    /// Left-associative `operand (op operand)*`, one level taller per
    /// operator.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Tall, ParseError>,
        op_for: fn(&Token) -> Option<BinOp>,
    ) -> Result<Tall, ParseError> {
        let (mut lhs, mut height) = operand(self)?;
        while let Some(op) = self.peek().and_then(op_for) {
            self.bump();
            let (rhs, rhs_height) = operand(self)?;
            height = self.above(height.max(rhs_height))?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn or_expr(&mut self) -> Result<Tall, ParseError> {
        self.chain(Self::and_expr, |t| {
            matches!(t, Token::OrOr).then_some(BinOp::Or)
        })
    }

    fn and_expr(&mut self) -> Result<Tall, ParseError> {
        self.chain(Self::cmp_expr, |t| {
            matches!(t, Token::AndAnd).then_some(BinOp::And)
        })
    }

    fn cmp_expr(&mut self) -> Result<Tall, ParseError> {
        let (lhs, height) = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::NotEq) => BinOp::Ne,
            _ => return Ok((lhs, height)),
        };
        self.bump();
        let (rhs, rhs_height) = self.add_expr()?;
        let height = self.above(height.max(rhs_height))?;
        Ok((Expr::Bin(op, Box::new(lhs), Box::new(rhs)), height))
    }

    fn add_expr(&mut self) -> Result<Tall, ParseError> {
        self.chain(Self::mul_expr, |t| match t {
            Token::Plus => Some(BinOp::Add),
            Token::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<Tall, ParseError> {
        self.chain(Self::unary_expr, |t| match t {
            Token::Star => Some(BinOp::Mul),
            Token::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> Result<Tall, ParseError> {
        let op = match self.peek() {
            Some(Token::Bang) => UnOp::Not,
            Some(Token::Minus) => UnOp::Neg,
            _ => return self.postfix_expr(),
        };
        self.bump();
        let (operand, height) = self.nested(Self::unary_expr)?;
        Ok((Expr::Un(op, Box::new(operand)), self.above(height)?))
    }

    fn postfix_expr(&mut self) -> Result<Tall, ParseError> {
        let (mut e, mut height) = self.atom()?;
        while self.eat(&Token::LBracket) {
            let (idx, idx_height) = self.expr_h()?;
            self.expect_token(&Token::RBracket)?;
            height = self.above(height.max(idx_height))?;
            e = Expr::Index(Box::new(e), Box::new(idx));
        }
        Ok((e, height))
    }

    fn atom(&mut self) -> Result<Tall, ParseError> {
        match self.bump() {
            Some(Token::Int(v)) => Ok((Expr::Int(v), 1)),
            Some(Token::Float(v)) => Ok((Expr::Fix(v), 1)),
            Some(Token::True) => Ok((Expr::Bool(true), 1)),
            Some(Token::False) => Ok((Expr::Bool(false), 1)),
            Some(Token::LParen) => {
                let inner = self.expr_h()?;
                self.expect_token(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                if self.eat(&Token::LParen) {
                    // Builtin call.
                    let builtin = Builtin::from_name(&name)
                        .ok_or_else(|| self.err(&format!("unknown function {name:?}")))?;
                    let mut args = Vec::new();
                    let mut tallest = 0;
                    if !self.eat(&Token::RParen) {
                        loop {
                            let (arg, height) = self.expr_h()?;
                            args.push(arg);
                            tallest = tallest.max(height);
                            if self.eat(&Token::RParen) {
                                break;
                            }
                            self.expect_token(&Token::Comma)?;
                        }
                    }
                    Ok((Expr::Call(builtin, args), self.above(tallest)?))
                } else {
                    Ok((Expr::Var(name), 1))
                }
            }
            other => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(&format!("unexpected token {other:?} in expression")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_running_example() {
        // Figure 3: top1.
        let p = parse(
            "aggr = sum(db);\n\
             result = em(aggr, 0.1);\n\
             output(result);",
        )
        .unwrap();
        assert_eq!(p.stmts.len(), 3);
        assert!(matches!(&p.stmts[0], Stmt::Assign(n, Expr::Call(Builtin::Sum, _)) if n == "aggr"));
        assert!(matches!(
            &p.stmts[2],
            Stmt::Expr(Expr::Call(Builtin::Output, _))
        ));
    }

    #[test]
    fn parses_loops_and_conditionals() {
        let p = parse(
            "x = 0;\n\
             for i = 0 to 9 do\n\
               if s[i] > s[x] then x = i; else x = x; endif\n\
             endfor\n\
             output(declassify(x));",
        )
        .unwrap();
        assert_eq!(p.stmts.len(), 3);
        match &p.stmts[1] {
            Stmt::For { var, body, .. } => {
                assert_eq!(var, "i");
                assert!(matches!(&body[0], Stmt::If { .. }));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let p = parse("x = 1 + 2 * 3;").unwrap();
        match &p.stmts[0] {
            Stmt::Assign(_, Expr::Bin(BinOp::Add, lhs, rhs)) => {
                assert_eq!(**lhs, Expr::Int(1));
                assert!(matches!(**rhs, Expr::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("bad parse: {other:?}"),
        }
        // Parentheses override.
        let p = parse("x = (1 + 2) * 3;").unwrap();
        assert!(matches!(
            &p.stmts[0],
            Stmt::Assign(_, Expr::Bin(BinOp::Mul, _, _))
        ));
    }

    #[test]
    fn comparisons_bind_looser_than_arithmetic() {
        let p = parse("b = x + 1 < y * 2;").unwrap();
        assert!(matches!(
            &p.stmts[0],
            Stmt::Assign(_, Expr::Bin(BinOp::Lt, _, _))
        ));
    }

    #[test]
    fn two_dimensional_indexing() {
        let p = parse("v = db[i][j];").unwrap();
        match &p.stmts[0] {
            Stmt::Assign(_, Expr::Index(inner, _)) => {
                assert!(matches!(**inner, Expr::Index(_, _)));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn index_assignment() {
        let p = parse("es[i] = exp(x);").unwrap();
        assert!(matches!(
            &p.stmts[0],
            Stmt::IndexAssign(n, _, Expr::Call(Builtin::Exp, _)) if n == "es"
        ));
    }

    #[test]
    fn index_read_as_expression_statement() {
        // `x[i];` alone must parse as an expression, not an assignment.
        let p = parse("x[3];").unwrap();
        assert!(matches!(&p.stmts[0], Stmt::Expr(Expr::Index(_, _))));
    }

    #[test]
    fn unknown_function_rejected() {
        let err = parse("x = frobnicate(1);").unwrap_err();
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn unbalanced_constructs_rejected() {
        assert!(parse("for i = 0 to 3 do x = 1;").is_err());
        assert!(parse("if x > 1 then y = 2;").is_err());
        assert!(parse("x = (1 + 2;").is_err());
    }

    #[test]
    fn nesting_is_bounded_in_every_direction() {
        // (opening, closing) text per level, and how many levels fit.
        let shapes = [
            ("(", ")", MAX_NESTING - 2),
            ("-", "", MAX_NESTING - 2),
            ("exp(", ")", MAX_NESTING - 2),
            ("a[", "]", MAX_NESTING - 2),
            ("1||", "", MAX_NESTING - 1),
        ];
        for (open, close, fits) in shapes {
            let nest = |k: usize| format!("x = {}1{};", open.repeat(k), close.repeat(k));
            assert!(parse(&nest(fits)).is_ok(), "{open:?} x {fits}");
            for k in [fits + 1, 100_000] {
                let err = parse(&nest(k)).unwrap_err();
                assert!(err.message.contains("nesting deeper"), "{open:?} x {k}");
            }
        }
        // Chains that grow to the left of what is already parsed.
        for (tail, fits) in [("+1", MAX_NESTING - 1), ("[0]", MAX_NESTING - 1)] {
            let grow = |k: usize| format!("x = a{};", tail.repeat(k));
            assert!(parse(&grow(fits)).is_ok(), "{tail:?} x {fits}");
            assert!(parse(&grow(fits + 1)).is_err(), "{tail:?} x {fits}+1");
            assert!(parse(&grow(1_000_000)).is_err(), "{tail:?} x 10^6");
        }
        // Blocks.
        let blocks =
            |k: usize| format!("{}x = 1;{}", "if 1 < 2 then ".repeat(k), " endif".repeat(k));
        assert!(parse(&blocks(MAX_NESTING - 2)).is_ok());
        for k in [MAX_NESTING - 1, 100_000] {
            assert!(parse(&blocks(k)).is_err(), "{k} blocks");
        }
    }

    #[test]
    fn unary_operators() {
        let p = parse("a = -x; b = !c;").unwrap();
        assert!(matches!(
            &p.stmts[0],
            Stmt::Assign(_, Expr::Un(UnOp::Neg, _))
        ));
        assert!(matches!(
            &p.stmts[1],
            Stmt::Assign(_, Expr::Un(UnOp::Not, _))
        ));
    }
}
