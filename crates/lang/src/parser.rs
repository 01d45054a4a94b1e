//! Recursive-descent parser.

use crate::ast::{BinaryOp, Expr, ExprKind, Item, LValue, Param, Stmt, StmtKind, Type, UnaryOp};
use crate::error::CompileError;
use crate::token::{Punct, Token, TokenKind};

/// Parses a token stream into top-level items.
///
/// # Errors
///
/// Returns a [`CompileError`] at the offending token.
pub fn parse(tokens: Vec<Token>) -> Result<Vec<Item>, CompileError> {
    Parser { tokens, pos: 0 }.items()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Takes the current token out and advances past it. The parser never
    /// looks back (`pos` only grows), so the `Eof` left in its slot is
    /// never read.
    fn bump(&mut self) -> TokenKind {
        let t = std::mem::replace(&mut self.tokens[self.pos].kind, TokenKind::Eof);
        if !matches!(t, TokenKind::Eof) {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.line(), msg)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if *self.peek() == TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), CompileError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p}`, found {}", self.peek())))
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.is_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), CompileError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, CompileError> {
        match self.peek() {
            TokenKind::Ident(s) if !is_reserved(s) => {}
            other => return Err(self.error(format!("expected identifier, found {other}"))),
        }
        let TokenKind::Ident(s) = self.bump() else {
            unreachable!("the current token is an identifier")
        };
        Ok(s)
    }

    fn items(&mut self) -> Result<Vec<Item>, CompileError> {
        let mut items = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            if self.is_keyword("global") {
                items.push(self.global()?);
            } else if self.is_keyword("fn") {
                items.push(self.function()?);
            } else {
                return Err(self.error(format!(
                    "expected `fn` or `global` at top level, found {}",
                    self.peek()
                )));
            }
        }
        Ok(items)
    }

    fn global(&mut self) -> Result<Item, CompileError> {
        let line = self.line();
        self.expect_keyword("global")?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::Colon)?;
        let ty = self.parse_type()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Item::Global { name, ty, line })
    }

    fn function(&mut self) -> Result<Item, CompileError> {
        let line = self.line();
        self.expect_keyword("fn")?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                let pname = self.expect_ident()?;
                self.expect_punct(Punct::Colon)?;
                let ty = self.parse_type()?;
                params.push(Param { name: pname, ty });
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        let ret = if self.eat_punct(Punct::Arrow) {
            Some(self.parse_type()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(Item::Function {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    fn parse_type(&mut self) -> Result<Type, CompileError> {
        if self.eat_punct(Punct::LBracket) {
            let elem = self.parse_type()?;
            self.expect_punct(Punct::RBracket)?;
            return match elem {
                Type::Int => Ok(Type::IntArray),
                Type::Float => Ok(Type::FloatArray),
                other => Err(self.error(format!("arrays of {other} are not supported"))),
            };
        }
        if self.eat_keyword("int") {
            return Ok(Type::Int);
        }
        if self.eat_keyword("float") {
            return Ok(Type::Float);
        }
        if self.eat_keyword("fn") {
            self.expect_punct(Punct::LParen)?;
            let mut params = Vec::new();
            if !self.eat_punct(Punct::RParen) {
                loop {
                    params.push(self.parse_type()?);
                    if self.eat_punct(Punct::RParen) {
                        break;
                    }
                    self.expect_punct(Punct::Comma)?;
                }
            }
            let ret = if self.eat_punct(Punct::Arrow) {
                Some(Box::new(self.parse_type()?))
            } else {
                None
            };
            return Ok(Type::FnRef { params, ret });
        }
        Err(self.error(format!("expected a type, found {}", self.peek())))
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(self.error("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let kind = if self.is_keyword("var") {
            let s = self.simple_stmt()?;
            self.expect_punct(Punct::Semi)?;
            s
        } else if self.eat_keyword("if") {
            self.if_tail()?
        } else if self.eat_keyword("while") {
            self.expect_punct(Punct::LParen)?;
            let cond = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            let body = self.block()?;
            StmtKind::While { cond, body }
        } else if self.eat_keyword("do") {
            let body = self.block()?;
            self.expect_keyword("while")?;
            self.expect_punct(Punct::LParen)?;
            let cond = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::Semi)?;
            StmtKind::DoWhile { body, cond }
        } else if self.eat_keyword("for") {
            self.expect_punct(Punct::LParen)?;
            let init = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                None
            } else {
                let l = self.line();
                Some(Box::new(Stmt {
                    kind: self.simple_stmt()?,
                    line: l,
                }))
            };
            self.expect_punct(Punct::Semi)?;
            let cond = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(Punct::Semi)?;
            let step = if *self.peek() == TokenKind::Punct(Punct::RParen) {
                None
            } else {
                let l = self.line();
                Some(Box::new(Stmt {
                    kind: self.simple_stmt()?,
                    line: l,
                }))
            };
            self.expect_punct(Punct::RParen)?;
            let body = self.block()?;
            StmtKind::For {
                init,
                cond,
                step,
                body,
            }
        } else if self.eat_keyword("switch") {
            self.expect_punct(Punct::LParen)?;
            let scrutinee = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::LBrace)?;
            let mut cases = Vec::new();
            let mut default = Vec::new();
            let mut saw_default = false;
            while !self.eat_punct(Punct::RBrace) {
                if self.eat_keyword("case") {
                    let value = match self.bump() {
                        TokenKind::Int(v) => v,
                        TokenKind::Punct(Punct::Minus) => match self.bump() {
                            TokenKind::Int(v) => -v,
                            other => {
                                return Err(CompileError::new(
                                    line,
                                    format!("expected integer case label, found {other}"),
                                ))
                            }
                        },
                        other => {
                            return Err(CompileError::new(
                                line,
                                format!("expected integer case label, found {other}"),
                            ))
                        }
                    };
                    if cases.iter().any(|(v, _)| *v == value) {
                        return Err(self.error(format!("duplicate case label {value}")));
                    }
                    self.expect_punct(Punct::Colon)?;
                    cases.push((value, self.block()?));
                } else if self.eat_keyword("default") {
                    if saw_default {
                        return Err(self.error("duplicate default arm"));
                    }
                    saw_default = true;
                    self.expect_punct(Punct::Colon)?;
                    default = self.block()?;
                } else {
                    return Err(self.error(format!(
                        "expected `case` or `default`, found {}",
                        self.peek()
                    )));
                }
            }
            StmtKind::Switch {
                scrutinee,
                cases,
                default,
            }
        } else if self.eat_keyword("break") {
            self.expect_punct(Punct::Semi)?;
            StmtKind::Break
        } else if self.eat_keyword("continue") {
            self.expect_punct(Punct::Semi)?;
            StmtKind::Continue
        } else if self.eat_keyword("return") {
            let value = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(Punct::Semi)?;
            StmtKind::Return(value)
        } else {
            let s = self.simple_stmt()?;
            self.expect_punct(Punct::Semi)?;
            s
        };
        Ok(Stmt { kind, line })
    }

    /// `else`-chain tail after the `if` keyword has been consumed.
    fn if_tail(&mut self) -> Result<StmtKind, CompileError> {
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_body = self.block()?;
        let else_body = if self.eat_keyword("else") {
            if self.eat_keyword("if") {
                let line = self.line();
                vec![Stmt {
                    kind: self.if_tail()?,
                    line,
                }]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(StmtKind::If {
            cond,
            then_body,
            else_body,
        })
    }

    /// A `var` declaration, assignment, or expression statement — the forms
    /// allowed in `for` headers. Does not consume the trailing `;`.
    fn simple_stmt(&mut self) -> Result<StmtKind, CompileError> {
        if self.eat_keyword("var") {
            let name = self.expect_ident()?;
            self.expect_punct(Punct::Colon)?;
            let ty = self.parse_type()?;
            self.expect_punct(Punct::Assign)?;
            let init = self.expr()?;
            return Ok(StmtKind::Var { name, ty, init });
        }
        // Could be an assignment (`x = …`, `x[i] = …`) or an expression
        // statement (a call). Parse an expression and look for `=`.
        let e = self.expr()?;
        if self.eat_punct(Punct::Assign) {
            let target = match e.kind {
                ExprKind::Name(n) => LValue::Name(n),
                ExprKind::Index { base, index } => match base.kind {
                    ExprKind::Name(n) => LValue::Index {
                        base: n,
                        index: *index,
                    },
                    _ => {
                        return Err(CompileError::new(
                            e.line,
                            "assignment target must be a variable or element",
                        ))
                    }
                },
                _ => {
                    return Err(CompileError::new(
                        e.line,
                        "assignment target must be a variable or element",
                    ))
                }
            };
            let value = self.expr()?;
            return Ok(StmtKind::Assign { target, value });
        }
        Ok(StmtKind::Expr(e))
    }

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_level: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, level)) = self.peek_binary_op() {
            if level < min_level {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            };
        }
        Ok(lhs)
    }

    fn peek_binary_op(&self) -> Option<(BinaryOp, u8)> {
        let TokenKind::Punct(p) = self.peek() else {
            return None;
        };
        // Levels follow C: higher binds tighter. All binary operators are
        // left-associative (binary_expr recurses at level + 1).
        Some(match p {
            Punct::OrOr => (BinaryOp::Or, 0),
            Punct::AndAnd => (BinaryOp::And, 1),
            Punct::Pipe => (BinaryOp::BitOr, 2),
            Punct::Caret => (BinaryOp::BitXor, 3),
            Punct::Amp => (BinaryOp::BitAnd, 4),
            Punct::EqEq => (BinaryOp::Eq, 5),
            Punct::NotEq => (BinaryOp::Ne, 5),
            Punct::Lt => (BinaryOp::Lt, 6),
            Punct::Le => (BinaryOp::Le, 6),
            Punct::Gt => (BinaryOp::Gt, 6),
            Punct::Ge => (BinaryOp::Ge, 6),
            Punct::Shl => (BinaryOp::Shl, 7),
            Punct::Shr => (BinaryOp::Shr, 7),
            Punct::Plus => (BinaryOp::Add, 8),
            Punct::Minus => (BinaryOp::Sub, 8),
            Punct::Star => (BinaryOp::Mul, 9),
            Punct::Slash => (BinaryOp::Div, 9),
            Punct::Percent => (BinaryOp::Rem, 9),
            _ => return None,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => Some(UnaryOp::Neg),
            TokenKind::Punct(Punct::Bang) => Some(UnaryOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnaryOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.unary_expr()?;
            return Ok(Expr {
                kind: ExprKind::Unary {
                    op,
                    operand: Box::new(operand),
                },
                line,
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary_expr()?;
        loop {
            if self.eat_punct(Punct::LBracket) {
                let line = self.line();
                let index = self.expr()?;
                self.expect_punct(Punct::RBracket)?;
                e = Expr {
                    kind: ExprKind::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    },
                    line,
                };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.bump() {
            TokenKind::Int(v) => Ok(Expr {
                kind: ExprKind::Int(v),
                line,
            }),
            TokenKind::Float(v) => Ok(Expr {
                kind: ExprKind::Float(v),
                line,
            }),
            TokenKind::Str(s) => Ok(Expr {
                kind: ExprKind::Str(s),
                line,
            }),
            TokenKind::Punct(Punct::At) => {
                let name = self.expect_ident()?;
                Ok(Expr {
                    kind: ExprKind::FuncRef(name),
                    line,
                })
            }
            TokenKind::Punct(Punct::LParen) => {
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            // `int(…)` and `float(…)` are the conversion builtins; the type
            // keywords are callable but not usable as bare names.
            TokenKind::Ident(name)
                if !is_reserved(&name)
                    || ((name == "int" || name == "float")
                        && *self.peek() == TokenKind::Punct(Punct::LParen)) =>
            {
                if self.eat_punct(Punct::LParen) {
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(Punct::RParen) {
                                break;
                            }
                            self.expect_punct(Punct::Comma)?;
                        }
                    }
                    Ok(Expr {
                        kind: ExprKind::Call { callee: name, args },
                        line,
                    })
                } else {
                    Ok(Expr {
                        kind: ExprKind::Name(name),
                        line,
                    })
                }
            }
            other => Err(CompileError::new(
                line,
                format!("expected an expression, found {other}"),
            )),
        }
    }
}

fn is_reserved(s: &str) -> bool {
    matches!(
        s,
        "fn" | "global"
            | "var"
            | "if"
            | "else"
            | "while"
            | "do"
            | "for"
            | "switch"
            | "case"
            | "default"
            | "break"
            | "continue"
            | "return"
            | "int"
            | "float"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Vec<Item>, CompileError> {
        parse(lex(src).unwrap())
    }

    #[test]
    fn parses_function_and_global() {
        let items = parse_src("global tab: [int];\n fn main(n: int) -> int { return n; }").unwrap();
        assert_eq!(items.len(), 2);
        assert!(matches!(&items[0], Item::Global { name, ty, .. }
            if name == "tab" && *ty == Type::IntArray));
        match &items[1] {
            Item::Function {
                name, params, ret, ..
            } => {
                assert_eq!(name, "main");
                assert_eq!(params.len(), 1);
                assert_eq!(*ret, Some(Type::Int));
            }
            _ => panic!("expected function"),
        }
    }

    #[test]
    fn precedence_is_c_like() {
        let items = parse_src("fn f() -> int { return 1 + 2 * 3; }").unwrap();
        let Item::Function { body, .. } = &items[0] else {
            panic!()
        };
        let StmtKind::Return(Some(e)) = &body[0].kind else {
            panic!()
        };
        // (1 + (2 * 3))
        let ExprKind::Binary { op, rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            &rhs.kind,
            ExprKind::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn left_associativity() {
        let items = parse_src("fn f() -> int { return 10 - 3 - 2; }").unwrap();
        let Item::Function { body, .. } = &items[0] else {
            panic!()
        };
        let StmtKind::Return(Some(e)) = &body[0].kind else {
            panic!()
        };
        // ((10 - 3) - 2)
        let ExprKind::Binary { op, lhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Sub);
        assert!(matches!(
            &lhs.kind,
            ExprKind::Binary {
                op: BinaryOp::Sub,
                ..
            }
        ));
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            fn f(n: int) {
                var i: int = 0;
                while (i < n) { i = i + 1; }
                do { i = i - 1; } while (i > 0);
                for (i = 0; i < 5; i = i + 1) { continue; }
                if (i == 0) { return; } else if (i == 1) { emit(i); } else { break; }
                switch (i) {
                    case 0: { emit(0); }
                    case -1: { emit(1); }
                    default: { emit(2); }
                }
            }
        "#;
        let items = parse_src(src).unwrap();
        let Item::Function { body, .. } = &items[0] else {
            panic!()
        };
        assert_eq!(body.len(), 6);
        assert!(matches!(body[5].kind, StmtKind::Switch { ref cases, .. } if cases.len() == 2));
    }

    #[test]
    fn else_if_chains_nest() {
        let src = "fn f(x: int) { if (x == 0) { } else if (x == 1) { } else { } }";
        let items = parse_src(src).unwrap();
        let Item::Function { body, .. } = &items[0] else {
            panic!()
        };
        let StmtKind::If { else_body, .. } = &body[0].kind else {
            panic!()
        };
        assert_eq!(else_body.len(), 1);
        assert!(matches!(else_body[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn fn_types_parse() {
        let items = parse_src("fn f(cb: fn(int, float) -> int, g: fn()) { }").unwrap();
        let Item::Function { params, .. } = &items[0] else {
            panic!()
        };
        assert_eq!(
            params[0].ty,
            Type::FnRef {
                params: vec![Type::Int, Type::Float],
                ret: Some(Box::new(Type::Int)),
            }
        );
        assert_eq!(
            params[1].ty,
            Type::FnRef {
                params: vec![],
                ret: None,
            }
        );
    }

    #[test]
    fn func_ref_and_index() {
        let items = parse_src("fn f(a: [int]) -> int { return a[a[0]] + 1; }").unwrap();
        assert_eq!(items.len(), 1);
        let items = parse_src("fn g() { } fn f() { var h: fn() = @g; h(); }");
        // `h(…)` parses as a call with callee name `h`.
        assert!(items.is_ok());
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse_src("fn f( { }").is_err());
        assert!(parse_src("fn f() { var x int = 1; }").is_err());
        assert!(parse_src("fn f() { 1 + ; }").is_err());
        assert!(parse_src("fn f() { if 1 { } }").is_err());
        assert!(parse_src("xyzzy").is_err());
        assert!(parse_src("fn f() { switch (1) { what: {} } }").is_err());
        assert!(parse_src("fn f() { (1 + 2) = 3; }").is_err());
        assert!(parse_src("fn f() {").is_err());
        assert!(parse_src("fn f() { x = 1 }").is_err());
        assert!(parse_src("global g: [fn()];").is_err());
    }

    #[test]
    fn rejects_duplicate_case_labels() {
        assert!(parse_src("fn f(x: int) { switch (x) { case 1: { } case 1: { } } }").is_err());
        assert!(parse_src("fn f(x: int) { switch (x) { default: { } default: { } } }").is_err());
    }

    #[test]
    fn keywords_are_not_identifiers() {
        assert!(parse_src("fn while() { }").is_err());
        assert!(parse_src("fn f() { var if: int = 1; }").is_err());
    }
}
