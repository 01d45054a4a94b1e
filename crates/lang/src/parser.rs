//! Recursive-descent parser.

use crate::ast::{
    Ast, BinaryOp, Block, ExprId, ExprKind, Item, LValue, Param, Stmt, StmtKind, Type, UnaryOp,
};
use crate::error::CompileError;
use crate::intern::{Interner, Sym};
use crate::token::{Keyword, Punct, Shown, Token, TokenKind};

/// Parses a token stream into a syntax tree. `strings` holds the contents
/// of the stream's string literals (the tree keeps them) and `names` its
/// names; the parser reads `names` only to quote a token in a diagnostic.
///
/// # Errors
///
/// Returns a [`CompileError`] at the offending token.
pub(crate) fn parse(
    tokens: Vec<Token>,
    strings: Vec<String>,
    names: &Interner<'_>,
) -> Result<Ast, CompileError> {
    let mut parser = Parser {
        ast: Ast::with_capacity(strings, tokens.len()),
        tokens,
        pos: 0,
        names,
        stmts: Vec::new(),
        args: Vec::new(),
        cases: Vec::new(),
    };
    parser.items()?;
    Ok(parser.ast)
}

struct Parser<'a, 's> {
    tokens: Vec<Token>,
    pos: usize,
    names: &'a Interner<'s>,
    ast: Ast,
    /// The statements of the blocks being parsed, innermost last; a block
    /// moves its own into the tree when it closes.
    stmts: Vec<Stmt>,
    /// The same for the argument lists being parsed.
    args: Vec<ExprId>,
    /// The same for the switch arms being parsed.
    cases: Vec<(i64, Block)>,
}

impl Parser<'_, '_> {
    fn peek(&self) -> TokenKind {
        self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Returns the current token and advances past it, staying on `Eof`.
    fn bump(&mut self) -> TokenKind {
        let t = self.peek();
        if t != TokenKind::Eof {
            self.pos += 1;
        }
        t
    }

    /// `kind` as a diagnostic quotes it.
    fn show(&self, kind: TokenKind) -> Shown<'_, '_> {
        Shown {
            kind,
            names: self.names,
            strings: &self.ast.strings,
        }
    }

    fn error(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.line(), msg)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == TokenKind::Punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), CompileError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{p}`, found {}", self.show(self.peek()))))
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek() == TokenKind::Keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), CompileError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found {}", self.show(self.peek()))))
        }
    }

    fn expect_ident(&mut self) -> Result<Sym, CompileError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {}", self.show(other)))),
        }
    }

    fn items(&mut self) -> Result<(), CompileError> {
        loop {
            let item = match self.peek() {
                TokenKind::Eof => return Ok(()),
                TokenKind::Keyword(Keyword::Global) => self.global()?,
                TokenKind::Keyword(Keyword::Fn) => self.function()?,
                other => {
                    return Err(self.error(format!(
                        "expected `fn` or `global` at top level, found {}",
                        self.show(other)
                    )))
                }
            };
            self.ast.items.push(item);
        }
    }

    fn global(&mut self) -> Result<Item, CompileError> {
        let line = self.line();
        self.expect_keyword(Keyword::Global)?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::Colon)?;
        let ty = self.parse_type()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Item::Global { name, ty, line })
    }

    fn function(&mut self) -> Result<Item, CompileError> {
        let line = self.line();
        self.expect_keyword(Keyword::Fn)?;
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
        if self.eat_keyword(Keyword::Int) {
            return Ok(Type::Int);
        }
        if self.eat_keyword(Keyword::Float) {
            return Ok(Type::Float);
        }
        if self.eat_keyword(Keyword::Fn) {
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
        Err(self.error(format!("expected a type, found {}", self.show(self.peek()))))
    }

    fn block(&mut self) -> Result<Block, CompileError> {
        self.expect_punct(Punct::LBrace)?;
        let open = self.stmts.len();
        while !self.eat_punct(Punct::RBrace) {
            if self.peek() == TokenKind::Eof {
                return Err(self.error("unexpected end of input inside block"));
            }
            let stmt = self.stmt()?;
            self.stmts.push(stmt);
        }
        Ok(self.ast.push_block(self.stmts.drain(open..)))
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let kind = match self.peek() {
            TokenKind::Keyword(Keyword::If) => {
                self.pos += 1;
                self.if_tail()?
            }
            TokenKind::Keyword(Keyword::While) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.block()?;
                StmtKind::While { cond, body }
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.pos += 1;
                let body = self.block()?;
                self.expect_keyword(Keyword::While)?;
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                StmtKind::DoWhile { body, cond }
            }
            TokenKind::Keyword(Keyword::For) => {
                self.pos += 1;
                self.for_tail()?
            }
            TokenKind::Keyword(Keyword::Switch) => {
                self.pos += 1;
                self.switch_tail(line)?
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.pos += 1;
                self.expect_punct(Punct::Semi)?;
                StmtKind::Break
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.pos += 1;
                self.expect_punct(Punct::Semi)?;
                StmtKind::Continue
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.pos += 1;
                let value = if self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                StmtKind::Return(value)
            }
            // `var`, an assignment or an expression statement.
            _ => {
                let s = self.simple_stmt()?;
                self.expect_punct(Punct::Semi)?;
                s
            }
        };
        Ok(Stmt { kind, line })
    }

    /// A `for` statement after its keyword.
    fn for_tail(&mut self) -> Result<StmtKind, CompileError> {
        self.expect_punct(Punct::LParen)?;
        let init = if self.peek() == TokenKind::Punct(Punct::Semi) {
            None
        } else {
            let line = self.line();
            let kind = self.simple_stmt()?;
            Some(self.ast.push_stmt(Stmt { kind, line }))
        };
        self.expect_punct(Punct::Semi)?;
        let cond = if self.peek() == TokenKind::Punct(Punct::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_punct(Punct::Semi)?;
        let step = if self.peek() == TokenKind::Punct(Punct::RParen) {
            None
        } else {
            let line = self.line();
            let kind = self.simple_stmt()?;
            Some(self.ast.push_stmt(Stmt { kind, line }))
        };
        self.expect_punct(Punct::RParen)?;
        let body = self.block()?;
        Ok(StmtKind::For {
            init,
            cond,
            step,
            body,
        })
    }

    /// A `switch` statement after its keyword; `line` is the keyword's,
    /// where a malformed case label is reported.
    fn switch_tail(&mut self, line: u32) -> Result<StmtKind, CompileError> {
        self.expect_punct(Punct::LParen)?;
        let scrutinee = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::LBrace)?;
        let open = self.cases.len();
        let mut default = Block::default();
        let mut saw_default = false;
        while !self.eat_punct(Punct::RBrace) {
            if self.eat_keyword(Keyword::Case) {
                let (negate, label) = match self.bump() {
                    TokenKind::Punct(Punct::Minus) => (true, self.bump()),
                    t => (false, t),
                };
                let TokenKind::Int(v) = label else {
                    return Err(CompileError::new(
                        line,
                        format!("expected integer case label, found {}", self.show(label)),
                    ));
                };
                let value = if negate { -v } else { v };
                if self.cases[open..].iter().any(|(v, _)| *v == value) {
                    return Err(self.error(format!("duplicate case label {value}")));
                }
                self.expect_punct(Punct::Colon)?;
                let body = self.block()?;
                self.cases.push((value, body));
            } else if self.eat_keyword(Keyword::Default) {
                if saw_default {
                    return Err(self.error("duplicate default arm"));
                }
                saw_default = true;
                self.expect_punct(Punct::Colon)?;
                default = self.block()?;
            } else {
                return Err(self.error(format!(
                    "expected `case` or `default`, found {}",
                    self.show(self.peek())
                )));
            }
        }
        let cases = self.ast.push_cases(self.cases.drain(open..));
        Ok(StmtKind::Switch {
            scrutinee,
            cases,
            default,
        })
    }

    /// `else`-chain tail after the `if` keyword has been consumed.
    fn if_tail(&mut self) -> Result<StmtKind, CompileError> {
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_body = self.block()?;
        let else_body = if self.eat_keyword(Keyword::Else) {
            if self.eat_keyword(Keyword::If) {
                let line = self.line();
                let kind = self.if_tail()?;
                self.ast.push_block(std::iter::once(Stmt { kind, line }))
            } else {
                self.block()?
            }
        } else {
            Block::default()
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
        if self.eat_keyword(Keyword::Var) {
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
            let target = *self.ast.expr(e);
            let target = match target.kind {
                ExprKind::Name(n) => LValue::Name(n),
                ExprKind::Index { base, index } => match self.ast.expr(base).kind {
                    ExprKind::Name(n) => LValue::Index { base: n, index },
                    _ => {
                        return Err(CompileError::new(
                            target.line,
                            "assignment target must be a variable or element",
                        ))
                    }
                },
                _ => {
                    return Err(CompileError::new(
                        target.line,
                        "assignment target must be a variable or element",
                    ))
                }
            };
            let value = self.expr()?;
            return Ok(StmtKind::Assign { target, value });
        }
        Ok(StmtKind::Expr(e))
    }

    fn expr(&mut self) -> Result<ExprId, CompileError> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_level: u8) -> Result<ExprId, CompileError> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, level)) = self.peek_binary_op() {
            if level < min_level {
                break;
            }
            let line = self.line();
            self.pos += 1;
            let rhs = self.binary_expr(level + 1)?;
            lhs = self.ast.push_expr(ExprKind::Binary { op, lhs, rhs }, line);
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

    fn unary_expr(&mut self) -> Result<ExprId, CompileError> {
        let line = self.line();
        let op = match self.peek() {
            TokenKind::Punct(Punct::Minus) => UnaryOp::Neg,
            TokenKind::Punct(Punct::Bang) => UnaryOp::Not,
            TokenKind::Punct(Punct::Tilde) => UnaryOp::BitNot,
            _ => return self.postfix_expr(),
        };
        self.pos += 1;
        let operand = self.unary_expr()?;
        Ok(self.ast.push_expr(ExprKind::Unary { op, operand }, line))
    }

    fn postfix_expr(&mut self) -> Result<ExprId, CompileError> {
        let mut e = self.primary_expr()?;
        while self.eat_punct(Punct::LBracket) {
            let line = self.line();
            let index = self.expr()?;
            self.expect_punct(Punct::RBracket)?;
            e = self.ast.push_expr(ExprKind::Index { base: e, index }, line);
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<ExprId, CompileError> {
        let line = self.line();
        let kind = match self.bump() {
            TokenKind::Int(v) => ExprKind::Int(v),
            TokenKind::Float(v) => ExprKind::Float(v),
            TokenKind::Str(i) => ExprKind::Str(i),
            TokenKind::Punct(Punct::At) => ExprKind::FuncRef(self.expect_ident()?),
            TokenKind::Punct(Punct::LParen) => {
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                return Ok(e);
            }
            TokenKind::Ident(name) => self.name_or_call(name)?,
            // `int(…)` and `float(…)` are the conversion builtins; the type
            // keywords are callable but not usable as bare names.
            TokenKind::Keyword(kw @ (Keyword::Int | Keyword::Float))
                if self.peek() == TokenKind::Punct(Punct::LParen) =>
            {
                self.name_or_call(kw.sym())?
            }
            other => {
                return Err(CompileError::new(
                    line,
                    format!("expected an expression, found {}", self.show(other)),
                ))
            }
        };
        Ok(self.ast.push_expr(kind, line))
    }

    /// A name, or a call when an argument list follows it.
    fn name_or_call(&mut self, name: Sym) -> Result<ExprKind, CompileError> {
        if !self.eat_punct(Punct::LParen) {
            return Ok(ExprKind::Name(name));
        }
        let open = self.args.len();
        if !self.eat_punct(Punct::RParen) {
            loop {
                let arg = self.expr()?;
                self.args.push(arg);
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        let args = self.ast.push_args(self.args.drain(open..));
        Ok(ExprKind::Call { callee: name, args })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Ast, CompileError> {
        let lexed = lex(src).unwrap();
        parse(lexed.tokens, lexed.strings, &lexed.names)
    }

    /// The statements of the body of `ast`'s `i`th item, a function.
    fn body(ast: &Ast, i: usize) -> &[Stmt] {
        let Item::Function { body, .. } = &ast.items[i] else {
            panic!("item {i} is not a function")
        };
        ast.block(*body)
    }

    #[test]
    fn parses_function_and_global() {
        let src = "global tab: [int];\n fn main(n: int) -> int { return n; }";
        let lexed = lex(src).unwrap();
        let names = lexed.names;
        let ast = parse(lexed.tokens, lexed.strings, &names).unwrap();
        assert_eq!(ast.items.len(), 2);
        assert!(matches!(&ast.items[0], Item::Global { name, ty, .. }
            if names.name(*name) == "tab" && *ty == Type::IntArray));
        match &ast.items[1] {
            Item::Function {
                name, params, ret, ..
            } => {
                assert_eq!(names.name(*name), "main");
                assert_eq!(params.len(), 1);
                assert_eq!(*ret, Some(Type::Int));
            }
            _ => panic!("expected function"),
        }
    }

    #[test]
    fn precedence_is_c_like() {
        let ast = parse_src("fn f() -> int { return 1 + 2 * 3; }").unwrap();
        let StmtKind::Return(Some(e)) = body(&ast, 0)[0].kind else {
            panic!()
        };
        // (1 + (2 * 3))
        let ExprKind::Binary { op, rhs, .. } = ast.expr(e).kind else {
            panic!()
        };
        assert_eq!(op, BinaryOp::Add);
        assert!(matches!(
            ast.expr(rhs).kind,
            ExprKind::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn left_associativity() {
        let ast = parse_src("fn f() -> int { return 10 - 3 - 2; }").unwrap();
        let StmtKind::Return(Some(e)) = body(&ast, 0)[0].kind else {
            panic!()
        };
        // ((10 - 3) - 2)
        let ExprKind::Binary { op, lhs, .. } = ast.expr(e).kind else {
            panic!()
        };
        assert_eq!(op, BinaryOp::Sub);
        assert!(matches!(
            ast.expr(lhs).kind,
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
        let ast = parse_src(src).unwrap();
        let body = body(&ast, 0);
        assert_eq!(body.len(), 6);
        let StmtKind::Switch { cases, default, .. } = body[5].kind else {
            panic!()
        };
        let labels: Vec<i64> = ast.cases(cases).iter().map(|(v, _)| *v).collect();
        assert_eq!(labels, [0, -1]);
        assert_eq!(ast.block(default).len(), 1);
    }

    #[test]
    fn nested_blocks_keep_their_own_statements() {
        let src = "fn f(x: int) { emit(1); if (x) { emit(2); emit(3); } emit(4); }";
        let ast = parse_src(src).unwrap();
        let body = body(&ast, 0);
        assert_eq!(body.len(), 3);
        let StmtKind::If { then_body, .. } = body[1].kind else {
            panic!()
        };
        assert_eq!(ast.block(then_body).len(), 2);
    }

    #[test]
    fn else_if_chains_nest() {
        let src = "fn f(x: int) { if (x == 0) { } else if (x == 1) { } else { } }";
        let ast = parse_src(src).unwrap();
        let StmtKind::If { else_body, .. } = body(&ast, 0)[0].kind else {
            panic!()
        };
        let else_body = ast.block(else_body);
        assert_eq!(else_body.len(), 1);
        assert!(matches!(else_body[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn fn_types_parse() {
        let ast = parse_src("fn f(cb: fn(int, float) -> int, g: fn()) { }").unwrap();
        let Item::Function { params, .. } = &ast.items[0] else {
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
        let ast = parse_src("fn f(a: [int]) -> int { return a[a[0]] + 1; }").unwrap();
        assert_eq!(ast.items.len(), 1);
        let ast = parse_src("fn g() { } fn f() { var h: fn() = @g; h(1, g(2)); }").unwrap();
        // `h(…)` parses as a call with callee name `h`, and the nested
        // call's argument list stays its own.
        let StmtKind::Expr(call) = body(&ast, 1)[1].kind else {
            panic!()
        };
        let ExprKind::Call { args, .. } = ast.expr(call).kind else {
            panic!()
        };
        let args = ast.args(args);
        assert_eq!(args.len(), 2);
        assert!(matches!(ast.expr(args[0]).kind, ExprKind::Int(1)));
        let ExprKind::Call { args: inner, .. } = ast.expr(args[1]).kind else {
            panic!()
        };
        assert_eq!(ast.args(inner).len(), 1);
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
        // A nested switch's labels are its own.
        let nested = "fn f(x: int) { switch (x) { case 1: { switch (x) { case 1: { } } } } }";
        assert!(parse_src(nested).is_ok());
    }

    #[test]
    fn keywords_are_not_identifiers() {
        assert!(parse_src("fn while() { }").is_err());
        assert!(parse_src("fn f() { var if: int = 1; }").is_err());
        assert!(parse_src("fn f() { var x: int = int; }").is_err());
    }

    #[test]
    fn conversion_keywords_are_callable() {
        let ast = parse_src("fn f() { var x: int = int(1.5); }").unwrap();
        let StmtKind::Var { init, .. } = body(&ast, 0)[0].kind else {
            panic!()
        };
        assert!(
            matches!(ast.expr(init).kind, ExprKind::Call { callee, .. } if callee == Keyword::Int.sym())
        );
    }
}
