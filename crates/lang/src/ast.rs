//! Abstract syntax tree.
//!
//! Names are [`Sym`]s of the compile's interner, so the tree means nothing
//! outside the one `compile_with` call that built it.

use std::fmt;

use crate::intern::Sym;

/// A guest-language type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Type {
    /// 64-bit signed integer (also the boolean type).
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Array of integers.
    IntArray,
    /// Array of floats.
    FloatArray,
    /// A typed function reference: parameter types and optional return type.
    FnRef {
        /// Parameter types.
        params: Vec<Type>,
        /// Return type, or `None` for a void function.
        ret: Option<Box<Type>>,
    },
}

impl Type {
    /// True for `int` and `float`.
    pub(crate) fn is_scalar(&self) -> bool {
        matches!(self, Type::Int | Type::Float)
    }

    /// The element type of an array type.
    pub(crate) fn element(&self) -> Option<Type> {
        match self {
            Type::IntArray => Some(Type::Int),
            Type::FloatArray => Some(Type::Float),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::IntArray => write!(f, "[int]"),
            Type::FloatArray => write!(f, "[float]"),
            Type::FnRef { params, ret } => {
                write!(f, "fn(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")?;
                if let Some(r) = ret {
                    write!(f, " -> {r}")?;
                }
                Ok(())
            }
        }
    }
}

/// Binary operators at the source level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

/// Unary operators at the source level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UnaryOp {
    /// Arithmetic negation (`-`).
    Neg,
    /// Logical not (`!`).
    Not,
    /// Bitwise complement (`~`).
    BitNot,
}

/// A syntax tree: the top-level items, and the arenas their expressions,
/// statements, argument lists and switch arms live in. Every node is plain
/// data that names its children by index, so a parse makes a handful of
/// growing vectors instead of one allocation per node.
#[derive(Debug)]
pub(crate) struct Ast {
    /// The globals and functions, in source order.
    pub(crate) items: Vec<Item>,
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    args: Vec<ExprId>,
    cases: Vec<(i64, Block)>,
    /// The contents of the string literals, indexed by [`ExprKind::Str`].
    pub(crate) strings: Vec<String>,
}

/// An expression's index in its [`Ast`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ExprId(u32);

/// A statement's index in its [`Ast`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StmtId(u32);

/// A block: a run of consecutive statements in its [`Ast`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Block {
    start: u32,
    len: u32,
}

/// A call's arguments: a run of consecutive expression ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Args {
    start: u32,
    len: u32,
}

/// A switch's case arms: a run of consecutive `(value, body)` pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cases {
    start: u32,
    len: u32,
}

/// The `start..start + len` range a run appended from `from` occupies.
fn run<T>(arena: &mut Vec<T>, from: impl Iterator<Item = T>) -> (u32, u32) {
    let start = arena.len();
    arena.extend(from);
    (start as u32, (arena.len() - start) as u32)
}

impl Ast {
    /// An empty tree for a stream of `tokens` tokens, keeping `strings` as
    /// its string literals. The arenas start at sizes that suite sources
    /// rarely outgrow: about one expression per two tokens and one
    /// statement per eight.
    pub(crate) fn with_capacity(strings: Vec<String>, tokens: usize) -> Ast {
        Ast {
            items: Vec::new(),
            exprs: Vec::with_capacity(tokens / 2),
            stmts: Vec::with_capacity(tokens / 8),
            args: Vec::with_capacity(tokens / 16),
            cases: Vec::new(),
            strings,
        }
    }

    /// Adds an expression.
    pub(crate) fn push_expr(&mut self, kind: ExprKind, line: u32) -> ExprId {
        self.exprs.push(Expr { kind, line });
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Adds a statement that no block holds (a `for` header's).
    pub(crate) fn push_stmt(&mut self, stmt: Stmt) -> StmtId {
        self.stmts.push(stmt);
        StmtId(self.stmts.len() as u32 - 1)
    }

    /// Adds a block holding `stmts`, in order.
    pub(crate) fn push_block(&mut self, stmts: impl Iterator<Item = Stmt>) -> Block {
        let (start, len) = run(&mut self.stmts, stmts);
        Block { start, len }
    }

    /// Adds an argument list.
    pub(crate) fn push_args(&mut self, args: impl Iterator<Item = ExprId>) -> Args {
        let (start, len) = run(&mut self.args, args);
        Args { start, len }
    }

    /// Adds a switch's arms.
    pub(crate) fn push_cases(&mut self, cases: impl Iterator<Item = (i64, Block)>) -> Cases {
        let (start, len) = run(&mut self.cases, cases);
        Cases { start, len }
    }

    pub(crate) fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    pub(crate) fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    pub(crate) fn block(&self, block: Block) -> &[Stmt] {
        &self.stmts[block.start as usize..][..block.len as usize]
    }

    pub(crate) fn args(&self, args: Args) -> &[ExprId] {
        &self.args[args.start as usize..][..args.len as usize]
    }

    pub(crate) fn cases(&self, cases: Cases) -> &[(i64, Block)] {
        &self.cases[cases.start as usize..][..cases.len as usize]
    }
}

/// An expression with its source line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Expr {
    /// The expression's payload.
    pub(crate) kind: ExprKind,
    /// 1-based source line.
    pub(crate) line: u32,
}

/// Expression kinds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (becomes an interned read-only `[int]`): its index
    /// in [`Ast::strings`].
    Str(u32),
    /// Variable or global reference.
    Name(Sym),
    /// `@func` — a function reference.
    FuncRef(Sym),
    /// `a[i]`.
    Index {
        /// The array expression.
        base: ExprId,
        /// The index expression.
        index: ExprId,
    },
    /// Binary operation (including short-circuit `&&`/`||`).
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        operand: ExprId,
    },
    /// A call: direct (`f(x)`), indirect (variable of `fn` type), or a
    /// builtin (`len`, `emit`, `sqrt`, …) — resolved during lowering.
    Call {
        /// Callee name.
        callee: Sym,
        /// Argument expressions.
        args: Args,
    },
}

/// An assignment target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum LValue {
    /// A variable or global.
    Name(Sym),
    /// An array element.
    Index {
        /// The array (variable or global name).
        base: Sym,
        /// The index expression.
        index: ExprId,
    },
}

/// A statement with its source line.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Stmt {
    /// The statement's payload.
    pub(crate) kind: StmtKind,
    /// 1-based source line.
    pub(crate) line: u32,
}

/// Statement kinds.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum StmtKind {
    /// `var name: ty = init;`
    Var {
        /// Variable name.
        name: Sym,
        /// Declared type.
        ty: Type,
        /// Initializer.
        init: ExprId,
    },
    /// `lvalue = value;`
    Assign {
        /// The target.
        target: LValue,
        /// The value.
        value: ExprId,
    },
    /// `if (cond) { … } else { … }`
    If {
        /// The condition (must be `int`).
        cond: ExprId,
        /// The then-branch.
        then_body: Block,
        /// The else-branch (possibly empty).
        else_body: Block,
    },
    /// `while (cond) { … }`
    While {
        /// The loop condition.
        cond: ExprId,
        /// The loop body.
        body: Block,
    },
    /// `do { … } while (cond);`
    DoWhile {
        /// The loop body.
        body: Block,
        /// The loop condition, tested after each iteration.
        cond: ExprId,
    },
    /// `for (init; cond; step) { … }`
    For {
        /// Optional init statement.
        init: Option<StmtId>,
        /// Optional condition (missing = always true).
        cond: Option<ExprId>,
        /// Optional step statement.
        step: Option<StmtId>,
        /// The loop body.
        body: Block,
    },
    /// `switch (scrutinee) { case N: { … } … default: { … } }`
    Switch {
        /// The value switched on (must be `int`).
        scrutinee: ExprId,
        /// `(value, body)` per case arm; no fallthrough.
        cases: Cases,
        /// The default arm (possibly empty).
        default: Block,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return;` / `return expr;`
    Return(Option<ExprId>),
    /// An expression evaluated for effect (a call).
    Expr(ExprId),
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Param {
    /// Parameter name.
    pub(crate) name: Sym,
    /// Parameter type.
    pub(crate) ty: Type,
}

/// A top-level item.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Item {
    /// `global name: ty;`
    Global {
        /// Global name.
        name: Sym,
        /// Declared type.
        ty: Type,
        /// 1-based source line.
        line: u32,
    },
    /// `fn name(params) -> ret { body }`
    Function {
        /// Function name.
        name: Sym,
        /// Parameters.
        params: Vec<Param>,
        /// Return type, or `None` for void.
        ret: Option<Type>,
        /// Body statements.
        body: Block,
        /// 1-based source line.
        line: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::FloatArray.to_string(), "[float]");
        let f = Type::FnRef {
            params: vec![Type::Int, Type::Float],
            ret: Some(Box::new(Type::Int)),
        };
        assert_eq!(f.to_string(), "fn(int, float) -> int");
        let v = Type::FnRef {
            params: vec![],
            ret: None,
        };
        assert_eq!(v.to_string(), "fn()");
    }

    #[test]
    fn type_helpers() {
        assert!(Type::Int.is_scalar());
        assert!(!Type::IntArray.is_scalar());
        assert_eq!(Type::IntArray.element(), Some(Type::Int));
        assert_eq!(Type::FloatArray.element(), Some(Type::Float));
        assert_eq!(Type::Int.element(), None);
    }
}
