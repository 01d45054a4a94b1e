//! Type checking and lowering to `trace-ir`.
//!
//! Lowering fixes the branch-count characteristics the experiments measure:
//!
//! * every comparison is a separate compare instruction feeding a
//!   conditional branch (the classic RISC cmp+branch pair);
//! * `&&`/`||` produce real short-circuit branches;
//! * loops are rotated: a guard branch at entry (kind `If`) plus a
//!   bottom-of-loop back-edge branch (kind `LoopBack`, taken = iterate) —
//!   the layout the backward-taken heuristic predictor keys on;
//! * `switch` lowers to cascaded conditional branches (one `SwitchArm`
//!   branch per case) exactly as the Multiflow compiler did for the paper,
//!   or to a branch-target table (an indirect jump) under
//!   [`SwitchMode::JumpTable`].
//!
//! Names resolve through per-symbol tables: the global, the function and
//! the innermost local binding of each [`Sym`] sit at the symbol's index,
//! and leaving a scope restores the bindings its declarations shadowed.
//! No name is hashed or compared as text here; lowering builds a `String`
//! only for the names the IR keeps (globals and functions) and for
//! diagnostics.

use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
use trace_ir::{BinOp, BlockId, BranchKind, FuncId, GlobalId, Program, Reg, UnOp};

use crate::ast::{
    Ast, BinaryOp, Block, Expr, ExprId, ExprKind, Item, LValue, Stmt, StmtKind, Type, UnaryOp,
};
use crate::error::CompileError;
use crate::intern::{Interner, Sym, SEEDED};
use crate::token::Keyword;

/// How `switch` statements are lowered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SwitchMode {
    /// Cascaded conditional branches, one per case (the paper's choice: the
    /// predictability of each arm then shows up in the branch statistics).
    #[default]
    Cascade,
    /// A branch-target table: a single indirect jump, counted as an
    /// unavoidable break in control. Falls back to cascade when the case
    /// values span more than 1024 slots.
    JumpTable,
}

/// Compilation options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileOptions {
    /// `switch` lowering strategy.
    pub switch_mode: SwitchMode,
    /// Convert simple `if` statements into `select` instructions, as the
    /// Trace front ends did (the paper left this on and reports selects at
    /// 0.2–0.7% of executed instructions). Applies only when the branches
    /// are single scalar assignments whose right-hand sides cannot trap and
    /// have no side effects.
    pub if_conversion: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            switch_mode: SwitchMode::default(),
            if_conversion: true,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
struct FnSig {
    params: Vec<Type>,
    ret: Option<Type>,
}

/// Lowers a syntax tree to a validated program. The entry function must be
/// named `main`. `names` is the interner the tree's symbols belong to.
///
/// # Errors
///
/// Returns a [`CompileError`] for semantic errors (unknown names, type
/// mismatches, bad arity, missing `main`, …).
pub(crate) fn lower(
    ast: &Ast,
    names: &Interner<'_>,
    options: &CompileOptions,
) -> Result<Program, CompileError> {
    let mut pb = ProgramBuilder::new();
    let mut globals: Vec<Option<(GlobalId, Type)>> = vec![None; names.len()];
    let mut funcs: Vec<Option<(FuncId, FnSig)>> = vec![None; names.len()];

    // Pass 1: collect globals and function signatures.
    for item in &ast.items {
        let (name, line) = match item {
            Item::Global { name, line, .. } | Item::Function { name, line, .. } => (*name, *line),
        };
        let text = names.name(name);
        if Builtin::of(name).is_some() {
            return Err(CompileError::new(
                line,
                format!("`{text}` is a builtin and cannot be redefined"),
            ));
        }
        match item {
            Item::Global { ty, .. } => {
                let slot = &mut globals[name.index()];
                if slot.is_some() {
                    return Err(CompileError::new(
                        line,
                        format!("duplicate global `{text}`"),
                    ));
                }
                *slot = Some((pb.add_global(text), ty.clone()));
            }
            Item::Function { params, ret, .. } => {
                let slot = &mut funcs[name.index()];
                if slot.is_some() {
                    return Err(CompileError::new(
                        line,
                        format!("duplicate function `{text}`"),
                    ));
                }
                let sig = FnSig {
                    params: params.iter().map(|p| p.ty.clone()).collect(),
                    ret: ret.clone(),
                };
                *slot = Some((pb.declare_function(text), sig));
            }
        }
    }

    if names
        .get("main")
        .is_none_or(|main| funcs[main.index()].is_none())
    {
        return Err(CompileError::new(0, "no `main` function defined"));
    }

    // Pass 2: lower each function body.
    let mut locals = Locals {
        bound: vec![None; names.len()],
        shadowed: Vec::new(),
    };
    for item in &ast.items {
        let Item::Function {
            name,
            params,
            ret,
            body,
            line,
        } = item
        else {
            continue;
        };
        let mut fb = FunctionBuilder::new(names.name(*name), params.len() as u32);
        let mut lowerer = Lowerer {
            ast,
            pb: &mut pb,
            fb: &mut fb,
            names,
            globals: &globals,
            funcs: &funcs,
            locals: &mut locals,
            loops: Vec::new(),
            ret: ret.clone(),
            options: *options,
        };
        let scope = lowerer.locals.enter();
        for (i, p) in params.iter().enumerate() {
            if lowerer.locals.get(p.name).is_some() {
                return Err(CompileError::new(
                    *line,
                    format!("duplicate parameter `{}`", names.name(p.name)),
                ));
            }
            lowerer.locals.declare(p.name, Reg(i as u32), p.ty.clone());
        }
        lowerer.lower_body(*body)?;
        lowerer.locals.exit(scope);
        let (id, _) = funcs[name.index()].as_ref().expect("declared in pass 1");
        pb.define_function(*id, fb.finish());
    }

    Ok(pb.finish("main")?)
}

/// A builtin function. Each one's interned symbol is fixed (see
/// [`SEEDED`]): `int` and `float` are the last two keywords, and the rest
/// follow them in this order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Builtin {
    Int,
    Float,
    Len,
    NewInt,
    NewFloat,
    Emit,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    Floor,
    Iabs,
    Fabs,
    Fmin,
    Fmax,
    Select,
}

impl Builtin {
    const ALL: [Builtin; 17] = [
        Builtin::Int,
        Builtin::Float,
        Builtin::Len,
        Builtin::NewInt,
        Builtin::NewFloat,
        Builtin::Emit,
        Builtin::Sqrt,
        Builtin::Sin,
        Builtin::Cos,
        Builtin::Exp,
        Builtin::Log,
        Builtin::Floor,
        Builtin::Iabs,
        Builtin::Fabs,
        Builtin::Fmin,
        Builtin::Fmax,
        Builtin::Select,
    ];

    /// The symbol of the first builtin, `int`.
    const FIRST: usize = Keyword::Int as usize;

    /// The builtin named by `sym`, if any.
    fn of(sym: Sym) -> Option<Builtin> {
        let i = sym.index().checked_sub(Builtin::FIRST)?;
        Builtin::ALL.get(i).copied()
    }

    fn name(self) -> &'static str {
        SEEDED[Builtin::FIRST + self as usize]
    }
}

/// The local bindings in scope: the innermost binding of each symbol at
/// the symbol's index, and a log of the bindings each declaration
/// shadowed, unwound when its scope ends.
struct Locals {
    bound: Vec<Option<(Reg, Type)>>,
    shadowed: Vec<(Sym, Option<(Reg, Type)>)>,
}

impl Locals {
    /// Opens a scope; pass the result to [`Locals::exit`] to close it.
    fn enter(&self) -> usize {
        self.shadowed.len()
    }

    /// Closes `scope`, restoring every binding declared in it.
    fn exit(&mut self, scope: usize) {
        for (sym, old) in self.shadowed.drain(scope..).rev() {
            self.bound[sym.index()] = old;
        }
    }

    fn declare(&mut self, sym: Sym, reg: Reg, ty: Type) {
        let old = self.bound[sym.index()].replace((reg, ty));
        self.shadowed.push((sym, old));
    }

    fn get(&self, sym: Sym) -> Option<&(Reg, Type)> {
        self.bound[sym.index()].as_ref()
    }
}

/// The single scalar assignment `x = value;` an if-convertible arm holds.
fn single_assignment(body: &[Stmt]) -> Option<(Sym, ExprId)> {
    let [stmt] = body else { return None };
    let StmtKind::Assign {
        target: LValue::Name(name),
        value,
    } = stmt.kind
    else {
        return None;
    };
    Some((name, value))
}

struct LoopCtx {
    continue_target: BlockId,
    break_target: BlockId,
}

struct Lowerer<'a> {
    ast: &'a Ast,
    pb: &'a mut ProgramBuilder,
    fb: &'a mut FunctionBuilder,
    names: &'a Interner<'a>,
    globals: &'a [Option<(GlobalId, Type)>],
    funcs: &'a [Option<(FuncId, FnSig)>],
    locals: &'a mut Locals,
    loops: Vec<LoopCtx>,
    ret: Option<Type>,
    options: CompileOptions,
}

impl<'a> Lowerer<'a> {
    fn lower_body(&mut self, body: Block) -> Result<(), CompileError> {
        self.lower_stmts(body)?;
        // Implicit return at the end of the function: void functions return
        // nothing; value functions return zero of their type (reachable only
        // when control falls off the end).
        if !self.fb.current_terminated() {
            match &self.ret {
                None => self.fb.ret(None),
                Some(Type::Float) => {
                    let z = self.fb.const_float(0.0);
                    self.fb.ret(Some(z));
                }
                Some(_) => {
                    let z = self.fb.const_int(0);
                    self.fb.ret(Some(z));
                }
            }
        }
        Ok(())
    }

    fn expr(&self, id: ExprId) -> &'a Expr {
        self.ast.expr(id)
    }

    /// The text of `sym`, for a diagnostic.
    fn name(&self, sym: Sym) -> &'a str {
        self.names.name(sym)
    }

    fn lookup_var(&self, sym: Sym) -> Option<(Reg, Type)> {
        self.locals.get(sym).cloned()
    }

    fn lower_stmts(&mut self, block: Block) -> Result<(), CompileError> {
        let scope = self.locals.enter();
        let ast = self.ast;
        ast.block(block)
            .iter()
            .try_for_each(|s| self.lower_stmt(s))?;
        self.locals.exit(scope);
        Ok(())
    }

    /// After a `return`/`break`/`continue`, subsequent statements in the
    /// same source block are unreachable; give them a fresh block so the
    /// builder's one-terminator invariant holds. The block is terminated by
    /// the implicit function-end return or a later jump and simply never
    /// executes (the optimizer's unreachable-code pass removes it).
    fn start_dead_block(&mut self) {
        let dead = self.fb.new_block();
        self.fb.switch_to(dead);
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        let line = stmt.line;
        match &stmt.kind {
            StmtKind::Var { name, ty, init } => {
                let (r, ity) = self.lower_expr(self.expr(*init))?;
                if ity != *ty {
                    return Err(CompileError::new(
                        line,
                        format!(
                            "cannot initialize `{}: {ty}` with a value of type {ity}",
                            self.name(*name)
                        ),
                    ));
                }
                let var_reg = self.fb.new_reg();
                self.fb.mov_to(var_reg, r);
                self.locals.declare(*name, var_reg, ty.clone());
            }
            StmtKind::Assign { target, value } => match target {
                LValue::Name(name) => {
                    let (r, vty) = self.lower_expr(self.expr(*value))?;
                    if let Some((reg, ty)) = self.locals.get(*name) {
                        if vty != *ty {
                            return Err(CompileError::new(
                                line,
                                format!("cannot assign {vty} to `{}: {ty}`", self.name(*name)),
                            ));
                        }
                        let reg = *reg;
                        self.fb.mov_to(reg, r);
                    } else if let Some((gid, ty)) = &self.globals[name.index()] {
                        if vty != *ty {
                            return Err(CompileError::new(
                                line,
                                format!(
                                    "cannot assign {vty} to global `{}: {ty}`",
                                    self.name(*name)
                                ),
                            ));
                        }
                        self.fb.global_set(*gid, r);
                    } else {
                        return Err(CompileError::new(
                            line,
                            format!("unknown name `{}`", self.name(*name)),
                        ));
                    }
                }
                LValue::Index { base, index } => {
                    let (arr, aty) = self.lower_name(*base, line)?;
                    let Some(elem) = aty.element() else {
                        return Err(CompileError::new(
                            line,
                            format!(
                                "`{}` has type {aty}, which is not indexable",
                                self.name(*base)
                            ),
                        ));
                    };
                    let (idx, idx_ty) = self.lower_expr(self.expr(*index))?;
                    if idx_ty != Type::Int {
                        return Err(CompileError::new(line, "array index must be int"));
                    }
                    let (val, vty) = self.lower_expr(self.expr(*value))?;
                    if vty != elem {
                        return Err(CompileError::new(
                            line,
                            format!("cannot store {vty} into {aty}"),
                        ));
                    }
                    self.fb.store(arr, idx, val);
                }
            },
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let (cond, then_body, else_body) = (self.expr(*cond), *then_body, *else_body);
                if self.options.if_conversion
                    && self.try_if_conversion(cond, then_body, else_body)?
                {
                    return Ok(());
                }
                let then_blk = self.fb.new_block();
                let else_blk = self.fb.new_block();
                let join = self.fb.new_block();
                self.lower_cond(cond, then_blk, else_blk, BranchKind::If)?;
                self.fb.switch_to(then_blk);
                self.lower_stmts(then_body)?;
                if !self.fb.current_terminated() {
                    self.fb.jump(join);
                }
                self.fb.switch_to(else_blk);
                self.lower_stmts(else_body)?;
                if !self.fb.current_terminated() {
                    self.fb.jump(join);
                }
                self.fb.switch_to(join);
            }
            StmtKind::While { cond, body } => {
                let (cond, body) = (self.expr(*cond), *body);
                // Rotated loop: guard at entry, test at bottom.
                let body_blk = self.fb.new_block();
                let test_blk = self.fb.new_block();
                let exit = self.fb.new_block();
                self.lower_cond(cond, body_blk, exit, BranchKind::If)?;
                self.loops.push(LoopCtx {
                    continue_target: test_blk,
                    break_target: exit,
                });
                self.fb.switch_to(body_blk);
                self.lower_stmts(body)?;
                if !self.fb.current_terminated() {
                    self.fb.jump(test_blk);
                }
                self.fb.switch_to(test_blk);
                self.lower_cond(cond, body_blk, exit, BranchKind::LoopBack)?;
                self.loops.pop();
                self.fb.switch_to(exit);
            }
            StmtKind::DoWhile { body, cond } => {
                let (cond, body) = (self.expr(*cond), *body);
                let body_blk = self.fb.new_block();
                let test_blk = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.jump(body_blk);
                self.loops.push(LoopCtx {
                    continue_target: test_blk,
                    break_target: exit,
                });
                self.fb.switch_to(body_blk);
                self.lower_stmts(body)?;
                if !self.fb.current_terminated() {
                    self.fb.jump(test_blk);
                }
                self.fb.switch_to(test_blk);
                self.lower_cond(cond, body_blk, exit, BranchKind::LoopBack)?;
                self.loops.pop();
                self.fb.switch_to(exit);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let ast = self.ast;
                let cond = cond.map(|c| ast.expr(c));
                let scope = self.locals.enter();
                if let Some(init) = init {
                    self.lower_stmt(ast.stmt(*init))?;
                }
                let body_blk = self.fb.new_block();
                let step_blk = self.fb.new_block();
                let exit = self.fb.new_block();
                match cond {
                    Some(c) => self.lower_cond(c, body_blk, exit, BranchKind::If)?,
                    None => self.fb.jump(body_blk),
                }
                self.loops.push(LoopCtx {
                    continue_target: step_blk,
                    break_target: exit,
                });
                self.fb.switch_to(body_blk);
                self.lower_stmts(*body)?;
                if !self.fb.current_terminated() {
                    self.fb.jump(step_blk);
                }
                self.fb.switch_to(step_blk);
                if let Some(step) = step {
                    self.lower_stmt(ast.stmt(*step))?;
                }
                match cond {
                    Some(c) => self.lower_cond(c, body_blk, exit, BranchKind::LoopBack)?,
                    None => self.fb.jump(body_blk),
                }
                self.loops.pop();
                self.locals.exit(scope);
                self.fb.switch_to(exit);
            }
            StmtKind::Switch {
                scrutinee,
                cases,
                default,
            } => {
                let ast = self.ast;
                let scrutinee = ast.expr(*scrutinee);
                self.lower_switch(scrutinee, ast.cases(*cases), *default, line)?;
            }
            StmtKind::Break => {
                let Some(ctx) = self.loops.last() else {
                    return Err(CompileError::new(line, "`break` outside of a loop"));
                };
                self.fb.jump(ctx.break_target);
                self.start_dead_block();
            }
            StmtKind::Continue => {
                let Some(ctx) = self.loops.last() else {
                    return Err(CompileError::new(line, "`continue` outside of a loop"));
                };
                self.fb.jump(ctx.continue_target);
                self.start_dead_block();
            }
            StmtKind::Return(value) => {
                let ret_ty = self.ret.clone();
                match (&ret_ty, value) {
                    (None, None) => self.fb.ret(None),
                    (None, Some(_)) => {
                        return Err(CompileError::new(line, "void function returns a value"))
                    }
                    (Some(expected), Some(e)) => {
                        let (r, ty) = self.lower_expr(self.expr(*e))?;
                        if ty != *expected {
                            return Err(CompileError::new(
                                line,
                                format!("return type mismatch: expected {expected}, found {ty}"),
                            ));
                        }
                        self.fb.ret(Some(r));
                    }
                    (Some(expected), None) => {
                        return Err(CompileError::new(
                            line,
                            format!("function must return a value of type {expected}"),
                        ))
                    }
                }
                self.start_dead_block();
            }
            StmtKind::Expr(e) => {
                let e = self.expr(*e);
                if let ExprKind::Call { callee, args } = e.kind {
                    // Statement position: void calls are allowed.
                    self.lower_call(callee, self.ast.args(args), e.line)?;
                } else {
                    self.lower_expr(e)?;
                }
            }
        }
        Ok(())
    }

    fn lower_switch(
        &mut self,
        scrutinee: &Expr,
        cases: &[(i64, Block)],
        default: Block,
        line: u32,
    ) -> Result<(), CompileError> {
        let (scrut, ty) = self.lower_expr(scrutinee)?;
        if ty != Type::Int {
            return Err(CompileError::new(line, "switch scrutinee must be int"));
        }
        let join = self.fb.new_block();

        // A table covers `min..=max`, so it is taken only when that span is
        // small, and representable: labels further apart than `i64::MAX`
        // fall back to the cascade.
        let jump_table = self.options.switch_mode == SwitchMode::JumpTable;
        let labels = || cases.iter().map(|&(v, _)| v);
        let table = (labels().min().zip(labels().max()))
            .and_then(|(min, max)| Some((min, max.checked_sub(min)?)))
            .filter(|&(_, span)| jump_table && span < 1024);

        if let Some((min, span)) = table {
            let default_blk = self.fb.new_block();
            // One slot per value in `min..=max`; the parser rejects
            // duplicate labels, so each case fills its own.
            let mut case_blks = vec![None; span as usize + 1];
            for (v, _) in cases {
                case_blks[(v - min) as usize] = Some(self.fb.new_block());
            }
            let targets: Vec<BlockId> =
                case_blks.iter().map(|b| b.unwrap_or(default_blk)).collect();
            let min_reg = self.fb.const_int(min);
            let idx = self.fb.binop(BinOp::Sub, scrut, min_reg);
            self.fb.jump_table(idx, targets, default_blk);
            for (v, body) in cases {
                let case_blk = case_blks[(v - min) as usize].expect("allocated above");
                self.fb.switch_to(case_blk);
                self.lower_stmts(*body)?;
                if !self.fb.current_terminated() {
                    self.fb.jump(join);
                }
            }
            self.fb.switch_to(default_blk);
            self.lower_stmts(default)?;
            if !self.fb.current_terminated() {
                self.fb.jump(join);
            }
        } else {
            // Cascaded ifs: test each case in order (the paper's lowering).
            #[cfg(feature = "seeded-defects")]
            let cmp = if mfdefect::active("lang-switch-case-compare") {
                BinOp::Le
            } else {
                BinOp::Eq
            };
            #[cfg(not(feature = "seeded-defects"))]
            let cmp = BinOp::Eq;
            for (v, body) in cases {
                let case_blk = self.fb.new_block();
                let next_test = self.fb.new_block();
                let cv = self.fb.const_int(*v);
                let eq = self.fb.binop(cmp, scrut, cv);
                self.fb
                    .branch(eq, case_blk, next_test, line, BranchKind::SwitchArm);
                self.fb.switch_to(case_blk);
                self.lower_stmts(*body)?;
                if !self.fb.current_terminated() {
                    self.fb.jump(join);
                }
                self.fb.switch_to(next_test);
            }
            self.lower_stmts(default)?;
            if !self.fb.current_terminated() {
                self.fb.jump(join);
            }
        }
        self.fb.switch_to(join);
        Ok(())
    }

    /// If-conversion (the Trace front ends' `select`): `if (c) { x = a; }`
    /// and `if (c) { x = a; } else { x = b; }` become a `select` when `x`
    /// is a local scalar and `c`, `a`, `b` are pure, trap-free scalar
    /// expressions. Returns `Ok(true)` when converted.
    fn try_if_conversion(
        &mut self,
        cond: &Expr,
        then_body: Block,
        else_body: Block,
    ) -> Result<bool, CompileError> {
        // Shape check: one simple scalar assignment per arm, same target.
        let ast = self.ast;
        let Some((name, then_value)) = single_assignment(ast.block(then_body)) else {
            return Ok(false);
        };
        let then_value = ast.expr(then_value);
        let else_body = ast.block(else_body);
        let else_value = if else_body.is_empty() {
            None
        } else {
            match single_assignment(else_body) {
                Some((else_name, v)) if else_name == name => Some(ast.expr(v)),
                _ => return Ok(false),
            }
        };
        // Target must be a local scalar (globals keep the branch so stores
        // stay conditional in program order).
        let Some((target_reg, target_ty)) = self.lookup_var(name) else {
            return Ok(false);
        };
        if !target_ty.is_scalar() {
            return Ok(false);
        }
        if !self.is_selectable(cond)
            || !self.is_selectable(then_value)
            || !else_value.is_none_or(|e| self.is_selectable(e))
        {
            return Ok(false);
        }

        let (c, cty) = self.lower_expr(cond)?;
        if cty != Type::Int {
            return Err(CompileError::new(
                cond.line,
                format!("condition must be int, found {cty}"),
            ));
        }
        let (tv, tty) = self.lower_expr(then_value)?;
        if tty != target_ty {
            return Err(CompileError::new(
                cond.line,
                format!("cannot assign {tty} to `{}: {target_ty}`", self.name(name)),
            ));
        }
        let ev = match else_value {
            Some(e) => {
                let (ev, ety) = self.lower_expr(e)?;
                if ety != target_ty {
                    return Err(CompileError::new(
                        cond.line,
                        format!("cannot assign {ety} to `{}: {target_ty}`", self.name(name)),
                    ));
                }
                ev
            }
            None => target_reg, // keep the old value
        };
        let sel = self.fb.select(c, tv, ev);
        self.fb.mov_to(target_reg, sel);
        Ok(true)
    }

    /// True for pure, trap-free scalar expressions: literals, scalar
    /// names, unary operators, and binary operators other than division,
    /// remainder and the short-circuit forms. No calls, no indexing.
    fn is_selectable(&self, e: &Expr) -> bool {
        match e.kind {
            ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Name(_) => true,
            ExprKind::Unary { operand, .. } => self.is_selectable(self.expr(operand)),
            ExprKind::Binary { op, lhs, rhs } => {
                !matches!(
                    op,
                    BinaryOp::Div | BinaryOp::Rem | BinaryOp::And | BinaryOp::Or
                ) && self.is_selectable(self.expr(lhs))
                    && self.is_selectable(self.expr(rhs))
            }
            _ => false,
        }
    }

    /// Lowers a condition into control flow: jump to `true_blk` when the
    /// condition is non-zero, `false_blk` otherwise. `&&`, `||` and `!` are
    /// handled structurally so each primitive test is one real conditional
    /// branch.
    fn lower_cond(
        &mut self,
        cond: &Expr,
        true_blk: BlockId,
        false_blk: BlockId,
        kind: BranchKind,
    ) -> Result<(), CompileError> {
        match cond.kind {
            ExprKind::Binary {
                op: op @ (BinaryOp::And | BinaryOp::Or),
                lhs,
                rhs,
            } => {
                let (lhs, rhs) = (self.expr(lhs), self.expr(rhs));
                self.lower_short_circuit(op, lhs, rhs, true_blk, false_blk, kind)
            }
            ExprKind::Unary {
                op: UnaryOp::Not,
                operand,
            } => self.lower_cond(self.expr(operand), false_blk, true_blk, kind),
            _ => {
                let (r, ty) = self.lower_expr(cond)?;
                if ty != Type::Int {
                    return Err(CompileError::new(
                        cond.line,
                        format!("condition must be int, found {ty}"),
                    ));
                }
                self.fb.branch(r, true_blk, false_blk, cond.line, kind);
                Ok(())
            }
        }
    }

    /// `lhs && rhs` or `lhs || rhs` as control flow: the left test is a
    /// `ShortCircuit` branch and the right one takes `kind`.
    fn lower_short_circuit(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        true_blk: BlockId,
        false_blk: BlockId,
        kind: BranchKind,
    ) -> Result<(), CompileError> {
        let mid = self.fb.new_block();
        if op == BinaryOp::And {
            self.lower_cond(lhs, mid, false_blk, BranchKind::ShortCircuit)?;
        } else {
            self.lower_cond(lhs, true_blk, mid, BranchKind::ShortCircuit)?;
        }
        self.fb.switch_to(mid);
        self.lower_cond(rhs, true_blk, false_blk, kind)
    }

    /// Resolves a bare name (local variable, then global) to a value
    /// register.
    fn lower_name(&mut self, name: Sym, line: u32) -> Result<(Reg, Type), CompileError> {
        if let Some(binding) = self.lookup_var(name) {
            return Ok(binding);
        }
        if let Some((gid, ty)) = &self.globals[name.index()] {
            let r = self.fb.global_get(*gid);
            return Ok((r, ty.clone()));
        }
        Err(CompileError::new(
            line,
            format!("unknown name `{}`", self.name(name)),
        ))
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<(Reg, Type), CompileError> {
        let line = e.line;
        match e.kind {
            ExprKind::Int(v) => Ok((self.fb.const_int(v), Type::Int)),
            ExprKind::Float(v) => Ok((self.fb.const_float(v), Type::Float)),
            ExprKind::Str(i) => {
                let idx = self.pb.intern_str(&self.ast.strings[i as usize]);
                Ok((self.fb.const_array(idx), Type::IntArray))
            }
            ExprKind::Name(name) => self.lower_name(name, line),
            ExprKind::FuncRef(name) => {
                let Some((id, sig)) = &self.funcs[name.index()] else {
                    let name = self.name(name);
                    return Err(CompileError::new(
                        line,
                        format!("unknown function `{name}` in `@{name}`"),
                    ));
                };
                let r = self.fb.func_addr(*id);
                Ok((
                    r,
                    Type::FnRef {
                        params: sig.params.clone(),
                        ret: sig.ret.clone().map(Box::new),
                    },
                ))
            }
            ExprKind::Index { base, index } => {
                let (arr, aty) = self.lower_expr(self.expr(base))?;
                let Some(elem) = aty.element() else {
                    return Err(CompileError::new(
                        line,
                        format!("type {aty} is not indexable"),
                    ));
                };
                let (idx, ity) = self.lower_expr(self.expr(index))?;
                if ity != Type::Int {
                    return Err(CompileError::new(line, "array index must be int"));
                }
                Ok((self.fb.load(arr, idx), elem))
            }
            ExprKind::Unary { op, operand } => {
                let (r, ty) = self.lower_expr(self.expr(operand))?;
                match (op, &ty) {
                    (UnaryOp::Neg, Type::Int) => Ok((self.fb.unop(UnOp::Neg, r), Type::Int)),
                    (UnaryOp::Neg, Type::Float) => Ok((self.fb.unop(UnOp::FNeg, r), Type::Float)),
                    (UnaryOp::Not, Type::Int) => Ok((self.fb.unop(UnOp::LNot, r), Type::Int)),
                    (UnaryOp::BitNot, Type::Int) => Ok((self.fb.unop(UnOp::Not, r), Type::Int)),
                    _ => Err(CompileError::new(
                        line,
                        format!("unary operator not defined for {ty}"),
                    )),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.lower_binary(op, self.expr(lhs), self.expr(rhs), line)
            }
            ExprKind::Call { callee, args } => {
                match self.lower_call(callee, self.ast.args(args), line)? {
                    Some(rt) => Ok(rt),
                    None => Err(CompileError::new(
                        line,
                        format!("void call to `{}` used as a value", self.name(callee)),
                    )),
                }
            }
        }
    }

    fn lower_binary(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<(Reg, Type), CompileError> {
        // Short-circuit operators in value position materialize 0/1 through
        // control flow, like a C compiler.
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            let result = self.fb.new_reg();
            let t_blk = self.fb.new_block();
            let f_blk = self.fb.new_block();
            let join = self.fb.new_block();
            self.lower_short_circuit(op, lhs, rhs, t_blk, f_blk, BranchKind::ShortCircuit)?;
            self.fb.switch_to(t_blk);
            let one = self.fb.const_int(1);
            self.fb.mov_to(result, one);
            self.fb.jump(join);
            self.fb.switch_to(f_blk);
            let zero = self.fb.const_int(0);
            self.fb.mov_to(result, zero);
            self.fb.jump(join);
            self.fb.switch_to(join);
            return Ok((result, Type::Int));
        }

        let (l, lt) = self.lower_expr(lhs)?;
        let (r, rt) = self.lower_expr(rhs)?;
        if lt != rt {
            return Err(CompileError::new(
                line,
                format!("operand type mismatch: {lt} vs {rt}"),
            ));
        }
        use BinaryOp as B;
        let (irop, ty) = match (op, &lt) {
            (B::Add, Type::Int) => (BinOp::Add, Type::Int),
            (B::Sub, Type::Int) => (BinOp::Sub, Type::Int),
            (B::Mul, Type::Int) => (BinOp::Mul, Type::Int),
            (B::Div, Type::Int) => (BinOp::Div, Type::Int),
            (B::Rem, Type::Int) => (BinOp::Rem, Type::Int),
            (B::Add, Type::Float) => (BinOp::FAdd, Type::Float),
            (B::Sub, Type::Float) => (BinOp::FSub, Type::Float),
            (B::Mul, Type::Float) => (BinOp::FMul, Type::Float),
            (B::Div, Type::Float) => (BinOp::FDiv, Type::Float),
            (B::Eq, Type::Int) => (BinOp::Eq, Type::Int),
            (B::Ne, Type::Int) => (BinOp::Ne, Type::Int),
            (B::Lt, Type::Int) => (BinOp::Lt, Type::Int),
            (B::Le, Type::Int) => (BinOp::Le, Type::Int),
            (B::Gt, Type::Int) => (BinOp::Gt, Type::Int),
            (B::Ge, Type::Int) => (BinOp::Ge, Type::Int),
            (B::Eq, Type::Float) => (BinOp::FEq, Type::Int),
            (B::Ne, Type::Float) => (BinOp::FNe, Type::Int),
            (B::Lt, Type::Float) => (BinOp::FLt, Type::Int),
            (B::Le, Type::Float) => (BinOp::FLe, Type::Int),
            (B::Gt, Type::Float) => (BinOp::FGt, Type::Int),
            (B::Ge, Type::Float) => (BinOp::FGe, Type::Int),
            (B::BitAnd, Type::Int) => (BinOp::And, Type::Int),
            (B::BitOr, Type::Int) => (BinOp::Or, Type::Int),
            (B::BitXor, Type::Int) => (BinOp::Xor, Type::Int),
            (B::Shl, Type::Int) => (BinOp::Shl, Type::Int),
            (B::Shr, Type::Int) => (BinOp::Shr, Type::Int),
            _ => {
                return Err(CompileError::new(
                    line,
                    format!("operator not defined for operands of type {lt}"),
                ))
            }
        };
        Ok((self.fb.binop(irop, l, r), ty))
    }

    /// Lowers a call: builtin, indirect (through a `fn`-typed variable), or
    /// direct. Returns `None` for void calls.
    fn lower_call(
        &mut self,
        callee: Sym,
        args: &[ExprId],
        line: u32,
    ) -> Result<Option<(Reg, Type)>, CompileError> {
        if let Some(builtin) = Builtin::of(callee) {
            return self.lower_builtin(builtin, args, line);
        }

        // A local or global of fn type shadows a function of the same name.
        // For globals the register is resolved after argument lowering.
        let global = &self.globals[callee.index()];
        let indirect = self
            .lookup_var(callee)
            .map(|vt| (vt, false))
            .or_else(|| global.as_ref().map(|(_, ty)| ((Reg(0), ty.clone()), true)));
        if let Some(((reg, ty), is_global)) = indirect {
            let Type::FnRef { params, ret } = ty else {
                return Err(CompileError::new(
                    line,
                    format!(
                        "`{}` has non-function type {ty} and cannot be called",
                        self.name(callee)
                    ),
                ));
            };
            let arg_regs = self.lower_args(callee, args, &params, line)?;
            let target = match global {
                Some((gid, _)) if is_global => self.fb.global_get(*gid),
                _ => reg,
            };
            let dst = self.fb.call_indirect(target, arg_regs);
            return Ok(ret.map(|t| (dst, *t)));
        }

        let funcs = self.funcs;
        let Some((id, sig)) = &funcs[callee.index()] else {
            return Err(CompileError::new(
                line,
                format!("unknown function `{}`", self.name(callee)),
            ));
        };
        let arg_regs = self.lower_args(callee, args, &sig.params, line)?;
        match &sig.ret {
            Some(ret) => {
                let dst = self.fb.call(*id, arg_regs);
                Ok(Some((dst, ret.clone())))
            }
            None => {
                self.fb.call_void(*id, arg_regs);
                Ok(None)
            }
        }
    }

    /// Checks a call's arity against `params`, then lowers and type-checks
    /// its arguments in order.
    fn lower_args(
        &mut self,
        callee: Sym,
        args: &[ExprId],
        params: &[Type],
        line: u32,
    ) -> Result<Vec<Reg>, CompileError> {
        if args.len() != params.len() {
            return Err(CompileError::new(
                line,
                format!(
                    "`{}` expects {} arguments, got {}",
                    self.name(callee),
                    params.len(),
                    args.len()
                ),
            ));
        }
        let mut arg_regs = Vec::with_capacity(args.len());
        for (&a, pty) in args.iter().zip(params) {
            let a = self.expr(a);
            let (r, ty) = self.lower_expr(a)?;
            if ty != *pty {
                return Err(CompileError::new(
                    a.line,
                    format!("argument type mismatch: expected {pty}, found {ty}"),
                ));
            }
            arg_regs.push(r);
        }
        Ok(arg_regs)
    }

    fn lower_builtin(
        &mut self,
        builtin: Builtin,
        args: &[ExprId],
        line: u32,
    ) -> Result<Option<(Reg, Type)>, CompileError> {
        let mut lowered = Vec::with_capacity(args.len());
        for &a in args {
            lowered.push(self.lower_expr(self.expr(a))?);
        }
        let name = builtin.name();
        let arity_err =
            |n: usize| CompileError::new(line, format!("`{name}` expects {n} argument(s)"));
        let type_err = |msg: &str| CompileError::new(line, format!("`{name}`: {msg}"));

        let unary_float =
            |this: &mut Self, op: UnOp| -> Result<Option<(Reg, Type)>, CompileError> {
                let [(r, ref ty)] = lowered[..] else {
                    return Err(arity_err(1));
                };
                if *ty != Type::Float {
                    return Err(type_err("argument must be float"));
                }
                Ok(Some((this.fb.unop(op, r), Type::Float)))
            };

        match builtin {
            Builtin::Len => {
                let [(r, ref ty)] = lowered[..] else {
                    return Err(arity_err(1));
                };
                if ty.element().is_none() {
                    return Err(type_err("argument must be an array"));
                }
                Ok(Some((self.fb.array_len(r), Type::Int)))
            }
            Builtin::NewInt | Builtin::NewFloat => {
                let [(r, ref ty)] = lowered[..] else {
                    return Err(arity_err(1));
                };
                if *ty != Type::Int {
                    return Err(type_err("length must be int"));
                }
                if builtin == Builtin::NewInt {
                    Ok(Some((self.fb.new_int_array(r), Type::IntArray)))
                } else {
                    Ok(Some((self.fb.new_float_array(r), Type::FloatArray)))
                }
            }
            Builtin::Emit => {
                let [(r, ref ty)] = lowered[..] else {
                    return Err(arity_err(1));
                };
                if !ty.is_scalar() {
                    return Err(type_err("argument must be a scalar"));
                }
                self.fb.emit_value(r);
                Ok(None)
            }
            Builtin::Int => {
                let [(r, ref ty)] = lowered[..] else {
                    return Err(arity_err(1));
                };
                if *ty != Type::Float {
                    return Err(type_err("argument must be float"));
                }
                Ok(Some((self.fb.unop(UnOp::FloatToInt, r), Type::Int)))
            }
            Builtin::Float => {
                let [(r, ref ty)] = lowered[..] else {
                    return Err(arity_err(1));
                };
                if *ty != Type::Int {
                    return Err(type_err("argument must be int"));
                }
                Ok(Some((self.fb.unop(UnOp::IntToFloat, r), Type::Float)))
            }
            Builtin::Sqrt => unary_float(self, UnOp::Sqrt),
            Builtin::Sin => unary_float(self, UnOp::Sin),
            Builtin::Cos => unary_float(self, UnOp::Cos),
            Builtin::Exp => unary_float(self, UnOp::Exp),
            Builtin::Log => unary_float(self, UnOp::Log),
            Builtin::Floor => unary_float(self, UnOp::Floor),
            Builtin::Fabs => unary_float(self, UnOp::FAbs),
            Builtin::Iabs => {
                let [(r, ref ty)] = lowered[..] else {
                    return Err(arity_err(1));
                };
                if *ty != Type::Int {
                    return Err(type_err("argument must be int"));
                }
                Ok(Some((self.fb.unop(UnOp::Abs, r), Type::Int)))
            }
            Builtin::Fmin | Builtin::Fmax => {
                let [(a, ref t1), (b, ref t2)] = lowered[..] else {
                    return Err(arity_err(2));
                };
                if *t1 != Type::Float || *t2 != Type::Float {
                    return Err(type_err("arguments must be float"));
                }
                let op = if builtin == Builtin::Fmin {
                    BinOp::FMin
                } else {
                    BinOp::FMax
                };
                Ok(Some((self.fb.binop(op, a, b), Type::Float)))
            }
            Builtin::Select => {
                let [(c, ref ct), (a, ref at), (b, ref bt)] = lowered[..] else {
                    return Err(arity_err(3));
                };
                if *ct != Type::Int {
                    return Err(type_err("condition must be int"));
                }
                if at != bt || !at.is_scalar() {
                    return Err(type_err("value operands must be scalars of one type"));
                }
                Ok(Some((self.fb.select(c, a, b), at.clone())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_their_seeded_symbols() {
        let names = Interner::new();
        for (i, b) in Builtin::ALL.iter().enumerate() {
            assert_eq!(*b as usize, i);
            let sym = names.get(b.name()).expect("builtins are seeded");
            assert_eq!(Builtin::of(sym), Some(*b));
        }
        assert_eq!(Builtin::of(Keyword::Return.sym()), None);
        assert_eq!(Builtin::name(Builtin::Int), "int");
        assert_eq!(Builtin::name(Builtin::Select), "select");
    }
}
