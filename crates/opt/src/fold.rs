//! Constant folding and branch simplification.

use trace_ir::{BinOp, Function, Instr, Terminator, UnOp, Value};

use mfcheck::{all_uses_initialized, single_def_consts};

/// Folds instructions whose operands are single-definition constants, and
/// rewrites conditional branches with constant conditions into jumps (the
/// "branches with constant outcome" the paper's DCE removed). Returns true
/// if anything changed.
///
/// `single_def_consts` is only sound when every use executes after its
/// register's definition; the VM hands an uninitialized read a default
/// value, not the constant. Functions that fail definite-initialization
/// are therefore left untouched (the verifier reports them as
/// `use-before-def` errors; the lowerer never produces such code).
/// [`crate::Pipeline`] checks a function until it passes, then trusts it
/// for the rest of the run and calls the same fold body unchecked.
pub fn fold_constants(func: &mut Function) -> bool {
    all_uses_initialized(func) && fold_initialized(func)
}

/// [`fold_constants`] for a function already known to pass definite
/// initialization.
pub(crate) fn fold_initialized(func: &mut Function) -> bool {
    let consts = single_def_consts(func);
    let mut changed = false;

    for block in &mut func.blocks {
        for instr in &mut block.instrs {
            let folded = match instr {
                Instr::Binop { dst, op, lhs, rhs } => match (consts.get(lhs), consts.get(rhs)) {
                    (Some(&l), Some(&r)) => {
                        fold_binop(*op, l, r).map(|value| Instr::Const { dst: *dst, value })
                    }
                    _ => None,
                },
                Instr::Unop { dst, op, src } => consts
                    .get(src)
                    .and_then(|&v| fold_unop(*op, v))
                    .map(|value| Instr::Const { dst: *dst, value }),
                Instr::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => consts.get(cond).and_then(|c| c.as_int()).map(|c| {
                    let src = if c != 0 { *if_true } else { *if_false };
                    Instr::Mov { dst: *dst, src }
                }),
                Instr::Mov { dst, src } => consts
                    .get(src)
                    .map(|&value| Instr::Const { dst: *dst, value }),
                _ => None,
            };
            if let Some(new) = folded {
                if *instr != new {
                    *instr = new;
                    changed = true;
                }
            }
        }
        if let Terminator::Branch {
            cond,
            taken,
            not_taken,
            ..
        } = block.term
        {
            // Constant condition, or both edges to one place: the branch has
            // a constant outcome and a real DCE pass removes it.
            let const_dir = consts.get(&cond).and_then(|c| c.as_int());
            let target = match const_dir {
                Some(c) => Some(if c != 0 { taken } else { not_taken }),
                None if taken == not_taken => Some(taken),
                None => None,
            };
            if let Some(t) = target {
                block.term = Terminator::Jump(t);
                changed = true;
            }
        }
    }
    changed
}

fn fold_binop(op: BinOp, l: Value, r: Value) -> Option<Value> {
    use BinOp::*;
    let int =
        |f: fn(i64, i64) -> i64| -> Option<Value> { Some(Value::Int(f(l.as_int()?, r.as_int()?))) };
    let float = |f: fn(f64, f64) -> f64| -> Option<Value> {
        Some(Value::Float(f(l.as_float()?, r.as_float()?)))
    };
    let icmp = |f: fn(&i64, &i64) -> bool| -> Option<Value> {
        Some(Value::Int(i64::from(f(&l.as_int()?, &r.as_int()?))))
    };
    let fcmp = |f: fn(&f64, &f64) -> bool| -> Option<Value> {
        Some(Value::Int(i64::from(f(&l.as_float()?, &r.as_float()?))))
    };
    match op {
        Add => {
            #[cfg(feature = "seeded-defects")]
            if mfdefect::active("opt-fold-add-off-by-one") {
                return int(|a, b| a.wrapping_add(b).wrapping_add(1));
            }
            int(i64::wrapping_add)
        }
        Sub => int(i64::wrapping_sub),
        Mul => int(i64::wrapping_mul),
        // Division folds only when safe; a trapping divide must stay put.
        Div => match r.as_int()? {
            0 => None,
            d => Some(Value::Int(l.as_int()?.wrapping_div(d))),
        },
        Rem => match r.as_int()? {
            0 => None,
            d => Some(Value::Int(l.as_int()?.wrapping_rem(d))),
        },
        FAdd => float(|a, b| a + b),
        FSub => float(|a, b| a - b),
        FMul => float(|a, b| a * b),
        FDiv => float(|a, b| a / b),
        And => int(|a, b| a & b),
        Or => int(|a, b| a | b),
        Xor => int(|a, b| a ^ b),
        Shl => int(|a, b| a.wrapping_shl(b as u32 & 63)),
        Shr => int(|a, b| a.wrapping_shr(b as u32 & 63)),
        Eq => icmp(i64::eq),
        Ne => icmp(i64::ne),
        Lt => icmp(i64::lt),
        Le => icmp(i64::le),
        Gt => icmp(i64::gt),
        Ge => icmp(i64::ge),
        FEq => fcmp(|a, b| a == b),
        FNe => fcmp(|a, b| a != b),
        FLt => fcmp(|a, b| a < b),
        FLe => fcmp(|a, b| a <= b),
        FGt => fcmp(|a, b| a > b),
        FGe => fcmp(|a, b| a >= b),
        FMin => float(f64::min),
        FMax => float(f64::max),
    }
}

fn fold_unop(op: UnOp, v: Value) -> Option<Value> {
    use UnOp::*;
    Some(match op {
        Neg => Value::Int(v.as_int()?.wrapping_neg()),
        FNeg => Value::Float(-v.as_float()?),
        Not => Value::Int(!v.as_int()?),
        LNot => Value::Int(i64::from(v.as_int()? == 0)),
        IntToFloat => Value::Float(v.as_int()? as f64),
        FloatToInt => Value::Int(v.as_float()? as i64),
        Sqrt => Value::Float(v.as_float()?.sqrt()),
        Sin => Value::Float(v.as_float()?.sin()),
        Cos => Value::Float(v.as_float()?.cos()),
        Exp => Value::Float(v.as_float()?.exp()),
        Log => Value::Float(v.as_float()?.ln()),
        Floor => Value::Float(v.as_float()?.floor()),
        Abs => Value::Int(v.as_int()?.wrapping_abs()),
        FAbs => Value::Float(v.as_float()?.abs()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
    use trace_ir::{BranchKind, Program};

    fn build(f: FunctionBuilder) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.add_function(f.finish());
        pb.finish("main").unwrap()
    }

    #[test]
    fn folds_arithmetic_chain() {
        let mut f = FunctionBuilder::new("main", 0);
        let a = f.const_int(6);
        let b = f.const_int(7);
        let c = f.binop(BinOp::Mul, a, b);
        f.emit_value(c);
        f.ret(None);
        let mut p = build(f);
        assert!(fold_constants(&mut p.functions[0]));
        assert!(matches!(
            p.functions[0].blocks[0].instrs[2],
            Instr::Const {
                value: Value::Int(42),
                ..
            }
        ));
    }

    #[test]
    fn folds_constant_branch_to_jump() {
        let mut f = FunctionBuilder::new("main", 0);
        let c = f.const_int(0);
        let t = f.new_block();
        let e = f.new_block();
        f.branch(c, t, e, 1, BranchKind::If);
        f.switch_to(t);
        f.ret(None);
        f.switch_to(e);
        f.ret(None);
        let mut p = build(f);
        assert!(fold_constants(&mut p.functions[0]));
        assert!(matches!(
            p.functions[0].blocks[0].term,
            Terminator::Jump(t) if t.index() == 2
        ));
        assert_eq!(p.static_branch_count(), 0);
    }

    #[test]
    fn does_not_fold_trapping_division() {
        let mut f = FunctionBuilder::new("main", 0);
        let a = f.const_int(1);
        let z = f.const_int(0);
        let d = f.binop(BinOp::Div, a, z);
        f.emit_value(d);
        f.ret(None);
        let mut p = build(f);
        fold_constants(&mut p.functions[0]);
        assert!(matches!(
            p.functions[0].blocks[0].instrs[2],
            Instr::Binop { op: BinOp::Div, .. }
        ));
    }

    #[test]
    fn folds_select_and_unops() {
        let mut f = FunctionBuilder::new("main", 0);
        let c = f.const_int(1);
        let a = f.const_int(10);
        let b = f.const_int(20);
        let s = f.select(c, a, b);
        let n = f.unop(UnOp::Neg, s);
        f.emit_value(n);
        f.ret(None);
        let mut p = build(f);
        // First round: select -> mov; second: mov -> const, neg folds.
        while fold_constants(&mut p.functions[0]) {}
        assert!(matches!(
            p.functions[0].blocks[0].instrs[4],
            Instr::Const {
                value: Value::Int(-10),
                ..
            }
        ));
    }

    #[test]
    fn refuses_to_fold_uninit_reading_functions() {
        // The entry branches on x before x's only (constant) definition
        // executes. The VM reads 0 and falls through; folding the branch
        // on "x = 1" would take the other edge. The definite-init gate
        // must keep the fold from firing at all.
        let mut f = FunctionBuilder::new("main", 0);
        let x = f.new_reg();
        let t = f.new_block();
        let e = f.new_block();
        f.branch(x, t, e, 1, BranchKind::If);
        f.switch_to(t);
        f.ret(None);
        f.switch_to(e);
        f.ret(None);
        let mut p = build(f);
        // Give x its single definition — a Const in the taken arm, after
        // the branch that reads it (the builder has no const-into-reg
        // helper, so splice it in directly).
        p.functions[0].blocks[1].instrs.push(Instr::Const {
            dst: x,
            value: Value::Int(1),
        });
        assert_eq!(
            single_def_consts(&p.functions[0]).get(&x),
            Some(&Value::Int(1))
        );
        assert!(!fold_constants(&mut p.functions[0]));
        assert!(matches!(
            p.functions[0].blocks[0].term,
            Terminator::Branch { .. }
        ));
    }

    #[test]
    fn multi_def_regs_not_folded() {
        let mut f = FunctionBuilder::new("main", 1);
        let a = f.const_int(5);
        f.mov_to(a, f.param(0)); // second def
        let b = f.const_int(1);
        let c = f.binop(BinOp::Add, a, b);
        f.emit_value(c);
        f.ret(None);
        let mut p = build(f);
        fold_constants(&mut p.functions[0]);
        assert!(matches!(
            p.functions[0].blocks[0].instrs[3],
            Instr::Binop { .. }
        ));
    }
}
