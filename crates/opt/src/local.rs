//! Block-local copy propagation and common-subexpression elimination.
//!
//! Both passes give every register a definition *version*, bumped each time
//! an instruction writes it. A remembered fact (a copy, an available
//! expression) records the versions of the registers it depends on, and is
//! matched only while they are all current. Redefining a register thus
//! retires every fact that mentions it without visiting them, so each pass
//! is linear in the block's length.

use std::collections::HashMap;

use trace_ir::{BinOp, Function, Instr, Reg, UnOp};

/// Rewrites operand registers through `Mov` chains within each block.
/// Returns true if anything changed.
///
/// A copy `dst <- src` is stored with `src`'s version and used only while
/// `src` keeps it; redefining `dst` drops its entry. So multi-definition
/// registers (mutable guest variables) are handled soundly at O(1) per
/// instruction. Propagation never crosses block boundaries.
pub fn copy_propagate(func: &mut Function) -> bool {
    let mut version = vec![0u32; func.num_regs as usize];
    let mut copies: HashMap<Reg, (Reg, u32)> = HashMap::new();
    let mut changed = false;
    for block in &mut func.blocks {
        copies.clear();
        for instr in &mut block.instrs {
            // Rewrite uses through the current copy map.
            changed |= rewrite_uses(instr, |r| copy_source(&copies, &version, r));
            if let Some(dst) = instr.dst() {
                // Retires every copy of dst (by version) and dst's own.
                version[dst.index()] += 1;
                copies.remove(&dst);
                if let Instr::Mov { src, .. } = *instr {
                    if src != dst {
                        copies.insert(dst, (src, version[src.index()]));
                    }
                }
            }
        }
        // Terminators read registers too.
        block.term.map_regs(|r| {
            let s = copy_source(&copies, &version, r);
            changed |= s.is_some();
            s.unwrap_or(r)
        });
    }
    changed
}

/// The register `r` is a current copy of, if any.
fn copy_source(copies: &HashMap<Reg, (Reg, u32)>, version: &[u32], r: Reg) -> Option<Reg> {
    copies
        .get(&r)
        .filter(|&&(s, v)| version[s.index()] == v)
        .map(|&(s, _)| s)
}

fn rewrite_uses(instr: &mut Instr, source: impl Fn(Reg) -> Option<Reg>) -> bool {
    let mut changed = false;
    let mut sub = |r: &mut Reg| {
        if let Some(s) = source(*r) {
            *r = s;
            changed = true;
        }
    };
    match instr {
        Instr::Unop { src, .. } | Instr::Mov { src, .. } => sub(src),
        Instr::Binop { lhs, rhs, .. } => {
            sub(lhs);
            sub(rhs);
        }
        Instr::Select {
            cond,
            if_true,
            if_false,
            ..
        } => {
            sub(cond);
            sub(if_true);
            sub(if_false);
        }
        Instr::Load { arr, index, .. } => {
            sub(arr);
            sub(index);
        }
        Instr::Store { arr, index, src } => {
            sub(arr);
            sub(index);
            sub(src);
        }
        Instr::NewIntArray { len, .. } | Instr::NewFloatArray { len, .. } => sub(len),
        Instr::ArrayLen { arr, .. } => sub(arr),
        Instr::GlobalSet { src, .. } => sub(src),
        Instr::Call { args, .. } => args.iter_mut().for_each(sub),
        Instr::CallIndirect { target, args, .. } => {
            sub(target);
            args.iter_mut().for_each(sub);
        }
        Instr::Emit { src } => sub(src),
        Instr::Const { .. }
        | Instr::ConstArray { .. }
        | Instr::GlobalGet { .. }
        | Instr::FuncAddr { .. } => {}
    }
    changed
}

/// A pure ALU expression: its operator and each operand's register and
/// version.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(BinOp, (Reg, u32), (Reg, u32)),
    Un(UnOp, (Reg, u32)),
}

/// Replaces repeated pure ALU computations within a block with a `Mov` from
/// the first result. Returns true if anything changed.
///
/// An expression is keyed by its operands *and their versions*, and stored
/// with the version of the register that holds its result. A lookup built
/// from the current versions cannot match an expression whose operand was
/// redefined since, and a match whose result register was redefined is
/// ignored; `r = r op x` therefore never becomes reusable. Each
/// instruction costs O(1).
///
/// Loads are not CSE'd (stores and calls may alias), and trapping operations
/// are eligible only because re-using an earlier identical divide preserves
/// the trap.
pub fn local_cse(func: &mut Function) -> bool {
    let mut version = vec![0u32; func.num_regs as usize];
    let mut available: HashMap<ExprKey, (Reg, u32)> = HashMap::new();
    let mut changed = false;
    for block in &mut func.blocks {
        available.clear();
        for instr in &mut block.instrs {
            let at = |r: Reg| (r, version[r.index()]);
            let key = match *instr {
                Instr::Binop { op, lhs, rhs, .. } => Some(ExprKey::Bin(op, at(lhs), at(rhs))),
                Instr::Unop { op, src, .. } => Some(ExprKey::Un(op, at(src))),
                _ => None,
            };
            let Some(dst) = instr.dst() else { continue };
            let hit = key
                .and_then(|k| available.get(&k))
                .filter(|&&(r, v)| version[r.index()] == v)
                .map(|&(r, _)| r);
            version[dst.index()] += 1;
            if let Some(prev) = hit {
                *instr = Instr::Mov { dst, src: prev };
                changed = true;
            } else if let Some(k) = key {
                available.insert(k, (dst, version[dst.index()]));
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
    use trace_ir::{BranchKind, Program, Terminator};

    fn build(f: FunctionBuilder) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.add_function(f.finish());
        pb.finish("main").unwrap()
    }

    #[test]
    fn copies_propagate_within_block() {
        let mut f = FunctionBuilder::new("main", 1);
        let x = f.mov(f.param(0));
        let y = f.mov(x);
        let z = f.binop(BinOp::Add, y, y);
        f.emit_value(z);
        f.ret(Some(z));
        let mut p = build(f);
        assert!(copy_propagate(&mut p.functions[0]));
        // y's uses now read param 0 directly (through x then param chain).
        match p.functions[0].blocks[0].instrs[2] {
            Instr::Binop { lhs, rhs, .. } => {
                assert_eq!(lhs, Reg(0));
                assert_eq!(rhs, Reg(0));
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn copies_killed_by_redefinition() {
        let mut f = FunctionBuilder::new("main", 2);
        let x = f.mov(f.param(0));
        f.mov_to(x, f.param(1)); // x redefined
        let y = f.binop(BinOp::Add, x, x);
        f.emit_value(y);
        f.ret(None);
        let mut p = build(f);
        copy_propagate(&mut p.functions[0]);
        match p.functions[0].blocks[0].instrs[2] {
            Instr::Binop { lhs, rhs, .. } => {
                // Must read param 1 (the latest copy), never param 0.
                assert_eq!(lhs, Reg(1));
                assert_eq!(rhs, Reg(1));
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cse_merges_identical_binops() {
        let mut f = FunctionBuilder::new("main", 2);
        let a = f.binop(BinOp::Add, f.param(0), f.param(1));
        let b = f.binop(BinOp::Add, f.param(0), f.param(1));
        let c = f.binop(BinOp::Mul, a, b);
        f.emit_value(c);
        f.ret(None);
        let mut p = build(f);
        assert!(local_cse(&mut p.functions[0]));
        assert!(matches!(
            p.functions[0].blocks[0].instrs[1],
            Instr::Mov { src, .. } if src == a
        ));
    }

    #[test]
    fn cse_invalidated_by_operand_redefinition() {
        let mut f = FunctionBuilder::new("main", 2);
        let p0 = f.param(0);
        let a = f.binop(BinOp::Add, p0, f.param(1));
        f.mov_to(p0, a); // p0 redefined
        let b = f.binop(BinOp::Add, p0, f.param(1));
        f.emit_value(b);
        f.ret(None);
        let mut p = build(f);
        assert!(!local_cse(&mut p.functions[0]));
        assert!(matches!(
            p.functions[0].blocks[0].instrs[2],
            Instr::Binop { .. }
        ));
    }

    // The version rule. Lowered code rarely reaches these shapes (copy
    // propagation runs first and the lowerer assigns through `Mov`), so
    // the fuzzer does not guard them; these tests do.

    #[test]
    fn cse_invalidated_by_result_redefinition() {
        let mut f = FunctionBuilder::new("main", 2);
        let a = f.binop(BinOp::Add, f.param(0), f.param(1));
        f.mov_to(a, f.param(0)); // the available result is clobbered
        let b = f.binop(BinOp::Add, f.param(0), f.param(1));
        f.emit_value(a);
        f.emit_value(b);
        f.ret(None);
        let mut p = build(f);
        assert!(!local_cse(&mut p.functions[0]));
        assert!(matches!(
            p.functions[0].blocks[0].instrs[2],
            Instr::Binop { .. }
        ));
    }

    #[test]
    fn cse_never_reuses_self_update() {
        // `r = r + x` twice: the second add reads the first one's result,
        // so it is a different expression.
        let mut f = FunctionBuilder::new("main", 2);
        let (r, x) = (f.param(0), f.param(1));
        for _ in 0..2 {
            f.push(Instr::Binop {
                dst: r,
                op: BinOp::Add,
                lhs: r,
                rhs: x,
            });
        }
        f.emit_value(r);
        f.ret(None);
        let mut p = build(f);
        assert!(!local_cse(&mut p.functions[0]));
        let instrs = &p.functions[0].blocks[0].instrs;
        assert!(instrs[..2].iter().all(|i| matches!(i, Instr::Binop { .. })));
    }

    #[test]
    fn terminator_skips_copy_of_redefined_source() {
        let mut f = FunctionBuilder::new("main", 2);
        let x = f.mov(f.param(0));
        f.mov_to(f.param(0), f.param(1)); // x's source is redefined
        let (t, e) = (f.new_block(), f.new_block());
        f.branch(x, t, e, 1, BranchKind::If);
        f.switch_to(t);
        f.ret(None);
        f.switch_to(e);
        f.ret(None);
        let mut p = build(f);
        assert!(!copy_propagate(&mut p.functions[0]));
        assert!(matches!(
            p.functions[0].blocks[0].term,
            Terminator::Branch { cond, .. } if cond == x
        ));
    }

    #[test]
    fn mov_chain_survives_redefined_middle() {
        // p0 -> a -> b, then a is recomputed: b still holds p0, and later
        // uses of a read a itself.
        let mut f = FunctionBuilder::new("main", 2);
        let (p0, p1) = (f.param(0), f.param(1));
        let a = f.mov(p0);
        let b = f.mov(a);
        f.push(Instr::Binop {
            dst: a,
            op: BinOp::Add,
            lhs: p1,
            rhs: p1,
        });
        let c = f.mov(b);
        let s = f.binop(BinOp::Add, a, c);
        f.emit_value(s);
        f.ret(None);
        let mut p = build(f);
        assert!(copy_propagate(&mut p.functions[0]));
        let instrs = &p.functions[0].blocks[0].instrs;
        assert_eq!(instrs[1], Instr::Mov { dst: b, src: p0 });
        assert_eq!(instrs[3], Instr::Mov { dst: c, src: p0 });
        assert!(matches!(
            instrs[4],
            Instr::Binop { lhs, rhs, .. } if lhs == a && rhs == p0
        ));
    }
}
