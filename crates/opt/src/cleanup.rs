//! CFG cleanup: jump threading, unreachable-block removal, dead-code
//! elimination.

use std::collections::HashSet;

use trace_ir::{BlockId, Function, Terminator};

use mfcheck::reachable_blocks;

/// Redirects transfers through empty forwarding blocks (a block with no
/// instructions whose terminator is an unconditional jump). Returns true if
/// anything changed.
///
/// Forwarding chains are followed to their end; cycles of empty blocks (an
/// empty infinite loop) are left alone.
pub fn jump_thread(func: &mut Function) -> bool {
    // forward[b] = Some(t) when block b is empty and just jumps to t.
    let forward: Vec<Option<BlockId>> = func
        .blocks
        .iter()
        .map(|b| match b.term {
            Terminator::Jump(t) if b.instrs.is_empty() => Some(t),
            _ => None,
        })
        .collect();

    let resolve = |start: BlockId| -> BlockId {
        let mut cur = start;
        let mut seen = HashSet::new();
        while let Some(next) = forward[cur.index()] {
            if !seen.insert(cur) {
                return start; // cycle of empty blocks
            }
            cur = next;
        }
        cur
    };

    let mut changed = false;
    for block in &mut func.blocks {
        let mut threaded = false;
        block.term.map_successors(|t| {
            let r = resolve(t);
            if r != t {
                changed = true;
                threaded = true;
            }
            r
        });
        #[cfg(feature = "seeded-defects")]
        if threaded && mfdefect::active("opt-thread-swaps-edges") {
            if let Terminator::Branch {
                taken, not_taken, ..
            } = &mut block.term
            {
                std::mem::swap(taken, not_taken);
            }
        }
        #[cfg(not(feature = "seeded-defects"))]
        let _ = threaded;
    }
    changed
}

/// Removes blocks unreachable from the entry, renumbering the survivors.
/// Returns true if anything changed.
///
/// Conditional branches inside removed blocks disappear (their
/// [`trace_ir::BranchId`]s are simply no longer live); surviving branches
/// keep their ids.
pub fn remove_unreachable(func: &mut Function) -> bool {
    let seen = reachable_blocks(func);
    if seen.iter().all(|&s| s) {
        return false;
    }
    let mut remap = vec![BlockId(0); func.blocks.len()];
    let mut next = 0u32;
    for (i, &live) in seen.iter().enumerate() {
        if live {
            remap[i] = BlockId(next);
            next += 1;
        }
    }
    let old_blocks = std::mem::take(&mut func.blocks);
    for (i, mut block) in old_blocks.into_iter().enumerate() {
        if !seen[i] {
            continue;
        }
        block.term.map_successors(|t| remap[t.index()]);
        func.blocks.push(block);
    }
    true
}

/// Removes instructions whose results are never used and that have no side
/// effects (global dead-code elimination at the instruction level — the
/// paper's Table 1 pass). Returns true if anything changed.
pub fn dead_code(func: &mut Function) -> bool {
    let mut changed = false;
    let mut used = vec![false; func.num_regs as usize];
    loop {
        used.fill(false);
        for block in &func.blocks {
            for instr in &block.instrs {
                instr.for_each_use(|r| used[r.index()] = true);
            }
            block.term.for_each_use(|r| used[r.index()] = true);
        }
        let mut removed = false;
        for block in &mut func.blocks {
            let before = block.instrs.len();
            block.instrs.retain(|instr| {
                #[cfg(feature = "seeded-defects")]
                if mfdefect::active("opt-dce-drops-emit")
                    && matches!(instr, trace_ir::Instr::Emit { .. })
                {
                    return false;
                }
                instr.has_side_effects() || instr.dst().is_none_or(|dst| used[dst.index()])
            });
            removed |= block.instrs.len() != before;
        }
        if !removed {
            break;
        }
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
    use trace_ir::{BinOp, BranchKind, Instr, Program};

    fn build(f: FunctionBuilder) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.add_function(f.finish());
        pb.finish("main").unwrap()
    }

    #[test]
    fn threads_through_empty_blocks() {
        let mut f = FunctionBuilder::new("main", 0);
        let hop = f.new_block();
        let end = f.new_block();
        f.jump(hop);
        f.switch_to(hop);
        f.jump(end);
        f.switch_to(end);
        f.ret(None);
        let mut p = build(f);
        assert!(jump_thread(&mut p.functions[0]));
        assert!(matches!(
            p.functions[0].blocks[0].term,
            Terminator::Jump(t) if t.index() == 2
        ));
    }

    #[test]
    fn empty_cycle_is_left_alone() {
        let mut f = FunctionBuilder::new("main", 0);
        let a = f.new_block();
        let b = f.new_block();
        f.jump(a);
        f.switch_to(a);
        f.jump(b);
        f.switch_to(b);
        f.jump(a);
        let mut p = build(f);
        jump_thread(&mut p.functions[0]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn removes_unreachable_and_renumbers() {
        let mut f = FunctionBuilder::new("main", 0);
        let dead = f.new_block();
        let live = f.new_block();
        f.jump(live);
        f.switch_to(dead);
        let c = f.const_int(1);
        let t = f.new_block();
        f.branch(c, t, t, 1, BranchKind::If);
        f.switch_to(t);
        f.ret(None);
        f.switch_to(live);
        f.ret(None);
        let mut p = build(f);
        assert_eq!(p.static_branch_count(), 1);
        assert!(remove_unreachable(&mut p.functions[0]));
        assert_eq!(p.functions[0].blocks.len(), 2);
        assert_eq!(p.static_branch_count(), 0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn dead_code_removes_unused_chains() {
        let mut f = FunctionBuilder::new("main", 1);
        let a = f.const_int(5);
        let b = f.binop(BinOp::Add, a, a); // dead chain
        let _c = f.binop(BinOp::Mul, b, b); // dead
        let live = f.binop(BinOp::Add, f.param(0), f.param(0));
        f.emit_value(live);
        f.ret(None);
        let mut p = build(f);
        assert!(dead_code(&mut p.functions[0]));
        // Only the live add and the emit survive.
        assert_eq!(p.functions[0].blocks[0].instrs.len(), 2);
    }

    #[test]
    fn dead_code_keeps_side_effects() {
        let mut f = FunctionBuilder::new("main", 1);
        let n = f.const_int(4);
        let arr = f.new_int_array(n); // allocation kept
        let zero = f.const_int(0);
        f.store(arr, zero, zero); // store kept
        let _unused = f.load(arr, zero); // dead load removed
        f.ret(None);
        let mut p = build(f);
        dead_code(&mut p.functions[0]);
        let instrs = &p.functions[0].blocks[0].instrs;
        assert!(instrs.iter().any(|i| matches!(i, Instr::Store { .. })));
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::NewIntArray { .. })));
        assert!(!instrs.iter().any(|i| matches!(i, Instr::Load { .. })));
    }
}
