//! Control-flow graph with predecessor/successor views and a reverse
//! postorder, the substrate every other analysis builds on.

use trace_ir::{BlockId, Function, Instr, Reg, Value};

/// A function's control-flow graph.
///
/// Successor lists preserve the terminator's edge multiplicity (a jump
/// table may target one block several times); predecessor lists mirror
/// them. The reverse postorder covers only blocks reachable from the
/// entry (block 0).
#[derive(Clone, Debug)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_pos: Vec<usize>,
}

/// Marker for "not in the reverse postorder" (unreachable block).
const UNREACHED: usize = usize::MAX;

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn new(func: &Function) -> Self {
        let n = func.blocks.len();
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (i, block) in func.blocks.iter().enumerate() {
            block.term.for_each_successor(|s| {
                succs[i].push(s);
                preds[s.index()].push(BlockId::from_index(i));
            });
        }

        // Iterative depth-first search from the entry; postorder is
        // collected as each block's successor list is exhausted.
        let mut postorder: Vec<BlockId> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        if n > 0 {
            let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
            visited[0] = true;
            while let Some(&(block, next)) = stack.last() {
                if let Some(&succ) = succs[block].get(next) {
                    stack.last_mut().expect("non-empty stack").1 += 1;
                    if !visited[succ.index()] {
                        visited[succ.index()] = true;
                        stack.push((succ.index(), 0));
                    }
                } else {
                    postorder.push(BlockId::from_index(block));
                    stack.pop();
                }
            }
        }
        let rpo: Vec<BlockId> = postorder.into_iter().rev().collect();
        let mut rpo_pos = vec![UNREACHED; n];
        for (pos, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = pos;
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_pos,
        }
    }

    /// Number of blocks (reachable or not).
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True for a function with no blocks.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Successors of `b`, with edge multiplicity.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessors of `b`, with edge multiplicity.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Reachable blocks in reverse postorder (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the reverse postorder, or `None` if unreachable.
    pub fn rpo_pos(&self, b: BlockId) -> Option<usize> {
        match self.rpo_pos[b.index()] {
            UNREACHED => None,
            pos => Some(pos),
        }
    }

    /// True when `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.index()] != UNREACHED
    }
}

/// The set of blocks reachable from the entry block, as a bitmask over
/// block indices. (The optimizer's historical helper; equivalent to
/// [`Cfg::is_reachable`] without materializing edge lists.)
pub fn reachable_blocks(func: &Function) -> Vec<bool> {
    let mut seen = vec![false; func.blocks.len()];
    if seen.is_empty() {
        return seen;
    }
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(b) = stack.pop() {
        func.blocks[b].term.for_each_successor(|s| {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s.index());
            }
        });
    }
    seen
}

/// Registers with exactly one static definition, where that definition is a
/// `Const`. Such registers hold the same value at every (post-definition)
/// use, so their value can be folded into consumers.
///
/// The analysis is only sound when no use of a register executes before its
/// definition; hand-built IR that reads a register "uninitialized" would
/// observe zero instead of the constant. Callers must establish that
/// property first — [`crate::uninitialized_uses`] decides it, and
/// `mfopt::fold_constants` refuses to fold functions that fail it.
pub fn single_def_consts(func: &Function) -> RegConsts {
    let regs = func.num_regs as usize;
    // Parameters are defined at entry.
    let mut defs = vec![0u32; regs];
    for d in defs.iter_mut().take(func.num_params as usize) {
        *d = 1;
    }
    let mut consts = vec![None; regs];
    for block in &func.blocks {
        for instr in &block.instrs {
            if let Some(dst) = instr.dst() {
                defs[dst.index()] += 1;
                if let Instr::Const { value, .. } = instr {
                    consts[dst.index()] = Some(*value);
                }
            }
        }
    }
    for (c, &d) in consts.iter_mut().zip(&defs) {
        if d != 1 {
            *c = None;
        }
    }
    RegConsts(consts)
}

/// The result of [`single_def_consts`]: one slot per register of the
/// function, holding the constant of each single-definition `Const`
/// register.
#[derive(Clone, Debug, PartialEq)]
pub struct RegConsts(Vec<Option<Value>>);

impl RegConsts {
    /// The constant `reg` always holds once defined, if it is one.
    pub fn get(&self, reg: &Reg) -> Option<&Value> {
        self.0.get(reg.index())?.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
    use trace_ir::{BinOp, BranchKind, Program};

    pub(crate) fn build(f: FunctionBuilder) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.add_function(f.finish());
        pb.finish("f").unwrap()
    }

    #[test]
    fn diamond_edges_and_rpo() {
        // bb0 -> {bb1, bb2} -> bb3
        let mut f = FunctionBuilder::new("f", 1);
        let t = f.new_block();
        let e = f.new_block();
        let join = f.new_block();
        f.branch(f.param(0), t, e, 1, BranchKind::If);
        f.switch_to(t);
        f.jump(join);
        f.switch_to(e);
        f.jump(join);
        f.switch_to(join);
        f.ret(None);
        let p = build(f);
        let cfg = Cfg::new(&p.functions[0]);
        assert_eq!(cfg.len(), 4);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.rpo()[0], BlockId(0));
        assert_eq!(cfg.rpo().len(), 4);
        assert_eq!(cfg.rpo_pos(BlockId(0)), Some(0));
        // The join must come after both arms in reverse postorder.
        assert!(cfg.rpo_pos(BlockId(3)) > cfg.rpo_pos(BlockId(1)));
        assert!(cfg.rpo_pos(BlockId(3)) > cfg.rpo_pos(BlockId(2)));
    }

    #[test]
    fn unreachable_blocks_are_outside_the_rpo() {
        let mut f = FunctionBuilder::new("f", 0);
        let live = f.new_block();
        let dead = f.new_block();
        f.jump(live);
        f.switch_to(live);
        f.ret(None);
        f.switch_to(dead);
        f.ret(None);
        let p = build(f);
        let cfg = Cfg::new(&p.functions[0]);
        assert!(cfg.is_reachable(BlockId(1)));
        assert!(!cfg.is_reachable(BlockId(2)));
        assert_eq!(cfg.rpo_pos(BlockId(2)), None);
        assert_eq!(reachable_blocks(&p.functions[0]), vec![true, true, false]);
    }

    #[test]
    fn finds_single_def_consts() {
        let mut f = FunctionBuilder::new("f", 1);
        let a = f.const_int(5);
        let b = f.const_int(7);
        let _sum = f.binop(BinOp::Add, a, b);
        // Redefine b: no longer single-def.
        f.mov_to(b, a);
        f.ret(None);
        let p = build(f);
        let consts = single_def_consts(&p.functions[0]);
        assert_eq!(consts.get(&a), Some(&Value::Int(5)));
        assert_eq!(consts.get(&b), None);
    }

    #[test]
    fn params_are_never_consts() {
        let mut f = FunctionBuilder::new("f", 1);
        let p0 = f.param(0);
        let c = f.const_int(1);
        let _x = f.binop(BinOp::Add, p0, c);
        f.ret(None);
        let p = build(f);
        let consts = single_def_consts(&p.functions[0]);
        assert_eq!(consts.get(&p0), None);
    }
}
