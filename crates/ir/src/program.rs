//! Program, function and block containers.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::id::{BlockId, BranchId, FuncId, GlobalId, Reg};
use crate::instr::{Instr, Terminator};

/// What source construct a conditional branch came from.
///
/// The loop/non-loop distinction feeds the paper's "simple opcode heuristics"
/// baseline (predict loop back-edges taken, everything else not-taken), which
/// the authors report loses about a factor of two against profile feedback.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// The exit test of a `while`/`for` loop (taken = stay in the loop).
    LoopBack,
    /// An `if`/`else` test.
    If,
    /// One arm of a `switch` lowered to cascaded conditional branches.
    SwitchArm,
    /// A short-circuit `&&`/`||` test.
    ShortCircuit,
    /// Constructed directly through the builder API.
    Synthetic,
}

/// Source-level metadata for one conditional branch, keyed by [`BranchId`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Function the branch appears in.
    pub func: FuncId,
    /// 1-based source line, or 0 for synthetic branches.
    pub line: u32,
    /// The construct the branch implements.
    pub kind: BranchKind,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Block {
    /// Straight-line RISC operations.
    pub instrs: Vec<Instr>,
    /// The control transfer ending the block.
    pub term: Terminator,
}

impl Block {
    /// Creates a block with the given terminator and no instructions.
    pub fn new(term: Terminator) -> Self {
        Block {
            instrs: Vec::new(),
            term,
        }
    }

    /// Number of RISC-level instructions this block contributes per
    /// execution: its straight-line instructions plus one for the control
    /// transfer itself (compare operations are separate `Binop`s).
    pub fn instr_cost(&self) -> u64 {
        self.instrs.len() as u64 + 1
    }
}

/// A function: an ordered list of basic blocks.
///
/// Block order is meaningful: it reflects source layout, so "backward branch"
/// (taken-target index ≤ current index) identifies loop back-edges for the
/// heuristic predictor baseline.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Function {
    /// Function name (unique within a program).
    pub name: String,
    /// Number of parameters; parameters arrive in registers `r0..rN`.
    pub num_params: u32,
    /// Total virtual registers used (≥ `num_params`).
    pub num_regs: u32,
    /// Basic blocks; `blocks[0]` is the entry block.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Iterates `(BlockId, &Block)` pairs in layout order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::from_index(i), b))
    }

    /// Allocates a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Static count of conditional branches in the function.
    pub fn static_branch_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Branch { .. }))
            .count()
    }
}

/// A whole program: functions, global slots, interned constant arrays, and
/// the branch-info table.
#[derive(Clone, Debug, PartialEq, Default, Hash)]
pub struct Program {
    /// All functions; indices are [`FuncId`]s.
    pub functions: Vec<Function>,
    /// The function executed first.
    pub entry: FuncId,
    /// Names of global value slots (all initialized to integer 0).
    pub globals: Vec<String>,
    /// Interned constant integer arrays (string literals etc.). Read-only at
    /// run time, and shared behind `Arc` so executors can map them into
    /// their heaps without copying the payload per run.
    pub const_arrays: Vec<Arc<Vec<i64>>>,
    /// Metadata for every conditional branch ever created, indexed by
    /// [`BranchId`]. Optimizations may delete branches from the CFG but never
    /// remove or renumber entries here.
    pub branch_info: Vec<BranchInfo>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Finds a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId::from_index(i), f))
    }

    /// Finds a global slot by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g == name)
            .map(GlobalId::from_index)
    }

    /// Total static conditional-branch count across the whole program (live
    /// branches only — branches deleted by optimization are not counted).
    pub fn static_branch_count(&self) -> usize {
        self.functions
            .iter()
            .map(Function::static_branch_count)
            .sum()
    }

    /// Total static RISC-level instruction count (instructions plus one per
    /// terminator).
    pub fn static_instr_count(&self) -> u64 {
        self.functions
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(Block::instr_cost)
            .sum()
    }

    /// Every live branch id, mapped to the last function that contains it
    /// (an inlined program repeats a callee's ids in its callers). Ordered
    /// by id, so anything reported from it is the same in every process.
    pub fn live_branches(&self) -> BTreeMap<BranchId, FuncId> {
        let mut map = BTreeMap::new();
        for (fi, f) in self.functions.iter().enumerate() {
            for b in &f.blocks {
                if let Terminator::Branch { id, .. } = b.term {
                    map.insert(id, FuncId::from_index(fi));
                }
            }
        }
        map
    }

    /// Classifies a conditional branch as a loop back-edge by layout: the
    /// branch is "backward" if its taken target does not come after the block
    /// it ends. This is the information the heuristic predictor uses.
    pub fn is_backward_branch(&self, func: FuncId, block: BlockId) -> bool {
        match self.functions[func.index()].blocks[block.index()].term {
            Terminator::Branch { taken, .. } => taken.index() <= block.index(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Value;

    fn tiny_program() -> Program {
        // fn main() { bb0: r0=1; br r0 ? bb0 : bb1 ; bb1: ret }
        let f = Function {
            name: "main".to_string(),
            num_params: 0,
            num_regs: 1,
            blocks: vec![
                Block {
                    instrs: vec![Instr::Const {
                        dst: Reg(0),
                        value: Value::Int(1),
                    }],
                    term: Terminator::Branch {
                        cond: Reg(0),
                        id: BranchId(0),
                        taken: BlockId(0),
                        not_taken: BlockId(1),
                    },
                },
                Block::new(Terminator::Return { value: None }),
            ],
        };
        Program {
            functions: vec![f],
            entry: FuncId(0),
            globals: vec!["g".to_string()],
            const_arrays: vec![Arc::new(vec![104, 105])],
            branch_info: vec![BranchInfo {
                func: FuncId(0),
                line: 1,
                kind: BranchKind::LoopBack,
            }],
        }
    }

    #[test]
    fn lookup_by_name() {
        let p = tiny_program();
        let (id, f) = p.function_by_name("main").unwrap();
        assert_eq!(id, FuncId(0));
        assert_eq!(f.num_regs, 1);
        assert!(p.function_by_name("nope").is_none());
        assert_eq!(p.global_by_name("g"), Some(GlobalId(0)));
        assert_eq!(p.global_by_name("h"), None);
    }

    #[test]
    fn static_counts() {
        let p = tiny_program();
        assert_eq!(p.static_branch_count(), 1);
        // bb0: 1 instr + term, bb1: 0 instrs + term
        assert_eq!(p.static_instr_count(), 3);
    }

    #[test]
    fn live_branch_map() {
        let p = tiny_program();
        let live = p.live_branches();
        assert_eq!(live.len(), 1);
        assert_eq!(live[&BranchId(0)], FuncId(0));
    }

    #[test]
    fn backward_branch_detection() {
        let p = tiny_program();
        // bb0's taken target is bb0 itself -> backward.
        assert!(p.is_backward_branch(FuncId(0), BlockId(0)));
        assert!(!p.is_backward_branch(FuncId(0), BlockId(1)));
    }

    #[test]
    fn new_reg_allocates_sequentially() {
        let mut p = tiny_program();
        let f = &mut p.functions[0];
        assert_eq!(f.new_reg(), Reg(1));
        assert_eq!(f.new_reg(), Reg(2));
        assert_eq!(f.num_regs, 3);
    }

    #[test]
    fn block_cost_includes_terminator() {
        let p = tiny_program();
        assert_eq!(p.functions[0].blocks[0].instr_cost(), 2);
        assert_eq!(p.functions[0].blocks[1].instr_cost(), 1);
    }
}
