//! Convenience builders for constructing IR by hand.
//!
//! The `mflang` compiler lowers source through these builders, and tests and
//! examples use them directly. [`ProgramBuilder`] owns program-wide state
//! (function table, globals, interned constant arrays, branch-id allocation);
//! [`FunctionBuilder`] builds one function's CFG.
//!
//! Branch ids inside a [`FunctionBuilder`] are function-local; they are
//! renumbered into the program-wide [`BranchId`] space, in the order functions
//! are added, by [`ProgramBuilder::add_function`]. Renumbering only ever
//! happens here, at construction time, before any profile exists.

use crate::id::{BlockId, BranchId, FuncId, GlobalId, Reg};
use crate::instr::{BinOp, Instr, Terminator, UnOp, Value};
use crate::program::{Block, BranchInfo, BranchKind, Function, Program};
use crate::validate::ValidateError;

/// A finished function plus the source metadata of its branches, awaiting
/// program-wide branch-id assignment.
#[derive(Clone, Debug)]
pub struct FunctionDraft {
    function: Function,
    branch_meta: Vec<(u32, BranchKind)>,
}

/// Builds one [`Function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    num_params: u32,
    num_regs: u32,
    blocks: Vec<(Vec<Instr>, Option<Terminator>)>,
    current: BlockId,
    branch_meta: Vec<(u32, BranchKind)>,
}

impl FunctionBuilder {
    /// Starts a function with `num_params` parameters (arriving in registers
    /// `r0..rN`). The entry block is created and selected.
    pub fn new(name: impl Into<String>, num_params: u32) -> Self {
        FunctionBuilder {
            name: name.into(),
            num_params,
            num_regs: num_params,
            blocks: vec![(Vec::new(), None)],
            current: BlockId(0),
            branch_meta: Vec::new(),
        }
    }

    /// Allocates a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// The register holding parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a parameter index.
    pub fn param(&self, i: u32) -> Reg {
        assert!(i < self.num_params, "parameter index out of range");
        Reg(i)
    }

    /// Creates a new, unselected block.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push((Vec::new(), None));
        id
    }

    /// Selects the block subsequent instructions are appended to.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            self.blocks[block.index()].1.is_none(),
            "cannot switch to terminated block {block}"
        );
        self.current = block;
    }

    /// True if the current block already has a terminator.
    pub fn current_terminated(&self) -> bool {
        self.blocks[self.current.index()].1.is_some()
    }

    /// Appends an instruction to the current block.
    ///
    /// # Panics
    ///
    /// Panics if the current block is already terminated.
    pub fn push(&mut self, instr: Instr) {
        let (instrs, term) = &mut self.blocks[self.current.index()];
        assert!(term.is_none(), "instruction after terminator");
        instrs.push(instr);
    }

    /// `dst = value`; returns `dst`.
    pub fn const_val(&mut self, value: Value) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Const { dst, value });
        dst
    }

    /// Convenience: integer constant.
    pub fn const_int(&mut self, v: i64) -> Reg {
        self.const_val(Value::Int(v))
    }

    /// Convenience: float constant.
    pub fn const_float(&mut self, v: f64) -> Reg {
        self.const_val(Value::Float(v))
    }

    /// `dst = lhs op rhs`; returns `dst`.
    pub fn binop(&mut self, op: BinOp, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Binop { dst, op, lhs, rhs });
        dst
    }

    /// `dst = op src`; returns `dst`.
    pub fn unop(&mut self, op: UnOp, src: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Unop { dst, op, src });
        dst
    }

    /// `dst = cond ? a : b`; returns `dst`.
    pub fn select(&mut self, cond: Reg, a: Reg, b: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Select {
            dst,
            cond,
            if_true: a,
            if_false: b,
        });
        dst
    }

    /// `dst = src` into a fresh register; returns `dst`.
    pub fn mov(&mut self, src: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Mov { dst, src });
        dst
    }

    /// Copies `src` into an existing register.
    pub fn mov_to(&mut self, dst: Reg, src: Reg) {
        self.push(Instr::Mov { dst, src });
    }

    /// `dst = arr[index]`; returns `dst`.
    pub fn load(&mut self, arr: Reg, index: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Load { dst, arr, index });
        dst
    }

    /// `arr[index] = src`.
    pub fn store(&mut self, arr: Reg, index: Reg, src: Reg) {
        self.push(Instr::Store { arr, index, src });
    }

    /// Allocates a zeroed integer array of length `len`; returns its ref.
    pub fn new_int_array(&mut self, len: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::NewIntArray { dst, len });
        dst
    }

    /// Allocates a zeroed float array of length `len`; returns its ref.
    pub fn new_float_array(&mut self, len: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::NewFloatArray { dst, len });
        dst
    }

    /// `dst = len(arr)`; returns `dst`.
    pub fn array_len(&mut self, arr: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::ArrayLen { dst, arr });
        dst
    }

    /// Reference to interned constant array `index`; returns the ref.
    pub fn const_array(&mut self, index: u32) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::ConstArray { dst, index });
        dst
    }

    /// Reads a global slot; returns the value register.
    pub fn global_get(&mut self, global: GlobalId) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::GlobalGet { dst, global });
        dst
    }

    /// Writes a global slot.
    pub fn global_set(&mut self, global: GlobalId, src: Reg) {
        self.push(Instr::GlobalSet { global, src });
    }

    /// `dst = &func`; returns `dst`.
    pub fn func_addr(&mut self, func: FuncId) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::FuncAddr { dst, func });
        dst
    }

    /// Direct call returning a value.
    pub fn call(&mut self, func: FuncId, args: Vec<Reg>) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::Call {
            dst: Some(dst),
            func,
            args,
        });
        dst
    }

    /// Direct call discarding any return value.
    pub fn call_void(&mut self, func: FuncId, args: Vec<Reg>) {
        self.push(Instr::Call {
            dst: None,
            func,
            args,
        });
    }

    /// Indirect call through `target`, returning a value.
    pub fn call_indirect(&mut self, target: Reg, args: Vec<Reg>) -> Reg {
        let dst = self.new_reg();
        self.push(Instr::CallIndirect {
            dst: Some(dst),
            target,
            args,
        });
        dst
    }

    /// Appends `src` to the program output stream.
    pub fn emit_value(&mut self, src: Reg) {
        self.push(Instr::Emit { src });
    }

    fn terminate(&mut self, term: Terminator) {
        let (_, slot) = &mut self.blocks[self.current.index()];
        assert!(slot.is_none(), "block terminated twice");
        *slot = Some(term);
    }

    /// Ends the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Ends the current block with a conditional branch carrying source
    /// metadata `(line, kind)` for its future [`BranchId`].
    pub fn branch(
        &mut self,
        cond: Reg,
        taken: BlockId,
        not_taken: BlockId,
        line: u32,
        kind: BranchKind,
    ) {
        let local = BranchId::from_index(self.branch_meta.len());
        self.branch_meta.push((line, kind));
        self.terminate(Terminator::Branch {
            cond,
            id: local,
            taken,
            not_taken,
        });
    }

    /// Ends the current block with a jump-table transfer.
    pub fn jump_table(&mut self, index: Reg, targets: Vec<BlockId>, default: BlockId) {
        self.terminate(Terminator::JumpTable {
            index,
            targets,
            default,
        });
    }

    /// Ends the current block with a return.
    pub fn ret(&mut self, value: Option<Reg>) {
        self.terminate(Terminator::Return { value });
    }

    /// Finishes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator.
    pub fn finish(self) -> FunctionDraft {
        let blocks: Vec<Block> = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, (instrs, term))| Block {
                instrs,
                term: term.unwrap_or_else(|| panic!("block bb{i} has no terminator")),
            })
            .collect();
        FunctionDraft {
            function: Function {
                name: self.name,
                num_params: self.num_params,
                num_regs: self.num_regs,
                blocks,
            },
            branch_meta: self.branch_meta,
        }
    }
}

/// Builds a [`Program`], owning program-wide tables.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    functions: Vec<Option<Function>>,
    names: Vec<String>,
    globals: Vec<String>,
    const_arrays: Vec<std::sync::Arc<Vec<i64>>>,
    branch_info: Vec<BranchInfo>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Pre-declares a function so its [`FuncId`] can be referenced by calls
    /// before its body exists. The body must be supplied later with
    /// [`ProgramBuilder::define_function`].
    pub fn declare_function(&mut self, name: impl Into<String>) -> FuncId {
        let id = FuncId::from_index(self.functions.len());
        self.functions.push(None);
        self.names.push(name.into());
        id
    }

    /// Declares and defines a function in one step; returns its id.
    pub fn add_function(&mut self, draft: FunctionDraft) -> FuncId {
        let id = self.declare_function(draft.function.name.clone());
        self.define_function(id, draft);
        id
    }

    /// Supplies the body for a pre-declared function, assigning program-wide
    /// branch ids to its branches.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already defined or the draft's name differs from
    /// the declared name.
    pub fn define_function(&mut self, id: FuncId, draft: FunctionDraft) {
        assert!(
            self.functions[id.index()].is_none(),
            "function {id} defined twice"
        );
        assert_eq!(
            self.names[id.index()],
            draft.function.name,
            "draft name does not match declaration"
        );
        let base = self.branch_info.len() as u32;
        let mut function = draft.function;
        for block in &mut function.blocks {
            if let Terminator::Branch { id: local, .. } = &mut block.term {
                *local = BranchId(base + local.0);
            }
        }
        for (line, kind) in draft.branch_meta {
            self.branch_info.push(BranchInfo {
                func: id,
                line,
                kind,
            });
        }
        self.functions[id.index()] = Some(function);
    }

    /// Adds a global slot; returns its id.
    pub fn add_global(&mut self, name: impl Into<String>) -> GlobalId {
        let id = GlobalId::from_index(self.globals.len());
        self.globals.push(name.into());
        id
    }

    /// Interns a constant integer array (e.g. a string literal); returns its
    /// index for [`FunctionBuilder::const_array`].
    pub fn intern_array(&mut self, data: Vec<i64>) -> u32 {
        // Deduplicate identical literals, as a string table would.
        if let Some(i) = self.const_arrays.iter().position(|a| **a == data) {
            return i as u32;
        }
        let i = self.const_arrays.len() as u32;
        self.const_arrays.push(std::sync::Arc::new(data));
        i
    }

    /// Interns a string literal as its byte values.
    pub fn intern_str(&mut self, s: &str) -> u32 {
        self.intern_array(s.bytes().map(i64::from).collect())
    }

    /// Assembles and validates the program, with `entry` as the function run
    /// first.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if any function is declared but undefined,
    /// the entry is missing, or the assembled program fails validation.
    pub fn finish(self, entry: &str) -> Result<Program, ValidateError> {
        let mut functions = Vec::with_capacity(self.functions.len());
        for (i, f) in self.functions.into_iter().enumerate() {
            match f {
                Some(f) => functions.push(f),
                None => {
                    return Err(ValidateError::UndefinedFunction {
                        name: self.names[i].clone(),
                    })
                }
            }
        }
        let program = Program {
            entry: FuncId(0),
            functions,
            globals: self.globals,
            const_arrays: self.const_arrays,
            branch_info: self.branch_info,
        };
        let (entry_id, _) =
            program
                .function_by_name(entry)
                .ok_or_else(|| ValidateError::UndefinedFunction {
                    name: entry.to_string(),
                })?;
        let program = Program {
            entry: entry_id,
            ..program
        };
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_two_function_program() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare_function("inc");

        let mut f = FunctionBuilder::new("inc", 1);
        let one = f.const_int(1);
        let sum = f.binop(BinOp::Add, f.param(0), one);
        f.ret(Some(sum));
        pb.define_function(callee, f.finish());

        let mut m = FunctionBuilder::new("main", 0);
        let x = m.const_int(41);
        let y = m.call(callee, vec![x]);
        m.emit_value(y);
        m.ret(Some(y));
        pb.add_function(m.finish());

        let p = pb.finish("main").unwrap();
        assert_eq!(p.entry, FuncId(1));
        assert_eq!(p.functions.len(), 2);
    }

    #[test]
    fn branch_ids_are_program_wide() {
        let mut pb = ProgramBuilder::new();

        for name in ["a", "b"] {
            let mut f = FunctionBuilder::new(name, 0);
            let c = f.const_int(1);
            let t = f.new_block();
            let e = f.new_block();
            f.branch(c, t, e, 10, BranchKind::If);
            f.switch_to(t);
            f.ret(None);
            f.switch_to(e);
            f.ret(None);
            pb.add_function(f.finish());
        }
        let mut m = FunctionBuilder::new("main", 0);
        m.ret(None);
        pb.add_function(m.finish());

        let p = pb.finish("main").unwrap();
        assert_eq!(p.branch_info.len(), 2);
        let live = p.live_branches();
        assert_eq!(live[&BranchId(0)], FuncId(0));
        assert_eq!(live[&BranchId(1)], FuncId(1));
    }

    #[test]
    fn intern_deduplicates() {
        let mut pb = ProgramBuilder::new();
        let a = pb.intern_str("hello");
        let b = pb.intern_str("hello");
        let c = pb.intern_str("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn finish_rejects_missing_entry() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("f", 0);
        f.ret(None);
        pb.add_function(f.finish());
        let err = pb.finish("main").unwrap_err();
        assert!(matches!(err, ValidateError::UndefinedFunction { .. }));
    }

    #[test]
    fn finish_rejects_undefined_function() {
        let mut pb = ProgramBuilder::new();
        pb.declare_function("ghost");
        let mut f = FunctionBuilder::new("main", 0);
        f.ret(None);
        pb.add_function(f.finish());
        let err = pb.finish("main").unwrap_err();
        assert!(matches!(err, ValidateError::UndefinedFunction { name } if name == "ghost"));
    }

    #[test]
    #[should_panic(expected = "instruction after terminator")]
    fn push_after_terminator_panics() {
        let mut f = FunctionBuilder::new("f", 0);
        f.ret(None);
        f.const_int(0);
    }

    #[test]
    #[should_panic(expected = "no terminator")]
    fn finish_unterminated_panics() {
        let mut f = FunctionBuilder::new("f", 0);
        f.new_block();
        f.ret(None);
        let _ = f.finish();
    }
}
