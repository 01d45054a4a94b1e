//! The flat bytecode backend: a validated [`Program`] is linearized into
//! one op stream and executed by a direct-dispatch interpreter.
//!
//! The reference interpreter in [`crate::machine`] walks the structured IR:
//! every step re-resolves `functions[f].blocks[b].instrs[ip]`, charges fuel,
//! and allocates a fresh register `Vec` per call. This backend pre-compiles
//! the program once ([`FlatProgram::compile`]) and removes all of that from
//! the hot loop:
//!
//! * **Linear code.** Blocks become runs of u32-operand [`FlatOp`]s in one
//!   `Vec`; control transfers name [`EdgeHead`]s — per-block records
//!   holding the target's code offset plus its Pixie slot, coverage-edge
//!   coordinates, and bulk fuel cost — so dispatch is `code[pc]` with no
//!   pointer chasing and landing on a block is a single table read.
//! * **Block layout.** Each function's blocks are emitted once, in greedy
//!   fall-through chains that follow a branch's not-taken arm, a jump's
//!   target and a jump table's default. There is one layout and it reads
//!   no profile; layout never changes observable behavior.
//! * **Fused superinstructions.** A comparison `Binop` feeding the block's
//!   conditional branch becomes one `CmpBranch` op, and `Const` + `Binop`
//!   (the constant on the right-hand side) becomes one `ConstBinop`. The
//!   hot operators get variants of their own that carry the operator as a
//!   literal. Fusion is transparent: fused ops still write their
//!   intermediate destination registers and decompose back into their
//!   components for fuel accounting.
//! * **Block-level fuel.** Fuel is charged in bulk at each edge head (and
//!   after each call returns) from pre-computed segment costs instead of
//!   once per instruction; see "Fuel accounting" below.
//! * **Register windows.** All frames live in one contiguous register
//!   stack, pre-sized at startup from the program's static window sum; a
//!   call reserves a window at the top and a return truncates it — no
//!   per-call allocation.
//!
//! DESIGN.md §14 records what each mechanism is worth.
//!
//! # Fuel accounting
//!
//! The reference interpreter charges 1 fuel before each instruction and each
//! terminator, and the instruction count an [`crate::Observer`] sees at a
//! branch reads the fuel counter there. To be observably identical while
//! charging in bulk, each block's instruction list is split into
//! *segments* that end after every
//! call (the call included) with the terminator closing the last segment.
//! The block's [`EdgeHead`] charges the first segment; a [`FlatOp::Resume`]
//! placed after each call op charges the next segment when the callee
//! returns. Control only leaves a segment at its final component (a call or
//! the terminator), so at every control transfer — in particular at every
//! conditional branch, including inside callees — the bulk-charged fuel
//! equals the reference's per-instruction count exactly.
//!
//! When a bulk charge overshoots the limit, the charge is rolled back and
//! the segment is re-executed charging per component
//! (`finish_precise`), reproducing the reference's exact fault
//! point and error — including cases where a `DivideByZero` or
//! `TypeMismatch` preempts `OutOfFuel` mid-segment.

mod compile;
mod interp;
mod layout;
mod ops;

use std::sync::Arc;

use trace_ir::{BranchId, Program};

use self::compile::Flattener;
use self::interp::FlatInterp;
use self::ops::{EdgeHead, FlatOp};
use crate::counters::BranchCounts;
use crate::error::RuntimeError;
use crate::machine::{Observer, Run, VmConfig};
use crate::value::{GuestValue, Input};

/// Per-table jump-table targets, resolved to edge heads.
#[derive(Debug)]
struct TableData {
    targets: Vec<u32>,
    default: u32,
}

/// Per-function metadata of the flattened program.
#[derive(Debug)]
struct FlatFunc {
    entry_pc: u32,
    num_regs: u32,
    num_params: u32,
    name: String,
}

/// A [`Program`] pre-compiled for the flat backend.
///
/// Compile once, run many times: compilation is deterministic for a given
/// program, and running never mutates the compiled artifact.
#[derive(Debug)]
pub struct FlatProgram {
    code: Vec<FlatOp>,
    /// One entry per block, in function then block order; control
    /// transfers index this table.
    heads: Vec<EdgeHead>,
    consts: Vec<GuestValue>,
    args: Vec<u32>,
    tables: Vec<TableData>,
    funcs: Vec<FlatFunc>,
    entry: u32,
    globals: usize,
    const_arrays: Vec<Arc<Vec<i64>>>,
    /// Blocks per function — the shape of a fresh
    /// [`crate::counters::PixieCounts`].
    block_shape: Vec<usize>,
    /// Dense branch-counter slot → source-level branch id. The hot loop
    /// bumps flat per-slot counters; they fold back into the keyed
    /// [`BranchCounts`] once, when the run finishes.
    branch_ids: Vec<BranchId>,
    /// Sum of all static register windows (capped) — the interpreter's
    /// initial register-stack capacity.
    prealloc_regs: usize,
}

impl FlatProgram {
    /// Compiles `program`: each function's blocks are laid out in block
    /// order as fall-through chains, every conditional branch falling
    /// through to its not-taken arm.
    pub fn compile(program: &Program) -> Self {
        Flattener::new(program).build()
    }

    /// The former profile-steered layout, now [`FlatProgram::compile`]:
    /// `profile` is ignored. Its one caller is the end-to-end benchmark's
    /// `e2e/src/edit.rs`; this forward goes with the next change to the
    /// benchmark.
    pub fn compile_with_profile(program: &Program, _profile: &BranchCounts) -> Self {
        Self::compile(program)
    }

    /// Number of ops in the compiled code stream (diagnostics and benchmark
    /// metadata; fused patterns make this smaller than the IR op count).
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Runs the program's entry function on `inputs` — the flat-backend
    /// equivalent of [`crate::Vm::run`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on any dynamic fault, exactly as the
    /// reference backend does.
    pub fn run(&self, config: VmConfig, inputs: &[Input]) -> Result<Run, RuntimeError> {
        self.run_observed(config, inputs, &mut ())
    }

    /// [`FlatProgram::run`], reporting every edge and branch to `obs` — the
    /// flat-backend equivalent of [`crate::Vm::run_observed`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on any dynamic fault, exactly as the
    /// reference backend does.
    pub fn run_observed<O: Observer>(
        &self,
        config: VmConfig,
        inputs: &[Input],
        obs: &mut O,
    ) -> Result<Run, RuntimeError> {
        FlatInterp::new(self, config, obs).run(inputs)
    }

    /// The former name of [`FlatProgram::run_observed`].
    pub fn run_branches<O: Observer>(
        &self,
        config: VmConfig,
        inputs: &[Input],
        obs: &mut O,
    ) -> Result<Run, RuntimeError> {
        self.run_observed(config, inputs, obs)
    }
}
