//! The flat bytecode backend: a validated [`Program`] is linearized into
//! profile-guided superblock traces and executed by a direct-dispatch
//! interpreter.
//!
//! The reference interpreter in [`crate::machine`] walks the structured IR:
//! every step re-resolves `functions[f].blocks[b].instrs[ip]`, charges fuel,
//! and allocates a fresh register `Vec` per call. This backend pre-compiles
//! the program once ([`FlatProgram::compile`]) and removes all of that from
//! the hot loop:
//!
//! * **Linear code.** Blocks become runs of u32-operand [`FlatOp`]s in one
//!   `Vec`; control transfers name [`EdgeHead`]s — per-emitted-copy records
//!   holding the target's code offset plus its Pixie slot, coverage-edge
//!   coordinates, and bulk fuel cost — so dispatch is `code[pc]` with no
//!   pointer chasing and landing on a block is a single table read.
//! * **Superblock traces.** Compilation grows traces greedily along the
//!   profile's predicted arms (`2·taken > executed`; backward-taken /
//!   forward-not-taken without a profile), seeded at loop headers found by
//!   `mfcheck`'s dominator/loop analysis. Side-entrance blocks on a trace
//!   are *tail-duplicated* under a per-function size budget so the hot path
//!   stays straight-line; every block also keeps one canonical copy that
//!   off-trace edges land on. See [`TraceConfig`].
//! * **Trace-scoped optimization.** Within a trace, a facts engine tracks
//!   comparison outcomes across copies; a compare whose outcome is implied
//!   by an earlier compare or taken edge collapses into a side-exit-free
//!   implied branch that still records its counters. Facts only flow along
//!   edges that are provably the sole entrance of the next copy.
//! * **Fused superinstructions.** A comparison `Binop` feeding the block's
//!   conditional branch becomes one `CmpBranch` op, `Const` + `Binop` (the
//!   constant on the right-hand side) becomes one `ConstBinop`, and
//!   adjacent single-component ALU/load ops pair into two-in-one dispatch
//!   ops (e.g. the FP kernels' mul+add). Fusion is transparent: fused ops
//!   still write their intermediate destination registers and decompose
//!   back into their components for fuel accounting.
//! * **Block-level fuel.** Fuel is charged in bulk at each edge head (and
//!   after each call returns) from pre-computed segment costs instead of
//!   once per instruction; see "Fuel accounting" below.
//! * **Register windows.** All frames live in one contiguous register
//!   stack, pre-sized at startup from the program's static window sum; a
//!   call reserves a window at the top and a return truncates it — no
//!   per-call allocation.
//!
//! # Fuel accounting
//!
//! The reference interpreter charges 1 fuel before each instruction and each
//! terminator, and the instruction count an [`crate::Observer`] sees at a
//! branch reads the fuel counter there. To be observably identical while charging in bulk, each block
//! copy's instruction list is split into *segments* that end after every
//! call (the call included) with the terminator closing the last segment.
//! The copy's [`EdgeHead`] charges the first segment; a [`FlatOp::Resume`]
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
mod ops;
mod trace;

use std::sync::Arc;

use trace_ir::{BranchId, Program};

use self::compile::Flattener;
use self::interp::FlatInterp;
use self::ops::{EdgeHead, FlatOp};
pub use self::trace::{confidence_digest, TraceConfig};
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
/// program, profile, and [`TraceConfig`], and running never mutates the
/// compiled artifact.
#[derive(Debug)]
pub struct FlatProgram {
    code: Vec<FlatOp>,
    /// One entry per emitted block copy; control transfers index this table.
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
    /// Compiles `program` with default trace formation and no profile
    /// (BTFN-predicted trace growth).
    pub fn compile(program: &Program) -> Self {
        Self::compile_with(program, None, TraceConfig::default())
    }

    /// Compiles `program` growing traces along the profile's likelier
    /// branch arms: an arm is predicted taken when `2·taken > executed` in
    /// `profile`. Trace selection never changes observable behavior.
    pub fn compile_with_profile(program: &Program, profile: &BranchCounts) -> Self {
        Self::compile_with(program, Some(profile), TraceConfig::default())
    }

    /// Compiles `program` with explicit trace configuration and an optional
    /// profile driving trace growth (BTFN when absent). With
    /// `trace.enabled == false` this degenerates to PR 4's greedy
    /// fall-through layout: no duplication, no implied branches.
    pub fn compile_with(
        program: &Program,
        profile: Option<&BranchCounts>,
        trace: TraceConfig,
    ) -> Self {
        Flattener::new(program, profile, trace).build()
    }

    /// [`FlatProgram::compile_with`] for profiles reused across a program
    /// edit: sites in `low_confidence` (the degraded list of a
    /// version-skew remap — see `mfstale`) keep their counters but are
    /// *not* trusted to steer trace growth; they predict by
    /// backward-taken/forward-not-taken exactly as if unprofiled. Callers
    /// should set `trace.confidence_digest` to
    /// [`confidence_digest`]`(low_confidence)` so run keys distinguish the
    /// degraded compilation. An empty `low_confidence` compiles
    /// identically to [`FlatProgram::compile_with`].
    pub fn compile_with_confidence(
        program: &Program,
        profile: Option<&BranchCounts>,
        low_confidence: &[BranchId],
        trace: TraceConfig,
    ) -> Self {
        Flattener::with_confidence(program, profile, low_confidence, trace).build()
    }

    /// Number of ops in the compiled code stream (diagnostics and benchmark
    /// metadata; fused patterns make this smaller than the IR op count,
    /// tail duplication pushes the other way).
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
