//! The flat-code interpreter: direct dispatch over [`FlatOp`]s with
//! edge-head-fused control transfers and precise fuel-fault replay.

use std::sync::Arc;

use trace_ir::{BinOp, FuncId};

use super::ops::{generalize, EdgeHead, FlatOp, BINOPS, CONST_CODE, MOV_CODE, NONE, UNOPS};
use super::FlatProgram;
use crate::counters::{PixieCounts, RunStats};
use crate::error::RuntimeError;
use crate::machine::{
    eval_binop, eval_unop, want_float, want_int, Observer, Run, VmConfig, ENTRY_EDGE_FROM,
};
use crate::value::{ArrayData, GuestValue, HeapObject, Input};

/// One frame of the contiguous register stack.
#[derive(Clone, Copy, Debug)]
struct FlatFrame {
    /// Code offset to resume at in the caller (points at a `Resume` op).
    ret_pc: u32,
    /// Start of this frame's register window in the shared stack.
    base: u32,
    /// Caller-window register receiving the return value, or `NONE`.
    ret_dst: u32,
    /// Current block, for coverage-edge `from` ([`ENTRY_EDGE_FROM`] until
    /// the function's entry block head runs).
    cur_block: u32,
    /// Whether the frame was entered through an indirect call.
    indirect: bool,
}

pub(super) struct FlatInterp<'f, 'o, O: Observer> {
    fp: &'f FlatProgram,
    config: VmConfig,
    heap: Vec<HeapObject>,
    globals: Vec<GuestValue>,
    regs: Vec<GuestValue>,
    frames: Vec<FlatFrame>,
    output: Vec<GuestValue>,
    stats: RunStats,
    /// Dense per-block execution counts (slot order); folded into
    /// [`PixieCounts`] when the run finishes.
    pixie: Vec<u64>,
    /// Dense per-branch `(executed, taken)` counts (slot order); folded
    /// into the keyed [`crate::BranchCounts`] when the run finishes. Keeps
    /// the hot loop free of the reference backend's per-branch map lookup.
    branch_hits: Vec<(u64, u64)>,
    fuel_used: u64,
    obs: &'o mut O,
}

fn want_ref(v: GuestValue) -> Result<u32, RuntimeError> {
    match v {
        GuestValue::Ref(h) => Ok(h),
        v => Err(RuntimeError::TypeMismatch {
            expected: "array",
            found: v.type_name(),
        }),
    }
}

fn check_index(index: i64, len: usize) -> Result<usize, RuntimeError> {
    if index < 0 || index as usize >= len {
        Err(RuntimeError::IndexOutOfBounds { index, len })
    } else {
        Ok(index as usize)
    }
}

impl<'f, 'o, O: Observer> FlatInterp<'f, 'o, O> {
    pub(super) fn new(fp: &'f FlatProgram, config: VmConfig, obs: &'o mut O) -> Self {
        let heap = fp
            .const_arrays
            .iter()
            .map(|a| HeapObject {
                data: ArrayData::Ints(Arc::clone(a)),
                read_only: true,
            })
            .collect();
        FlatInterp {
            fp,
            config,
            heap,
            globals: vec![GuestValue::Zero; fp.globals],
            // Register-window pre-sizing: reserve the whole program's
            // static window sum (capped) up front so hot call chains never
            // reallocate the shared stack mid-descent.
            regs: Vec::with_capacity(fp.prealloc_regs),
            frames: Vec::with_capacity(64),
            output: Vec::new(),
            stats: RunStats::default(),
            pixie: vec![0; fp.block_shape.iter().sum()],
            branch_hits: vec![(0, 0); fp.branch_ids.len()],
            fuel_used: 0,
            obs,
        }
    }

    /// Takes the edge named by `eh`: bumps the target's Pixie slot, reports
    /// the coverage edge, bulk-charges the target's first fuel segment, and
    /// returns the body offset — the fused equivalent of landing on a block
    /// head, in the same observable order as the reference backend.
    #[inline(always)]
    fn enter(&mut self, eh: u32, base: usize, cur_block: &mut u32) -> Result<usize, RuntimeError> {
        let EdgeHead {
            body,
            slot,
            func,
            block,
            cost,
        } = self.fp.heads[eh as usize];
        self.pixie[slot as usize] += 1;
        self.obs.edge(FuncId(func), *cur_block, block);
        *cur_block = block;
        self.fuel_used += u64::from(cost);
        if self.fuel_used > self.config.fuel {
            return Err(self.finish_precise(body as usize, base, cost));
        }
        Ok(body as usize)
    }

    pub(super) fn run(mut self, inputs: &[Input]) -> Result<Run, RuntimeError> {
        let fp = self.fp;
        let entry = &fp.funcs[fp.entry as usize];
        if inputs.len() != entry.num_params as usize {
            return Err(RuntimeError::BadEntryArity {
                got: inputs.len(),
                expected: entry.num_params,
            });
        }
        self.regs.resize(entry.num_regs as usize, GuestValue::Zero);
        for (i, input) in inputs.iter().enumerate() {
            self.regs[i] = match input {
                Input::Int(v) => GuestValue::Int(*v),
                Input::Float(v) => GuestValue::Float(*v),
                Input::Ints(v) => self.alloc(ArrayData::ints(v.clone())),
                Input::Floats(v) => self.alloc(ArrayData::floats(v.clone())),
            };
        }
        // Unlike the reference, the entry block's Pixie bump and coverage
        // edge are not pre-counted here: the entry BlockHead emits both, in
        // the same observable order.
        self.frames.push(FlatFrame {
            ret_pc: NONE,
            base: 0,
            ret_dst: NONE,
            cur_block: ENTRY_EDGE_FROM,
            indirect: false,
        });
        let mut pc = entry.entry_pc as usize;
        let mut base = 0usize;
        // The current frame's block, kept in a local so the hot edge-head
        // path never touches the frame stack; it is saved to the caller's
        // frame on call and restored from it on return.
        let mut cur_block = ENTRY_EDGE_FROM;

        let result = loop {
            // Matching on the indexed place (not a `let`-copied value) lets
            // each arm load only the fields it uses instead of copying the
            // whole 32-byte op.
            let op = &fp.code[pc];
            pc += 1;
            match *op {
                FlatOp::BlockHead {
                    slot,
                    func,
                    block,
                    cost,
                } => {
                    self.pixie[slot as usize] += 1;
                    self.obs.edge(FuncId(func), cur_block, block);
                    cur_block = block;
                    self.fuel_used += u64::from(cost);
                    if self.fuel_used > self.config.fuel {
                        return Err(self.finish_precise(pc, base, cost));
                    }
                }
                FlatOp::Resume { cost } => {
                    self.fuel_used += u64::from(cost);
                    if self.fuel_used > self.config.fuel {
                        return Err(self.finish_precise(pc, base, cost));
                    }
                }
                FlatOp::JumpHead { eh } => {
                    self.stats.events.jumps += 1;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::Branch { cond, slot, tk, nt } => {
                    let c = want_int(self.regs[base + cond as usize])?;
                    let eh = self.record_branch(slot, c != 0, tk, nt);
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranch {
                    op,
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh = self.op_cmp_branch(op, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchEq {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::Eq, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchNe {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::Ne, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchLt {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::Lt, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchLe {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::Le, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchGt {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::Gt, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchGe {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::Ge, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchFEq {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::FEq, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchFNe {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::FNe, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchFLt {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::FLt, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchFLe {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::FLe, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchFGt {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::FGt, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::CmpBranchFGe {
                    dst,
                    lhs,
                    rhs,
                    slot,
                    tk,
                    nt,
                } => {
                    let eh =
                        self.op_cmp_branch(BinOp::FGe, (dst, lhs, rhs), (slot, tk, nt), base)?;
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::ImpliedBranch { slot, taken, eh } => {
                    // The trace optimizer proved the direction; the branch
                    // is still recorded exactly like a conditional one.
                    let eh = self.record_branch(slot, taken != 0, eh, eh);
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::ImpliedCmpBranch { dst, val, slot, eh } => {
                    // An implied fused compare: the outcome is known, so the
                    // comparison degenerates to writing its 0/1 result.
                    self.regs[base + dst as usize] = GuestValue::Int(i64::from(val));
                    let eh = self.record_branch(slot, val != 0, eh, eh);
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::JumpTable { index, table } => {
                    self.stats.events.indirect_jumps += 1;
                    let i = want_int(self.regs[base + index as usize])?;
                    let t = &fp.tables[table as usize];
                    let eh = if i >= 0 && (i as usize) < t.targets.len() {
                        t.targets[i as usize]
                    } else {
                        t.default
                    };
                    pc = self.enter(eh, base, &mut cur_block)?;
                }
                FlatOp::Call {
                    func,
                    args,
                    nargs,
                    ret,
                } => {
                    self.stats.events.direct_calls += 1;
                    self.frames.last_mut().expect("active frame").cur_block = cur_block;
                    let (npc, nbase) = self.push_call(func, (args, nargs), ret, false, pc, base)?;
                    pc = npc;
                    base = nbase;
                    cur_block = ENTRY_EDGE_FROM;
                }
                FlatOp::CallIndirect {
                    target,
                    args,
                    nargs,
                    ret,
                } => {
                    let callee = match self.regs[base + target as usize] {
                        GuestValue::Func(id) => id.0,
                        v => {
                            return Err(RuntimeError::BadIndirectTarget {
                                found: v.type_name(),
                            })
                        }
                    };
                    let callee_fn = &fp.funcs[callee as usize];
                    if nargs != callee_fn.num_params {
                        return Err(RuntimeError::IndirectArityMismatch {
                            callee: callee_fn.name.clone(),
                            got: nargs as usize,
                            expected: callee_fn.num_params,
                        });
                    }
                    self.stats.events.indirect_calls += 1;
                    self.frames.last_mut().expect("active frame").cur_block = cur_block;
                    let (npc, nbase) =
                        self.push_call(callee, (args, nargs), ret, true, pc, base)?;
                    pc = npc;
                    base = nbase;
                    cur_block = ENTRY_EDGE_FROM;
                }
                FlatOp::Return { src } => {
                    let v = if src == NONE {
                        None
                    } else {
                        Some(self.regs[base + src as usize])
                    };
                    let frame = self.frames.pop().expect("active frame");
                    if self.frames.is_empty() {
                        break v;
                    }
                    if frame.indirect {
                        self.stats.events.indirect_returns += 1;
                    } else {
                        self.stats.events.direct_returns += 1;
                    }
                    let caller = self.frames.last().expect("caller frame");
                    let caller_base = caller.base as usize;
                    cur_block = caller.cur_block;
                    self.regs.truncate(frame.base as usize);
                    if frame.ret_dst != NONE {
                        self.regs[caller_base + frame.ret_dst as usize] =
                            v.unwrap_or(GuestValue::Zero);
                    }
                    pc = frame.ret_pc as usize;
                    base = caller_base;
                }
                // Leaf ops: one arm per variant — single dispatch, no
                // second match. Every arm calls the same `#[inline(always)]`
                // helper the cold replay path uses, constant-op variants
                // with their operator as a literal.
                FlatOp::LoadConst { dst, cidx } => self.op_load_const(dst, cidx, base),
                FlatOp::Mov { dst, src } => self.op_mov(dst, src, base),
                FlatOp::Unop { op, dst, src } => self.op_unop(op, dst, src, base)?,
                FlatOp::Binop { op, dst, lhs, rhs } => self.op_binop(op, dst, lhs, rhs, base)?,
                FlatOp::BinopAdd { dst, lhs, rhs } => {
                    self.op_binop(BinOp::Add, dst, lhs, rhs, base)?
                }
                FlatOp::BinopSub { dst, lhs, rhs } => {
                    self.op_binop(BinOp::Sub, dst, lhs, rhs, base)?
                }
                FlatOp::BinopMul { dst, lhs, rhs } => {
                    self.op_binop(BinOp::Mul, dst, lhs, rhs, base)?
                }
                FlatOp::BinopDiv { dst, lhs, rhs } => {
                    self.op_binop(BinOp::Div, dst, lhs, rhs, base)?
                }
                FlatOp::BinopRem { dst, lhs, rhs } => {
                    self.op_binop(BinOp::Rem, dst, lhs, rhs, base)?
                }
                FlatOp::BinopAnd { dst, lhs, rhs } => {
                    self.op_binop(BinOp::And, dst, lhs, rhs, base)?
                }
                FlatOp::BinopOr { dst, lhs, rhs } => {
                    self.op_binop(BinOp::Or, dst, lhs, rhs, base)?
                }
                FlatOp::BinopXor { dst, lhs, rhs } => {
                    self.op_binop(BinOp::Xor, dst, lhs, rhs, base)?
                }
                FlatOp::BinopShl { dst, lhs, rhs } => {
                    self.op_binop(BinOp::Shl, dst, lhs, rhs, base)?
                }
                FlatOp::BinopShr { dst, lhs, rhs } => {
                    self.op_binop(BinOp::Shr, dst, lhs, rhs, base)?
                }
                FlatOp::BinopFAdd { dst, lhs, rhs } => {
                    self.op_binop(BinOp::FAdd, dst, lhs, rhs, base)?
                }
                FlatOp::BinopFSub { dst, lhs, rhs } => {
                    self.op_binop(BinOp::FSub, dst, lhs, rhs, base)?
                }
                FlatOp::BinopFMul { dst, lhs, rhs } => {
                    self.op_binop(BinOp::FMul, dst, lhs, rhs, base)?
                }
                FlatOp::BinopFDiv { dst, lhs, rhs } => {
                    self.op_binop(BinOp::FDiv, dst, lhs, rhs, base)?
                }
                FlatOp::ConstBinop {
                    op,
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(op, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopAdd {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::Add, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopSub {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::Sub, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopMul {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::Mul, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopDiv {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::Div, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopRem {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::Rem, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopAnd {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::And, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopOr {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::Or, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopXor {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::Xor, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopShl {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::Shl, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopShr {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::Shr, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopFAdd {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::FAdd, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopFSub {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::FSub, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopFMul {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::FMul, dst, lhs, cdst, cidx, base)?,
                FlatOp::ConstBinopFDiv {
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => self.op_const_binop(BinOp::FDiv, dst, lhs, cdst, cidx, base)?,
                // Paired superinstructions: two reference instructions per
                // dispatch, executed strictly in order. Generic forms unpack
                // the operator table; specialized forms carry literals.
                FlatOp::PairBB {
                    ops,
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BINOPS[(ops & 0xff) as usize], d1, l1, r1, base)?;
                    self.op_binop(BINOPS[(ops >> 8) as usize], d2, l2, r2, base)?;
                }
                FlatOp::PairUB {
                    ops,
                    d1,
                    s1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_uhalf(ops & 0xff, d1, s1, base)?;
                    self.op_binop(BINOPS[(ops >> 8) as usize], d2, l2, r2, base)?;
                }
                FlatOp::PairBU {
                    ops,
                    d1,
                    l1,
                    r1,
                    d2,
                    s2,
                } => {
                    self.op_binop(BINOPS[(ops & 0xff) as usize], d1, l1, r1, base)?;
                    self.op_uhalf(ops >> 8, d2, s2, base)?;
                }
                FlatOp::PairUU {
                    ops,
                    d1,
                    s1,
                    d2,
                    s2,
                } => {
                    self.op_uhalf(ops & 0xff, d1, s1, base)?;
                    self.op_uhalf(ops >> 8, d2, s2, base)?;
                }
                FlatOp::PairBL {
                    ops,
                    d1,
                    l1,
                    r1,
                    ld,
                    arr,
                    idx,
                } => {
                    self.op_binop(BINOPS[(ops & 0xff) as usize], d1, l1, r1, base)?;
                    self.op_load(ld, arr, idx, base)?;
                }
                FlatOp::PairLB {
                    ops,
                    ld,
                    arr,
                    idx,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_load(ld, arr, idx, base)?;
                    self.op_binop(BINOPS[(ops >> 8) as usize], d2, l2, r2, base)?;
                }
                FlatOp::PairLL {
                    ld1,
                    arr1,
                    idx1,
                    ld2,
                    arr2,
                    idx2,
                } => {
                    self.op_load(ld1, arr1, idx1, base)?;
                    self.op_load(ld2, arr2, idx2, base)?;
                }
                FlatOp::PairFAddFAdd {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FAdd, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FAdd, d2, l2, r2, base)?;
                }
                FlatOp::PairFAddFSub {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FAdd, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FSub, d2, l2, r2, base)?;
                }
                FlatOp::PairFAddFMul {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FAdd, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FMul, d2, l2, r2, base)?;
                }
                FlatOp::PairFAddFDiv {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FAdd, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FDiv, d2, l2, r2, base)?;
                }
                FlatOp::PairFSubFAdd {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FSub, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FAdd, d2, l2, r2, base)?;
                }
                FlatOp::PairFSubFSub {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FSub, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FSub, d2, l2, r2, base)?;
                }
                FlatOp::PairFSubFMul {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FSub, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FMul, d2, l2, r2, base)?;
                }
                FlatOp::PairFSubFDiv {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FSub, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FDiv, d2, l2, r2, base)?;
                }
                FlatOp::PairFMulFAdd {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FMul, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FAdd, d2, l2, r2, base)?;
                }
                FlatOp::PairFMulFSub {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FMul, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FSub, d2, l2, r2, base)?;
                }
                FlatOp::PairFMulFMul {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FMul, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FMul, d2, l2, r2, base)?;
                }
                FlatOp::PairFMulFDiv {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FMul, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FDiv, d2, l2, r2, base)?;
                }
                FlatOp::PairFDivFAdd {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FDiv, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FAdd, d2, l2, r2, base)?;
                }
                FlatOp::PairFDivFSub {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FDiv, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FSub, d2, l2, r2, base)?;
                }
                FlatOp::PairFDivFMul {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FDiv, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FMul, d2, l2, r2, base)?;
                }
                FlatOp::PairFDivFDiv {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::FDiv, d1, l1, r1, base)?;
                    self.op_binop(BinOp::FDiv, d2, l2, r2, base)?;
                }
                FlatOp::PairAddAdd {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::Add, d1, l1, r1, base)?;
                    self.op_binop(BinOp::Add, d2, l2, r2, base)?;
                }
                FlatOp::PairAddSub {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::Add, d1, l1, r1, base)?;
                    self.op_binop(BinOp::Sub, d2, l2, r2, base)?;
                }
                FlatOp::PairAddMul {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::Add, d1, l1, r1, base)?;
                    self.op_binop(BinOp::Mul, d2, l2, r2, base)?;
                }
                FlatOp::PairSubAdd {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::Sub, d1, l1, r1, base)?;
                    self.op_binop(BinOp::Add, d2, l2, r2, base)?;
                }
                FlatOp::PairSubSub {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::Sub, d1, l1, r1, base)?;
                    self.op_binop(BinOp::Sub, d2, l2, r2, base)?;
                }
                FlatOp::PairSubMul {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::Sub, d1, l1, r1, base)?;
                    self.op_binop(BinOp::Mul, d2, l2, r2, base)?;
                }
                FlatOp::PairMulAdd {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::Mul, d1, l1, r1, base)?;
                    self.op_binop(BinOp::Add, d2, l2, r2, base)?;
                }
                FlatOp::PairMulSub {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::Mul, d1, l1, r1, base)?;
                    self.op_binop(BinOp::Sub, d2, l2, r2, base)?;
                }
                FlatOp::PairMulMul {
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    self.op_binop(BinOp::Mul, d1, l1, r1, base)?;
                    self.op_binop(BinOp::Mul, d2, l2, r2, base)?;
                }
                FlatOp::PairMovFAdd { d1, s1, d2, l2, r2 } => {
                    self.op_mov(d1, s1, base);
                    self.op_binop(BinOp::FAdd, d2, l2, r2, base)?;
                }
                FlatOp::PairMovFSub { d1, s1, d2, l2, r2 } => {
                    self.op_mov(d1, s1, base);
                    self.op_binop(BinOp::FSub, d2, l2, r2, base)?;
                }
                FlatOp::PairMovFMul { d1, s1, d2, l2, r2 } => {
                    self.op_mov(d1, s1, base);
                    self.op_binop(BinOp::FMul, d2, l2, r2, base)?;
                }
                FlatOp::PairMovFDiv { d1, s1, d2, l2, r2 } => {
                    self.op_mov(d1, s1, base);
                    self.op_binop(BinOp::FDiv, d2, l2, r2, base)?;
                }
                FlatOp::PairMovAdd { d1, s1, d2, l2, r2 } => {
                    self.op_mov(d1, s1, base);
                    self.op_binop(BinOp::Add, d2, l2, r2, base)?;
                }
                FlatOp::PairMovSub { d1, s1, d2, l2, r2 } => {
                    self.op_mov(d1, s1, base);
                    self.op_binop(BinOp::Sub, d2, l2, r2, base)?;
                }
                FlatOp::PairMovMul { d1, s1, d2, l2, r2 } => {
                    self.op_mov(d1, s1, base);
                    self.op_binop(BinOp::Mul, d2, l2, r2, base)?;
                }
                FlatOp::PairFAddMov { d1, l1, r1, d2, s2 } => {
                    self.op_binop(BinOp::FAdd, d1, l1, r1, base)?;
                    self.op_mov(d2, s2, base);
                }
                FlatOp::PairFSubMov { d1, l1, r1, d2, s2 } => {
                    self.op_binop(BinOp::FSub, d1, l1, r1, base)?;
                    self.op_mov(d2, s2, base);
                }
                FlatOp::PairFMulMov { d1, l1, r1, d2, s2 } => {
                    self.op_binop(BinOp::FMul, d1, l1, r1, base)?;
                    self.op_mov(d2, s2, base);
                }
                FlatOp::PairFDivMov { d1, l1, r1, d2, s2 } => {
                    self.op_binop(BinOp::FDiv, d1, l1, r1, base)?;
                    self.op_mov(d2, s2, base);
                }
                FlatOp::PairAddMov { d1, l1, r1, d2, s2 } => {
                    self.op_binop(BinOp::Add, d1, l1, r1, base)?;
                    self.op_mov(d2, s2, base);
                }
                FlatOp::PairSubMov { d1, l1, r1, d2, s2 } => {
                    self.op_binop(BinOp::Sub, d1, l1, r1, base)?;
                    self.op_mov(d2, s2, base);
                }
                FlatOp::PairMulMov { d1, l1, r1, d2, s2 } => {
                    self.op_binop(BinOp::Mul, d1, l1, r1, base)?;
                    self.op_mov(d2, s2, base);
                }
                FlatOp::PairMovMov { d1, s1, d2, s2 } => {
                    self.op_mov(d1, s1, base);
                    self.op_mov(d2, s2, base);
                }
                FlatOp::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => self.op_select(dst, cond, if_true, if_false, base)?,
                FlatOp::Load { dst, arr, index } => self.op_load(dst, arr, index, base)?,
                FlatOp::Store { arr, index, src } => self.op_store(arr, index, src, base)?,
                FlatOp::NewIntArray { dst, len } => self.op_new_int_array(dst, len, base)?,
                FlatOp::NewFloatArray { dst, len } => self.op_new_float_array(dst, len, base)?,
                FlatOp::ArrayLen { dst, arr } => self.op_array_len(dst, arr, base)?,
                FlatOp::ConstArrayRef { dst, index } => self.op_const_array_ref(dst, index, base),
                FlatOp::GlobalGet { dst, global } => self.op_global_get(dst, global, base),
                FlatOp::GlobalSet { global, src } => self.op_global_set(global, src, base),
                FlatOp::FuncAddr { dst, func } => self.op_func_addr(dst, func, base),
                FlatOp::Emit { src } => self.op_emit(src, base),
            }
        };

        self.stats.total_instrs = self.fuel_used;
        // Fold the dense counters back into the keyed shapes the rest of
        // the system consumes. Skipping never-executed branches matches the
        // reference, whose map only gains an entry on first record.
        for (slot, &(executed, taken)) in self.branch_hits.iter().enumerate() {
            if executed > 0 {
                self.stats
                    .branches
                    .add(self.fp.branch_ids[slot], executed, taken);
            }
        }
        let mut blocks = Vec::with_capacity(self.fp.block_shape.len());
        let mut off = 0;
        for &n in &self.fp.block_shape {
            blocks.push(self.pixie[off..off + n].to_vec());
            off += n;
        }
        self.stats.pixie = PixieCounts { blocks };
        Ok(Run {
            output: self.output,
            result,
            stats: self.stats,
        })
    }

    /// Executes one non-control op for the precise fuel replay. Dispatches
    /// through [`generalize`] and the same `op_*` helpers as the hot loop,
    /// so semantics cannot diverge between them.
    fn exec_leaf(&mut self, op: FlatOp, base: usize) -> Result<(), RuntimeError> {
        match op {
            FlatOp::LoadConst { dst, cidx } => self.op_load_const(dst, cidx, base),
            FlatOp::Mov { dst, src } => self.op_mov(dst, src, base),
            FlatOp::Unop { op, dst, src } => self.op_unop(op, dst, src, base)?,
            FlatOp::Binop { op, dst, lhs, rhs } => self.op_binop(op, dst, lhs, rhs, base)?,
            FlatOp::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => self.op_select(dst, cond, if_true, if_false, base)?,
            FlatOp::Load { dst, arr, index } => self.op_load(dst, arr, index, base)?,
            FlatOp::Store { arr, index, src } => self.op_store(arr, index, src, base)?,
            FlatOp::NewIntArray { dst, len } => self.op_new_int_array(dst, len, base)?,
            FlatOp::NewFloatArray { dst, len } => self.op_new_float_array(dst, len, base)?,
            FlatOp::ArrayLen { dst, arr } => self.op_array_len(dst, arr, base)?,
            FlatOp::ConstArrayRef { dst, index } => self.op_const_array_ref(dst, index, base),
            FlatOp::GlobalGet { dst, global } => self.op_global_get(dst, global, base),
            FlatOp::GlobalSet { global, src } => self.op_global_set(global, src, base),
            FlatOp::FuncAddr { dst, func } => self.op_func_addr(dst, func, base),
            FlatOp::Emit { src } => self.op_emit(src, base),
            // `generalize` folds every specialized variant away; the rest
            // are control/fused ops, which the replay loop handles itself.
            _ => unreachable!("non-leaf op reached exec_leaf"),
        }
        Ok(())
    }

    #[inline(always)]
    fn op_load_const(&mut self, dst: u32, cidx: u32, base: usize) {
        self.regs[base + dst as usize] = self.fp.consts[cidx as usize];
    }

    #[inline(always)]
    fn op_mov(&mut self, dst: u32, src: u32, base: usize) {
        self.regs[base + dst as usize] = self.regs[base + src as usize];
    }

    /// Executes the unary half of a generic pair: a real [`UNOPS`] index or
    /// one of the pseudo codes ([`MOV_CODE`], [`CONST_CODE`]) the pair
    /// peephole packs for moves and constant loads.
    #[inline(always)]
    fn op_uhalf(&mut self, code: u32, dst: u32, s: u32, base: usize) -> Result<(), RuntimeError> {
        match code {
            MOV_CODE => {
                self.op_mov(dst, s, base);
                Ok(())
            }
            CONST_CODE => {
                self.op_load_const(dst, s, base);
                Ok(())
            }
            c => self.op_unop(UNOPS[c as usize], dst, s, base),
        }
    }

    #[inline(always)]
    fn op_unop(
        &mut self,
        op: trace_ir::UnOp,
        dst: u32,
        src: u32,
        base: usize,
    ) -> Result<(), RuntimeError> {
        let v = eval_unop(op, self.regs[base + src as usize])?;
        self.regs[base + dst as usize] = v;
        Ok(())
    }

    #[inline(always)]
    fn op_binop(
        &mut self,
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        base: usize,
    ) -> Result<(), RuntimeError> {
        let v = eval_binop(
            op,
            self.regs[base + lhs as usize],
            self.regs[base + rhs as usize],
        )?;
        self.regs[base + dst as usize] = v;
        Ok(())
    }

    #[inline(always)]
    fn op_const_binop(
        &mut self,
        op: BinOp,
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
        base: usize,
    ) -> Result<(), RuntimeError> {
        // Constant write first — matches unfused order even when
        // `lhs == cdst`.
        self.regs[base + cdst as usize] = self.fp.consts[cidx as usize];
        let v = eval_binop(
            op,
            self.regs[base + lhs as usize],
            self.regs[base + cdst as usize],
        )?;
        self.regs[base + dst as usize] = v;
        Ok(())
    }

    /// Fused comparison + conditional branch: evaluates the comparison,
    /// writes `dst` (visible to later blocks), records the branch, and
    /// returns the chosen arm's edge head.
    #[inline(always)]
    fn op_cmp_branch(
        &mut self,
        op: BinOp,
        regs: (u32, u32, u32),
        ctl: (u32, u32, u32),
        base: usize,
    ) -> Result<u32, RuntimeError> {
        let (dst, lhs, rhs) = regs;
        let (slot, tk, nt) = ctl;
        let v = eval_binop(
            op,
            self.regs[base + lhs as usize],
            self.regs[base + rhs as usize],
        )?;
        self.regs[base + dst as usize] = v;
        // Comparison results are always Int(0|1), so the branch itself can
        // never type-fault.
        let is_taken = matches!(v, GuestValue::Int(i) if i != 0);
        Ok(self.record_branch(slot, is_taken, tk, nt))
    }

    #[inline]
    fn op_select(
        &mut self,
        dst: u32,
        cond: u32,
        if_true: u32,
        if_false: u32,
        base: usize,
    ) -> Result<(), RuntimeError> {
        self.stats.events.selects += 1;
        let c = want_int(self.regs[base + cond as usize])?;
        let v = if c != 0 {
            self.regs[base + if_true as usize]
        } else {
            self.regs[base + if_false as usize]
        };
        self.regs[base + dst as usize] = v;
        Ok(())
    }

    #[inline]
    fn op_load(&mut self, dst: u32, arr: u32, index: u32, base: usize) -> Result<(), RuntimeError> {
        let h = want_ref(self.regs[base + arr as usize])?;
        let i = want_int(self.regs[base + index as usize])?;
        let v = match &self.heap[h as usize].data {
            ArrayData::Ints(v) => GuestValue::Int(v[check_index(i, v.len())?]),
            ArrayData::Floats(v) => GuestValue::Float(v[check_index(i, v.len())?]),
        };
        self.regs[base + dst as usize] = v;
        Ok(())
    }

    #[inline]
    fn op_store(
        &mut self,
        arr: u32,
        index: u32,
        src: u32,
        base: usize,
    ) -> Result<(), RuntimeError> {
        let h = want_ref(self.regs[base + arr as usize])?;
        let i = want_int(self.regs[base + index as usize])?;
        let v = self.regs[base + src as usize];
        let obj = &mut self.heap[h as usize];
        if obj.read_only {
            return Err(RuntimeError::ReadOnlyStore);
        }
        match &mut obj.data {
            ArrayData::Ints(data) => {
                let idx = check_index(i, data.len())?;
                Arc::make_mut(data)[idx] = want_int(v)?;
            }
            ArrayData::Floats(data) => {
                let idx = check_index(i, data.len())?;
                Arc::make_mut(data)[idx] = want_float(v)?;
            }
        }
        Ok(())
    }

    #[inline]
    fn op_new_int_array(&mut self, dst: u32, len: u32, base: usize) -> Result<(), RuntimeError> {
        let n = self.check_alloc_len(self.regs[base + len as usize])?;
        let v = self.alloc(ArrayData::ints(vec![0; n]));
        self.regs[base + dst as usize] = v;
        Ok(())
    }

    #[inline]
    fn op_new_float_array(&mut self, dst: u32, len: u32, base: usize) -> Result<(), RuntimeError> {
        let n = self.check_alloc_len(self.regs[base + len as usize])?;
        let v = self.alloc(ArrayData::floats(vec![0.0; n]));
        self.regs[base + dst as usize] = v;
        Ok(())
    }

    #[inline]
    fn op_array_len(&mut self, dst: u32, arr: u32, base: usize) -> Result<(), RuntimeError> {
        let h = want_ref(self.regs[base + arr as usize])?;
        let len = self.heap[h as usize].data.len() as i64;
        self.regs[base + dst as usize] = GuestValue::Int(len);
        Ok(())
    }

    #[inline(always)]
    fn op_const_array_ref(&mut self, dst: u32, index: u32, base: usize) {
        self.regs[base + dst as usize] = GuestValue::Ref(index);
    }

    #[inline(always)]
    fn op_global_get(&mut self, dst: u32, global: u32, base: usize) {
        self.regs[base + dst as usize] = self.globals[global as usize];
    }

    #[inline(always)]
    fn op_global_set(&mut self, global: u32, src: u32, base: usize) {
        self.globals[global as usize] = self.regs[base + src as usize];
    }

    #[inline(always)]
    fn op_func_addr(&mut self, dst: u32, func: u32, base: usize) {
        self.regs[base + dst as usize] = GuestValue::Func(FuncId(func));
    }

    #[inline(always)]
    fn op_emit(&mut self, src: u32, base: usize) {
        let v = self.regs[base + src as usize];
        self.output.push(v);
    }

    /// Records a conditional branch (observer and counters) and returns the
    /// chosen arm's edge head. Mirrors the reference terminator arm,
    /// including the seeded-defect hooks that perturb only the aggregate
    /// counters.
    fn record_branch(&mut self, slot: u32, is_taken: bool, tk: u32, nt: u32) -> u32 {
        self.obs
            .branch(self.fp.branch_ids[slot as usize], is_taken, self.fuel_used);
        #[cfg(feature = "seeded-defects")]
        let recorded = if mfdefect::active("vm-branch-count-polarity") {
            Some(!is_taken)
        } else if mfdefect::active("vm-profile-drop-increment") && !is_taken {
            None
        } else {
            Some(is_taken)
        };
        #[cfg(not(feature = "seeded-defects"))]
        let recorded = Some(is_taken);
        if let Some(direction) = recorded {
            let hit = &mut self.branch_hits[slot as usize];
            hit.0 += 1;
            if direction {
                hit.1 += 1;
            }
        }
        if is_taken {
            tk
        } else {
            nt
        }
    }

    fn push_call(
        &mut self,
        callee: u32,
        args: (u32, u32),
        ret_dst: u32,
        indirect: bool,
        ret_pc: usize,
        base: usize,
    ) -> Result<(usize, usize), RuntimeError> {
        if self.frames.len() >= self.config.max_stack {
            return Err(RuntimeError::StackOverflow {
                limit: self.config.max_stack,
            });
        }
        let (args_at, nargs) = args;
        let f = &self.fp.funcs[callee as usize];
        let new_base = self.regs.len();
        self.regs
            .resize(new_base + f.num_regs as usize, GuestValue::Zero);
        for k in 0..nargs as usize {
            let src = self.fp.args[args_at as usize + k] as usize;
            self.regs[new_base + k] = self.regs[base + src];
        }
        // The callee's entry BlockHead emits the Pixie bump and the
        // ENTRY_EDGE_FROM coverage edge (cur_block starts at the sentinel),
        // exactly like the reference's push_call.
        self.frames.push(FlatFrame {
            ret_pc: ret_pc as u32,
            base: new_base as u32,
            ret_dst,
            cur_block: ENTRY_EDGE_FROM,
            indirect,
        });
        Ok((f.entry_pc as usize, new_base))
    }

    fn spend(&mut self) -> Result<(), RuntimeError> {
        self.fuel_used += 1;
        if self.fuel_used > self.config.fuel {
            Err(RuntimeError::OutOfFuel {
                limit: self.config.fuel,
            })
        } else {
            Ok(())
        }
    }

    fn alloc(&mut self, data: ArrayData) -> GuestValue {
        let idx = self.heap.len() as u32;
        self.heap.push(HeapObject {
            data,
            read_only: false,
        });
        GuestValue::Ref(idx)
    }

    fn check_alloc_len(&self, v: GuestValue) -> Result<usize, RuntimeError> {
        let n = want_int(v)?;
        if n < 0 || n > self.config.max_alloc {
            Err(RuntimeError::BadArrayLength { len: n })
        } else {
            Ok(n as usize)
        }
    }

    /// Precise replay of one fuel segment whose bulk charge overshot the
    /// limit: the charge is rolled back and the segment re-executes charging
    /// one fuel per component (fused ops and pairs decompose) with the limit
    /// checked before each, reproducing the reference backend's exact fault
    /// point and error — a `DivideByZero` or `TypeMismatch` mid-segment
    /// preempts `OutOfFuel` just as it would per-instruction.
    ///
    /// The segment entry condition (`fuel_before + cost > limit`) guarantees
    /// the charge for the segment's final component — a call or the
    /// terminator — always trips, so control never leaves the segment.
    #[cold]
    fn finish_precise(&mut self, mut pc: usize, base: usize, bulk: u32) -> RuntimeError {
        self.fuel_used -= u64::from(bulk);
        loop {
            let op = generalize(self.fp.code[pc]);
            pc += 1;
            match op {
                FlatOp::ConstBinop {
                    op,
                    dst,
                    lhs,
                    cdst,
                    cidx,
                } => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    self.regs[base + cdst as usize] = self.fp.consts[cidx as usize];
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    match eval_binop(
                        op,
                        self.regs[base + lhs as usize],
                        self.regs[base + cdst as usize],
                    ) {
                        Ok(v) => self.regs[base + dst as usize] = v,
                        Err(e) => return e,
                    }
                }
                // Pairs replay their halves as the two reference
                // instructions they stand for.
                FlatOp::PairBB {
                    ops,
                    d1,
                    l1,
                    r1,
                    d2,
                    l2,
                    r2,
                } => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_binop(BINOPS[(ops & 0xff) as usize], d1, l1, r1, base) {
                        return e;
                    }
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_binop(BINOPS[(ops >> 8) as usize], d2, l2, r2, base) {
                        return e;
                    }
                }
                FlatOp::PairUB {
                    ops,
                    d1,
                    s1,
                    d2,
                    l2,
                    r2,
                } => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_uhalf(ops & 0xff, d1, s1, base) {
                        return e;
                    }
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_binop(BINOPS[(ops >> 8) as usize], d2, l2, r2, base) {
                        return e;
                    }
                }
                FlatOp::PairBU {
                    ops,
                    d1,
                    l1,
                    r1,
                    d2,
                    s2,
                } => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_binop(BINOPS[(ops & 0xff) as usize], d1, l1, r1, base) {
                        return e;
                    }
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_uhalf(ops >> 8, d2, s2, base) {
                        return e;
                    }
                }
                FlatOp::PairUU {
                    ops,
                    d1,
                    s1,
                    d2,
                    s2,
                } => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_uhalf(ops & 0xff, d1, s1, base) {
                        return e;
                    }
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_uhalf(ops >> 8, d2, s2, base) {
                        return e;
                    }
                }
                FlatOp::PairBL {
                    ops,
                    d1,
                    l1,
                    r1,
                    ld,
                    arr,
                    idx,
                } => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_binop(BINOPS[(ops & 0xff) as usize], d1, l1, r1, base) {
                        return e;
                    }
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_load(ld, arr, idx, base) {
                        return e;
                    }
                }
                FlatOp::PairLB {
                    ops,
                    ld,
                    arr,
                    idx,
                    d2,
                    l2,
                    r2,
                } => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_load(ld, arr, idx, base) {
                        return e;
                    }
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_binop(BINOPS[(ops >> 8) as usize], d2, l2, r2, base) {
                        return e;
                    }
                }
                FlatOp::PairLL {
                    ld1,
                    arr1,
                    idx1,
                    ld2,
                    arr2,
                    idx2,
                } => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_load(ld1, arr1, idx1, base) {
                        return e;
                    }
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.op_load(ld2, arr2, idx2, base) {
                        return e;
                    }
                }
                FlatOp::CmpBranch {
                    op, dst, lhs, rhs, ..
                } => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    match eval_binop(
                        op,
                        self.regs[base + lhs as usize],
                        self.regs[base + rhs as usize],
                    ) {
                        Ok(v) => self.regs[base + dst as usize] = v,
                        Err(e) => return e,
                    }
                    return match self.spend() {
                        Err(e) => e,
                        Ok(()) => unreachable!("fuel replay must trip at the final component"),
                    };
                }
                FlatOp::ImpliedCmpBranch { dst, val, .. } => {
                    // The implied comparison still costs its component and
                    // still writes its result before the branch component
                    // trips the limit.
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    self.regs[base + dst as usize] = GuestValue::Int(i64::from(val));
                    return match self.spend() {
                        Err(e) => e,
                        Ok(()) => unreachable!("fuel replay must trip at the final component"),
                    };
                }
                FlatOp::Call { .. }
                | FlatOp::CallIndirect { .. }
                | FlatOp::JumpHead { .. }
                | FlatOp::Branch { .. }
                | FlatOp::ImpliedBranch { .. }
                | FlatOp::JumpTable { .. }
                | FlatOp::Return { .. } => {
                    return match self.spend() {
                        Err(e) => e,
                        Ok(()) => unreachable!("fuel replay must trip at the final component"),
                    };
                }
                FlatOp::BlockHead { .. } | FlatOp::Resume { .. } => {
                    unreachable!("block heads never appear inside a fuel segment")
                }
                leaf => {
                    if let Err(e) = self.spend() {
                        return e;
                    }
                    if let Err(e) = self.exec_leaf(leaf, base) {
                        return e;
                    }
                }
            }
        }
    }
}
