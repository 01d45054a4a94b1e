//! The flat op encoding: one contiguous stream of u32-operand ops, plus the
//! edge-head side table that fuses every control transfer with its target
//! block's entry bookkeeping.
//!
//! Register operands are frame-window offsets; `tk`/`nt`/`eh` operands index
//! [`EdgeHead`]s in [`super::FlatProgram`]'s `heads` table; pool references
//! index the shared constant/argument/table pools.

use trace_ir::{BinOp, UnOp};

/// Sentinel operand meaning "absent" (no return register / no return value).
pub(crate) const NONE: u32 = u32::MAX;

/// Entry bookkeeping for one emitted block. Every control transfer (jump,
/// branch arm, jump-table entry) names an `EdgeHead` instead of a raw code
/// offset; taking the edge bumps the target's Pixie slot, reports the
/// coverage edge, bulk-charges the first fuel segment, and lands at `body`
/// — all without dispatching a separate block-head op.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdgeHead {
    /// Code offset of the block's first body op.
    pub body: u32,
    /// Dense Pixie counter slot of the block.
    pub slot: u32,
    /// Owning function (coverage-edge reporting).
    pub func: u32,
    /// Source-level block id (coverage-edge reporting).
    pub block: u32,
    /// Bulk fuel cost of the block's first segment.
    pub cost: u32,
}

/// One op of the flat code stream. The widest variant needs 28 bytes; the
/// alignment pads every op to 32 so that no op straddles a cache line. The
/// packed 28-byte layout measured up to 5% slower on integer workloads.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
pub(crate) enum FlatOp {
    /// Function-entry bookkeeping: bumps the Pixie counter, reports the
    /// entry coverage edge, then bulk-charges the entry block's first fuel
    /// segment. Only executed through calls — in-function transfers go
    /// through [`EdgeHead`]s, which skip past this op.
    BlockHead {
        slot: u32,
        func: u32,
        block: u32,
        cost: u32,
    },
    /// Placed immediately after a call op: bulk-charges the segment that
    /// resumes when the callee returns.
    Resume {
        cost: u32,
    },
    LoadConst {
        dst: u32,
        cidx: u32,
    },
    Mov {
        dst: u32,
        src: u32,
    },
    Unop {
        op: UnOp,
        dst: u32,
        src: u32,
    },
    Binop {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Constant-op specializations of [`FlatOp::Binop`] for the dynamically
    /// hot operators. Each arm calls the exact shared helper the generic
    /// form uses, passing the operator as a literal so the compiler folds
    /// `eval_binop`'s operator dispatch away; [`generalize`] maps every
    /// specialized op back to its generic form for the cold replay paths.
    BinopAdd {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopSub {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopMul {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopDiv {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopRem {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopAnd {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopOr {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopXor {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopShl {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopShr {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopFAdd {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopFSub {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopFMul {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    BinopFDiv {
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// Fused `Const cdst, #cidx` + `Binop dst, lhs, cdst`. The constant
    /// write happens first (still architecturally visible in `cdst`),
    /// matching the unfused execution order even when `lhs == cdst`.
    ConstBinop {
        op: BinOp,
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    /// Constant-op specializations of [`FlatOp::ConstBinop`] (see
    /// [`FlatOp::BinopAdd`] for the scheme).
    ConstBinopAdd {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopSub {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopMul {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopDiv {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopRem {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopAnd {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopOr {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopXor {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopShl {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopShr {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopFAdd {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopFSub {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopFMul {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    ConstBinopFDiv {
        dst: u32,
        lhs: u32,
        cdst: u32,
        cidx: u32,
    },
    Select {
        dst: u32,
        cond: u32,
        if_true: u32,
        if_false: u32,
    },
    Load {
        dst: u32,
        arr: u32,
        index: u32,
    },
    Store {
        arr: u32,
        index: u32,
        src: u32,
    },
    NewIntArray {
        dst: u32,
        len: u32,
    },
    NewFloatArray {
        dst: u32,
        len: u32,
    },
    ArrayLen {
        dst: u32,
        arr: u32,
    },
    ConstArrayRef {
        dst: u32,
        index: u32,
    },
    GlobalGet {
        dst: u32,
        global: u32,
    },
    GlobalSet {
        global: u32,
        src: u32,
    },
    FuncAddr {
        dst: u32,
        func: u32,
    },
    Emit {
        src: u32,
    },
    Call {
        func: u32,
        args: u32,
        nargs: u32,
        ret: u32,
    },
    CallIndirect {
        target: u32,
        args: u32,
        nargs: u32,
        ret: u32,
    },
    /// Unconditional transfer through an [`EdgeHead`] (counts one jump
    /// event, then enters the target block).
    JumpHead {
        eh: u32,
    },
    /// Conditional branch; `slot` indexes the dense per-run branch counters
    /// (the source-level [`trace_ir::BranchId`] is recovered through
    /// [`super::FlatProgram`]'s `branch_ids`), `tk`/`nt` are edge heads.
    Branch {
        cond: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    /// Fused comparison + conditional branch. Writes the comparison result
    /// to `dst` (visible to later blocks), then branches on it.
    CmpBranch {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    /// Constant-op specializations of [`FlatOp::CmpBranch`] for every
    /// comparison operator (see [`FlatOp::BinopAdd`] for the scheme).
    CmpBranchEq {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchNe {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchLt {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchLe {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchGt {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchGe {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchFEq {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchFNe {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchFLt {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchFLe {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchFGt {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    CmpBranchFGe {
        dst: u32,
        lhs: u32,
        rhs: u32,
        slot: u32,
        tk: u32,
        nt: u32,
    },
    /// `table` indexes the shared table pool; entries are edge heads.
    JumpTable {
        index: u32,
        table: u32,
    },
    Return {
        src: u32,
    },
}

/// Emits the constant-op specialization of a `Binop` when one exists for
/// `op`, the generic form otherwise. Inverse of [`generalize`].
pub(crate) fn specialize_binop(op: BinOp, dst: u32, lhs: u32, rhs: u32) -> FlatOp {
    match op {
        BinOp::Add => FlatOp::BinopAdd { dst, lhs, rhs },
        BinOp::Sub => FlatOp::BinopSub { dst, lhs, rhs },
        BinOp::Mul => FlatOp::BinopMul { dst, lhs, rhs },
        BinOp::Div => FlatOp::BinopDiv { dst, lhs, rhs },
        BinOp::Rem => FlatOp::BinopRem { dst, lhs, rhs },
        BinOp::And => FlatOp::BinopAnd { dst, lhs, rhs },
        BinOp::Or => FlatOp::BinopOr { dst, lhs, rhs },
        BinOp::Xor => FlatOp::BinopXor { dst, lhs, rhs },
        BinOp::Shl => FlatOp::BinopShl { dst, lhs, rhs },
        BinOp::Shr => FlatOp::BinopShr { dst, lhs, rhs },
        BinOp::FAdd => FlatOp::BinopFAdd { dst, lhs, rhs },
        BinOp::FSub => FlatOp::BinopFSub { dst, lhs, rhs },
        BinOp::FMul => FlatOp::BinopFMul { dst, lhs, rhs },
        BinOp::FDiv => FlatOp::BinopFDiv { dst, lhs, rhs },
        _ => FlatOp::Binop { op, dst, lhs, rhs },
    }
}

/// Emits the constant-op specialization of a `ConstBinop` when one exists
/// for `op`, the generic form otherwise. Inverse of [`generalize`].
pub(crate) fn specialize_const_binop(
    op: BinOp,
    dst: u32,
    lhs: u32,
    cdst: u32,
    cidx: u32,
) -> FlatOp {
    macro_rules! cb {
        ($variant:ident) => {
            FlatOp::$variant {
                dst,
                lhs,
                cdst,
                cidx,
            }
        };
    }
    match op {
        BinOp::Add => cb!(ConstBinopAdd),
        BinOp::Sub => cb!(ConstBinopSub),
        BinOp::Mul => cb!(ConstBinopMul),
        BinOp::Div => cb!(ConstBinopDiv),
        BinOp::Rem => cb!(ConstBinopRem),
        BinOp::And => cb!(ConstBinopAnd),
        BinOp::Or => cb!(ConstBinopOr),
        BinOp::Xor => cb!(ConstBinopXor),
        BinOp::Shl => cb!(ConstBinopShl),
        BinOp::Shr => cb!(ConstBinopShr),
        BinOp::FAdd => cb!(ConstBinopFAdd),
        BinOp::FSub => cb!(ConstBinopFSub),
        BinOp::FMul => cb!(ConstBinopFMul),
        BinOp::FDiv => cb!(ConstBinopFDiv),
        _ => FlatOp::ConstBinop {
            op,
            dst,
            lhs,
            cdst,
            cidx,
        },
    }
}

/// Emits the constant-op specialization of a `CmpBranch`; every comparison
/// operator has one, so the generic form only carries non-comparison ops
/// (which the flattener never fuses). Inverse of [`generalize`].
pub(crate) fn specialize_cmp_branch(
    op: BinOp,
    regs: (u32, u32, u32),
    ctl: (u32, u32, u32),
) -> FlatOp {
    let (dst, lhs, rhs) = regs;
    let (slot, tk, nt) = ctl;
    macro_rules! cbr {
        ($variant:ident) => {
            FlatOp::$variant {
                dst,
                lhs,
                rhs,
                slot,
                tk,
                nt,
            }
        };
    }
    match op {
        BinOp::Eq => cbr!(CmpBranchEq),
        BinOp::Ne => cbr!(CmpBranchNe),
        BinOp::Lt => cbr!(CmpBranchLt),
        BinOp::Le => cbr!(CmpBranchLe),
        BinOp::Gt => cbr!(CmpBranchGt),
        BinOp::Ge => cbr!(CmpBranchGe),
        BinOp::FEq => cbr!(CmpBranchFEq),
        BinOp::FNe => cbr!(CmpBranchFNe),
        BinOp::FLt => cbr!(CmpBranchFLt),
        BinOp::FLe => cbr!(CmpBranchFLe),
        BinOp::FGt => cbr!(CmpBranchFGt),
        BinOp::FGe => cbr!(CmpBranchFGe),
        _ => FlatOp::CmpBranch {
            op,
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        },
    }
}

/// Maps every constant-op specialization back to its generic
/// form (identity on everything else). The cold fuel-replay path matches on
/// generic forms only, so it cannot drift from the hot loop's specialized
/// arms, which call the same helpers.
pub(crate) fn generalize(op: FlatOp) -> FlatOp {
    use FlatOp::*;
    macro_rules! bin {
        ($op:ident, $dst:ident, $lhs:ident, $rhs:ident) => {
            Binop {
                op: BinOp::$op,
                dst: $dst,
                lhs: $lhs,
                rhs: $rhs,
            }
        };
    }
    macro_rules! cbin {
        ($op:ident, $dst:ident, $lhs:ident, $cdst:ident, $cidx:ident) => {
            ConstBinop {
                op: BinOp::$op,
                dst: $dst,
                lhs: $lhs,
                cdst: $cdst,
                cidx: $cidx,
            }
        };
    }
    macro_rules! cbr {
        ($op:ident, $dst:ident, $lhs:ident, $rhs:ident, $slot:ident, $tk:ident, $nt:ident) => {
            CmpBranch {
                op: BinOp::$op,
                dst: $dst,
                lhs: $lhs,
                rhs: $rhs,
                slot: $slot,
                tk: $tk,
                nt: $nt,
            }
        };
    }
    match op {
        BinopAdd { dst, lhs, rhs } => bin!(Add, dst, lhs, rhs),
        BinopSub { dst, lhs, rhs } => bin!(Sub, dst, lhs, rhs),
        BinopMul { dst, lhs, rhs } => bin!(Mul, dst, lhs, rhs),
        BinopDiv { dst, lhs, rhs } => bin!(Div, dst, lhs, rhs),
        BinopRem { dst, lhs, rhs } => bin!(Rem, dst, lhs, rhs),
        BinopAnd { dst, lhs, rhs } => bin!(And, dst, lhs, rhs),
        BinopOr { dst, lhs, rhs } => bin!(Or, dst, lhs, rhs),
        BinopXor { dst, lhs, rhs } => bin!(Xor, dst, lhs, rhs),
        BinopShl { dst, lhs, rhs } => bin!(Shl, dst, lhs, rhs),
        BinopShr { dst, lhs, rhs } => bin!(Shr, dst, lhs, rhs),
        BinopFAdd { dst, lhs, rhs } => bin!(FAdd, dst, lhs, rhs),
        BinopFSub { dst, lhs, rhs } => bin!(FSub, dst, lhs, rhs),
        BinopFMul { dst, lhs, rhs } => bin!(FMul, dst, lhs, rhs),
        BinopFDiv { dst, lhs, rhs } => bin!(FDiv, dst, lhs, rhs),
        ConstBinopAdd {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(Add, dst, lhs, cdst, cidx),
        ConstBinopSub {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(Sub, dst, lhs, cdst, cidx),
        ConstBinopMul {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(Mul, dst, lhs, cdst, cidx),
        ConstBinopDiv {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(Div, dst, lhs, cdst, cidx),
        ConstBinopRem {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(Rem, dst, lhs, cdst, cidx),
        ConstBinopAnd {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(And, dst, lhs, cdst, cidx),
        ConstBinopOr {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(Or, dst, lhs, cdst, cidx),
        ConstBinopXor {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(Xor, dst, lhs, cdst, cidx),
        ConstBinopShl {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(Shl, dst, lhs, cdst, cidx),
        ConstBinopShr {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(Shr, dst, lhs, cdst, cidx),
        ConstBinopFAdd {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(FAdd, dst, lhs, cdst, cidx),
        ConstBinopFSub {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(FSub, dst, lhs, cdst, cidx),
        ConstBinopFMul {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(FMul, dst, lhs, cdst, cidx),
        ConstBinopFDiv {
            dst,
            lhs,
            cdst,
            cidx,
        } => cbin!(FDiv, dst, lhs, cdst, cidx),
        CmpBranchEq {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(Eq, dst, lhs, rhs, slot, tk, nt),
        CmpBranchNe {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(Ne, dst, lhs, rhs, slot, tk, nt),
        CmpBranchLt {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(Lt, dst, lhs, rhs, slot, tk, nt),
        CmpBranchLe {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(Le, dst, lhs, rhs, slot, tk, nt),
        CmpBranchGt {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(Gt, dst, lhs, rhs, slot, tk, nt),
        CmpBranchGe {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(Ge, dst, lhs, rhs, slot, tk, nt),
        CmpBranchFEq {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(FEq, dst, lhs, rhs, slot, tk, nt),
        CmpBranchFNe {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(FNe, dst, lhs, rhs, slot, tk, nt),
        CmpBranchFLt {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(FLt, dst, lhs, rhs, slot, tk, nt),
        CmpBranchFLe {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(FLe, dst, lhs, rhs, slot, tk, nt),
        CmpBranchFGt {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(FGt, dst, lhs, rhs, slot, tk, nt),
        CmpBranchFGe {
            dst,
            lhs,
            rhs,
            slot,
            tk,
            nt,
        } => cbr!(FGe, dst, lhs, rhs, slot, tk, nt),
        other => other,
    }
}

/// Fuel components of one emitted op — the number of reference-backend
/// instructions it stands for. Fused ops (`ConstBinop*`, `CmpBranch*`)
/// cover two; `BlockHead`/`Resume` are bookkeeping, not instructions;
/// everything else is one.
pub(crate) fn components(op: &FlatOp) -> u32 {
    use FlatOp::*;
    match op {
        BlockHead { .. } | Resume { .. } => 0,
        ConstBinop { .. }
        | ConstBinopAdd { .. }
        | ConstBinopSub { .. }
        | ConstBinopMul { .. }
        | ConstBinopDiv { .. }
        | ConstBinopRem { .. }
        | ConstBinopAnd { .. }
        | ConstBinopOr { .. }
        | ConstBinopXor { .. }
        | ConstBinopShl { .. }
        | ConstBinopShr { .. }
        | ConstBinopFAdd { .. }
        | ConstBinopFSub { .. }
        | ConstBinopFMul { .. }
        | ConstBinopFDiv { .. }
        | CmpBranch { .. }
        | CmpBranchEq { .. }
        | CmpBranchNe { .. }
        | CmpBranchLt { .. }
        | CmpBranchLe { .. }
        | CmpBranchGt { .. }
        | CmpBranchGe { .. }
        | CmpBranchFEq { .. }
        | CmpBranchFNe { .. }
        | CmpBranchFLt { .. }
        | CmpBranchFLe { .. }
        | CmpBranchFGt { .. }
        | CmpBranchFGe { .. } => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_op_stays_one_half_cache_line() {
        assert_eq!(std::mem::size_of::<FlatOp>(), 32);
    }

    /// Every operator's specialized form generalizes back to the generic
    /// form it came from, operands intact: the fuel replay relies on it.
    #[test]
    fn op_code_tables_round_trip() {
        use BinOp::*;
        let all = [
            Add, Sub, Mul, Div, Rem, FAdd, FSub, FMul, FDiv, And, Or, Xor, Shl, Shr, Eq, Ne, Lt,
            Le, Gt, Ge, FEq, FNe, FLt, FLe, FGt, FGe, FMin, FMax,
        ];
        for op in all {
            let b = specialize_binop(op, 1, 2, 3);
            assert!(
                matches!(generalize(b), FlatOp::Binop { op: o, dst: 1, lhs: 2, rhs: 3 } if o == op),
                "{op:?}"
            );
            assert_eq!(components(&b), 1);
            let c = specialize_const_binop(op, 1, 2, 3, 4);
            assert!(
                matches!(
                    generalize(c),
                    FlatOp::ConstBinop { op: o, dst: 1, lhs: 2, cdst: 3, cidx: 4 } if o == op
                ),
                "{op:?}"
            );
            assert_eq!(components(&c), 2);
            if op.is_comparison() {
                let r = specialize_cmp_branch(op, (1, 2, 3), (4, 5, 6));
                assert!(
                    matches!(
                        generalize(r),
                        FlatOp::CmpBranch { op: o, dst: 1, lhs: 2, rhs: 3, slot: 4, tk: 5, nt: 6 }
                            if o == op
                    ),
                    "{op:?}"
                );
                assert_eq!(components(&r), 2);
            }
        }
    }
}
