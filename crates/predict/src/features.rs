//! Static per-branch feature extraction.
//!
//! Every conditional branch site maps to a fixed-width `f64` vector
//! computed purely from program structure (CFG, dominators, loop forest,
//! instruction shapes) plus the interval interpreter's verdict — no
//! dynamic information. Extraction is deterministic: features are
//! emitted in `BranchId` order and every value is derived from integer
//! counts by exact `f64` conversions, so two extractions of the same
//! program are byte-identical.

use mfcheck::{Cfg, DomTree, LoopForest};
use trace_ir::{BinOp, BranchId, BranchKind, Function, Instr, Program, Terminator, Value};

use crate::analyze::{ProgramProofs, Proof};

/// Bumped whenever the feature layout changes; serialized into the model
/// artifact so a stale model cannot be applied to a new layout.
pub const FEATURE_VERSION: u32 = 1;

/// Number of features per branch site (including the bias term).
pub const NUM_FEATURES: usize = 29;

/// Human-readable names, index-aligned with the vectors. Used by
/// `mftrain` dumps and the docs.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "bias",
    "loop_depth",
    "taken_is_back_edge",
    "not_taken_is_back_edge",
    "taken_backward_in_layout",
    "kind_loop_back",
    "kind_if",
    "kind_switch_arm",
    "kind_short_circuit",
    "cmp_eq",
    "cmp_ne",
    "cmp_lt_le",
    "cmp_gt_ge",
    "cmp_float",
    "cmp_none",
    "const_zero",
    "const_one",
    "const_small",
    "const_large",
    "const_negative",
    "dom_depth",
    "block_size",
    "mix_float_ops",
    "mix_memory_ops",
    "mix_call_ops",
    "proof_always_taken",
    "proof_never_taken",
    "taken_exits_loop",
    "taken_enters_loop",
];

/// One branch site's feature vector.
#[derive(Clone, Debug, PartialEq)]
pub struct BranchFeatures {
    pub id: BranchId,
    pub values: [f64; NUM_FEATURES],
}

/// Extracts feature vectors for every branch site of `program`, in
/// `BranchId` order. `proofs` supplies the interval-verdict features
/// (pass the result of [`crate::analyze`] on the same program).
pub fn extract(program: &Program, proofs: &ProgramProofs) -> Vec<BranchFeatures> {
    let mut out = Vec::new();
    for func in &program.functions {
        extract_function(program, func, proofs, &mut out);
    }
    out.sort_by_key(|f| f.id);
    out
}

pub(crate) fn extract_function(
    program: &Program,
    func: &Function,
    proofs: &ProgramProofs,
    out: &mut Vec<BranchFeatures>,
) {
    if func.blocks.is_empty() {
        return;
    }
    let cfg = Cfg::new(func);
    let dom = DomTree::compute(&cfg);
    let forest = LoopForest::compute(&cfg, &dom);
    let consts = mfcheck::single_def_consts(func);

    for (b, block) in func.iter_blocks() {
        let Terminator::Branch {
            cond,
            id,
            taken,
            not_taken,
        } = &block.term
        else {
            continue;
        };
        let mut v = [0.0f64; NUM_FEATURES];
        v[0] = 1.0;
        v[1] = f64::from(forest.depth(b).min(8)) / 8.0;
        v[2] = f64::from(forest.is_back_edge(b, *taken));
        v[3] = f64::from(forest.is_back_edge(b, *not_taken));
        v[4] = f64::from(taken.index() <= b.index());

        let kind = program
            .branch_info
            .get(id.index())
            .map(|i| i.kind)
            .unwrap_or(BranchKind::Synthetic);
        match kind {
            BranchKind::LoopBack => v[5] = 1.0,
            BranchKind::If => v[6] = 1.0,
            BranchKind::SwitchArm => v[7] = 1.0,
            BranchKind::ShortCircuit => v[8] = 1.0,
            BranchKind::Synthetic => {}
        }

        // The comparison (if any) that defines the condition: scan the
        // block for the last write to `cond`, falling back to a
        // function-level single-definition constant view for operands.
        let mut block_consts: std::collections::HashMap<_, i64> = Default::default();
        let mut cmp: Option<(BinOp, Option<i64>)> = None;
        for instr in &block.instrs {
            if let Instr::Const {
                dst,
                value: Value::Int(n),
            } = instr
            {
                block_consts.insert(*dst, *n);
            } else if let Some(dst) = instr.dst() {
                block_consts.remove(&dst);
            }
            if instr.dst() == Some(*cond) {
                cmp = match instr {
                    Instr::Binop { op, lhs, rhs, .. } if op.is_comparison() => {
                        let const_of = |r| {
                            block_consts
                                .get(&r)
                                .copied()
                                .or_else(|| match consts.get(&r) {
                                    Some(Value::Int(n)) => Some(*n),
                                    _ => None,
                                })
                        };
                        // Prefer the right operand (the conventional
                        // constant side), else the left.
                        let k = const_of(*rhs).or_else(|| const_of(*lhs));
                        Some((*op, k))
                    }
                    _ => None,
                };
            }
        }
        match cmp {
            Some((op, k)) => {
                match op {
                    BinOp::Eq => v[9] = 1.0,
                    BinOp::Ne => v[10] = 1.0,
                    BinOp::Lt | BinOp::Le => v[11] = 1.0,
                    BinOp::Gt | BinOp::Ge => v[12] = 1.0,
                    _ => v[13] = 1.0, // float comparisons
                }
                match k {
                    Some(0) => v[15] = 1.0,
                    Some(n) if n.abs() == 1 => v[16] = 1.0,
                    Some(n) if (2..=64).contains(&n.abs()) => v[17] = 1.0,
                    Some(n) if n > 64 => v[18] = 1.0,
                    _ => {}
                }
                if k.is_some_and(|n| n < 0) {
                    v[19] = 1.0;
                }
            }
            None => v[14] = 1.0,
        }

        let mut depth = 0u32;
        let mut cur = b;
        while let Some(i) = dom.idom(cur) {
            if i == cur {
                break;
            }
            depth += 1;
            cur = i;
            if depth >= 16 {
                break;
            }
        }
        v[20] = f64::from(depth) / 16.0;
        v[21] = (block.instrs.len().min(32) as u32 as f64) / 32.0;

        let total = block.instrs.len().max(1) as u32 as f64;
        let mut floats = 0u32;
        let mut mems = 0u32;
        let mut calls = 0u32;
        for instr in &block.instrs {
            match instr {
                Instr::Binop { op, .. } if is_float_op(*op) => floats += 1,
                Instr::Unop { op, .. } if is_float_unop(*op) => floats += 1,
                Instr::Load { .. } | Instr::Store { .. } => mems += 1,
                Instr::Call { .. } | Instr::CallIndirect { .. } => calls += 1,
                _ => {}
            }
        }
        v[22] = f64::from(floats) / total;
        v[23] = f64::from(mems) / total;
        v[24] = f64::from(calls) / total;

        match proofs.proof(*id) {
            Proof::AlwaysTaken => v[25] = 1.0,
            Proof::NeverTaken => v[26] = 1.0,
            Proof::Unknown => {}
        }
        let bd = forest.depth(b);
        let td = forest.depth(*taken);
        v[27] = f64::from(td < bd);
        v[28] = f64::from(td > bd);

        out.push(BranchFeatures { id: *id, values: v });
    }
}

fn is_float_op(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::FAdd
            | BinOp::FSub
            | BinOp::FMul
            | BinOp::FDiv
            | BinOp::FEq
            | BinOp::FNe
            | BinOp::FLt
            | BinOp::FLe
            | BinOp::FGt
            | BinOp::FGe
            | BinOp::FMin
            | BinOp::FMax
    )
}

fn is_float_unop(op: trace_ir::UnOp) -> bool {
    use trace_ir::UnOp::*;
    matches!(
        op,
        FNeg | IntToFloat | FloatToInt | Sqrt | Sin | Cos | Exp | Log | Floor | FAbs
    )
}
