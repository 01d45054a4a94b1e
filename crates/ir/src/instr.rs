//! Instruction and terminator definitions.
//!
//! Every [`Instr`] models one RISC-level operation of the Trace: a
//! fixed-format register operation, an explicit load or store, or a call.
//! Terminators model the control transfers the paper classifies as potential
//! *breaks in control*.

use std::hash::{Hash, Hasher};

use crate::id::{BlockId, BranchId, FuncId, GlobalId, Reg};

/// An immediate constant.
///
/// The Trace's register banks held 32/64-bit integers and IEEE doubles; we
/// collapse the integer widths to `i64` (the paper's instruction counts do not
/// depend on operand width, only on operation count).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A 64-bit signed integer (also used for booleans: 0 = false).
    Int(i64),
    /// A 64-bit IEEE float.
    Float(f64),
}

impl Value {
    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            Value::Float(_) => None,
        }
    }

    /// Returns the float payload, if this is a [`Value::Float`].
    pub fn as_float(self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(f),
            Value::Int(_) => None,
        }
    }

    /// True iff the value is "truthy" under the IR's branch semantics
    /// (non-zero integer). Floats are never used as branch conditions.
    pub fn is_truthy(self) -> bool {
        matches!(self, Value::Int(i) if i != 0)
    }
}

/// Hashes a tag and then the payload's bits, so `0.0` and `-0.0`, equal
/// under `PartialEq`, hash apart: a run key must tell two programs apart
/// when one divides by `0.0` and the other by `-0.0`.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Value::Int(i) => {
                state.write_u8(0);
                state.write_i64(i);
            }
            Value::Float(f) => {
                state.write_u8(1);
                state.write_u64(f.to_bits());
            }
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

/// Unary RISC operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Float negation.
    FNeg,
    /// Bitwise complement.
    Not,
    /// Logical not: 1 if the operand is integer zero, else 0.
    LNot,
    /// Integer to float conversion.
    IntToFloat,
    /// Float to integer conversion (truncation toward zero).
    FloatToInt,
    /// Square root (the Trace had hardware float units; transcendentals were
    /// library calls, but we count them as single operations to keep guest
    /// numeric kernels' instruction mixes from being dominated by softfloat).
    Sqrt,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Floor, returning a float.
    Floor,
    /// Absolute value of an integer.
    Abs,
    /// Absolute value of a float.
    FAbs,
}

/// Binary RISC operations. Comparison operators produce integer 0/1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (traps on zero).
    Div,
    /// Integer remainder (traps on zero).
    Rem,
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount taken mod 64).
    Shl,
    /// Arithmetic right shift (shift amount taken mod 64).
    Shr,
    /// Integer equality.
    Eq,
    /// Integer inequality.
    Ne,
    /// Integer signed less-than.
    Lt,
    /// Integer signed less-or-equal.
    Le,
    /// Integer signed greater-than.
    Gt,
    /// Integer signed greater-or-equal.
    Ge,
    /// Float equality.
    FEq,
    /// Float inequality.
    FNe,
    /// Float less-than.
    FLt,
    /// Float less-or-equal.
    FLe,
    /// Float greater-than.
    FGt,
    /// Float greater-or-equal.
    FGe,
    /// Float min (used by numeric kernels).
    FMin,
    /// Float max.
    FMax,
}

impl BinOp {
    /// True for the comparison operators, which always produce integer 0/1.
    pub fn is_comparison(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            Eq | Ne | Lt | Le | Gt | Ge | FEq | FNe | FLt | FLe | FGt | FGe
        )
    }

    /// True for operators that can trap at run time (integer divide by zero).
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::Div | BinOp::Rem)
    }
}

/// A straight-line RISC-level operation.
///
/// Each executed `Instr` counts as exactly one instruction in the
/// instructions-per-break metrics, matching the paper's use of Trace
/// RISC-level operation counts.
#[derive(Clone, Debug, PartialEq, Hash)]
#[allow(missing_docs)] // field/variant names mirror the construct itself
pub enum Instr {
    /// `dst = value` — load an immediate.
    Const { dst: Reg, value: Value },
    /// `dst = op src`.
    Unop { dst: Reg, op: UnOp, src: Reg },
    /// `dst = lhs op rhs`.
    Binop {
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        rhs: Reg,
    },
    /// `dst = cond != 0 ? if_true : if_false`.
    ///
    /// The Trace front ends converted some simple `if` statements into this
    /// `select` operation; the paper notes selects were under 0.2–0.7% of
    /// executed instructions. The VM counts them so that ratio can be
    /// reported.
    Select {
        dst: Reg,
        cond: Reg,
        if_true: Reg,
        if_false: Reg,
    },
    /// `dst = src` — register move.
    Mov { dst: Reg, src: Reg },
    /// `dst = arr[index]` — explicit load. `arr` holds an array reference.
    Load { dst: Reg, arr: Reg, index: Reg },
    /// `arr[index] = src` — explicit store.
    Store { arr: Reg, index: Reg, src: Reg },
    /// `dst = new array of `len` integer zeros`.
    NewIntArray { dst: Reg, len: Reg },
    /// `dst = new array of `len` float zeros`.
    NewFloatArray { dst: Reg, len: Reg },
    /// `dst = length of the array referenced by arr`.
    ArrayLen { dst: Reg, arr: Reg },
    /// `dst = reference to interned constant array #index` (string literals).
    ///
    /// Constant arrays are allocated once at program start and are read-only;
    /// storing through such a reference is a runtime error.
    ConstArray { dst: Reg, index: u32 },
    /// `dst = value of global slot`.
    GlobalGet { dst: Reg, global: GlobalId },
    /// `global slot = src`.
    GlobalSet { global: GlobalId, src: Reg },
    /// `dst = address of function` — makes an indirect-call target value.
    FuncAddr { dst: Reg, func: FuncId },
    /// Direct call. Executing one counts a *direct call* break event, and the
    /// matching return counts a *direct return* event (Figure 1's white
    /// bars).
    Call {
        dst: Option<Reg>,
        func: FuncId,
        args: Vec<Reg>,
    },
    /// Indirect call through a function value. These and their returns are
    /// the paper's *unavoidable breaks in control*.
    CallIndirect {
        dst: Option<Reg>,
        target: Reg,
        args: Vec<Reg>,
    },
    /// Append a value to the program's output stream (used to validate guest
    /// program behaviour in tests; models writing a result record).
    Emit { src: Reg },
}

impl Instr {
    /// The register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Unop { dst, .. }
            | Instr::Binop { dst, .. }
            | Instr::Select { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::NewIntArray { dst, .. }
            | Instr::NewFloatArray { dst, .. }
            | Instr::ArrayLen { dst, .. }
            | Instr::ConstArray { dst, .. }
            | Instr::GlobalGet { dst, .. }
            | Instr::FuncAddr { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } | Instr::CallIndirect { dst, .. } => *dst,
            Instr::Store { .. } | Instr::GlobalSet { .. } | Instr::Emit { .. } => None,
        }
    }

    /// Calls `f` for every register this instruction reads.
    pub fn for_each_use<F: FnMut(Reg)>(&self, mut f: F) {
        match self {
            Instr::Const { .. } | Instr::ConstArray { .. } | Instr::GlobalGet { .. } => {}
            Instr::FuncAddr { .. } => {}
            Instr::Unop { src, .. } | Instr::Mov { src, .. } => f(*src),
            Instr::Binop { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Instr::Select {
                cond,
                if_true,
                if_false,
                ..
            } => {
                f(*cond);
                f(*if_true);
                f(*if_false);
            }
            Instr::Load { arr, index, .. } => {
                f(*arr);
                f(*index);
            }
            Instr::Store { arr, index, src } => {
                f(*arr);
                f(*index);
                f(*src);
            }
            Instr::NewIntArray { len, .. } | Instr::NewFloatArray { len, .. } => f(*len),
            Instr::ArrayLen { arr, .. } => f(*arr),
            Instr::GlobalSet { src, .. } => f(*src),
            Instr::Call { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Instr::CallIndirect { target, args, .. } => {
                f(*target);
                for a in args {
                    f(*a);
                }
            }
            Instr::Emit { src } => f(*src),
        }
    }

    /// Rewrites every register (uses and destination) through `map`.
    /// Used by inlining to relocate a callee body into the caller's
    /// register space.
    pub fn map_regs<F: FnMut(Reg) -> Reg>(&mut self, mut map: F) {
        match self {
            Instr::Const { dst, .. }
            | Instr::ConstArray { dst, .. }
            | Instr::GlobalGet { dst, .. }
            | Instr::FuncAddr { dst, .. } => *dst = map(*dst),
            Instr::Unop { dst, src, .. } | Instr::Mov { dst, src } => {
                *dst = map(*dst);
                *src = map(*src);
            }
            Instr::Binop { dst, lhs, rhs, .. } => {
                *dst = map(*dst);
                *lhs = map(*lhs);
                *rhs = map(*rhs);
            }
            Instr::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                *dst = map(*dst);
                *cond = map(*cond);
                *if_true = map(*if_true);
                *if_false = map(*if_false);
            }
            Instr::Load { dst, arr, index } => {
                *dst = map(*dst);
                *arr = map(*arr);
                *index = map(*index);
            }
            Instr::Store { arr, index, src } => {
                *arr = map(*arr);
                *index = map(*index);
                *src = map(*src);
            }
            Instr::NewIntArray { dst, len } | Instr::NewFloatArray { dst, len } => {
                *dst = map(*dst);
                *len = map(*len);
            }
            Instr::ArrayLen { dst, arr } => {
                *dst = map(*dst);
                *arr = map(*arr);
            }
            Instr::GlobalSet { src, .. } => *src = map(*src),
            Instr::Call { dst, args, .. } => {
                if let Some(d) = dst {
                    *d = map(*d);
                }
                for a in args {
                    *a = map(*a);
                }
            }
            Instr::CallIndirect { dst, target, args } => {
                if let Some(d) = dst {
                    *d = map(*d);
                }
                *target = map(*target);
                for a in args {
                    *a = map(*a);
                }
            }
            Instr::Emit { src } => *src = map(*src),
        }
    }

    /// True if deleting this instruction (when its result is unused) changes
    /// observable behaviour. Loads and pure ALU operations are removable;
    /// calls, stores, global writes, allocations and emits are not.
    ///
    /// Allocations are conservatively kept because guest code frequently
    /// threads array references through globals in ways local analysis cannot
    /// see. Integer division is kept because it can trap.
    pub fn has_side_effects(&self) -> bool {
        match self {
            Instr::Store { .. }
            | Instr::GlobalSet { .. }
            | Instr::Call { .. }
            | Instr::CallIndirect { .. }
            | Instr::Emit { .. }
            | Instr::NewIntArray { .. }
            | Instr::NewFloatArray { .. } => true,
            Instr::Binop { op, .. } => op.can_trap(),
            _ => false,
        }
    }
}

/// A block terminator: the control transfers the paper's break-in-control
/// taxonomy classifies.
#[derive(Clone, Debug, PartialEq, Hash)]
#[allow(missing_docs)] // field/variant names mirror the construct itself
pub enum Terminator {
    /// Unconditional jump — an *avoidable* break (a good ILP compiler
    /// eliminates almost all of them by code layout, per the paper).
    Jump(BlockId),
    /// Conditional branch: to `taken` if `cond` is non-zero, else
    /// `not_taken`. Carries its stable source-level [`BranchId`].
    Branch {
        cond: Reg,
        id: BranchId,
        taken: BlockId,
        not_taken: BlockId,
    },
    /// Multi-way indirect jump through a branch-target table: to
    /// `targets[index]`, or `default` if out of range. Counted as an
    /// *indirect jump* — one of the paper's *unavoidable* breaks. The
    /// `mflang` compiler lowers `switch` to cascaded conditional branches by
    /// default (as the Multiflow compiler did for this experiment); this
    /// terminator exists for the branch-target-table ablation.
    JumpTable {
        index: Reg,
        targets: Vec<BlockId>,
        default: BlockId,
    },
    /// Function return. Whether it counts as a break depends on how the
    /// function was entered (direct vs indirect call) and on the
    /// break-accounting configuration.
    Return { value: Option<Reg> },
}

impl Terminator {
    /// Calls `f` for every successor block.
    pub fn for_each_successor<F: FnMut(BlockId)>(&self, mut f: F) {
        match self {
            Terminator::Jump(t) => f(*t),
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                f(*taken);
                f(*not_taken);
            }
            Terminator::JumpTable {
                targets, default, ..
            } => {
                for t in targets {
                    f(*t);
                }
                f(*default);
            }
            Terminator::Return { .. } => {}
        }
    }

    /// Rewrites every successor block id through `map`.
    pub fn map_successors<F: FnMut(BlockId) -> BlockId>(&mut self, mut map: F) {
        match self {
            Terminator::Jump(t) => *t = map(*t),
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                *taken = map(*taken);
                *not_taken = map(*not_taken);
            }
            Terminator::JumpTable {
                targets, default, ..
            } => {
                for t in targets.iter_mut() {
                    *t = map(*t);
                }
                *default = map(*default);
            }
            Terminator::Return { .. } => {}
        }
    }

    /// Calls `f` for every register the terminator reads.
    pub fn for_each_use<F: FnMut(Reg)>(&self, mut f: F) {
        match self {
            Terminator::Jump(_) => {}
            Terminator::Branch { cond, .. } => f(*cond),
            Terminator::JumpTable { index, .. } => f(*index),
            Terminator::Return { value } => {
                if let Some(v) = value {
                    f(*v);
                }
            }
        }
    }

    /// Rewrites every register the terminator reads through `map`.
    pub fn map_regs<F: FnMut(Reg) -> Reg>(&mut self, mut map: F) {
        match self {
            Terminator::Jump(_) => {}
            Terminator::Branch { cond, .. } => *cond = map(*cond),
            Terminator::JumpTable { index, .. } => *index = map(*index),
            Terminator::Return { value } => {
                if let Some(v) = value {
                    *v = map(*v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), None);
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Float(1.0).is_truthy());
        assert_eq!(Value::from(4i64), Value::Int(4));
        assert_eq!(Value::from(4.0f64), Value::Float(4.0));
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::FGe.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Div.can_trap());
        assert!(!BinOp::FDiv.can_trap());
    }

    #[test]
    fn instr_dst_and_uses() {
        let i = Instr::Binop {
            dst: Reg(2),
            op: BinOp::Add,
            lhs: Reg(0),
            rhs: Reg(1),
        };
        assert_eq!(i.dst(), Some(Reg(2)));
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(0), Reg(1)]);
        assert!(!i.has_side_effects());

        let s = Instr::Store {
            arr: Reg(0),
            index: Reg(1),
            src: Reg(2),
        };
        assert_eq!(s.dst(), None);
        assert!(s.has_side_effects());

        let d = Instr::Binop {
            dst: Reg(3),
            op: BinOp::Div,
            lhs: Reg(0),
            rhs: Reg(1),
        };
        assert!(d.has_side_effects(), "trapping div must be kept");
    }

    #[test]
    fn call_uses_include_target_and_args() {
        let c = Instr::CallIndirect {
            dst: Some(Reg(9)),
            target: Reg(4),
            args: vec![Reg(5), Reg(6)],
        };
        let mut uses = Vec::new();
        c.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(4), Reg(5), Reg(6)]);
        assert_eq!(c.dst(), Some(Reg(9)));
        assert!(c.has_side_effects());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Reg(0),
            id: BranchId(0),
            taken: BlockId(1),
            not_taken: BlockId(2),
        };
        let mut succ = Vec::new();
        t.for_each_successor(|b| succ.push(b));
        assert_eq!(succ, vec![BlockId(1), BlockId(2)]);

        let jt = Terminator::JumpTable {
            index: Reg(0),
            targets: vec![BlockId(3), BlockId(4)],
            default: BlockId(5),
        };
        let mut succ = Vec::new();
        jt.for_each_successor(|b| succ.push(b));
        assert_eq!(succ, vec![BlockId(3), BlockId(4), BlockId(5)]);
    }

    #[test]
    fn terminator_map_successors() {
        let mut t = Terminator::Jump(BlockId(1));
        t.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(t, Terminator::Jump(BlockId(11)));
    }
}
