//! The abstract interpreter: a forward interval dataflow over each
//! function's CFG with branch-condition refinement on the outgoing edges
//! of every conditional branch and widening at natural-loop headers.
//!
//! The result is a set of *proofs*: per branch site, whether the
//! condition is provably non-zero on every execution (`AlwaysTaken`),
//! provably zero (`NeverTaken`), or unknown — plus two kinds of facts
//! the lint layer surfaces: blocks that are CFG-reachable but have no
//! feasible incoming path (`dead_blocks`), and reachable `Div`/`Rem`
//! sites whose divisor is provably zero (`div_by_zero`).
//!
//! Soundness contract: an `AlwaysTaken`/`NeverTaken` proof quantifies
//! over *successful* dynamic executions of the branch — executions that
//! trap earlier in the block (type error, division by zero, fuel
//! exhaustion) never reach the terminator and record no branch count, so
//! they cannot witness either direction. The fuzzer's `predict-soundness`
//! oracle holds every proof against observed branch counters.

use std::collections::BTreeMap;

use mfcheck::{Cfg, DomTree, LoopForest};
use trace_ir::{
    BinOp, Block, BlockId, BranchId, FuncId, Function, Instr, Program, Reg, Terminator, UnOp, Value,
};

use crate::interval::{self, widen, Interval};

/// What the interpreter can prove about one branch site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Proof {
    /// The condition is non-zero in every feasible state at the branch.
    AlwaysTaken,
    /// The condition is zero in every feasible state at the branch.
    NeverTaken,
    /// Neither direction is provable.
    Unknown,
}

/// One observed-counter violation of a proof (the soundness oracle's
/// finding payload).
#[derive(Clone, Debug)]
pub struct Contradiction {
    pub id: BranchId,
    pub proof: Proof,
    pub executed: u64,
    pub taken: u64,
}

impl std::fmt::Display for Contradiction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let claim = match self.proof {
            Proof::AlwaysTaken => "proved always-taken",
            Proof::NeverTaken => "proved never-taken",
            Proof::Unknown => "unknown",
        };
        write!(
            f,
            "{} {claim} but observed taken {}/{}",
            self.id, self.taken, self.executed
        )
    }
}

/// The whole-program analysis result.
#[derive(Clone, Debug, Default)]
pub struct ProgramProofs {
    /// Every branch site in the program, mapped to what was proved.
    pub proofs: BTreeMap<BranchId, Proof>,
    /// CFG-reachable blocks with no feasible incoming path. (Blocks the
    /// CFG itself cannot reach are already covered by the verifier's
    /// unreachable-block warning.)
    pub dead_blocks: Vec<(FuncId, BlockId)>,
    /// Feasible `Div`/`Rem` sites whose divisor is provably zero.
    pub div_by_zero: Vec<(FuncId, BlockId)>,
}

impl ProgramProofs {
    pub fn proof(&self, id: BranchId) -> Proof {
        self.proofs.get(&id).copied().unwrap_or(Proof::Unknown)
    }

    /// Branch sites with a definite proof, as `(site, taken)` pairs in
    /// `BranchId` order — the shape predictor and pseudo-profile
    /// constructions consume.
    pub fn proven_directions(&self) -> impl Iterator<Item = (BranchId, bool)> + '_ {
        self.proofs.iter().filter_map(|(&id, &p)| match p {
            Proof::AlwaysTaken => Some((id, true)),
            Proof::NeverTaken => Some((id, false)),
            Proof::Unknown => None,
        })
    }

    /// Holds every proof against observed `(site, executed, taken)`
    /// counters; any surviving entry is a soundness bug in the analysis.
    pub fn contradictions<I>(&self, counts: I) -> Vec<Contradiction>
    where
        I: IntoIterator<Item = (BranchId, u64, u64)>,
    {
        let mut out = Vec::new();
        for (id, executed, taken) in counts {
            let proof = self.proof(id);
            let broken = match proof {
                Proof::AlwaysTaken => taken != executed,
                Proof::NeverTaken => taken != 0,
                Proof::Unknown => false,
            };
            if broken && executed > 0 {
                out.push(Contradiction {
                    id,
                    proof,
                    executed,
                    taken,
                });
            }
        }
        out
    }
}

/// Runs the interval interpreter over every function of `program`.
pub fn analyze(program: &Program) -> ProgramProofs {
    let mut out = ProgramProofs::default();
    for (idx, func) in program.functions.iter().enumerate() {
        analyze_function(func, FuncId::from_index(idx), &mut out);
    }
    out
}

/// Join counts beyond this at a non-header block also trigger widening —
/// a termination backstop for irreducible regions the loop forest does
/// not cover.
const WIDEN_FALLBACK_JOINS: u32 = 8;

/// Hard cap on block executions per function; exceeding it abandons the
/// function with no proofs (sound, just imprecise). With widening this
/// should never fire; it bounds the cost on adversarial fuzz inputs.
const MAX_BLOCK_VISITS: usize = 50_000;

/// The fixpoint works in place. A block's entry state (one interval per
/// register) is allocated once, when the block is first reached; a visit
/// copies it into one scratch register file and runs the block over that,
/// and each outgoing edge joins (and, at loop headers, widens) straight
/// into its successor's entry state. A branch arm's refinement rides
/// along as at most three register overrides ([`Refinement`]) instead of
/// a copy of the state. The worklist and its order are the same as when
/// every visit, edge and join copied a state, so the fixpoint and every
/// proof are too.
pub(crate) fn analyze_function(func: &Function, func_id: FuncId, out: &mut ProgramProofs) {
    let n = func.blocks.len();
    if n == 0 {
        return;
    }
    let cfg = Cfg::new(func);
    let dom = DomTree::compute(&cfg);
    let forest = LoopForest::compute(&cfg, &dom);
    let mut is_header = vec![false; n];
    for l in &forest.loops {
        is_header[l.header.index()] = true;
    }

    // An unreached block has no feasible state yet. Each state is its own
    // allocation, not a slice of one function-wide buffer: a buffer that
    // large is mapped afresh by the allocator on every call, where states
    // of one block's size reuse the heap the rest of a compile frees.
    let width = func.num_regs as usize;
    let mut exit = vec![Interval::TOP; width];
    let mut states: Vec<Option<Box<[Interval]>>> = vec![None; n];
    states[func.entry().index()] = Some(exit.as_slice().into());

    // Worklist keyed by RPO position for a deterministic, mostly
    // topological visit order.
    let rpo_pos: Vec<usize> = (0..n)
        .map(|i| cfg.rpo_pos(BlockId::from_index(i)).unwrap_or(usize::MAX))
        .collect();
    let mut worklist: std::collections::BTreeSet<(usize, usize)> =
        std::collections::BTreeSet::new();
    worklist.insert((rpo_pos[func.entry().index()], func.entry().index()));
    let mut join_count = vec![0u32; n];
    let mut visits = 0usize;
    let mut gave_up = false;
    let mut edges: Vec<(BlockId, Refinement)> = Vec::new();

    while let Some((_, bi)) = worklist.pop_first() {
        visits += 1;
        if visits > MAX_BLOCK_VISITS {
            gave_up = true;
            break;
        }
        let block = func.block(BlockId::from_index(bi));
        exit.copy_from_slice(states[bi].as_deref().expect("a queued block is reached"));
        if !exec_instrs(block, &mut exit) {
            continue;
        }
        edges.clear();
        exit_edges(block, &exit, &mut edges);
        for (succ, refinement) in &mut edges {
            let si = succ.index();
            // The arm's state is the exit state with its overrides swapped
            // in; the second swap restores the exit state for the next edge.
            refinement.swap(&mut exit);
            let changed = if let Some(entry) = states[si].as_deref_mut() {
                if entry
                    .iter()
                    .zip(&exit)
                    .all(|(old, new)| old.join(new) == *old)
                {
                    false
                } else {
                    join_count[si] += 1;
                    let widening = (is_header[si] && join_count[si] >= 2)
                        || join_count[si] >= WIDEN_FALLBACK_JOINS;
                    let mut changed = false;
                    for (old, new) in entry.iter_mut().zip(&exit) {
                        let joined = old.join(new);
                        let next = if widening {
                            widen(old, &joined)
                        } else {
                            joined
                        };
                        changed |= next != *old;
                        *old = next;
                    }
                    changed
                }
            } else {
                states[si] = Some(exit.as_slice().into());
                true
            };
            refinement.swap(&mut exit);
            if changed {
                worklist.insert((rpo_pos[si], si));
            }
        }
    }

    // Harvest proofs and facts from the fixpoint (skipped entirely if the
    // fixpoint was abandoned: every branch stays Unknown, which is sound).
    for (b, block) in func.iter_blocks() {
        if let Terminator::Branch { id, .. } = block.term {
            out.proofs.entry(id).or_insert(Proof::Unknown);
        }
        if gave_up {
            continue;
        }
        let Some(entry) = states[b.index()].as_deref() else {
            if cfg.is_reachable(b) {
                out.dead_blocks.push((func_id, b));
            }
            continue;
        };
        exit.copy_from_slice(entry);
        if !exec_instrs(block, &mut exit) {
            out.div_by_zero.push((func_id, b));
        } else if let Terminator::Branch { id, cond, .. } = &block.term {
            let cond = exit[cond.index()];
            let proof = if cond.excludes_zero() {
                Proof::AlwaysTaken
            } else if cond.is_zero() {
                Proof::NeverTaken
            } else {
                Proof::Unknown
            };
            out.proofs.insert(*id, proof);
        }
    }
}

/// Runs `block`'s instructions over `st` in place. `false` when an
/// instruction provably divides by zero: every execution traps there and
/// the block never reaches its terminator.
fn exec_instrs(block: &Block, st: &mut [Interval]) -> bool {
    for instr in &block.instrs {
        if let Instr::Binop { op, rhs, .. } = instr {
            if op.can_trap() && st[rhs.index()].is_zero() {
                return false;
            }
        }
        transfer(instr, st);
    }
    true
}

/// What one outgoing edge changes in its block's exit state: at most three
/// registers — a branch's condition and the two operands of the
/// comparison that defined it — each with its refined interval, one entry
/// per register.
#[derive(Clone, Copy)]
struct Refinement {
    len: usize,
    regs: [(usize, Interval); 3],
}

impl Refinement {
    /// The edge leaves the exit state as it is.
    const NONE: Refinement = Refinement {
        len: 0,
        regs: [(0, Interval::TOP); 3],
    };

    fn overrides(&self) -> &[(usize, Interval)] {
        &self.regs[..self.len]
    }

    /// `reg`'s value on this edge, given the exit state `exit`.
    fn value(&self, reg: usize, exit: &[Interval]) -> Interval {
        self.overrides()
            .iter()
            .find(|(r, _)| *r == reg)
            .map_or(exit[reg], |&(_, v)| v)
    }

    /// Sets `reg` to `v`, replacing an earlier value of the same register.
    fn set(&mut self, reg: usize, v: Interval) {
        match self.regs[..self.len].iter_mut().find(|(r, _)| *r == reg) {
            Some(slot) => slot.1 = v,
            None => {
                self.regs[self.len] = (reg, v);
                self.len += 1;
            }
        }
    }

    /// The edge two refinements of one exit state reach one block on:
    /// each register takes the join of its two values.
    fn join(&self, other: &Refinement, exit: &[Interval]) -> Refinement {
        let mut joined = Refinement::NONE;
        for &(reg, _) in self.overrides().iter().chain(other.overrides()) {
            let v = self.value(reg, exit).join(&other.value(reg, exit));
            joined.set(reg, v);
        }
        joined
    }

    /// Exchanges the overridden registers' values with `st`'s. Swapping
    /// twice restores both.
    fn swap(&mut self, st: &mut [Interval]) {
        for (reg, v) in &mut self.regs[..self.len] {
            std::mem::swap(v, &mut st[*reg]);
        }
    }
}

/// The feasible outgoing edges of a block that completes with exit state
/// `st`, each with its refinement, in the order the successors first
/// appear; a successor reachable on two edges appears once, the two
/// refinements joined.
fn exit_edges(block: &Block, st: &[Interval], edges: &mut Vec<(BlockId, Refinement)>) {
    let mut push = |b: BlockId, r: Refinement| {
        if let Some((_, old)) = edges.iter_mut().find(|(eb, _)| *eb == b) {
            *old = old.join(&r, st);
        } else {
            edges.push((b, r));
        }
    };
    match &block.term {
        Terminator::Jump(t) => push(*t, Refinement::NONE),
        Terminator::JumpTable {
            targets, default, ..
        } => {
            for t in targets.iter().chain([default]) {
                push(*t, Refinement::NONE);
            }
        }
        Terminator::Return { .. } => {}
        Terminator::Branch {
            cond,
            taken,
            not_taken,
            ..
        } => {
            let c = st[cond.index()];
            // The comparison that last defined `cond` in this block, with
            // whether each operand still holds the compared value at the
            // terminator (no definition of it from the comparison on).
            let defined_from = |i: usize, reg: Reg| {
                block.instrs[i..]
                    .iter()
                    .any(|instr| instr.dst() == Some(reg))
            };
            let cmp = block
                .instrs
                .iter()
                .rposition(|instr| instr.dst() == Some(*cond))
                .and_then(|i| match &block.instrs[i] {
                    Instr::Binop { op, lhs, rhs, .. } if op.is_comparison() && is_int_cmp(*op) => {
                        Some((
                            *op,
                            *lhs,
                            *rhs,
                            !defined_from(i, *lhs),
                            !defined_from(i, *rhs),
                        ))
                    }
                    _ => None,
                });
            for (outcome, target) in [(true, *taken), (false, *not_taken)] {
                let refined_cond = if outcome {
                    c.refine_nonzero()
                } else {
                    c.refine_zero()
                };
                let Some(rc) = refined_cond else {
                    continue; // this arm is infeasible
                };
                let mut r = Refinement::NONE;
                r.set(cond.index(), rc);
                if let Some((op, lhs, rhs, lhs_ok, rhs_ok)) = cmp {
                    let Some((l2, r2)) =
                        interval::refine_compare(op, outcome, &st[lhs.index()], &st[rhs.index()])
                    else {
                        continue; // the comparison cannot come out this way
                    };
                    if lhs_ok {
                        r.set(lhs.index(), l2);
                    }
                    if rhs_ok && rhs != lhs {
                        r.set(rhs.index(), r2);
                    }
                }
                push(target, r);
            }
        }
    }
}

fn is_int_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// Applies one instruction's transfer function to the state. Anything
/// that may produce a float or an unmodeled value writes ⊤ (the domain's
/// float story: possibly-float registers are always ⊤).
fn transfer(instr: &Instr, st: &mut [Interval]) {
    let get = |st: &[Interval], r: Reg| st[r.index()];
    match instr {
        Instr::Const { dst, value } => {
            st[dst.index()] = match value {
                Value::Int(n) => Interval::singleton(*n),
                Value::Float(_) => Interval::TOP,
            };
        }
        Instr::Mov { dst, src } => st[dst.index()] = get(st, *src),
        Instr::Unop { dst, op, src } => {
            let v = get(st, *src);
            st[dst.index()] = match op {
                UnOp::Neg => {
                    if v.contains(interval::I64_MIN) {
                        Interval::TOP
                    } else {
                        Interval::new(-v.hi, -v.lo)
                    }
                }
                UnOp::Not => Interval::new(-v.hi - 1, -v.lo - 1),
                UnOp::LNot => {
                    if v.is_zero() {
                        Interval::singleton(1)
                    } else if v.excludes_zero() {
                        Interval::singleton(0)
                    } else {
                        Interval::new(0, 1)
                    }
                }
                UnOp::Abs => {
                    if v.contains(interval::I64_MIN) {
                        Interval::TOP
                    } else if v.lo >= 0 {
                        v
                    } else if v.hi <= 0 {
                        Interval::new(-v.hi, -v.lo)
                    } else {
                        Interval::new(0, (-v.lo).max(v.hi))
                    }
                }
                // Float-producing or float-consuming: ⊤.
                _ => Interval::TOP,
            };
        }
        Instr::Binop { dst, op, lhs, rhs } => {
            let l = get(st, *lhs);
            let r = get(st, *rhs);
            st[dst.index()] = match op {
                BinOp::Add => interval::add(&l, &r),
                BinOp::Sub => interval::sub(&l, &r),
                BinOp::Mul => interval::mul(&l, &r),
                BinOp::Div | BinOp::Rem => match r.refine_nonzero() {
                    // Executions that survive this instruction had a
                    // non-zero divisor (zero divisors trap).
                    Some(r) => interval::div_rem(*op, &l, &r),
                    None => Interval::TOP, // always traps; handled by caller
                },
                BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                    interval::bitwise(*op, &l, &r)
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    interval::compare(*op, &l, &r)
                }
                // Float comparisons produce 0/1 ints; everything else
                // float-valued is ⊤.
                BinOp::FEq | BinOp::FNe | BinOp::FLt | BinOp::FLe | BinOp::FGt | BinOp::FGe => {
                    Interval::new(0, 1)
                }
                _ => Interval::TOP,
            };
        }
        Instr::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            let c = get(st, *cond);
            st[dst.index()] = if c.excludes_zero() {
                get(st, *if_true)
            } else if c.is_zero() {
                get(st, *if_false)
            } else {
                get(st, *if_true).join(&get(st, *if_false))
            };
        }
        Instr::ArrayLen { dst, .. } => {
            st[dst.index()] = Interval::new(0, interval::I64_MAX);
        }
        Instr::NewIntArray { dst, .. }
        | Instr::NewFloatArray { dst, .. }
        | Instr::ConstArray { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::GlobalGet { dst, .. }
        | Instr::FuncAddr { dst, .. } => {
            st[dst.index()] = Interval::TOP;
        }
        Instr::Call { dst, .. } => {
            if let Some(dst) = dst {
                st[dst.index()] = Interval::TOP;
            }
        }
        Instr::CallIndirect { dst, .. } => {
            if let Some(dst) = dst {
                st[dst.index()] = Interval::TOP;
            }
        }
        Instr::Store { .. } | Instr::GlobalSet { .. } | Instr::Emit { .. } => {}
    }
}
