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

/// Abstract register file: one interval per register. Unreachable states
/// are `None` at the block level.
type State = Vec<Interval>;

/// Join counts beyond this at a non-header block also trigger widening —
/// a termination backstop for irreducible regions the loop forest does
/// not cover.
const WIDEN_FALLBACK_JOINS: u32 = 8;

/// Hard cap on block executions per function; exceeding it abandons the
/// function with no proofs (sound, just imprecise). With widening this
/// should never fire; it bounds the cost on adversarial fuzz inputs.
const MAX_BLOCK_VISITS: usize = 50_000;

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

    let mut in_state: Vec<Option<State>> = vec![None; n];
    in_state[func.entry().index()] = Some(vec![Interval::TOP; func.num_regs as usize]);

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

    while let Some(&(pos, bi)) = worklist.iter().next() {
        worklist.remove(&(pos, bi));
        visits += 1;
        if visits > MAX_BLOCK_VISITS {
            gave_up = true;
            break;
        }
        let b = BlockId::from_index(bi);
        let Some(entry) = in_state[bi].clone() else {
            continue;
        };
        let flow = exec_block(func.block(b), entry);
        for (succ, st) in flow.edges {
            let si = succ.index();
            match &in_state[si] {
                None => {
                    in_state[si] = Some(st);
                    worklist.insert((rpo_pos[si], si));
                }
                Some(old) => {
                    let mut joined: State =
                        old.iter().zip(st.iter()).map(|(a, b)| a.join(b)).collect();
                    if joined != *old {
                        join_count[si] += 1;
                        if (is_header[si] && join_count[si] >= 2)
                            || join_count[si] >= WIDEN_FALLBACK_JOINS
                        {
                            joined = old
                                .iter()
                                .zip(joined.iter())
                                .map(|(o, j)| widen(o, j))
                                .collect();
                        }
                        if joined != *in_state[si].as_ref().unwrap() {
                            in_state[si] = Some(joined);
                            worklist.insert((rpo_pos[si], si));
                        }
                    }
                }
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
        match &in_state[b.index()] {
            None => {
                if cfg.is_reachable(b) {
                    out.dead_blocks.push((func_id, b));
                }
            }
            Some(entry) => {
                let flow = exec_block(block, entry.clone());
                if flow.div_by_zero {
                    out.div_by_zero.push((func_id, b));
                }
                if let (Terminator::Branch { id, .. }, Some(cond)) = (&block.term, flow.cond) {
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
    }
}

/// The result of abstractly executing one block from a given entry state.
struct BlockFlow {
    /// Feasible outgoing edges with their (possibly refined) states. A
    /// successor reachable on both arms of a branch appears once, joined.
    edges: Vec<(BlockId, State)>,
    /// The condition interval at the terminator, for `Branch` blocks that
    /// complete (no provable trap before the terminator).
    cond: Option<Interval>,
    /// The block contains a provable division by zero (and therefore
    /// never completes — `edges` is empty).
    div_by_zero: bool,
}

fn exec_block(block: &Block, mut st: State) -> BlockFlow {
    // Index of the last in-block definition per register, for deciding
    // whether comparison-operand refinement at the terminator still
    // refers to current values.
    let mut last_def: Vec<Option<usize>> = vec![None; st.len()];

    for (i, instr) in block.instrs.iter().enumerate() {
        if let Instr::Binop { op, rhs, .. } = instr {
            if op.can_trap() && st[rhs.index()].is_zero() {
                // Every execution of this instruction traps: the block
                // never reaches its terminator.
                return BlockFlow {
                    edges: Vec::new(),
                    cond: None,
                    div_by_zero: true,
                };
            }
        }
        transfer(instr, &mut st);
        if let Some(dst) = instr.dst() {
            last_def[dst.index()] = Some(i);
        }
    }

    let mut edges: Vec<(BlockId, State)> = Vec::new();
    let push = |edges: &mut Vec<(BlockId, State)>, b: BlockId, s: State| {
        if let Some((_, old)) = edges.iter_mut().find(|(eb, _)| *eb == b) {
            for (o, n) in old.iter_mut().zip(s.iter()) {
                *o = o.join(n);
            }
        } else {
            edges.push((b, s));
        }
    };

    let mut cond_iv = None;
    match &block.term {
        Terminator::Jump(t) => push(&mut edges, *t, st),
        Terminator::JumpTable {
            targets, default, ..
        } => {
            for t in targets {
                push(&mut edges, *t, st.clone());
            }
            push(&mut edges, *default, st);
        }
        Terminator::Return { .. } => {}
        Terminator::Branch {
            cond,
            taken,
            not_taken,
            ..
        } => {
            let c = st[cond.index()];
            cond_iv = Some(c);
            // The comparison that defined `cond` in this block, provided
            // the condition was not overwritten afterwards.
            let cmp = last_def[cond.index()].and_then(|i| match &block.instrs[i] {
                Instr::Binop { op, lhs, rhs, .. } if op.is_comparison() && is_int_cmp(*op) => {
                    Some((i, *op, *lhs, *rhs))
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
                let mut s = st.clone();
                s[cond.index()] = rc;
                let mut feasible = true;
                if let Some((i, op, lhs, rhs)) = cmp {
                    // Operand values at the terminator equal the compared
                    // values only if not redefined after the comparison.
                    let lhs_ok = last_def[lhs.index()].is_none_or(|j| j < i);
                    let rhs_ok = last_def[rhs.index()].is_none_or(|j| j < i);
                    match interval::refine_compare(op, outcome, &st[lhs.index()], &st[rhs.index()])
                    {
                        Some((l2, r2)) => {
                            if lhs_ok {
                                s[lhs.index()] = l2;
                            }
                            if rhs_ok && rhs != lhs {
                                s[rhs.index()] = r2;
                            }
                        }
                        None => feasible = false,
                    }
                }
                if feasible {
                    push(&mut edges, target, s);
                }
            }
        }
    }
    BlockFlow {
        edges,
        cond: cond_iv,
        div_by_zero: false,
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
fn transfer(instr: &Instr, st: &mut State) {
    let get = |st: &State, r: Reg| st[r.index()];
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
