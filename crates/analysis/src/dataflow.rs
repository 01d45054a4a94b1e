//! A small forward/backward bitset dataflow engine, instantiated as
//! liveness and definite initialization.

use trace_ir::{BlockId, Function, Reg};

use crate::cfg::Cfg;

// --------------------------------------------------------------------
// Bit sets
// --------------------------------------------------------------------

/// A fixed-universe bit set backed by `u64` words.
#[derive(Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

// Manual so that `clone_from` reuses the destination's words: the solver
// copies sets of one universe into each other on every sweep.
impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitSet {
    /// The empty set over a universe of `len` elements.
    pub fn empty(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The full set over a universe of `len` elements.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.mask_tail();
        s
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Universe size.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds `i`; returns true if it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes `i`.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self ∪= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self ∩= other`; returns true if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Iterates set members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| self.contains(i))
    }

    /// `self = other`; returns true if `self` changed.
    fn assign(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            changed |= *a != b;
            *a = b;
        }
        changed
    }

    /// `self = t.gen ∪ (input − t.kill)`; returns true if `self` changed.
    fn assign_transfer(&mut self, input: &BitSet, t: &GenKill) -> bool {
        debug_assert_eq!(self.len, input.len);
        let mut changed = false;
        let sources = input.words.iter().zip(&t.gen.words).zip(&t.kill.words);
        for (a, ((&i, &g), &k)) in self.words.iter_mut().zip(sources) {
            let next = g | (i & !k);
            changed |= *a != next;
            *a = next;
        }
        changed
    }
}

// --------------------------------------------------------------------
// The engine
// --------------------------------------------------------------------

/// Which way facts flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors.
    Forward,
    /// Facts flow from successors to predecessors.
    Backward,
}

/// How facts from several edges meet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Meet {
    /// May-analysis: a fact holds if it holds on *any* incoming edge.
    Union,
    /// Must-analysis: a fact holds only if it holds on *every* incoming
    /// edge.
    Intersect,
}

/// Per-block transfer function in gen/kill form:
/// `out = gen ∪ (in − kill)`.
#[derive(Clone, Debug)]
pub struct GenKill {
    /// Facts the block creates.
    pub gen: BitSet,
    /// Facts the block destroys.
    pub kill: BitSet,
}

/// The fixpoint: per-block fact sets at block entry and exit (in the
/// direction of flow: for backward problems `block_in` is still the set
/// at the block's *start*).
#[derive(Clone, Debug)]
pub struct Solution {
    /// Facts holding at each block's start.
    pub block_in: Vec<BitSet>,
    /// Facts holding at each block's end.
    pub block_out: Vec<BitSet>,
}

/// Solves a gen/kill dataflow problem over `cfg` to a fixpoint.
///
/// `boundary` is the fact set at the flow entry (the CFG entry block for
/// forward problems, every exit block for backward ones). Unreachable
/// blocks are skipped; their sets stay at the meet's neutral value (empty
/// for [`Meet::Union`], full for [`Meet::Intersect`]).
///
/// The fixpoint allocates nothing: each block's meet is taken in one
/// scratch set, and `block_in`/`block_out` are updated in place.
pub fn solve(
    cfg: &Cfg,
    direction: Direction,
    meet: Meet,
    transfer: &[GenKill],
    boundary: &BitSet,
) -> Solution {
    let n = cfg.len();
    let universe = boundary.len();
    let neutral = match meet {
        Meet::Union => BitSet::empty(universe),
        Meet::Intersect => BitSet::full(universe),
    };
    let mut block_in = vec![neutral.clone(); n];
    let mut block_out = vec![neutral.clone(); n];
    let mut met = neutral.clone();

    // Iteration order: reverse postorder for forward problems, postorder
    // for backward ones — facts usually settle in a couple of sweeps.
    let rpo = cfg.rpo();
    let mut changed = true;
    while changed {
        changed = false;
        for k in 0..rpo.len() {
            let b = match direction {
                Direction::Forward => rpo[k],
                Direction::Backward => rpo[rpo.len() - 1 - k],
            };
            let i = b.index();
            // Meet over flow predecessors.
            let (edges, incoming) = match direction {
                Direction::Forward => (cfg.preds(b), &block_out),
                Direction::Backward => (cfg.succs(b), &block_in),
            };
            let is_boundary = match direction {
                Direction::Forward => k == 0,
                Direction::Backward => edges.is_empty(),
            };
            if is_boundary {
                met.clone_from(boundary);
            } else {
                met.clone_from(&neutral);
                for &e in edges.iter().filter(|&&e| cfg.is_reachable(e)) {
                    match meet {
                        Meet::Union => met.union_with(&incoming[e.index()]),
                        Meet::Intersect => met.intersect_with(&incoming[e.index()]),
                    };
                }
            }
            let (in_slot, out_slot) = match direction {
                Direction::Forward => (&mut block_in[i], &mut block_out[i]),
                Direction::Backward => (&mut block_out[i], &mut block_in[i]),
            };
            changed |= in_slot.assign(&met);
            // out = gen ∪ (in − kill)
            changed |= out_slot.assign_transfer(&met, &transfer[i]);
        }
    }
    Solution {
        block_in,
        block_out,
    }
}

// --------------------------------------------------------------------
// Liveness
// --------------------------------------------------------------------

/// Live registers at block boundaries (backward may-analysis).
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Registers live at each block's start.
    pub live_in: Vec<BitSet>,
    /// Registers live at each block's end.
    pub live_out: Vec<BitSet>,
}

/// Computes register liveness for `func`.
pub fn liveness(func: &Function, cfg: &Cfg) -> Liveness {
    let regs = func.num_regs as usize;
    let transfer: Vec<GenKill> = func
        .blocks
        .iter()
        .map(|block| {
            // gen: upward-exposed uses; kill: definitions.
            let mut gen = BitSet::empty(regs);
            let mut kill = BitSet::empty(regs);
            for instr in &block.instrs {
                instr.for_each_use(|r| {
                    if !kill.contains(r.index()) {
                        gen.insert(r.index());
                    }
                });
                if let Some(dst) = instr.dst() {
                    kill.insert(dst.index());
                }
            }
            block.term.for_each_use(|r| {
                if !kill.contains(r.index()) {
                    gen.insert(r.index());
                }
            });
            GenKill { gen, kill }
        })
        .collect();
    let boundary = BitSet::empty(regs);
    let s = solve(cfg, Direction::Backward, Meet::Union, &transfer, &boundary);
    Liveness {
        live_in: s.block_in,
        live_out: s.block_out,
    }
}

// --------------------------------------------------------------------
// Definite initialization
// --------------------------------------------------------------------

/// Registers definitely initialized at block boundaries (forward
/// must-analysis). Parameters are initialized at entry.
#[derive(Clone, Debug)]
pub struct DefiniteInit {
    /// Registers definitely initialized at each block's start.
    pub init_in: Vec<BitSet>,
}

/// Computes definite initialization for `func`.
pub fn definite_init(func: &Function, cfg: &Cfg) -> DefiniteInit {
    let regs = func.num_regs as usize;
    let transfer: Vec<GenKill> = func
        .blocks
        .iter()
        .map(|block| {
            let mut gen = BitSet::empty(regs);
            for instr in &block.instrs {
                if let Some(dst) = instr.dst() {
                    gen.insert(dst.index());
                }
            }
            GenKill {
                gen,
                kill: BitSet::empty(regs),
            }
        })
        .collect();
    let mut boundary = BitSet::empty(regs);
    for p in 0..func.num_params as usize {
        boundary.insert(p);
    }
    let s = solve(
        cfg,
        Direction::Forward,
        Meet::Intersect,
        &transfer,
        &boundary,
    );
    DefiniteInit {
        init_in: s.block_in,
    }
}

/// A read of a register no definition is guaranteed to have reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UninitUse {
    /// The block containing the read.
    pub block: BlockId,
    /// Instruction index, or `None` when the terminator reads the register.
    pub instr: Option<usize>,
    /// The register read before initialization.
    pub reg: Reg,
}

/// Every use in a reachable block of `func` (whose CFG is `cfg`) that
/// executes before any definition of its register is guaranteed to have
/// executed. Empty for all lowerer-produced IR; hand-built IR can violate
/// it.
pub fn uninitialized_uses(func: &Function, cfg: &Cfg) -> Vec<UninitUse> {
    let init = definite_init(func, cfg);
    let mut out = Vec::new();
    let mut ready = BitSet::empty(func.num_regs as usize);
    for &b in cfg.rpo() {
        ready.clone_from(&init.init_in[b.index()]);
        let block = &func.blocks[b.index()];
        for (ii, instr) in block.instrs.iter().enumerate() {
            instr.for_each_use(|r| {
                if !ready.contains(r.index()) {
                    out.push(UninitUse {
                        block: b,
                        instr: Some(ii),
                        reg: r,
                    });
                }
            });
            if let Some(dst) = instr.dst() {
                ready.insert(dst.index());
            }
        }
        block.term.for_each_use(|r| {
            if !ready.contains(r.index()) {
                out.push(UninitUse {
                    block: b,
                    instr: None,
                    reg: r,
                });
            }
        });
    }
    out
}

/// True when every reachable use of every register is preceded by a
/// definition on all paths — the precondition for constant folding over
/// [`crate::single_def_consts`].
pub fn all_uses_initialized(func: &Function) -> bool {
    uninitialized_uses(func, &Cfg::new(func)).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
    use trace_ir::{BinOp, Block, BranchId, BranchKind, Instr, Program, Terminator, Value};

    fn build(f: FunctionBuilder) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.add_function(f.finish());
        pb.finish("f").unwrap()
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::empty(70);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(69));
        assert!(!s.insert(69));
        assert!(s.contains(69) && !s.contains(68));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 69]);
        s.remove(0);
        assert!(!s.contains(0));

        let full = BitSet::full(70);
        assert_eq!(full.iter().count(), 70);
        let mut inter = full.clone();
        assert!(inter.intersect_with(&s));
        assert_eq!(inter.iter().collect::<Vec<_>>(), vec![69]);
        let mut uni = BitSet::empty(70);
        assert!(uni.union_with(&s));
        assert!(!uni.union_with(&s), "idempotent");
    }

    #[test]
    fn liveness_flows_backward_through_the_diamond() {
        // x defined in entry, used only in the true arm.
        let mut f = FunctionBuilder::new("f", 1);
        let x = f.const_int(42);
        let t = f.new_block();
        let e = f.new_block();
        let join = f.new_block();
        f.branch(f.param(0), t, e, 1, BranchKind::If);
        f.switch_to(t);
        f.emit_value(x);
        f.jump(join);
        f.switch_to(e);
        f.jump(join);
        f.switch_to(join);
        f.ret(None);
        let p = build(f);
        let func = &p.functions[0];
        let cfg = Cfg::new(func);
        let l = liveness(func, &cfg);
        assert!(l.live_out[0].contains(x.index()), "x live out of entry");
        assert!(l.live_in[1].contains(x.index()), "x live into true arm");
        assert!(!l.live_in[2].contains(x.index()), "dead in false arm");
        assert!(!l.live_in[3].contains(x.index()), "dead at join");
    }

    #[test]
    fn definite_init_requires_all_paths() {
        // x initialized only in the true arm; at the join it is not
        // definitely initialized, and the emit there is flagged.
        let mut f = FunctionBuilder::new("f", 1);
        let t = f.new_block();
        let e = f.new_block();
        let join = f.new_block();
        f.branch(f.param(0), t, e, 1, BranchKind::If);
        f.switch_to(t);
        let x = f.new_reg();
        let one = f.const_int(1);
        f.mov_to(x, one);
        f.jump(join);
        f.switch_to(e);
        f.jump(join);
        f.switch_to(join);
        f.emit_value(x);
        f.ret(None);
        let p = build(f);
        let func = &p.functions[0];
        let cfg = Cfg::new(func);
        let init = definite_init(func, &cfg);
        assert!(!init.init_in[3].contains(x.index()));
        assert!(init.init_in[3].contains(0), "params always initialized");

        let uses = uninitialized_uses(func, &cfg);
        assert_eq!(uses.len(), 1);
        assert_eq!(uses[0].reg, x);
        assert_eq!(uses[0].block, BlockId(3));
        assert!(!all_uses_initialized(func));
    }

    #[test]
    fn straight_line_code_is_definitely_initialized() {
        let mut f = FunctionBuilder::new("f", 2);
        let s = f.binop(BinOp::Add, f.param(0), f.param(1));
        f.emit_value(s);
        f.ret(None);
        let p = build(f);
        assert!(all_uses_initialized(&p.functions[0]));
        let cfg = Cfg::new(&p.functions[0]);
        assert!(uninitialized_uses(&p.functions[0], &cfg).is_empty());
    }

    /// SplitMix64: enough randomness to generate test CFGs.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random function of up to 12 blocks over 2 parameters and up to
    /// 72 registers (so sets span two words). Blocks define and read
    /// random registers and end in random jumps, branches, jump tables or
    /// returns, so there are loops, unreachable blocks and reads no
    /// definition reaches.
    fn random_function(rng: &mut Rng) -> Function {
        let n = 1 + rng.below(12);
        let regs = 2 + rng.below(71);
        let reg = |rng: &mut Rng| Reg(rng.below(regs) as u32);
        let target = |rng: &mut Rng| BlockId::from_index(rng.below(n));
        let blocks = (0..n)
            .map(|_| {
                let instrs = (0..rng.below(5))
                    .map(|_| match rng.below(3) {
                        0 => Instr::Const {
                            dst: reg(rng),
                            value: Value::Int(1),
                        },
                        1 => Instr::Binop {
                            dst: reg(rng),
                            op: BinOp::Add,
                            lhs: reg(rng),
                            rhs: reg(rng),
                        },
                        _ => Instr::Emit { src: reg(rng) },
                    })
                    .collect();
                let term = match rng.below(4) {
                    0 => Terminator::Jump(target(rng)),
                    1 => Terminator::Branch {
                        cond: reg(rng),
                        id: BranchId(0),
                        taken: target(rng),
                        not_taken: target(rng),
                    },
                    2 => Terminator::JumpTable {
                        index: reg(rng),
                        targets: (0..rng.below(3)).map(|_| target(rng)).collect(),
                        default: target(rng),
                    },
                    _ => Terminator::Return { value: None },
                };
                Block { instrs, term }
            })
            .collect();
        Function {
            name: "f".to_string(),
            num_params: 2,
            num_regs: regs as u32,
            blocks,
        }
    }

    fn members(set: &BitSet) -> Vec<bool> {
        (0..set.len()).map(|i| set.contains(i)).collect()
    }

    /// Textbook liveness: round-robin in block order over `Vec<bool>`
    /// sets, each block walked backward instruction by instruction.
    /// Returns `(live_in, live_out)`.
    fn reference_liveness(func: &Function, cfg: &Cfg) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
        let regs = func.num_regs as usize;
        let n = func.blocks.len();
        let mut live_in = vec![vec![false; regs]; n];
        let mut live_out = vec![vec![false; regs]; n];
        let mut changed = true;
        while changed {
            changed = false;
            for (b, block) in func.iter_blocks() {
                if !cfg.is_reachable(b) {
                    continue;
                }
                let mut live = vec![false; regs];
                for s in cfg.succs(b) {
                    for (l, &s_in) in live.iter_mut().zip(&live_in[s.index()]) {
                        *l |= s_in;
                    }
                }
                changed |= live_out[b.index()] != live;
                live_out[b.index()] = live.clone();
                block.term.for_each_use(|r| live[r.index()] = true);
                for instr in block.instrs.iter().rev() {
                    if let Some(d) = instr.dst() {
                        live[d.index()] = false;
                    }
                    instr.for_each_use(|r| live[r.index()] = true);
                }
                changed |= live_in[b.index()] != live;
                live_in[b.index()] = live;
            }
        }
        (live_in, live_out)
    }

    /// Textbook definite initialization: round-robin in block order from
    /// all-initialized, the entry holding the parameters only. Returns
    /// `init_in`.
    fn reference_init(func: &Function, cfg: &Cfg) -> Vec<Vec<bool>> {
        let regs = func.num_regs as usize;
        let mut init_in = vec![vec![true; regs]; func.blocks.len()];
        let out_of = |b: BlockId, init_in: &[Vec<bool>]| {
            let mut out = init_in[b.index()].clone();
            for instr in &func.blocks[b.index()].instrs {
                if let Some(d) = instr.dst() {
                    out[d.index()] = true;
                }
            }
            out
        };
        let mut changed = true;
        while changed {
            changed = false;
            for (b, _) in func.iter_blocks() {
                if !cfg.is_reachable(b) {
                    continue;
                }
                let init = if b.index() == 0 {
                    (0..regs).map(|r| r < func.num_params as usize).collect()
                } else {
                    let mut init = vec![true; regs];
                    for &p in cfg.preds(b).iter().filter(|&&p| cfg.is_reachable(p)) {
                        for (i, o) in init.iter_mut().zip(out_of(p, &init_in)) {
                            *i &= o;
                        }
                    }
                    init
                };
                changed |= init_in[b.index()] != init;
                init_in[b.index()] = init;
            }
        }
        init_in
    }

    #[test]
    fn solve_matches_a_reference_solver_on_generated_cfgs() {
        let mut rng = Rng(0x5eed);
        for case in 0..500 {
            let func = random_function(&mut rng);
            let cfg = Cfg::new(&func);
            let live = liveness(&func, &cfg);
            let (live_in, live_out) = reference_liveness(&func, &cfg);
            let init = definite_init(&func, &cfg);
            let init_in = reference_init(&func, &cfg);
            for b in 0..func.blocks.len() {
                assert_eq!(members(&live.live_in[b]), live_in[b], "case {case} bb{b}");
                assert_eq!(members(&live.live_out[b]), live_out[b], "case {case} bb{b}");
                assert_eq!(members(&init.init_in[b]), init_in[b], "case {case} bb{b}");
            }
        }
    }
}
