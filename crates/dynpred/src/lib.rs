#![warn(missing_docs)]

//! # mfdyn — online dynamic branch predictors
//!
//! The 1992 paper's headline claim is that per-branch profiles from
//! *previous* runs rival hardware dynamic prediction. This crate supplies
//! the hardware side of that comparison: a family of online conditional
//! branch predictors driven by the VM's [`Observer`] event stream —
//! always-taken and BTFN static baselines, local 1-bit and 2-bit counter
//! tables, a self-seeded 2-bit table (the profile/hardware hybrid), gshare
//! with configurable history length and table size, and a perceptron
//! predictor. [`RunLengths`] streams the paper's other trace-order
//! measure, the instruction run lengths between mispredicted branches.
//!
//! Everything is deterministic and allocation-bounded: a [`Zoo`]
//! allocates once at construction — each predictor's tables (sized by
//! `table_bits`), the perceptron's outcome window, and a fixed block of
//! 4,096 pending events (16 KiB) — and never allocates on the hot path, so
//! it can be attached to any run, including fuzz runs, without perturbing
//! behavior or memory use.
//!
//! Two independent implementations of the same predictor semantics exist:
//!
//! * the **online** path ([`Zoo`], an [`Observer`]) buffers branch events
//!   in its block as they execute and runs each predictor over a full
//!   block in a loop of its own, never holding more than one block;
//! * the **golden** path ([`golden::replay`]) re-simulates a predictor
//!   over the branch events a [`trace_vm::Recorder`] kept.
//!
//! On a clean build the two must agree bit for bit; the fuzzer's
//! `dynpred-consistency` oracle holds them against each other, and the
//! seeded defect `dynpred-history-not-updated` (the gshare tables' shared
//! history skips its update on not-taken branches, online path only) is
//! convicted exactly by that disagreement.

mod gaps;

use std::sync::Arc;

use trace_ir::{BranchId, Program, Terminator};
use trace_vm::Observer;

pub use gaps::{GapDistribution, RunLengths};

/// Smallest allowed `table_bits` for any tabled predictor.
pub const MIN_TABLE_BITS: u32 = 1;
/// Largest allowed `table_bits` for any tabled predictor (2^24 entries —
/// far past the aliasing knee on this suite, still allocation-bounded).
pub const MAX_TABLE_BITS: u32 = 24;
/// Largest allowed global-history length, in branches.
pub const MAX_HISTORY: u32 = 63;

/// Perceptron weights saturate at ±[`WEIGHT_LIMIT`], the classic 8-bit
/// hardware budget. Clamping keeps every weight, and therefore every dot
/// product (at most `(MAX_HISTORY + 1) × WEIGHT_LIMIT` = 8,128), inside
/// `i16`, the online perceptron's lane type.
pub const WEIGHT_LIMIT: i32 = 127;

/// One predictor configuration — the unit the characterization harness
/// sweeps over, and the tag [`mfharness`] folds into its run key so runs
/// observed by different zoos never share a cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DynSpec {
    /// Predict every branch taken.
    AlwaysTaken,
    /// Backward-taken / forward-not-taken, from static layout (needs
    /// [`BranchDirs`]; without them every branch counts as forward).
    Btfn,
    /// Local 1-bit last-outcome table, indexed by branch id.
    OneBit {
        /// log2 of the table size.
        table_bits: u32,
    },
    /// Local 2-bit saturating-counter table, indexed by branch id.
    TwoBit {
        /// log2 of the table size.
        table_bits: u32,
    },
    /// [`DynSpec::TwoBit`] with every entry starting in the weak state of
    /// its own majority direction over the whole run (ties taken, as
    /// `bpredict::Predictor::from_counts`) — the 2-bit counter seeded by a
    /// profile of the very run it predicts. Runs both weak starts side by
    /// side and picks per entry at [`Zoo::report`], so it needs one pass
    /// and no profile up front.
    SelfSeededTwoBit {
        /// log2 of the table size.
        table_bits: u32,
    },
    /// Global-history XOR branch-id indexed 2-bit counter table.
    Gshare {
        /// Global history length in branches.
        history: u32,
        /// log2 of the table size.
        table_bits: u32,
    },
    /// Branch-id indexed table of perceptrons over the global history.
    Perceptron {
        /// Global history length in branches (one weight per bit, plus bias).
        history: u32,
        /// log2 of the table size.
        table_bits: u32,
    },
}

impl DynSpec {
    /// The canonical spelling: `always-taken`, `btfn`, `1bit/t12`,
    /// `2bit/t12`, `2bit-self/t12`, `gshare/h8/t12`, `perceptron/h12/t8`.
    /// Stable — used in harness run keys, `BENCH_dynpred.json`, and report
    /// tables.
    pub fn name(self) -> String {
        match self {
            DynSpec::AlwaysTaken => "always-taken".to_string(),
            DynSpec::Btfn => "btfn".to_string(),
            DynSpec::OneBit { table_bits } => format!("1bit/t{table_bits}"),
            DynSpec::TwoBit { table_bits } => format!("2bit/t{table_bits}"),
            DynSpec::SelfSeededTwoBit { table_bits } => format!("2bit-self/t{table_bits}"),
            DynSpec::Gshare {
                history,
                table_bits,
            } => format!("gshare/h{history}/t{table_bits}"),
            DynSpec::Perceptron {
                history,
                table_bits,
            } => format!("perceptron/h{history}/t{table_bits}"),
        }
    }

    /// Validates the configuration bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated bound.
    pub fn validate(self) -> Result<(), String> {
        let (history, table_bits) = match self {
            DynSpec::AlwaysTaken | DynSpec::Btfn => return Ok(()),
            DynSpec::OneBit { table_bits }
            | DynSpec::TwoBit { table_bits }
            | DynSpec::SelfSeededTwoBit { table_bits } => (1, table_bits),
            DynSpec::Gshare {
                history,
                table_bits,
            }
            | DynSpec::Perceptron {
                history,
                table_bits,
            } => (history, table_bits),
        };
        if !(MIN_TABLE_BITS..=MAX_TABLE_BITS).contains(&table_bits) {
            return Err(format!(
                "table_bits {table_bits} outside {MIN_TABLE_BITS}..={MAX_TABLE_BITS}"
            ));
        }
        if !(1..=MAX_HISTORY).contains(&history) {
            return Err(format!("history {history} outside 1..={MAX_HISTORY}"));
        }
        Ok(())
    }
}

impl std::fmt::Display for DynSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

impl std::str::FromStr for DynSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let spec = match s {
            "always-taken" => DynSpec::AlwaysTaken,
            "btfn" => DynSpec::Btfn,
            _ => {
                let mut parts = s.split('/');
                let kind = parts.next().unwrap_or_default();
                let mut history = None;
                let mut table_bits = None;
                for p in parts {
                    let (tag, num) = p.split_at(1.min(p.len()));
                    let v: u32 = num
                        .parse()
                        .map_err(|_| format!("bad predictor component '{p}' in '{s}'"))?;
                    match tag {
                        "h" => history = Some(v),
                        "t" => table_bits = Some(v),
                        _ => return Err(format!("bad predictor component '{p}' in '{s}'")),
                    }
                }
                let t = || table_bits.ok_or(format!("'{s}' is missing its /tN table size"));
                let h = || history.ok_or(format!("'{s}' is missing its /hN history length"));
                match kind {
                    "1bit" => DynSpec::OneBit { table_bits: t()? },
                    "2bit" => DynSpec::TwoBit { table_bits: t()? },
                    "2bit-self" => DynSpec::SelfSeededTwoBit { table_bits: t()? },
                    "gshare" => DynSpec::Gshare {
                        history: h()?,
                        table_bits: t()?,
                    },
                    "perceptron" => DynSpec::Perceptron {
                        history: h()?,
                        table_bits: t()?,
                    },
                    other => return Err(format!("unknown predictor '{other}' in '{s}'")),
                }
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// The full headline zoo `dynbench` evaluates: the static baselines, both
/// local counter tables, the gshare history sweep, and the perceptron.
pub fn full_zoo() -> Vec<DynSpec> {
    vec![
        DynSpec::AlwaysTaken,
        DynSpec::Btfn,
        DynSpec::OneBit { table_bits: 12 },
        DynSpec::TwoBit { table_bits: 12 },
        DynSpec::Gshare {
            history: 4,
            table_bits: 12,
        },
        DynSpec::Gshare {
            history: 8,
            table_bits: 12,
        },
        DynSpec::Gshare {
            history: 12,
            table_bits: 12,
        },
        DynSpec::Gshare {
            history: 16,
            table_bits: 12,
        },
        DynSpec::Perceptron {
            history: 12,
            table_bits: 8,
        },
    ]
}

/// The per-site schemes of the hardware literature the paper cites — 1-bit,
/// 2-bit, and the self-seeded 2-bit hybrid — each with a table entry of its
/// own for every branch site of `program`, so no two sites share state.
pub fn site_zoo(program: &Program) -> [DynSpec; 3] {
    let sites = program.branch_info.len().max(1 << MIN_TABLE_BITS);
    let table_bits = sites
        .next_power_of_two()
        .trailing_zeros()
        .min(MAX_TABLE_BITS);
    [
        DynSpec::OneBit { table_bits },
        DynSpec::TwoBit { table_bits },
        DynSpec::SelfSeededTwoBit { table_bits },
    ]
}

/// Static branch directions extracted from a program's layout — the
/// information the BTFN baseline predicts from (backward ⇒ taken).
#[derive(Clone, Debug, Default)]
pub struct BranchDirs {
    backward: Arc<Vec<bool>>,
}

impl BranchDirs {
    /// No layout information: every branch counts as forward (BTFN
    /// predicts not-taken everywhere).
    pub fn none() -> Self {
        BranchDirs::default()
    }

    /// Extracts per-branch backwardness from `program` layout, by the same
    /// rule as [`Program::is_backward_branch`]: a branch is backward when
    /// its taken target does not come after the block it ends.
    pub fn of(program: &Program) -> Self {
        let mut backward = vec![false; program.branch_info.len()];
        for f in &program.functions {
            for (bi, b) in f.blocks.iter().enumerate() {
                if let Terminator::Branch { id, taken, .. } = b.term {
                    if taken.index() <= bi {
                        backward[id.0 as usize] = true;
                    }
                }
            }
        }
        BranchDirs {
            backward: Arc::new(backward),
        }
    }

    /// Whether `id` is a backward (loop-style) branch.
    pub fn is_backward(&self, id: BranchId) -> bool {
        self.backward.get(id.0 as usize).copied().unwrap_or(false)
    }
}

/// Executed/mispredicted tallies for one predictor over one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ZooCounts {
    /// Conditional branches the predictor saw.
    pub executed: u64,
    /// Of those, how many it predicted wrong.
    pub mispredicted: u64,
}

impl ZooCounts {
    /// Mispredict rate in [0, 1]; 0 for an empty run.
    pub fn mispredict_rate(self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.executed as f64
        }
    }

    /// Percent predicted correctly; 100 for an empty run.
    pub fn percent_correct(self) -> f64 {
        100.0 * (1.0 - self.mispredict_rate())
    }

    /// Folds another run's tallies into this one.
    pub fn merge(&mut self, other: ZooCounts) {
        self.executed += other.executed;
        self.mispredicted += other.mispredicted;
    }
}

/// Per-spec tallies for one run, in the zoo's construction order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ZooReport {
    /// `(spec, counts)` pairs, in the order the specs were given.
    pub entries: Vec<(DynSpec, ZooCounts)>,
}

impl ZooReport {
    /// The counts for `spec`, if it was in the zoo.
    pub fn get(&self, spec: DynSpec) -> Option<ZooCounts> {
        self.entries
            .iter()
            .find(|(s, _)| *s == spec)
            .map(|&(_, c)| c)
    }

    /// Folds another report (same specs, same order) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the spec lists differ.
    pub fn merge(&mut self, other: &ZooReport) {
        if self.entries.is_empty() {
            self.entries = other.entries.clone();
            return;
        }
        assert_eq!(
            self.entries.len(),
            other.entries.len(),
            "merging reports from different zoos"
        );
        for ((sa, ca), (sb, cb)) in self.entries.iter_mut().zip(&other.entries) {
            assert_eq!(sa, sb, "merging reports from different zoos");
            ca.merge(*cb);
        }
    }
}

/// One step of a 2-bit saturating counter (0..=3; ≥2 predicts taken).
#[inline]
pub fn two_bit_step(state: u8, taken: bool) -> u8 {
    if taken {
        (state + 1).min(3)
    } else {
        state.saturating_sub(1)
    }
}

/// The gshare table index: branch id XOR global history, masked to the
/// table. Always within `0..(1 << table_bits)` for any history value.
#[inline]
pub fn gshare_index(id: BranchId, history: u64, table_bits: u32) -> usize {
    (((id.0 as u64) ^ history) & ((1u64 << table_bits) - 1)) as usize
}

/// The perceptron training threshold θ = ⌊1.93·h + 14⌋ (Jiménez & Lin's
/// empirically best value), in integer arithmetic.
#[inline]
pub fn perceptron_theta(history: u32) -> i32 {
    ((193 * history + 1400) / 100) as i32
}

/// Initial 2-bit counter state: weakly not-taken.
const TWO_BIT_INIT: u8 = 1;

/// Branch events a [`Zoo`] buffers before its predictors run over them.
const BLOCK: usize = 4096;

/// Perceptron weights sit in chunks of this many `i16` lanes.
const LANES: usize = 16;

/// Chunks in the longest perceptron row: [`MAX_HISTORY`] inputs and a bias.
const MAX_CHUNKS: usize = (MAX_HISTORY as usize + 1).div_ceil(LANES);

/// [`WEIGHT_LIMIT`] in lane arithmetic.
const LANE_LIMIT: i16 = WEIGHT_LIMIT as i16;

/// One [`DynSpec::SelfSeededTwoBit`] entry: the entry's outcome tally and
/// a counter per weak start (index 0 weakly not-taken, 1 weakly taken),
/// each with the mispredictions it has made.
#[derive(Clone, Copy)]
struct SeededEntry {
    executed: u64,
    taken: u64,
    counters: [u8; 2],
    missed: [u64; 2],
}

/// A block event's branch id and direction, unpacked from `id << 1 | taken`.
#[inline(always)]
fn unpack(ev: u32) -> (usize, bool) {
    ((ev >> 1) as usize, ev & 1 != 0)
}

/// Every predictor but gshare, with its misprediction tally.
enum Pred {
    AlwaysTaken { missed: u64 },
    Btfn { missed: u64 },
    OneBit { table: Vec<u8>, missed: u64 },
    TwoBit { table: Vec<u8>, missed: u64 },
    SelfSeededTwoBit { table: Vec<SeededEntry> },
    Perceptron(Box<Perceptron>),
}

impl Pred {
    fn new(spec: DynSpec) -> Self {
        match spec {
            DynSpec::AlwaysTaken => Pred::AlwaysTaken { missed: 0 },
            DynSpec::Btfn => Pred::Btfn { missed: 0 },
            DynSpec::OneBit { table_bits } => Pred::OneBit {
                table: vec![0; 1 << table_bits],
                missed: 0,
            },
            DynSpec::TwoBit { table_bits } => Pred::TwoBit {
                table: vec![TWO_BIT_INIT; 1 << table_bits],
                missed: 0,
            },
            DynSpec::SelfSeededTwoBit { table_bits } => Pred::SelfSeededTwoBit {
                table: vec![
                    SeededEntry {
                        executed: 0,
                        taken: 0,
                        counters: [TWO_BIT_INIT, TWO_BIT_INIT + 1],
                        missed: [0, 0],
                    };
                    1 << table_bits
                ],
            },
            DynSpec::Perceptron {
                history,
                table_bits,
            } => Pred::Perceptron(Box::new(Perceptron::new(history, table_bits))),
            DynSpec::Gshare { .. } => unreachable!("gshare tables live in Gshares"),
        }
    }

    /// Predicts, tallies, and trains on a block of events, in order. This
    /// is the hot path: one loop per predictor, its table and tally in
    /// locals, no allocation, no hashing.
    fn run(&mut self, block: &[u32], dirs: &BranchDirs) {
        match self {
            Pred::AlwaysTaken { missed } => {
                *missed += block
                    .iter()
                    .map(|&ev| u64::from(!unpack(ev).1))
                    .sum::<u64>();
            }
            Pred::Btfn { missed } => {
                let backward = &dirs.backward[..];
                *missed += (block.iter())
                    .map(|&ev| {
                        let (id, taken) = unpack(ev);
                        u64::from(backward.get(id).copied().unwrap_or(false) != taken)
                    })
                    .sum::<u64>();
            }
            Pred::OneBit { table, missed } => {
                let (mask, mut m) = (table.len() - 1, 0);
                let table = &mut table[..];
                for &ev in block {
                    let (id, taken) = unpack(ev);
                    let last = &mut table[id & mask];
                    m += u64::from((*last != 0) != taken);
                    *last = u8::from(taken);
                }
                *missed += m;
            }
            Pred::TwoBit { table, missed } => {
                let (mask, mut m) = (table.len() - 1, 0);
                let table = &mut table[..];
                for &ev in block {
                    let (id, taken) = unpack(ev);
                    let c = &mut table[id & mask];
                    m += u64::from((*c >= 2) != taken);
                    *c = two_bit_step(*c, taken);
                }
                *missed += m;
            }
            Pred::SelfSeededTwoBit { table } => {
                // Which start counts is settled only by the final tallies,
                // so `Pred::missed` sums the mispredictions at report time.
                let mask = table.len() - 1;
                let table = &mut table[..];
                for &ev in block {
                    let (id, taken) = unpack(ev);
                    let e = &mut table[id & mask];
                    e.executed += 1;
                    e.taken += u64::from(taken);
                    for (c, missed) in e.counters.iter_mut().zip(&mut e.missed) {
                        *missed += u64::from((*c >= 2) != taken);
                        *c = two_bit_step(*c, taken);
                    }
                }
            }
            Pred::Perceptron(p) => p.run(block),
        }
    }

    /// The mispredictions so far.
    fn missed(&self) -> u64 {
        match self {
            Pred::AlwaysTaken { missed }
            | Pred::Btfn { missed }
            | Pred::OneBit { missed, .. }
            | Pred::TwoBit { missed, .. } => *missed,
            // Each entry counts the start its own majority picks.
            Pred::SelfSeededTwoBit { table } => (table.iter())
                .map(|e| e.missed[usize::from(2 * e.taken >= e.executed)])
                .sum(),
            Pred::Perceptron(p) => p.missed,
        }
    }
}

/// A [`DynSpec::Perceptron`] table. Each row is `chunks` = ⌈(h+1)/16⌉
/// chunks of [`LANES`] weights, so every history length runs the same
/// loops: lane `l < h` weighs the outcome `h − l` branches back, lane `h`
/// is the bias, and later lanes carry no input and stay 0.
/// Weights never leave ±[`WEIGHT_LIMIT`], so a lane product is at most
/// 127, a lane sum over [`MAX_CHUNKS`] chunks 508 and the dot product
/// 8,128: `i16` lane arithmetic is exact, and the lane loops vectorize.
struct Perceptron {
    history: usize,
    theta: i32,
    chunks: usize,
    rows: Vec<[i16; LANES]>,
    /// Per chunk: all ones on the lanes that read the window, else 0.
    reads: [[i16; LANES]; MAX_CHUNKS],
    /// Per chunk: 1 on the bias lane, else 0.
    bias: [[i16; LANES]; MAX_CHUNKS],
    /// The ±1 outcomes of the `history` branches before the block, then
    /// the block's own, then padding only lanes masked off by `reads` see.
    /// The input of event `i` lane `l` is `window[i + l]`.
    window: Vec<i16>,
    missed: u64,
}

impl Perceptron {
    fn new(history: u32, table_bits: u32) -> Self {
        let h = history as usize;
        let chunks = (h + 1).div_ceil(LANES);
        let mut reads = [[0; LANES]; MAX_CHUNKS];
        for lane in 0..h {
            reads[lane / LANES][lane % LANES] = -1;
        }
        let mut bias = [[0; LANES]; MAX_CHUNKS];
        bias[h / LANES][h % LANES] = 1;
        Perceptron {
            history: h,
            theta: perceptron_theta(history),
            chunks,
            rows: vec![[0; LANES]; chunks << table_bits],
            reads,
            bias,
            // A cold history reads as all not-taken.
            window: vec![-1; h + BLOCK + chunks * LANES],
            missed: 0,
        }
    }

    fn run(&mut self, block: &[u32]) {
        let (h, chunks, theta) = (self.history, self.chunks, self.theta);
        for (x, &ev) in self.window[h..].iter_mut().zip(block) {
            *x = if unpack(ev).1 { 1 } else { -1 };
        }
        let masks = self.reads[..chunks].iter().zip(&self.bias[..chunks]);
        let (window, rows) = (&self.window[..], &mut self.rows[..]);
        let (mask, mut missed) = (rows.len() / chunks - 1, 0);
        for (i, &ev) in block.iter().enumerate() {
            let (id, taken) = unpack(ev);
            let row = &mut rows[(id & mask) * chunks..][..chunks];
            let (inputs, _) = window[i..i + chunks * LANES].as_chunks::<LANES>();
            let mut dot = [0i16; LANES];
            for (w, (win, (reads, bias))) in row.iter().zip(inputs.iter().zip(masks.clone())) {
                let x = lane_inputs(win, reads, bias);
                for l in 0..LANES {
                    dot[l] += w[l] * x[l];
                }
            }
            let y = i32::from(dot.iter().sum::<i16>());
            let predicted = y >= 0;
            missed += u64::from(predicted != taken);
            if predicted != taken || y.abs() <= theta {
                let t = if taken { 1 } else { -1 };
                for (w, (win, (reads, bias))) in
                    row.iter_mut().zip(inputs.iter().zip(masks.clone()))
                {
                    let x = lane_inputs(win, reads, bias);
                    for l in 0..LANES {
                        w[l] = (w[l] + t * x[l]).clamp(-LANE_LIMIT, LANE_LIMIT);
                    }
                }
            }
        }
        self.missed += missed;
        self.window.copy_within(block.len()..block.len() + h, 0);
    }
}

/// One chunk's perceptron inputs: the window's ±1 outcomes on the lanes
/// that read it, 1 on the bias lane, 0 elsewhere.
#[inline(always)]
fn lane_inputs(window: &[i16; LANES], reads: &[i16; LANES], bias: &[i16; LANES]) -> [i16; LANES] {
    std::array::from_fn(|l| (window[l] & reads[l]) | bias[l])
}

/// A zoo's gshare tables, run in one pass over each block: every table
/// indexes with the same global history register, masked to its own
/// length.
#[derive(Default)]
struct Gshares {
    /// The latest 64 outcomes, newest in bit 0.
    history: u64,
    tables: Vec<GshareTable>,
}

struct GshareTable {
    counters: Vec<u8>,
    table_bits: u32,
    history_mask: u64,
    missed: u64,
}

impl Gshares {
    /// Adds a table for `history` (at most `table_bits`, see [`effective`]).
    fn push(&mut self, history: u32, table_bits: u32) -> usize {
        self.tables.push(GshareTable {
            counters: vec![TWO_BIT_INIT; 1 << table_bits],
            table_bits,
            history_mask: (1u64 << history) - 1,
            missed: 0,
        });
        self.tables.len() - 1
    }

    fn run(&mut self, block: &[u32]) {
        // The seeded defect skips the history update on not-taken
        // branches, so the online predictors' indices drift away from the
        // golden replay's — the dynpred-consistency oracle's conviction
        // signal.
        #[cfg(feature = "seeded-defects")]
        let skip_not_taken = mfdefect::active("dynpred-history-not-updated");
        #[cfg(not(feature = "seeded-defects"))]
        let skip_not_taken = false;
        let mut history = self.history;
        for &ev in block {
            let (id, taken) = unpack(ev);
            for t in &mut self.tables {
                let c = &mut t.counters
                    [gshare_index(BranchId(id as u32), history & t.history_mask, t.table_bits)];
                t.missed += u64::from((*c >= 2) != taken);
                *c = two_bit_step(*c, taken);
            }
            if taken || !skip_not_taken {
                history = (history << 1) | u64::from(taken);
            }
        }
        self.history = history;
    }
}

/// The spec whose predictor computes `spec`'s tallies. [`gshare_index`]
/// keeps only `table_bits` of the history, so a longer gshare history is
/// the same predictor as one of exactly `table_bits`.
fn effective(spec: DynSpec) -> DynSpec {
    match spec {
        DynSpec::Gshare {
            history,
            table_bits,
        } => DynSpec::Gshare {
            history: history.min(table_bits),
            table_bits,
        },
        spec => spec,
    }
}

/// Where a spec's tally lives in a [`Zoo`].
#[derive(Clone, Copy)]
enum Slot {
    Pred(usize),
    Gshare(usize),
}

/// A set of online predictors all observing one run as an [`Observer`].
/// Attaching a zoo is pure observation: it never changes the run's output
/// or stats.
///
/// [`Observer::branch`] only appends the event to a fixed block; when the
/// block fills, and at [`Zoo::report`], each predictor runs over the whole
/// block in a loop of its own. The block packs an event into 32 bits as
/// `id << 1 | taken`, so branch ids must stay below 2^31, as a program's
/// dense ids (indices into its `branch_info`) always do.
pub struct Zoo {
    dirs: BranchDirs,
    /// Pending events, `id << 1 | taken`; never longer than [`BLOCK`].
    block: Vec<u32>,
    /// Events the predictors have run over.
    executed: u64,
    specs: Vec<(DynSpec, Slot)>,
    preds: Vec<Pred>,
    gshares: Gshares,
}

impl Zoo {
    /// A zoo with no layout information (BTFN predicts not-taken
    /// everywhere).
    pub fn new(specs: &[DynSpec]) -> Self {
        Zoo::with_dirs(specs, BranchDirs::none())
    }

    /// A zoo with BTFN directions extracted from `program`.
    pub fn for_program(specs: &[DynSpec], program: &Program) -> Self {
        Zoo::with_dirs(specs, BranchDirs::of(program))
    }

    /// A zoo with explicit [`BranchDirs`]. Specs that compute the same
    /// tallies share one predictor: a gshare whose history exceeds its
    /// `table_bits` is the one whose history equals them.
    pub fn with_dirs(specs: &[DynSpec], dirs: BranchDirs) -> Self {
        let mut zoo = Zoo {
            dirs,
            block: Vec::with_capacity(BLOCK),
            executed: 0,
            specs: Vec::with_capacity(specs.len()),
            preds: Vec::new(),
            gshares: Gshares::default(),
        };
        for &spec in specs {
            let same = zoo
                .specs
                .iter()
                .find(|&&(s, _)| effective(s) == effective(spec));
            let slot = if let Some(&(_, slot)) = same {
                slot
            } else if let DynSpec::Gshare {
                history,
                table_bits,
            } = effective(spec)
            {
                Slot::Gshare(zoo.gshares.push(history, table_bits))
            } else {
                zoo.preds.push(Pred::new(spec));
                Slot::Pred(zoo.preds.len() - 1)
            };
            zoo.specs.push((spec, slot));
        }
        zoo
    }

    /// Runs every predictor over the pending events. Out of line, so what
    /// inlines into the interpreter's branch handling is a push and a test.
    #[inline(never)]
    fn drain(&mut self) {
        for p in &mut self.preds {
            p.run(&self.block, &self.dirs);
        }
        if !self.gshares.tables.is_empty() {
            self.gshares.run(&self.block);
        }
        self.executed += self.block.len() as u64;
        self.block.clear();
    }

    /// The per-spec tallies so far.
    pub fn report(&mut self) -> ZooReport {
        self.drain();
        let executed = self.executed;
        ZooReport {
            entries: (self.specs.iter())
                .map(|&(spec, slot)| {
                    let mispredicted = match slot {
                        Slot::Pred(i) => self.preds[i].missed(),
                        Slot::Gshare(i) => self.gshares.tables[i].missed,
                    };
                    let counts = ZooCounts {
                        executed,
                        mispredicted,
                    };
                    (spec, counts)
                })
                .collect(),
        }
    }
}

impl Observer for Zoo {
    #[inline]
    fn branch(&mut self, id: BranchId, taken: bool, _instrs: u64) {
        debug_assert!(id.0 < 1 << 31, "branch id {} does not pack", id.0);
        self.block.push((id.0 << 1) | u32::from(taken));
        if self.block.len() == BLOCK {
            self.drain();
        }
    }
}

pub mod golden {
    //! A second, independent implementation of every predictor, replayed
    //! over recorded branch events. Deliberately written in a different
    //! style (sparse maps instead of dense tables, no shared update
    //! helpers, no seeded-defect hooks) so a bug in the online path cannot
    //! hide by being mirrored here. On a clean build
    //! `golden::replay(spec, dirs, &recorder.branches)` must equal the
    //! online [`Zoo`](crate::Zoo)'s counts for `spec` bit for bit.

    use std::collections::HashMap;

    use trace_vm::BranchEvent;

    use crate::{BranchDirs, DynSpec, ZooCounts, ZooReport};

    fn saturate(c: i64, taken: bool) -> i64 {
        let next = if taken { c + 1 } else { c - 1 };
        next.clamp(0, 3)
    }

    /// Replays `spec` over `trace` from a cold start and returns its
    /// tallies.
    pub fn replay(spec: DynSpec, dirs: &BranchDirs, trace: &[BranchEvent]) -> ZooCounts {
        let mut counts = ZooCounts::default();
        match spec {
            DynSpec::AlwaysTaken => {
                for ev in trace {
                    counts.executed += 1;
                    if !ev.taken {
                        counts.mispredicted += 1;
                    }
                }
            }
            DynSpec::Btfn => {
                for ev in trace {
                    counts.executed += 1;
                    if dirs.is_backward(ev.id) != ev.taken {
                        counts.mispredicted += 1;
                    }
                }
            }
            DynSpec::OneBit { table_bits } => {
                let mask = (1u64 << table_bits) - 1;
                let mut last: HashMap<u64, bool> = HashMap::new();
                for ev in trace {
                    let slot = u64::from(ev.id.0) & mask;
                    let predicted = last.get(&slot).copied().unwrap_or(false);
                    counts.executed += 1;
                    if predicted != ev.taken {
                        counts.mispredicted += 1;
                    }
                    last.insert(slot, ev.taken);
                }
            }
            DynSpec::TwoBit { table_bits } | DynSpec::SelfSeededTwoBit { table_bits } => {
                let mask = (1u64 << table_bits) - 1;
                // The self-seeded table first counts each slot's outcomes;
                // its counters start weakly toward the slot's majority.
                let mut tally: HashMap<u64, (u64, u64)> = HashMap::new();
                if matches!(spec, DynSpec::SelfSeededTwoBit { .. }) {
                    for ev in trace {
                        let t = tally.entry(u64::from(ev.id.0) & mask).or_default();
                        t.0 += 1;
                        t.1 += u64::from(ev.taken);
                    }
                }
                let mut ctr: HashMap<u64, i64> = HashMap::new();
                for ev in trace {
                    let slot = u64::from(ev.id.0) & mask;
                    let c = *ctr.entry(slot).or_insert_with(|| match tally.get(&slot) {
                        Some(&(executed, taken)) => 1 + i64::from(taken * 2 >= executed),
                        None => i64::from(crate::TWO_BIT_INIT),
                    });
                    counts.executed += 1;
                    if (c >= 2) != ev.taken {
                        counts.mispredicted += 1;
                    }
                    ctr.insert(slot, saturate(c, ev.taken));
                }
            }
            DynSpec::Gshare {
                history,
                table_bits,
            } => {
                let mask = (1u64 << table_bits) - 1;
                let hist_mask = (1u64 << history) - 1;
                let mut ctr: HashMap<u64, i64> = HashMap::new();
                let mut ghist = 0u64;
                for ev in trace {
                    let slot = (u64::from(ev.id.0) ^ ghist) & mask;
                    let c = ctr
                        .get(&slot)
                        .copied()
                        .unwrap_or(i64::from(crate::TWO_BIT_INIT));
                    counts.executed += 1;
                    if (c >= 2) != ev.taken {
                        counts.mispredicted += 1;
                    }
                    ctr.insert(slot, saturate(c, ev.taken));
                    ghist = ((ghist << 1) | u64::from(ev.taken)) & hist_mask;
                }
            }
            DynSpec::Perceptron {
                history,
                table_bits,
            } => {
                let mask = (1u64 << table_bits) - 1;
                let hist_mask = (1u64 << history) - 1;
                let h = history as usize;
                let theta = i64::from(crate::perceptron_theta(history));
                let limit = i64::from(crate::WEIGHT_LIMIT);
                let mut table: HashMap<u64, Vec<i64>> = HashMap::new();
                let mut ghist = 0u64;
                for ev in trace {
                    let slot = u64::from(ev.id.0) & mask;
                    let w = table.entry(slot).or_insert_with(|| vec![0; h + 1]);
                    let mut y = w[0];
                    for i in 0..h {
                        let x = if (ghist >> i) & 1 == 1 { 1 } else { -1 };
                        y += w[i + 1] * x;
                    }
                    let predicted = y >= 0;
                    counts.executed += 1;
                    if predicted != ev.taken {
                        counts.mispredicted += 1;
                    }
                    if predicted != ev.taken || y.abs() <= theta {
                        let t = if ev.taken { 1 } else { -1 };
                        w[0] = (w[0] + t).clamp(-limit, limit);
                        for i in 0..h {
                            let x = if (ghist >> i) & 1 == 1 { 1 } else { -1 };
                            w[i + 1] = (w[i + 1] + t * x).clamp(-limit, limit);
                        }
                    }
                    ghist = ((ghist << 1) | u64::from(ev.taken)) & hist_mask;
                }
            }
        }
        counts
    }

    /// [`replay`] for a whole spec list, shaped like a zoo report.
    pub fn replay_zoo(specs: &[DynSpec], dirs: &BranchDirs, trace: &[BranchEvent]) -> ZooReport {
        ZooReport {
            entries: specs.iter().map(|&s| (s, replay(s, dirs, trace))).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trace_vm::{BranchEvent, Recorder, Vm, VmConfig};

    fn compile(src: &str) -> Program {
        mflang::compile(src).expect("test source compiles")
    }

    fn test_config() -> VmConfig {
        VmConfig {
            fuel: 1_000_000,
            ..VmConfig::default()
        }
    }

    /// Drives `specs` over one branch site's outcomes.
    fn drive(specs: &[DynSpec], pattern: &[bool]) -> ZooReport {
        let mut zoo = Zoo::new(specs);
        for &taken in pattern {
            zoo.branch(BranchId(0), taken, 0);
        }
        zoo.report()
    }

    const ONE_BIT: DynSpec = DynSpec::OneBit { table_bits: 4 };
    const TWO_BIT: DynSpec = DynSpec::TwoBit { table_bits: 4 };
    const SELF_SEEDED: DynSpec = DynSpec::SelfSeededTwoBit { table_bits: 4 };

    #[test]
    fn one_bit_tracks_last_direction() {
        // T T T N T: misses on the cold start (predict N), on the N, and on
        // the T after the N.
        let c = drive(&[ONE_BIT], &[true, true, true, false, true]).entries[0].1;
        assert_eq!((c.executed, c.mispredicted), (5, 3));
    }

    #[test]
    fn two_bit_resists_loop_exits() {
        // A loop branch: taken 9 times, not-taken once, repeated. From the
        // weak not-taken start the two-bit counter misses the first
        // iteration and then only each exit; the one-bit scheme also
        // misses every re-entry after an exit.
        let mut pattern = Vec::new();
        for _ in 0..10 {
            pattern.extend(std::iter::repeat_n(true, 9));
            pattern.push(false);
        }
        let report = drive(&[ONE_BIT, TWO_BIT], &pattern);
        let (one, two) = (report.entries[0].1, report.entries[1].1);
        assert_eq!(two.mispredicted, 1 + 10, "cold start, then one per exit");
        assert_eq!(one.mispredicted, 1 + 10 + 9, "plus one per re-entry");
        assert!(two.mispredict_rate() < one.mispredict_rate());
    }

    #[test]
    fn seeding_removes_cold_start_misses() {
        let report = drive(&[TWO_BIT, SELF_SEEDED], &[true; 20]);
        let (cold, warm) = (report.entries[0].1, report.entries[1].1);
        assert_eq!(cold.mispredicted, 1);
        assert_eq!(warm.mispredicted, 0);
        // A not-taken-biased site seeds the other way: no miss until the
        // taken tail, whose first two outcomes climb the counter from 0.
        let mut pattern = vec![false; 15];
        pattern.extend([true; 5]);
        let seeded = drive(&[SELF_SEEDED], &pattern).entries[0].1;
        assert_eq!(seeded.mispredicted, 2);
    }

    /// A loop whose branch behavior mixes a biased loop branch, an
    /// alternating branch, and a data-dependent one.
    const MIXED: &str = "
        fn main(n: int) {
            var i: int = 0;
            var acc: int = 0;
            while (i < n) {
                if (i % 2 == 0) { acc = acc + 1; }
                if (acc > 7) { acc = acc - 3; }
                i = i + 1;
            }
            emit(acc);
        }
    ";

    #[test]
    fn online_matches_golden_on_both_backends() {
        let program = compile(MIXED);
        let mut specs = full_zoo();
        specs.push(SELF_SEEDED);
        let dirs = BranchDirs::of(&program);
        for backend in trace_vm::Backend::ALL {
            let config = VmConfig {
                backend,
                ..test_config()
            };
            let mut observers = (Zoo::for_program(&specs, &program), Recorder::default());
            Vm::with_config(&program, config)
                .run_observed(&[trace_vm::Input::Int(40)], &mut observers)
                .expect("clean run");
            let (mut zoo, recorder) = observers;
            assert!(!recorder.branches.is_empty());
            let golden = golden::replay_zoo(&specs, &dirs, &recorder.branches);
            assert_eq!(zoo.report(), golden, "backend {backend}");
        }
    }

    #[test]
    fn attaching_a_zoo_changes_nothing_observable() {
        let program = compile(MIXED);
        let config = test_config();
        let plain = Vm::with_config(&program, config)
            .run(&[trace_vm::Input::Int(25)])
            .expect("clean run");
        let mut zoo = Zoo::for_program(&full_zoo(), &program);
        let observed = Vm::with_config(&program, config)
            .run_observed(&[trace_vm::Input::Int(25)], &mut zoo)
            .expect("clean run");
        assert_eq!(plain, observed);
        let report = zoo.report();
        let executed = report.entries[0].1.executed;
        assert_eq!(executed, plain.stats.branches.total_executed());
        for (spec, counts) in &report.entries {
            assert_eq!(counts.executed, executed, "{spec}");
            assert!(counts.mispredicted <= counts.executed, "{spec}");
        }
    }

    #[test]
    fn predictors_learn_a_biased_loop() {
        // A long counted loop: the loop branch is taken ~n times and falls
        // out once, so every learning predictor should beat always-taken's
        // complement and approach perfect.
        let program =
            compile("fn main(n: int) { var i: int = 0; while (i < n) { i = i + 1; } emit(i); }");
        let mut zoo = Zoo::for_program(&full_zoo(), &program);
        Vm::with_config(&program, test_config())
            .run_observed(&[trace_vm::Input::Int(500)], &mut zoo)
            .expect("clean run");
        let report = zoo.report();
        for spec in [
            DynSpec::TwoBit { table_bits: 12 },
            DynSpec::Gshare {
                history: 8,
                table_bits: 12,
            },
        ] {
            let c = report.get(spec).expect("spec in zoo");
            assert!(
                c.mispredict_rate() < 0.02,
                "{spec}: {} / {}",
                c.mispredicted,
                c.executed
            );
        }
    }

    #[test]
    fn gshare_learns_a_correlated_alternation_two_bit_cannot() {
        // i % 2 alternates every iteration: a local 2-bit counter on one
        // branch thrashes (50% wrong), while one bit of global history
        // makes it perfectly predictable after warmup.
        let program = compile(
            "fn main(n: int) {
                var i: int = 0; var acc: int = 0;
                while (i < n) { if (i % 2 == 0) { acc = acc + 1; } i = i + 1; }
                emit(acc);
            }",
        );
        let mut zoo = Zoo::for_program(
            &[
                DynSpec::TwoBit { table_bits: 12 },
                DynSpec::Gshare {
                    history: 8,
                    table_bits: 12,
                },
            ],
            &program,
        );
        Vm::with_config(&program, test_config())
            .run_observed(&[trace_vm::Input::Int(400)], &mut zoo)
            .expect("clean run");
        let report = zoo.report();
        let two_bit = report.get(DynSpec::TwoBit { table_bits: 12 }).unwrap();
        let gshare = report
            .get(DynSpec::Gshare {
                history: 8,
                table_bits: 12,
            })
            .unwrap();
        assert!(
            two_bit.mispredict_rate() > 0.2,
            "2-bit should thrash on alternation: {two_bit:?}"
        );
        assert!(
            gshare.mispredict_rate() < 0.05,
            "gshare should learn the alternation: {gshare:?}"
        );
    }

    #[test]
    fn spec_names_round_trip() {
        for spec in full_zoo().into_iter().chain([SELF_SEEDED]) {
            let name = spec.name();
            assert_eq!(name.parse::<DynSpec>().unwrap(), spec, "{name}");
        }
        assert!("gshare/h0/t12".parse::<DynSpec>().is_err());
        assert!("gshare/h8".parse::<DynSpec>().is_err());
        assert!("gshare/h8/t99".parse::<DynSpec>().is_err());
        assert!("tage/h8/t8".parse::<DynSpec>().is_err());
        assert!("1bit".parse::<DynSpec>().is_err());
        assert!("1bit/x4".parse::<DynSpec>().is_err());
    }

    #[test]
    fn btfn_uses_layout_directions() {
        // The while-loop branch is backward (taken target at or before its
        // block), so online BTFN with program dirs predicts it taken and
        // its percent-correct is high; with no dirs it predicts not-taken.
        let program =
            compile("fn main(n: int) { var i: int = 0; while (i < n) { i = i + 1; } emit(i); }");
        let spec = [DynSpec::Btfn];
        let mut with = Zoo::for_program(&spec, &program);
        Vm::with_config(&program, test_config())
            .run_observed(&[trace_vm::Input::Int(100)], &mut with)
            .expect("clean run");
        let mut without = Zoo::new(&spec);
        Vm::with_config(&program, test_config())
            .run_observed(&[trace_vm::Input::Int(100)], &mut without)
            .expect("clean run");
        let w = with.report().entries[0].1;
        let wo = without.report().entries[0].1;
        assert!(w.mispredict_rate() < 0.1, "{w:?}");
        assert!(wo.mispredict_rate() > 0.9, "{wo:?}");
    }

    fn arb_bool() -> impl Strategy<Value = bool> {
        (0u8..2).prop_map(|b| b == 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite: the 2-bit counter never leaves 0..=3 for any outcome
        /// sequence.
        #[test]
        fn two_bit_counter_stays_saturated(seq in prop::collection::vec(arb_bool(), 0..64)) {
            let mut c = TWO_BIT_INIT;
            for taken in seq {
                c = two_bit_step(c, taken);
                prop_assert!(c <= 3, "counter escaped its bounds: {c}");
            }
        }

        /// Satellite: the gshare index is always within the table mask for
        /// arbitrary ids, histories, and table sizes.
        #[test]
        fn gshare_index_is_always_in_table(
            id in 0u32..u32::MAX,
            history in 0u64..u64::MAX,
            table_bits in MIN_TABLE_BITS..MAX_TABLE_BITS + 1,
        ) {
            let idx = gshare_index(BranchId(id), history, table_bits);
            prop_assert!(idx < (1usize << table_bits), "{idx} out of 2^{table_bits}");
        }

        /// Satellite: perceptron weight updates clamp to ±WEIGHT_LIMIT, so
        /// no weight, lane sum or dot product can overflow `i16`, and the
        /// lanes past the bias never train.
        #[test]
        fn perceptron_weights_never_overflow(
            seq in prop::collection::vec((arb_bool(), 0u32..4), 1..200),
            history in 1..MAX_HISTORY + 1,
        ) {
            let specs = [DynSpec::Perceptron { history, table_bits: 2 }];
            let mut zoo = Zoo::new(&specs);
            for (taken, id) in seq {
                zoo.branch(BranchId(id), taken, 0);
            }
            zoo.report();
            let Pred::Perceptron(p) = &zoo.preds[0] else {
                unreachable!("spec built a perceptron");
            };
            let row_lanes = p.chunks * LANES;
            for (lane, &w) in p.rows.iter().flatten().enumerate() {
                prop_assert!(i32::from(w).abs() <= WEIGHT_LIMIT, "weight {w} escaped the clamp");
                if lane % row_lanes > history as usize {
                    prop_assert_eq!(w, 0, "lane {} carries no input", lane % row_lanes);
                }
            }
            // The dot product bound the clamp guarantees:
            let max_dot = (MAX_CHUNKS * LANES) as i32 * WEIGHT_LIMIT;
            prop_assert!(max_dot <= i32::from(i16::MAX));
        }

        /// Online and golden agree on arbitrary synthetic traces, for every
        /// spec in the full zoo (the same invariant the fuzz oracle holds
        /// over real program runs).
        #[test]
        fn online_matches_golden_on_synthetic_traces(
            seq in prop::collection::vec((0u32..24, arb_bool()), 0..300),
        ) {
            let trace: Vec<BranchEvent> = seq
                .iter()
                .map(|&(id, taken)| BranchEvent { id: BranchId(id), taken, instrs: 0 })
                .collect();
            let mut specs = full_zoo();
            specs.push(DynSpec::SelfSeededTwoBit { table_bits: 3 });
            let dirs = BranchDirs::none();
            let mut zoo = Zoo::new(&specs);
            for ev in &trace {
                zoo.branch(ev.id, ev.taken, ev.instrs);
            }
            prop_assert_eq!(zoo.report(), golden::replay_zoo(&specs, &dirs, &trace));
        }

        /// The golden model keeps only `table_bits` of a gshare's history,
        /// as [`gshare_index`] does: the aliasing the online zoo exploits
        /// by computing such specs once.
        #[test]
        fn golden_gshare_history_beyond_table_bits_is_ignored(
            seq in prop::collection::vec((0u32..64, arb_bool()), 0..400),
            table_bits in 1u32..11,
            extra in 0..MAX_HISTORY + 1,
        ) {
            let trace: Vec<BranchEvent> = seq
                .iter()
                .map(|&(id, taken)| BranchEvent { id: BranchId(id), taken, instrs: 0 })
                .collect();
            let dirs = BranchDirs::none();
            let history = (table_bits + extra).min(MAX_HISTORY);
            prop_assert_eq!(
                golden::replay(DynSpec::Gshare { history, table_bits }, &dirs, &trace),
                golden::replay(DynSpec::Gshare { history: table_bits, table_bits }, &dirs, &trace),
            );
        }
    }

    /// A roster that puts every perceptron chunk count, a gshare history
    /// longer than its table and one sharing its predictor beside the full
    /// zoo.
    fn block_roster() -> Vec<DynSpec> {
        let mut specs = full_zoo();
        specs.push(DynSpec::SelfSeededTwoBit { table_bits: 3 });
        for history in [1, 15, 16, 17, 63] {
            specs.push(DynSpec::Perceptron {
                history,
                table_bits: 3,
            });
        }
        for history in [20, 6, 3] {
            specs.push(DynSpec::Gshare {
                history,
                table_bits: 6,
            });
        }
        specs
    }

    /// `len` events over 40 branch sites from a SplitMix64 stream: each
    /// site is a biased coin, a counted loop, or a copy of the previous
    /// outcome, so the history predictors have something to learn.
    fn synthetic_trace(seed: u64, len: usize) -> (BranchDirs, Vec<BranchEvent>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let sites: Vec<(u64, u64)> = (0..40).map(|_| (next() % 3, next() % 9)).collect();
        let backward = (0..40).map(|_| next() % 2 == 0).collect();
        let mut trips = [0u64; 40];
        let mut last = false;
        let trace = (0..len)
            .map(|_| {
                let id = (next() % 40) as usize;
                let (kind, k) = sites[id];
                let taken = match kind {
                    0 => next() % 8 < k,
                    1 => {
                        trips[id] += 1;
                        trips[id] % (k + 2) != 0
                    }
                    _ => last,
                };
                last = taken;
                BranchEvent {
                    id: BranchId(id as u32),
                    taken,
                    instrs: 0,
                }
            })
            .collect();
        (
            BranchDirs {
                backward: Arc::new(backward),
            },
            trace,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Online and golden agree across block boundaries: up to three
        /// full blocks and a remainder, with a report at an arbitrary cut
        /// after which the zoo keeps observing.
        #[test]
        fn online_matches_golden_across_blocks(
            seed in 0..u64::MAX,
            len in 0..4 * BLOCK,
            cut in 0..4 * BLOCK,
        ) {
            let (dirs, trace) = synthetic_trace(seed, len);
            let cut = cut.min(len);
            let specs = block_roster();
            let mut zoo = Zoo::with_dirs(&specs, dirs.clone());
            for ev in &trace[..cut] {
                zoo.branch(ev.id, ev.taken, ev.instrs);
            }
            prop_assert_eq!(zoo.report(), golden::replay_zoo(&specs, &dirs, &trace[..cut]));
            for ev in &trace[cut..] {
                zoo.branch(ev.id, ev.taken, ev.instrs);
            }
            prop_assert_eq!(zoo.report(), golden::replay_zoo(&specs, &dirs, &trace));
        }
    }
}
