//! The measurement side of the VM: IFPROBBER branch counters, MFPixie
//! instruction counters, and break-in-control event tallies.

use std::collections::BTreeMap;

use trace_ir::{BranchId, FuncId, Program};

/// Per-branch `(executed, taken)` counters — the IFPROBBER record.
///
/// Keyed by the stable source-level [`BranchId`], so counts collected on one
/// compilation of a program apply to any other compilation of the same
/// source.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchCounts {
    counts: BTreeMap<BranchId, (u64, u64)>,
}

impl BranchCounts {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        BranchCounts::default()
    }

    /// Records one execution of `id`, taken or not.
    pub fn record(&mut self, id: BranchId, taken: bool) {
        let e = self.counts.entry(id).or_insert((0, 0));
        e.0 += 1;
        if taken {
            e.1 += 1;
        }
    }

    /// Adds `executed`/`taken` in bulk (used when merging databases).
    pub fn add(&mut self, id: BranchId, executed: u64, taken: u64) {
        debug_assert!(taken <= executed, "taken count exceeds executed count");
        let e = self.counts.entry(id).or_insert((0, 0));
        e.0 += executed;
        e.1 += taken;
    }

    /// `(executed, taken)` for a branch; `(0, 0)` if never seen.
    pub fn get(&self, id: BranchId) -> (u64, u64) {
        self.counts.get(&id).copied().unwrap_or((0, 0))
    }

    /// Iterates `(BranchId, executed, taken)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, u64, u64)> + '_ {
        self.counts.iter().map(|(&id, &(e, t))| (id, e, t))
    }

    /// Number of distinct branches that executed at least once.
    pub fn branches_seen(&self) -> usize {
        self.counts.values().filter(|(e, _)| *e > 0).count()
    }

    /// Total dynamic conditional-branch executions.
    pub fn total_executed(&self) -> u64 {
        self.counts.values().map(|(e, _)| e).sum()
    }

    /// Total taken executions.
    pub fn total_taken(&self) -> u64 {
        self.counts.values().map(|(_, t)| t).sum()
    }

    /// Dynamic fraction of branches that were taken, in 0..=1.
    /// Returns `None` when no branch executed.
    ///
    /// The paper reports this "percent taken" is remarkably constant across
    /// datasets of one program (within 9%) — except for spice2g6.
    pub fn percent_taken(&self) -> Option<f64> {
        let e = self.total_executed();
        (e > 0).then(|| self.total_taken() as f64 / e as f64)
    }

    /// True if no branch executed.
    pub fn is_empty(&self) -> bool {
        self.total_executed() == 0
    }
}

impl FromIterator<(BranchId, u64, u64)> for BranchCounts {
    fn from_iter<I: IntoIterator<Item = (BranchId, u64, u64)>>(iter: I) -> Self {
        let mut c = BranchCounts::new();
        for (id, e, t) in iter {
            c.add(id, e, t);
        }
        c
    }
}

impl Extend<(BranchId, u64, u64)> for BranchCounts {
    fn extend<I: IntoIterator<Item = (BranchId, u64, u64)>>(&mut self, iter: I) {
        for (id, e, t) in iter {
            self.add(id, e, t);
        }
    }
}

/// Dynamic tallies of every control-transfer event, by the paper's taxonomy.
///
/// Conditional-branch executions live in [`BranchCounts`]; everything else is
/// here. "Indirect returns" are returns from functions that were entered via
/// an indirect call — together with indirect calls and indirect jumps these
/// are the paper's *unavoidable* breaks in control.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BreakEvents {
    /// Unconditional jumps executed (avoidable: assumed removed by layout).
    pub jumps: u64,
    /// Jump-table (indirect multi-way) transfers executed — unavoidable.
    pub indirect_jumps: u64,
    /// Direct calls executed (avoidable via inlining).
    pub direct_calls: u64,
    /// Returns from directly-called functions (avoidable via inlining).
    pub direct_returns: u64,
    /// Indirect calls executed — unavoidable.
    pub indirect_calls: u64,
    /// Returns from indirectly-called functions — unavoidable.
    pub indirect_returns: u64,
    /// `select` instructions executed (reported as a sanity ratio; the paper
    /// saw 0.2–0.7% of all instructions).
    pub selects: u64,
}

impl BreakEvents {
    /// The paper's *unavoidable* breaks: indirect jumps, indirect calls, and
    /// their returns.
    pub fn unavoidable(&self) -> u64 {
        self.indirect_jumps + self.indirect_calls + self.indirect_returns
    }

    /// Direct call/return traffic (Figure 1's white-bar addition).
    pub fn call_return_traffic(&self) -> u64 {
        self.direct_calls + self.direct_returns
    }
}

/// MFPixie equivalent: per-basic-block execution counts.
///
/// Block counts are exact dynamic instruction frequencies: every instruction
/// in a block executes exactly as many times as the block does.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PixieCounts {
    /// `blocks[f][b]` = executions of block `b` of function `f`.
    pub blocks: Vec<Vec<u64>>,
}

impl PixieCounts {
    /// Creates counters shaped for `program`.
    pub fn for_program(program: &Program) -> Self {
        PixieCounts {
            blocks: program
                .functions
                .iter()
                .map(|f| vec![0; f.blocks.len()])
                .collect(),
        }
    }

    /// Executions of one block.
    pub fn block_count(&self, func: FuncId, block: usize) -> u64 {
        self.blocks[func.index()][block]
    }

    /// Recomputes the total dynamic instruction count from block counts —
    /// must equal the VM's running total (checked in tests).
    pub fn total_instrs(&self, program: &Program) -> u64 {
        let mut total = 0;
        for (f, func) in program.functions.iter().enumerate() {
            for (b, block) in func.blocks.iter().enumerate() {
                total += self.blocks[f][b] * block.instr_cost();
            }
        }
        total
    }
}

/// Everything measured during one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Total RISC-level instructions executed (each `Instr` and each
    /// terminator counts 1).
    pub total_instrs: u64,
    /// IFPROBBER branch counters.
    pub branches: BranchCounts,
    /// Break-in-control event tallies.
    pub events: BreakEvents,
    /// MFPixie block counters.
    pub pixie: PixieCounts,
}

impl RunStats {
    /// Fraction of executed instructions that were `select`s.
    pub fn select_ratio(&self) -> f64 {
        if self.total_instrs == 0 {
            0.0
        } else {
            self.events.selects as f64 / self.total_instrs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get() {
        let mut c = BranchCounts::new();
        c.record(BranchId(3), true);
        c.record(BranchId(3), false);
        c.record(BranchId(3), true);
        assert_eq!(c.get(BranchId(3)), (3, 2));
        assert_eq!(c.get(BranchId(0)), (0, 0));
        assert_eq!(c.branches_seen(), 1);
        assert_eq!(c.total_executed(), 3);
        assert_eq!(c.total_taken(), 2);
    }

    #[test]
    fn percent_taken() {
        let mut c = BranchCounts::new();
        assert_eq!(c.percent_taken(), None);
        c.add(BranchId(0), 4, 1);
        assert_eq!(c.percent_taken(), Some(0.25));
    }

    #[test]
    fn from_and_extend() {
        let c: BranchCounts = vec![(BranchId(0), 2, 1), (BranchId(1), 5, 5)]
            .into_iter()
            .collect();
        assert_eq!(c.get(BranchId(1)), (5, 5));
        let mut c2 = c.clone();
        c2.extend(vec![(BranchId(0), 1, 0)]);
        assert_eq!(c2.get(BranchId(0)), (3, 1));
    }

    #[test]
    fn iter_is_ordered() {
        let mut c = BranchCounts::new();
        c.add(BranchId(5), 1, 0);
        c.add(BranchId(1), 1, 1);
        let ids: Vec<_> = c.iter().map(|(id, _, _)| id).collect();
        assert_eq!(ids, vec![BranchId(1), BranchId(5)]);
    }

    #[test]
    fn break_event_sums() {
        let e = BreakEvents {
            jumps: 10,
            indirect_jumps: 1,
            direct_calls: 5,
            direct_returns: 5,
            indirect_calls: 2,
            indirect_returns: 2,
            selects: 3,
        };
        assert_eq!(e.unavoidable(), 5);
        assert_eq!(e.call_return_traffic(), 10);
    }

    #[test]
    fn select_ratio_handles_zero() {
        let s = RunStats::default();
        assert_eq!(s.select_ratio(), 0.0);
    }
}
