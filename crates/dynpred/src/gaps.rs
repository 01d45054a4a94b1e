//! Instruction run lengths between mispredicted branches.
//!
//! The paper: "for ILP purposes, the actual distribution of branches is
//! significant … far more ILP will be available if one has 80 instructions
//! followed by two mispredicted branches than if one has 40 instructions,
//! a mispredicted branch, 40 instructions, a mispredicted branch. Branches
//! in real programs are not evenly spaced." [`RunLengths`] measures that
//! distribution as the run executes.

use std::collections::BTreeMap;

use trace_ir::BranchId;
use trace_vm::Observer;

/// An [`Observer`] that keeps the exact histogram of instruction run
/// lengths between mispredicted branches under a fixed per-site
/// prediction: one bucket per distinct length, whatever the length of the
/// run. The run after the last misprediction never ends and is not counted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunLengths {
    predict_taken: Vec<bool>,
    last: u64,
    histogram: BTreeMap<u64, u64>,
}

impl RunLengths {
    /// Measures under `predict_taken[id]` for branch `id`; ids past the
    /// end predict not-taken.
    pub fn new(predict_taken: &[bool]) -> Self {
        RunLengths {
            predict_taken: predict_taken.to_vec(),
            ..RunLengths::default()
        }
    }

    /// What the observer measured: the instruction count at the last
    /// misprediction and the histogram as `length -> runs`. With the
    /// predictions, these are all [`RunLengths::resume`] needs to rebuild
    /// an equal observer.
    pub fn measured(&self) -> (u64, &BTreeMap<u64, u64>) {
        (self.last, &self.histogram)
    }

    /// The observer [`RunLengths::new`]`(predict_taken)` would be after
    /// measuring `last` and `histogram` ([`RunLengths::measured`]).
    pub fn resume(predict_taken: &[bool], last: u64, histogram: BTreeMap<u64, u64>) -> Self {
        RunLengths {
            predict_taken: predict_taken.to_vec(),
            last,
            histogram,
        }
    }

    /// Count, mean and percentiles of the runs so far.
    pub fn summary(&self) -> GapDistribution {
        let Some(&max) = self.histogram.keys().next_back() else {
            return GapDistribution::default();
        };
        let count: u64 = self.histogram.values().sum();
        let total: u64 = self.histogram.iter().map(|(len, n)| len * n).sum();
        // The p-th percentile is the run at rank (count - 1)·p/100 of the
        // sorted runs.
        let pct = |p: u64| {
            let (rank, mut seen) = ((count - 1) * p / 100, 0);
            let below = |&(_, &n): &(&u64, &u64)| {
                seen += n;
                seen > rank
            };
            *self.histogram.iter().find(below).expect("rank < count").0
        };
        GapDistribution {
            count: count as usize,
            mean: total as f64 / count as f64,
            p10: pct(10),
            p50: pct(50),
            p90: pct(90),
            max,
        }
    }
}

impl Observer for RunLengths {
    fn branch(&mut self, id: BranchId, taken: bool, instrs: u64) {
        let predicted = self.predict_taken.get(id.index()).copied().unwrap_or(false);
        if predicted != taken {
            *self.histogram.entry(instrs - self.last).or_insert(0) += 1;
            self.last = instrs;
        }
    }
}

/// Summary of a [`RunLengths`] histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GapDistribution {
    /// Number of runs (mispredict-terminated segments).
    pub count: usize,
    /// Mean run length in instructions.
    pub mean: f64,
    /// 10th percentile run length.
    pub p10: u64,
    /// Median run length.
    pub p50: u64,
    /// 90th percentile run length.
    pub p90: u64,
    /// Longest run observed.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One branch site's outcomes, `step` instructions apart.
    fn feed(obs: &mut RunLengths, pattern: &[bool], step: u64) {
        for (i, &taken) in pattern.iter().enumerate() {
            obs.branch(BranchId(0), taken, step * (i as u64 + 1));
        }
    }

    #[test]
    fn gap_distribution_basic() {
        // All branches taken, predicted not-taken: every branch is a
        // mispredict, so every run is exactly one step (10).
        let mut not_taken = RunLengths::new(&[false]);
        feed(&mut not_taken, &[true; 8], 10);
        let d = not_taken.summary();
        assert_eq!(d.count, 8);
        assert_eq!(d.mean, 10.0);
        assert_eq!((d.p10, d.p50, d.p90, d.max), (10, 10, 10, 10));

        // Perfect prediction: no run ends.
        let mut taken = RunLengths::new(&[true]);
        feed(&mut taken, &[true; 8], 10);
        assert_eq!(taken.summary().count, 0);
    }

    #[test]
    fn gap_distribution_uneven_runs() {
        // Mispredict every 4th branch: runs of 4 steps = 40 instructions.
        let pattern: Vec<bool> = (0..16).map(|i| i % 4 != 3).collect();
        let mut obs = RunLengths::new(&[true]);
        feed(&mut obs, &pattern, 10);
        let d = obs.summary();
        assert_eq!(d.count, 4);
        assert_eq!(d.p50, 40);
        assert_eq!(d.mean, 40.0);
    }

    #[test]
    fn empty_trace() {
        let obs = RunLengths::new(&[true, false]);
        assert_eq!(obs.summary(), GapDistribution::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The histogram's summary equals sorting every run length and
        /// indexing the sorted list.
        #[test]
        fn summary_matches_sorted_runs(
            dirs in prop::collection::vec((0u8..2).prop_map(|b| b == 1), 1..6),
            events in prop::collection::vec((0u32..8, (0u8..2).prop_map(|b| b == 1), 1u64..50), 0..300),
        ) {
            let mut obs = RunLengths::new(&dirs);
            let (mut instrs, mut current) = (0u64, 0u64);
            let mut runs = Vec::new();
            for &(id, taken, gap) in &events {
                instrs += gap;
                current += gap;
                obs.branch(BranchId(id), taken, instrs);
                if dirs.get(id as usize).copied().unwrap_or(false) != taken {
                    runs.push(current);
                    current = 0;
                }
            }
            runs.sort_unstable();
            let pct = |p: usize| runs[(runs.len() - 1) * p / 100];
            let want = (!runs.is_empty()).then(|| GapDistribution {
                count: runs.len(),
                mean: runs.iter().sum::<u64>() as f64 / runs.len() as f64,
                p10: pct(10),
                p50: pct(50),
                p90: pct(90),
                max: runs[runs.len() - 1],
            });
            prop_assert_eq!(obs.summary(), want.unwrap_or_default());
        }
    }
}
