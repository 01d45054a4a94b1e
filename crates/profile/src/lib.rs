#![warn(missing_docs)]

//! # ifprob
//!
//! The IFPROBBER equivalent: everything between a profiled run and a usable
//! branch predictor.
//!
//! In the paper's toolchain, a compiler switch instrumented every conditional
//! branch with an `(encountered, taken)` counter pair; each run folded its
//! counters into a *database*; and a utility later fed the accumulated counts
//! back into the source as `C!MF! IFPROB(…)` directives the compiler
//! understood. This crate provides the same architecture:
//!
//! * per-run branch counts come from `trace-vm` (keyed by stable
//!   source-level [`trace_ir::BranchId`]s),
//! * [`ProfileDb`] accumulates them across runs, per dataset,
//! * [`combine`] merges datasets into one predictor profile under the
//!   paper's three rules ([`CombineRule::Scaled`], [`CombineRule::Unscaled`],
//!   [`CombineRule::Polling`] — §3 "Scaled vs. unscaled summary
//!   predictors"): a [`WeightedCounts`] with one slot per branch-site id,
//!   each summed in profile order,
//! * [`directives`] writes profiles out as source-level `IFPROB` directives
//!   and parses them back, completing the feedback loop,
//! * [`coverage`] and [`overlap`] measure whether two datasets exercise
//!   the same branches (the paper's informal observations).
//!
//! Carrying a prior database onto an edited build (version skew) is
//! `mfstale::remap_counts`, driven per workload by `mfbench::suite_skew`,
//! which reports a corrupt prior dataset as a [`CombineError`].
//!
//! ```
//! use ifprob::{combine, CombineRule, ProfileDb};
//! use trace_ir::BranchId;
//! use trace_vm::BranchCounts;
//!
//! let mut db = ProfileDb::new();
//! let mut a = BranchCounts::new();
//! a.add(BranchId(0), 100, 90);
//! db.record("dataset-a", &a);
//! let mut b = BranchCounts::new();
//! b.add(BranchId(0), 2, 0);
//! db.record("dataset-b", &b);
//!
//! let merged = combine(&[db.profile("dataset-a").unwrap(),
//!                        db.profile("dataset-b").unwrap()],
//!                      CombineRule::Scaled);
//! // Scaled: each dataset gets equal weight, so b's 0/2 pulls hard.
//! assert!(merged.fraction_taken(BranchId(0)).unwrap() < 0.5);
//! ```

mod combine;
pub mod directives;
mod stats;

pub use combine::{combine, CombineError, CombineRule, WeightedCounts};
pub use stats::{coverage, overlap, Coverage};

use std::collections::BTreeMap;

use trace_vm::BranchCounts;

/// A cumulative database of branch profiles, keyed by dataset name.
///
/// Recording the same dataset twice accumulates, mirroring how the paper's
/// IFPROBBER database grew across repeated runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileDb {
    profiles: BTreeMap<String, BranchCounts>,
}

impl ProfileDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        ProfileDb::default()
    }

    /// Folds one run's counters into the dataset's accumulated profile.
    pub fn record(&mut self, dataset: &str, counts: &BranchCounts) {
        let entry = self.profiles.entry(dataset.to_string()).or_default();
        entry.extend(counts.iter());
    }

    /// The accumulated profile for one dataset.
    pub fn profile(&self, dataset: &str) -> Option<&BranchCounts> {
        self.profiles.get(dataset)
    }

    /// Iterates `(dataset, profile)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &BranchCounts)> {
        self.profiles.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Dataset names, in order.
    pub fn datasets(&self) -> Vec<&str> {
        self.profiles.keys().map(String::as_str).collect()
    }

    /// Number of datasets recorded.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// All profiles except `excluded` — the leave-one-out predictor set used
    /// throughout the paper's Figure 2 ("the sum of all the other
    /// datasets").
    pub fn all_except(&self, excluded: &str) -> Vec<&BranchCounts> {
        self.profiles
            .iter()
            .filter(|(k, _)| *k != excluded)
            .map(|(_, v)| v)
            .collect()
    }
}

impl Extend<(String, BranchCounts)> for ProfileDb {
    fn extend<I: IntoIterator<Item = (String, BranchCounts)>>(&mut self, iter: I) {
        for (name, counts) in iter {
            self.record(&name, &counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::BranchId;

    fn counts(entries: &[(u32, u64, u64)]) -> BranchCounts {
        entries
            .iter()
            .map(|&(id, e, t)| (BranchId(id), e, t))
            .collect()
    }

    #[test]
    fn record_accumulates() {
        let mut db = ProfileDb::new();
        db.record("a", &counts(&[(0, 10, 5)]));
        db.record("a", &counts(&[(0, 10, 5), (1, 2, 2)]));
        let p = db.profile("a").unwrap();
        assert_eq!(p.get(BranchId(0)), (20, 10));
        assert_eq!(p.get(BranchId(1)), (2, 2));
    }

    #[test]
    fn all_except_filters() {
        let mut db = ProfileDb::new();
        db.record("a", &counts(&[(0, 1, 1)]));
        db.record("b", &counts(&[(0, 2, 0)]));
        db.record("c", &counts(&[(0, 4, 4)]));
        let rest = db.all_except("b");
        assert_eq!(rest.len(), 2);
        let total: u64 = rest.iter().map(|c| c.total_executed()).sum();
        assert_eq!(total, 5);
        assert_eq!(db.datasets(), vec!["a", "b", "c"]);
        assert_eq!(db.len(), 3);
        assert!(!db.is_empty());
    }

    #[test]
    fn extend_records_pairs() {
        let mut db = ProfileDb::new();
        db.extend(vec![("x".to_string(), counts(&[(3, 7, 7)]))]);
        assert_eq!(db.profile("x").unwrap().get(BranchId(3)), (7, 7));
    }
}
