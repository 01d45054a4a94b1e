//! Combining several datasets' profiles into one summary predictor.

use std::fmt;

use mfcheck::ProfileIssue;
use trace_ir::BranchId;
use trace_vm::BranchCounts;

/// The paper's three rules for summing datasets into one predictor
/// (§3, "Scaled vs. unscaled summary predictors").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CombineRule {
    /// Divide each dataset's counts by its total branch executions, giving
    /// every dataset equal total weight. The rule the paper chose for its
    /// reported results.
    #[default]
    Scaled,
    /// Add raw counts. The paper found this indistinguishable from scaled on
    /// average.
    Unscaled,
    /// One vote per dataset per branch, regardless of execution counts. The
    /// paper found it clearly worse and discarded it.
    Polling,
}

/// Fractional per-branch counts produced by combining datasets.
///
/// The counts sit in one slot per branch-site id, so a lookup is an
/// index. The last slot always holds counts, which makes derived equality
/// independent of how the slots were filled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WeightedCounts {
    counts: Vec<Option<(f64, f64)>>,
}

impl WeightedCounts {
    /// `(weight_executed, weight_taken)` for a branch; `(0, 0)` if unseen.
    pub fn get(&self, id: BranchId) -> (f64, f64) {
        self.counts
            .get(id.index())
            .copied()
            .flatten()
            .unwrap_or((0.0, 0.0))
    }

    /// The fraction of weighted executions that were taken, or `None` if the
    /// branch was never seen by any contributing dataset.
    pub fn fraction_taken(&self, id: BranchId) -> Option<f64> {
        let (e, t) = self.get(id);
        (e > 0.0).then_some(t / e)
    }

    /// The majority direction, or `None` if unseen. Exact ties predict
    /// taken, matching the `taken ≥ executed/2` rule used for raw counts.
    pub fn majority(&self, id: BranchId) -> Option<bool> {
        self.fraction_taken(id).map(|f| f >= 0.5)
    }

    /// Iterates `(id, weighted_executed, weighted_taken)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, f64, f64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|(e, t)| (BranchId::from_index(i), e, t)))
    }

    /// Number of branches with any weight.
    pub fn len(&self) -> usize {
        self.counts.iter().filter(|c| c.is_some()).count()
    }

    /// True when no branch has weight.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The slot of `id`, created as `(0, 0)` when the branch is first seen.
    fn slot(&mut self, id: BranchId) -> &mut (f64, f64) {
        let i = id.index();
        if i >= self.counts.len() {
            self.counts.resize(i + 1, None);
        }
        self.counts[i].get_or_insert((0.0, 0.0))
    }
}

impl From<&BranchCounts> for WeightedCounts {
    fn from(c: &BranchCounts) -> Self {
        let mut out = WeightedCounts::default();
        for (id, e, t) in c.iter() {
            *out.slot(id) = (e as f64, t as f64);
        }
        out
    }
}

/// Combines dataset profiles under `rule`. An empty input produces an empty
/// result (every branch unseen). Each branch's weights are summed in
/// profile order.
pub fn combine(profiles: &[&BranchCounts], rule: CombineRule) -> WeightedCounts {
    let mut out = WeightedCounts::default();
    for p in profiles {
        match rule {
            CombineRule::Unscaled => {
                for (id, e, t) in p.iter() {
                    let slot = out.slot(id);
                    slot.0 += e as f64;
                    slot.1 += t as f64;
                }
            }
            CombineRule::Scaled => {
                let total = p.total_executed();
                if total == 0 {
                    continue;
                }
                let w = 1.0 / total as f64;
                #[cfg(feature = "seeded-defects")]
                let tw = if mfdefect::active("profile-combine-taken-inflate") {
                    w * 1.5
                } else {
                    w
                };
                #[cfg(not(feature = "seeded-defects"))]
                let tw = w;
                for (id, e, t) in p.iter() {
                    let slot = out.slot(id);
                    slot.0 += e as f64 * w;
                    slot.1 += t as f64 * tw;
                }
            }
            CombineRule::Polling => {
                for (id, e, t) in p.iter() {
                    if e == 0 {
                        continue;
                    }
                    let slot = out.slot(id);
                    slot.0 += 1.0;
                    if t * 2 >= e {
                        slot.1 += 1.0;
                    }
                }
            }
        }
    }
    out
}

/// Why a prior profile could not be carried onto a build: one of its
/// datasets is internally inconsistent (for example a taken count above
/// its execution count, possible in data read from disk rather than
/// recorded by the VM).
#[derive(Clone, Debug, PartialEq)]
pub enum CombineError {
    /// A dataset's counters are internally inconsistent.
    Corrupt {
        /// Zero-based index of the offending dataset.
        dataset: usize,
        /// What the consistency checker found.
        issues: Vec<ProfileIssue>,
    },
}

impl fmt::Display for CombineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CombineError::Corrupt { dataset, issues } = self;
        write!(f, "dataset {dataset} is corrupt:")?;
        for issue in issues {
            write!(f, "\n  {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CombineError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(u32, u64, u64)]) -> BranchCounts {
        entries
            .iter()
            .map(|&(id, e, t)| (BranchId(id), e, t))
            .collect()
    }

    #[test]
    fn unscaled_sums_raw() {
        let a = counts(&[(0, 100, 90)]);
        let b = counts(&[(0, 10, 0)]);
        let w = combine(&[&a, &b], CombineRule::Unscaled);
        assert_eq!(w.get(BranchId(0)), (110.0, 90.0));
        // Raw sum: the big dataset dominates, majority taken.
        assert_eq!(w.majority(BranchId(0)), Some(true));
    }

    #[test]
    fn scaled_gives_equal_weight() {
        let a = counts(&[(0, 100, 90)]); // 90% taken
        let b = counts(&[(0, 10, 0)]); // 0% taken
        let w = combine(&[&a, &b], CombineRule::Scaled);
        // (0.9 + 0.0) / 2 = 45% taken — b's opinion counts equally.
        let f = w.fraction_taken(BranchId(0)).unwrap();
        assert!((f - 0.45).abs() < 1e-12);
        assert_eq!(w.majority(BranchId(0)), Some(false));
    }

    #[test]
    fn polling_one_vote_each() {
        let a = counts(&[(0, 1000, 999)]);
        let b = counts(&[(0, 2, 0)]);
        let c = counts(&[(0, 2, 0)]);
        let w = combine(&[&a, &b, &c], CombineRule::Polling);
        assert_eq!(w.get(BranchId(0)), (3.0, 1.0));
        assert_eq!(w.majority(BranchId(0)), Some(false));
    }

    #[test]
    fn unseen_branches_are_none() {
        let a = counts(&[(0, 4, 4)]);
        let w = combine(&[&a], CombineRule::Scaled);
        assert_eq!(w.majority(BranchId(1)), None);
        assert_eq!(w.fraction_taken(BranchId(1)), None);
        assert_eq!(w.get(BranchId(1)), (0.0, 0.0));
    }

    #[test]
    fn empty_and_zero_profiles() {
        let w = combine(&[], CombineRule::Scaled);
        assert!(w.is_empty());
        let empty = BranchCounts::new();
        let w = combine(&[&empty], CombineRule::Scaled);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn tie_predicts_taken() {
        let a = counts(&[(0, 4, 2)]);
        let w = combine(&[&a], CombineRule::Unscaled);
        assert_eq!(w.majority(BranchId(0)), Some(true));
    }

    #[test]
    fn from_branch_counts() {
        let a = counts(&[(2, 8, 3)]);
        let w = WeightedCounts::from(&a);
        assert_eq!(w.get(BranchId(2)), (8.0, 3.0));
    }
}
