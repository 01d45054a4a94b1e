//! The cross-dataset evaluation matrix (Figures 2 & 3, Table 3).
//!
//! The paper's methodology: run a program over several datasets, collect
//! branch counts per dataset, then for every *target* dataset measure
//! instructions per break when its branches are predicted by
//!
//! * itself (the best any static predictor can do — each branch goes its
//!   majority direction),
//! * the scaled sum of all the *other* datasets (the realistic feedback
//!   scenario, Figure 2's white bars),
//! * each other dataset alone, reporting the best and worst as a percentage
//!   of self-prediction (Figure 3).
//!
//! Because each run's per-branch counts fully determine any static
//! predictor's mispredictions on it, each program×dataset pair is executed
//! exactly once; the entire matrix is then computed analytically.

use ifprob::{combine, CombineRule};
use trace_vm::{BranchCounts, RunStats};

use crate::breaks::BreakConfig;
use crate::metrics::{evaluate, finish, Metrics};
use crate::predictor::{Direction, Predictor};

/// One profiled run of a program on one dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetRun {
    /// The dataset's name.
    pub dataset: String,
    /// Everything the VM measured.
    pub stats: RunStats,
}

impl DatasetRun {
    /// Creates a run record.
    pub fn new(dataset: impl Into<String>, stats: RunStats) -> Self {
        DatasetRun {
            dataset: dataset.into(),
            stats,
        }
    }

    /// Dynamic fraction of this run's branches that were taken (the
    /// "program constant" of the paper's informal observations).
    pub fn percent_taken(&self) -> Option<f64> {
        self.stats.branches.percent_taken()
    }
}

/// Self-prediction: the run predicts itself — the upper bound, since every
/// branch is predicted in what turns out to be its majority direction
/// (Figure 2's black bars).
///
/// Counted straight from the counters: each site mispredicts its minority
/// direction, `min(taken, executed − taken)`. That is what
/// [`Predictor::from_counts`] over the run itself gives (majority
/// direction, ties predicted taken), without building the predictor.
pub fn self_metrics(stats: &RunStats, config: BreakConfig) -> Metrics {
    let mispredicted = if config.predict {
        stats.branches.iter().map(|(_, e, t)| t.min(e - t)).sum()
    } else {
        stats.branches.total_executed()
    };
    finish(stats, config, mispredicted)
}

/// Cross-prediction: `predictor_profile` (another dataset, or an accumulated
/// database entry) predicts the target run.
///
/// Counted in one walk of both id-ordered counter sets: a site the profile
/// saw taken at least half the times it ran is predicted taken and
/// mispredicts the target's not-taken executions; any other site, one the
/// profile never ran included, is predicted not taken and mispredicts the
/// taken ones. That is what [`Predictor::from_counts`] over the profile
/// (default not taken) gives, without building the predictor.
pub fn cross_metrics(
    target: &DatasetRun,
    predictor_profile: &BranchCounts,
    config: BreakConfig,
) -> Metrics {
    let stats = &target.stats;
    let mispredicted = if config.predict {
        let mut profile = predictor_profile.iter().peekable();
        stats
            .branches
            .iter()
            .map(|(id, e, t)| {
                while profile.next_if(|&(other, _, _)| other < id).is_some() {}
                let taken = profile
                    .next_if(|&(other, _, _)| other == id)
                    .is_some_and(|(_, pe, pt)| pe > 0 && pt * 2 >= pe);
                if taken {
                    e - t
                } else {
                    t
                }
            })
            .sum()
    } else {
        stats.branches.total_executed()
    };
    finish(stats, config, mispredicted)
}

/// The leave-one-out predictor: all runs except `target_index`, combined
/// under `rule`.
pub fn loo_predictor(runs: &[DatasetRun], target_index: usize, rule: CombineRule) -> Predictor {
    let others: Vec<&BranchCounts> = runs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != target_index)
        .map(|(_, r)| &r.stats.branches)
        .collect();
    Predictor::from_weighted(&combine(&others, rule), Direction::NotTaken)
}

/// Figure 2's white bars: the target predicted by the scaled (or other
/// rule) sum of all other datasets.
pub fn loo_metrics(
    runs: &[DatasetRun],
    target_index: usize,
    rule: CombineRule,
    config: BreakConfig,
) -> Metrics {
    let p = loo_predictor(runs, target_index, rule);
    evaluate(&runs[target_index].stats, &p, config)
}

/// Figure 3's result for one target: the best and worst single other
/// dataset, each expressed as a fraction of the self-prediction
/// instructions-per-break (self = 1.0).
#[derive(Clone, Debug, PartialEq)]
pub struct BestWorst {
    /// `(dataset name, fraction of self-prediction)` for the best single
    /// predictor.
    pub best: (String, f64),
    /// Same for the worst single predictor.
    pub worst: (String, f64),
    /// The self-prediction instructions per break the fractions are
    /// relative to.
    pub self_ipb: f64,
}

/// Computes Figure 3's best/worst single-dataset prediction ratios for one
/// target. Returns `None` when fewer than two datasets exist.
pub fn best_worst(
    runs: &[DatasetRun],
    target_index: usize,
    config: BreakConfig,
) -> Option<BestWorst> {
    if runs.len() < 2 {
        return None;
    }
    let target = &runs[target_index];
    let self_ipb = self_metrics(&target.stats, config).instrs_per_break;
    let mut best: Option<(String, f64)> = None;
    let mut worst: Option<(String, f64)> = None;
    for (i, other) in runs.iter().enumerate() {
        if i == target_index {
            continue;
        }
        let ipb = cross_metrics(target, &other.stats.branches, config).instrs_per_break;
        let ratio = if self_ipb > 0.0 { ipb / self_ipb } else { 0.0 };
        let entry = (other.dataset.clone(), ratio);
        if best.as_ref().is_none_or(|(_, b)| ratio > *b) {
            best = Some(entry.clone());
        }
        if worst.as_ref().is_none_or(|(_, w)| ratio < *w) {
            worst = Some(entry);
        }
    }
    Some(BestWorst {
        best: best.expect("at least one other dataset"),
        worst: worst.expect("at least one other dataset"),
        self_ipb,
    })
}

/// The spread of percent-taken across a program's datasets:
/// `(min, max)` over runs that executed at least one branch. The paper found
/// max−min ≤ 9% for every program except spice2g6 (21%–76%).
pub fn percent_taken_spread(runs: &[DatasetRun]) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in runs {
        if let Some(p) = r.percent_taken() {
            lo = lo.min(p);
            hi = hi.max(p);
        }
    }
    (lo.is_finite() && hi.is_finite()).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::BranchId;
    use trace_vm::BranchCounts;

    fn run(name: &str, instrs: u64, branches: &[(u32, u64, u64)]) -> DatasetRun {
        DatasetRun::new(
            name,
            RunStats {
                total_instrs: instrs,
                branches: branches
                    .iter()
                    .map(|&(id, e, t)| (BranchId(id), e, t))
                    .collect::<BranchCounts>(),
                events: Default::default(),
                pixie: Default::default(),
            },
        )
    }

    #[test]
    fn self_prediction_is_upper_bound() {
        let runs = [
            run("a", 10_000, &[(0, 100, 90), (1, 50, 5)]),
            run("b", 10_000, &[(0, 100, 10), (1, 50, 45)]), // opposite directions
            run("c", 10_000, &[(0, 100, 95), (1, 50, 2)]),  // agrees with a
        ];
        let cfg = BreakConfig::fig2();
        for i in 0..runs.len() {
            let s = self_metrics(&runs[i].stats, cfg).instrs_per_break;
            for j in 0..runs.len() {
                let c = cross_metrics(&runs[i], &runs[j].stats.branches, cfg).instrs_per_break;
                assert!(
                    c <= s + 1e-9,
                    "cross prediction beat self prediction: {c} > {s}"
                );
            }
        }
    }

    #[test]
    fn best_worst_identifies_datasets() {
        let runs = vec![
            run("target", 10_000, &[(0, 100, 90)]),
            run("agrees", 10_000, &[(0, 10, 9)]),
            run("flipped", 10_000, &[(0, 10, 0)]),
        ];
        let bw = best_worst(&runs, 0, BreakConfig::fig2()).unwrap();
        assert_eq!(bw.best.0, "agrees");
        assert_eq!(bw.worst.0, "flipped");
        assert!(bw.best.1 > bw.worst.1);
        assert!((bw.best.1 - 1.0).abs() < 1e-12, "perfect agreement = 100%");
    }

    #[test]
    fn best_worst_requires_two_datasets() {
        let runs = vec![run("only", 100, &[(0, 10, 5)])];
        assert!(best_worst(&runs, 0, BreakConfig::fig2()).is_none());
    }

    #[test]
    fn loo_scaled_outvotes_large_biased_dataset() {
        // Two small datasets agree (not taken), one huge one disagrees.
        let runs = vec![
            run("target", 1000, &[(0, 100, 0)]),
            run("small1", 1000, &[(0, 10, 0)]),
            run("small2", 1000, &[(0, 10, 0)]),
            run("huge", 1000, &[(0, 1_000_000, 1_000_000)]),
        ];
        let scaled = loo_predictor(&runs, 0, CombineRule::Scaled);
        assert_eq!(scaled.predict(BranchId(0)), Direction::NotTaken);
        let unscaled = loo_predictor(&runs, 0, CombineRule::Unscaled);
        assert_eq!(unscaled.predict(BranchId(0)), Direction::Taken);
    }

    #[test]
    fn percent_taken_spread_works() {
        let runs = vec![
            run("a", 100, &[(0, 100, 21)]),
            run("b", 100, &[(0, 100, 76)]),
        ];
        let (lo, hi) = percent_taken_spread(&runs).unwrap();
        assert!((lo - 0.21).abs() < 1e-12);
        assert!((hi - 0.76).abs() < 1e-12);
        assert!(percent_taken_spread(&[]).is_none());
    }

    #[test]
    fn loo_metrics_runs() {
        let runs = vec![
            run("a", 10_000, &[(0, 100, 90)]),
            run("b", 10_000, &[(0, 100, 85)]),
            run("c", 10_000, &[(0, 100, 80)]),
        ];
        let m = loo_metrics(&runs, 0, CombineRule::Scaled, BreakConfig::fig2());
        // Others agree with target's majority: only the 10 minority
        // executions mispredict.
        assert_eq!(m.mispredicted, 10);
    }
}
