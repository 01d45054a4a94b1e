//! The instructions-per-break metrics.

use trace_vm::RunStats;

use crate::breaks::BreakConfig;
use crate::predictor::{Direction, Predictor};

/// The measured outcome of applying one break-accounting convention (and
/// possibly a predictor) to one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Total RISC-level instructions the run executed.
    pub instrs: u64,
    /// Breaks in control under the chosen convention.
    pub breaks: u64,
    /// Dynamic conditional-branch executions.
    pub branch_execs: u64,
    /// Mispredicted conditional-branch executions (equals `branch_execs`
    /// when the convention counts every branch as a break).
    pub mispredicted: u64,
    /// Unavoidable breaks (indirect jumps/calls and their returns).
    pub unavoidable: u64,
    /// The paper's headline measure: instructions per break in control.
    pub instrs_per_break: f64,
}

impl Metrics {
    /// Fraction of dynamic branch executions predicted correctly — the
    /// traditional measure the paper argues is *wrong* for ILP purposes, but
    /// reports for comparability (fpppp 83% vs li 85%).
    pub fn correct_fraction(&self) -> f64 {
        if self.branch_execs == 0 {
            1.0
        } else {
            1.0 - self.mispredicted as f64 / self.branch_execs as f64
        }
    }
}

/// The metrics of a run with `mispredicted` mispredicted branch executions.
pub(crate) fn finish(stats: &RunStats, config: BreakConfig, mispredicted: u64) -> Metrics {
    let events = &stats.events;
    let mut breaks = mispredicted + events.unavoidable();
    if config.direct_calls {
        breaks += events.call_return_traffic();
    }
    let instrs = stats.total_instrs;
    Metrics {
        instrs,
        breaks,
        branch_execs: stats.branches.total_executed(),
        mispredicted,
        unavoidable: events.unavoidable(),
        instrs_per_break: if breaks == 0 {
            instrs as f64
        } else {
            instrs as f64 / breaks as f64
        },
    }
}

/// Evaluates a run with conditional branches predicted by `predictor`.
///
/// Misprediction counting is analytic: a static predictor fixes one
/// direction per branch, so the mispredictions on a recorded run are
/// `taken` or `executed − taken` per branch — no re-execution is needed.
/// When `config.predict` is false the predictor is ignored and every branch
/// execution breaks.
pub fn evaluate(stats: &RunStats, predictor: &Predictor, config: BreakConfig) -> Metrics {
    let mispredicted = if config.predict {
        stats
            .branches
            .iter()
            .map(|(id, e, t)| match predictor.predict(id) {
                Direction::Taken => e - t,
                Direction::NotTaken => t,
            })
            .sum()
    } else {
        stats.branches.total_executed()
    };
    finish(stats, config, mispredicted)
}

/// Evaluates a run with no prediction at all (Figure 1): every conditional
/// branch execution is a break.
pub fn evaluate_unpredicted(stats: &RunStats, config: BreakConfig) -> Metrics {
    finish(
        stats,
        BreakConfig {
            predict: false,
            ..config
        },
        stats.branches.total_executed(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::BranchId;
    use trace_vm::{BranchCounts, BreakEvents};

    fn stats(instrs: u64, branches: &[(u32, u64, u64)], events: BreakEvents) -> RunStats {
        RunStats {
            total_instrs: instrs,
            branches: branches
                .iter()
                .map(|&(id, e, t)| (BranchId(id), e, t))
                .collect::<BranchCounts>(),
            events,
            pixie: Default::default(),
        }
    }

    #[test]
    fn unpredicted_counts_every_branch() {
        let s = stats(1000, &[(0, 40, 10)], BreakEvents::default());
        let m = evaluate_unpredicted(&s, BreakConfig::fig1());
        assert_eq!(m.breaks, 40);
        assert_eq!(m.instrs_per_break, 25.0);
    }

    #[test]
    fn perfect_prediction_counts_minority_side() {
        let s = stats(1000, &[(0, 40, 10)], BreakEvents::default());
        let self_pred = Predictor::from_counts(&s.branches, Direction::NotTaken);
        let m = evaluate(&s, &self_pred, BreakConfig::fig2());
        // Majority is not-taken (10/40): mispredicts = 10.
        assert_eq!(m.mispredicted, 10);
        assert_eq!(m.instrs_per_break, 100.0);
        assert_eq!(m.correct_fraction(), 0.75);
    }

    #[test]
    fn wrong_direction_predictor() {
        let s = stats(1000, &[(0, 40, 10)], BreakEvents::default());
        let wrong = Predictor::always(Direction::Taken);
        let m = evaluate(&s, &wrong, BreakConfig::fig2());
        assert_eq!(m.mispredicted, 30);
    }

    #[test]
    fn unavoidable_breaks_always_count() {
        let events = BreakEvents {
            indirect_jumps: 3,
            indirect_calls: 2,
            indirect_returns: 2,
            direct_calls: 10,
            direct_returns: 10,
            jumps: 100,
            selects: 0,
        };
        let s = stats(1000, &[], events);
        let m = evaluate(&s, &Predictor::default(), BreakConfig::fig2());
        assert_eq!(m.breaks, 7);
        assert_eq!(m.unavoidable, 7);
        let m = evaluate(&s, &Predictor::default(), BreakConfig::fig2_with_calls());
        assert_eq!(m.breaks, 27);
    }

    #[test]
    fn zero_breaks_yields_instrs() {
        let s = stats(500, &[], BreakEvents::default());
        let m = evaluate(&s, &Predictor::default(), BreakConfig::fig2());
        assert_eq!(m.breaks, 0);
        assert_eq!(m.instrs_per_break, 500.0);
        assert_eq!(m.correct_fraction(), 1.0);
    }

    #[test]
    fn predict_false_ignores_predictor() {
        let s = stats(1000, &[(0, 40, 40)], BreakEvents::default());
        let perfect = Predictor::from_counts(&s.branches, Direction::NotTaken);
        let m = evaluate(&s, &perfect, BreakConfig::fig1());
        assert_eq!(m.mispredicted, 40, "fig1 counts all branches");
    }
}
