//! Break-in-control accounting conventions.

/// Which control-transfer events count as breaks in control.
///
/// The paper's taxonomy (§2, "Other Breaks in Control"):
///
/// * **Unavoidable** breaks — indirect calls, their returns, and indirect
///   jumps — always count; no compiler trick moves ILP past them.
/// * **Conditional branches** count either all (no prediction, Figure 1) or
///   only when mispredicted (Figure 2 and Table 3).
/// * **Direct calls and returns** are avoidable via inlining; Figure 1 shows
///   both conventions (black vs white bars).
/// * **Unconditional jumps** are avoidable via code layout; the paper
///   assumes a good ILP compiler eliminates them and never counts them, so
///   no convention here does either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakConfig {
    /// When true, only mispredicted conditional branches break; when false,
    /// every conditional branch execution breaks.
    pub predict: bool,
    /// Count direct calls and their returns as breaks.
    pub direct_calls: bool,
}

impl BreakConfig {
    /// Figure 1, black bars: no prediction; all conditional branches plus
    /// unavoidable breaks.
    pub fn fig1() -> Self {
        BreakConfig {
            predict: false,
            direct_calls: false,
        }
    }

    /// Figure 1, white bars: additionally count direct subroutine calls and
    /// returns.
    pub fn fig1_with_calls() -> Self {
        BreakConfig {
            direct_calls: true,
            ..BreakConfig::fig1()
        }
    }

    /// Figures 2–3 and Table 3: branches predicted; mispredictions plus
    /// unavoidable breaks count.
    pub fn fig2() -> Self {
        BreakConfig {
            predict: true,
            direct_calls: false,
        }
    }

    /// [`BreakConfig::fig2`] but with direct call/return traffic included —
    /// the "inlining didn't happen" variant the paper discusses when noting
    /// the loss from not inlining is small.
    pub fn fig2_with_calls() -> Self {
        BreakConfig {
            direct_calls: true,
            ..BreakConfig::fig2()
        }
    }
}

impl Default for BreakConfig {
    fn default() -> Self {
        BreakConfig::fig2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(!BreakConfig::fig1().predict);
        assert!(!BreakConfig::fig1().direct_calls);
        assert!(BreakConfig::fig1_with_calls().direct_calls);
        assert!(BreakConfig::fig2().predict);
        assert!(BreakConfig::fig2_with_calls().direct_calls);
        assert_eq!(BreakConfig::default(), BreakConfig::fig2());
    }
}
