//! Static branch predictors.

use ifprob::WeightedCounts;
use trace_ir::{BranchId, BranchKind, Program, Terminator};
use trace_vm::BranchCounts;

/// A predicted branch direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Predict the branch condition true.
    Taken,
    /// Predict the branch condition false (the default for branches no
    /// training run ever executed — fall-through is the cheap guess).
    #[default]
    NotTaken,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Taken => Direction::NotTaken,
            Direction::NotTaken => Direction::Taken,
        }
    }
}

/// A static branch predictor: one direction per conditional branch, fixed
/// before the program runs.
///
/// Predictions sit in one slot per branch-site id, so a lookup is an
/// index. The last slot always holds a prediction, which makes derived
/// equality independent of insertion order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Predictor {
    dirs: Vec<Option<Direction>>,
    default: Direction,
}

impl Predictor {
    /// Majority-direction predictor from raw counts (one previous run, an
    /// accumulated database entry, or the target itself for the
    /// self-prediction upper bound). Ties predict taken. Branches the counts
    /// never saw fall back to `default`.
    pub fn from_counts(counts: &BranchCounts, default: Direction) -> Self {
        Predictor::from_directions(
            counts.iter().filter(|(_, e, _)| *e > 0).map(|(id, e, t)| {
                let dir = if t * 2 >= e {
                    Direction::Taken
                } else {
                    Direction::NotTaken
                };
                (id, dir)
            }),
            default,
        )
    }

    /// Majority-direction predictor from combined (weighted) multi-dataset
    /// counts.
    pub fn from_weighted(counts: &WeightedCounts, default: Direction) -> Self {
        Predictor::from_directions(
            counts
                .iter()
                .filter(|&(_id, e, _t)| e > 0.0)
                .map(|(id, e, t)| {
                    let dir = if t / e >= 0.5 {
                        Direction::Taken
                    } else {
                        Direction::NotTaken
                    };
                    (id, dir)
                }),
            default,
        )
    }

    /// The paper's "simple opcode heuristics" baseline: loop back-edges
    /// predicted taken, everything else not-taken. Uses code layout
    /// (backward-taken branches are loop branches), the information a
    /// compiler has with no profile at all. The paper reports this gives up
    /// about a factor of two in instructions per break.
    pub fn heuristic(program: &Program) -> Self {
        let mut dirs = Vec::new();
        for func in &program.functions {
            for (bi, block) in func.iter_blocks() {
                if let Terminator::Branch { id, taken, .. } = block.term {
                    let dir = if taken.index() <= bi.index() {
                        Direction::Taken
                    } else {
                        Direction::NotTaken
                    };
                    dirs.push((id, dir));
                }
            }
        }
        Predictor::from_directions(dirs, Direction::NotTaken)
    }

    /// A source-level variant of the heuristic keyed on what construct each
    /// branch implements (`while`/`for` back-edge ⇒ taken). Equivalent to
    /// [`Predictor::heuristic`] on `mflang` output; exists so the
    /// equivalence is testable.
    pub fn heuristic_by_kind(program: &Program) -> Self {
        let dirs = program.branch_info.iter().enumerate().map(|(i, info)| {
            let dir = if info.kind == BranchKind::LoopBack {
                Direction::Taken
            } else {
                Direction::NotTaken
            };
            (BranchId::from_index(i), dir)
        });
        Predictor::from_directions(dirs, Direction::NotTaken)
    }

    /// "Backward taken, forward not taken" decided *structurally*: a
    /// branch whose taken edge is a dominance-certified back edge (the
    /// taken target dominates the branching block) is predicted taken,
    /// everything else not-taken.
    ///
    /// Unlike [`Predictor::heuristic`], which trusts block layout, this
    /// consults the loop forest, so it keeps identifying loop branches
    /// after transformations that disturb layout order (jump threading,
    /// unreachable-block renumbering, hand-built IR). In irreducible
    /// regions no natural-loop back edge exists and the branch falls back
    /// to not-taken — the conservative choice.
    pub fn static_heuristic(program: &Program) -> Self {
        let mut dirs = Vec::new();
        for func in &program.functions {
            let cfg = mfcheck::Cfg::new(func);
            let dom = mfcheck::DomTree::compute(&cfg);
            let loops = mfcheck::LoopForest::compute(&cfg, &dom);
            for (bi, block) in func.iter_blocks() {
                if let Terminator::Branch { id, taken, .. } = block.term {
                    let dir = if loops.is_back_edge(bi, taken) {
                        Direction::Taken
                    } else {
                        Direction::NotTaken
                    };
                    dirs.push((id, dir));
                }
            }
        }
        Predictor::from_directions(dirs, Direction::NotTaken)
    }

    /// Predicts every branch in one fixed direction.
    pub fn always(direction: Direction) -> Self {
        Predictor {
            dirs: Vec::new(),
            default: direction,
        }
    }

    /// Builds a predictor from explicit per-site directions (static
    /// analyses — interval proofs, the ML model — produce these rather
    /// than counts). Later duplicates win.
    pub fn from_directions(
        directions: impl IntoIterator<Item = (BranchId, Direction)>,
        default: Direction,
    ) -> Self {
        let mut dirs = Vec::new();
        for (id, dir) in directions {
            let i = id.index();
            if i >= dirs.len() {
                dirs.resize(i + 1, None);
            }
            dirs[i] = Some(dir);
        }
        Predictor { dirs, default }
    }

    /// The predicted direction for a branch.
    pub fn predict(&self, id: BranchId) -> Direction {
        self.dirs
            .get(id.index())
            .copied()
            .flatten()
            .unwrap_or(self.default)
    }

    /// Number of branches with explicit predictions.
    pub fn len(&self) -> usize {
        self.dirs.iter().filter(|d| d.is_some()).count()
    }

    /// True if no branch has an explicit prediction.
    pub fn is_empty(&self) -> bool {
        self.dirs.is_empty()
    }

    /// Iterates explicit `(id, direction)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, Direction)> + '_ {
        self.dirs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (BranchId::from_index(i), d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifprob::{combine, CombineRule};

    fn counts(entries: &[(u32, u64, u64)]) -> BranchCounts {
        entries
            .iter()
            .map(|&(id, e, t)| (BranchId(id), e, t))
            .collect()
    }

    #[test]
    fn majority_and_tie() {
        let p = Predictor::from_counts(
            &counts(&[(0, 10, 9), (1, 10, 1), (2, 4, 2)]),
            Direction::NotTaken,
        );
        assert_eq!(p.predict(BranchId(0)), Direction::Taken);
        assert_eq!(p.predict(BranchId(1)), Direction::NotTaken);
        assert_eq!(p.predict(BranchId(2)), Direction::Taken, "tie -> taken");
        assert_eq!(p.predict(BranchId(99)), Direction::NotTaken, "default");
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn default_applies_only_to_unseen() {
        let p = Predictor::from_counts(&counts(&[(0, 10, 1)]), Direction::Taken);
        assert_eq!(p.predict(BranchId(0)), Direction::NotTaken);
        assert_eq!(p.predict(BranchId(5)), Direction::Taken);
    }

    #[test]
    fn from_weighted_matches_from_counts_on_single_profile() {
        let c = counts(&[(0, 10, 9), (1, 10, 1)]);
        let w = combine(&[&c], CombineRule::Unscaled);
        let a = Predictor::from_counts(&c, Direction::NotTaken);
        let b = Predictor::from_weighted(&w, Direction::NotTaken);
        assert_eq!(a, b);
    }

    #[test]
    fn always_predictors() {
        let t = Predictor::always(Direction::Taken);
        assert!(t.is_empty());
        assert_eq!(t.predict(BranchId(7)), Direction::Taken);
        assert_eq!(Direction::Taken.flip(), Direction::NotTaken);
    }

    #[test]
    fn static_heuristic_agrees_with_source_kinds_on_compiled_code() {
        let program = mflang::compile(
            r#"
            fn main(n: int) {
                var s: int = 0;
                for (var i: int = 0; i < n; i = i + 1) {
                    if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
                }
                while (s > 50) { s = s - 7; }
                emit(s);
            }
            "#,
        )
        .unwrap();
        let btfn = Predictor::static_heuristic(&program);
        let by_kind = Predictor::heuristic_by_kind(&program);
        for (id, dir) in btfn.iter() {
            assert_eq!(
                dir,
                by_kind.predict(id),
                "BTFN and source-kind heuristics disagree on {id:?}"
            );
        }
    }

    #[test]
    fn static_heuristic_survives_layout_that_fools_the_layout_heuristic() {
        use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
        use trace_ir::BranchKind as Bk;

        // Layout is deliberately scrambled: the loop header (bb2) comes
        // *after* its latch (bb1) in block order, and a plain if-branch
        // targets an earlier-index block. The layout heuristic
        // misclassifies both; dominance does not.
        let mut f = FunctionBuilder::new("main", 1);
        let latch = f.new_block(); // bb1
        let header = f.new_block(); // bb2
        let exit = f.new_block(); // bb3
        let early_arm = f.new_block(); // bb4
        let fork = f.new_block(); // bb5
        let join = f.new_block(); // bb6
        f.jump(header);
        f.switch_to(header);
        f.jump(latch);
        f.switch_to(latch);
        // Loop branch: taken target (bb2) has a HIGHER index than this
        // block (bb1), so layout calls it forward/not-taken — but bb2
        // dominates bb1, making it a true back edge.
        f.branch(f.param(0), header, exit, 1, Bk::Synthetic);
        f.switch_to(exit);
        f.jump(fork);
        f.switch_to(fork);
        // If-branch: taken target (bb4) has a LOWER index than this block
        // (bb5), so layout calls it backward/taken — but bb4 does not
        // dominate bb5; it is an ordinary forward diamond arm.
        f.branch(f.param(0), early_arm, join, 2, Bk::Synthetic);
        f.switch_to(early_arm);
        f.jump(join);
        f.switch_to(join);
        f.ret(None);
        let mut pb = ProgramBuilder::new();
        pb.add_function(f.finish());
        let program = pb.finish("main").unwrap();

        let layout = Predictor::heuristic(&program);
        let btfn = Predictor::static_heuristic(&program);
        let loop_branch = BranchId(0);
        let if_branch = BranchId(1);

        assert_eq!(btfn.predict(loop_branch), Direction::Taken);
        assert_eq!(btfn.predict(if_branch), Direction::NotTaken);
        // And the layout heuristic gets both wrong here — the reason the
        // structural variant exists.
        assert_eq!(layout.predict(loop_branch), Direction::NotTaken);
        assert_eq!(layout.predict(if_branch), Direction::Taken);
    }

    #[test]
    fn heuristics_agree_on_compiled_code() {
        let program = mflang::compile(
            r#"
            fn main(n: int) {
                var s: int = 0;
                for (var i: int = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { s = s + 1; }
                    while (s > 100) { s = s - 10; }
                }
                emit(s);
            }
            "#,
        )
        .unwrap();
        let layout = Predictor::heuristic(&program);
        let by_kind = Predictor::heuristic_by_kind(&program);
        for (id, _) in layout.iter() {
            assert_eq!(
                layout.predict(id),
                by_kind.predict(id),
                "layout and source heuristics disagree on {id:?}"
            );
        }
        // The loop back-edges must be predicted taken.
        let back_edges: Vec<_> = layout
            .iter()
            .filter(|(_, d)| *d == Direction::Taken)
            .collect();
        assert_eq!(back_edges.len(), 2, "for + while back-edges");
    }
}
