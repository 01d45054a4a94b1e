//! `mfpredict` — static branch prediction without profiles.
//!
//! Two cooperating engines over `trace-ir`, both built on `mfcheck`'s
//! CFG/dominator/loop-forest framework:
//!
//! 1. **Interval abstract interpretation** ([`analyze`]): a forward
//!    value-range dataflow with branch-condition refinement on CFG edges
//!    and widening at loop headers. It emits per-branch *proofs*
//!    ([`Proof::AlwaysTaken`] / [`Proof::NeverTaken`] / unknown) plus
//!    provable division-by-zero and dead-block facts that `mflint`
//!    surfaces as diagnostics. Proofs are held against dynamic branch
//!    counters by the fuzzer's `predict-soundness` oracle.
//!
//! 2. **A static ML predictor** ([`features`] + [`model`]): fixed-width
//!    per-branch feature vectors (loop depth, BTFN direction, comparison
//!    shape, dominator depth, block mix, interval verdict) scored by a
//!    small linear model with a softsign link. The model is trained
//!    offline by the `mftrain` binary on profiles from half the workload
//!    suite ([`TRAIN_WORKLOADS`]), committed in-tree as a byte-stable
//!    artifact, and only ever *evaluated* on the disjoint held-out half
//!    ([`EVAL_WORKLOADS`]).
//!
//! The [`pseudo_profile`] bridge turns either engine's predictions into
//! synthetic branch counters, so whatever consumes a real profile (the
//! `bpredict` majority predictor, a combined profile's degraded sites via
//! [`static_tier_profile`]) can run on free static predictions unchanged.

pub mod analyze;
pub mod features;
pub mod interval;
pub mod model;

pub use analyze::{analyze, Contradiction, ProgramProofs, Proof};
pub use features::{extract, BranchFeatures, FEATURE_NAMES, FEATURE_VERSION, NUM_FEATURES};
pub use interval::Interval;
pub use model::{train, Model, ModelError, Sample, TrainConfig, COMMITTED_MODEL_PATH};

use std::collections::{BTreeMap, BTreeSet};

use trace_ir::{BranchId, FuncId, Function, Program, Terminator};

/// The training half of the workload suite (even suite indices). The
/// committed model has seen profiles from these programs only.
pub const TRAIN_WORKLOADS: [&str; 8] = [
    "spice2g6",
    "nasa7",
    "fpppp",
    "lfk",
    "espresso",
    "eqntott",
    "uncompress",
    "spiff",
];

/// The held-out half (odd suite indices). All reported ML mispredict
/// numbers come from these programs; none of their profiles ever enter
/// training.
pub const EVAL_WORKLOADS: [&str; 7] = [
    "doduc",
    "matrix300",
    "tomcatv",
    "gcc",
    "li",
    "compress",
    "mfcom",
];

/// True when `name` is in the training half.
pub fn is_train_workload(name: &str) -> bool {
    TRAIN_WORKLOADS.contains(&name)
}

/// Turns `(site, taken)` direction predictions into synthetic branch
/// counters — `(site, executed=2, taken∈{0,2})` — the shape
/// `bpredict::Predictor::from_counts` (majority vote) interprets as a
/// pure direction with no magnitude information.
pub fn pseudo_profile(
    directions: impl IntoIterator<Item = (BranchId, bool)>,
) -> Vec<(BranchId, u64, u64)> {
    directions
        .into_iter()
        .map(|(id, taken)| (id, 2, if taken { 2 } else { 0 }))
        .collect()
}

/// Which engine produced a [`static_tier`] prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaticTierSource {
    /// The interval interpreter proved the direction.
    Proof,
    /// The committed ML model scored the site.
    Model,
    /// Backward-taken/forward-not-taken — the floor of the tier.
    Btfn,
}

/// Per-site static predictions for `sites` — the fallback tier for branch
/// sites whose accumulated profile was *degraded* by a version-skew remap
/// (see `mfstale`). Precedence per site: an interval **proof** wins
/// outright; otherwise the committed **ML model** scores the site; a site
/// the model has no opinion on (zero score — in particular under the
/// all-zero fallback model) drops to **BTFN**. Sites that are not live
/// branches of `program` are skipped; duplicates collapse. Results are
/// sorted by site id.
///
/// The cost follows the functions that hold the wanted sites: only they
/// are analyzed and have features extracted, and a call with no live site
/// analyzes nothing. They are found from the terminators, not from
/// `branch_info`, because an inlined program repeats a callee's ids in
/// every caller; as in a whole-program [`analyze`] + [`extract`], a
/// repeated site takes its proof and features from its last occurrence.
pub fn static_tier(
    program: &Program,
    sites: &[BranchId],
) -> Vec<(BranchId, bool, StaticTierSource)> {
    let wanted: BTreeSet<BranchId> = sites.iter().copied().collect();
    let funcs: Vec<(FuncId, &Function)> = program
        .functions
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.blocks
                .iter()
                .any(|b| matches!(b.term, Terminator::Branch { id, .. } if wanted.contains(&id)))
        })
        .map(|(i, f)| (FuncId::from_index(i), f))
        .collect();
    if funcs.is_empty() {
        return Vec::new();
    }
    let mut proofs = ProgramProofs::default();
    for &(fid, func) in &funcs {
        analyze::analyze_function(func, fid, &mut proofs);
    }
    let mut feats = Vec::new();
    for &(_, func) in &funcs {
        features::extract_function(program, func, &proofs, &mut feats);
    }
    // Later entries win, so a repeated site keeps its last occurrence.
    let by_id: BTreeMap<BranchId, &BranchFeatures> = feats.iter().map(|f| (f.id, f)).collect();
    let model = model::Model::committed();
    let mut out = Vec::new();
    for id in wanted {
        let Some(f) = by_id.get(&id) else { continue };
        let (taken, source) = match proofs.proof(id) {
            Proof::AlwaysTaken => (true, StaticTierSource::Proof),
            Proof::NeverTaken => (false, StaticTierSource::Proof),
            Proof::Unknown => {
                let score = model.score(&f.values);
                if score != 0.0 {
                    (score > 0.0, StaticTierSource::Model)
                } else {
                    // Feature 4 is "taken_backward_in_layout": exactly the
                    // BTFN test.
                    (f.values[4] == 1.0, StaticTierSource::Btfn)
                }
            }
        };
        out.push((id, taken, source));
    }
    out
}

/// [`static_tier`] as synthetic counters (via [`pseudo_profile`]), ready
/// to splice into a combined profile for the degraded sites.
pub fn static_tier_profile(program: &Program, sites: &[BranchId]) -> Vec<(BranchId, u64, u64)> {
    pseudo_profile(
        static_tier(program, sites)
            .into_iter()
            .map(|(id, taken, _)| (id, taken)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Program {
        mflang::compile(src).expect("test source compiles")
    }

    fn proofs_of(src: &str) -> ProgramProofs {
        analyze(&compile(src))
    }

    fn count(proofs: &ProgramProofs, p: Proof) -> usize {
        proofs.proofs.values().filter(|&&q| q == p).count()
    }

    #[test]
    fn constant_condition_is_proved() {
        let p = proofs_of(
            "fn main(n: int) -> int {\n\
             if (1 < 2) { return 10; }\n\
             return 20;\n\
             }",
        );
        assert_eq!(count(&p, Proof::AlwaysTaken), 1);
    }

    #[test]
    fn guarded_division_is_not_flagged() {
        let p = proofs_of(
            "fn main(n: int) -> int {\n\
             var d: int = 0;\n\
             if (n > 3) { d = n; }\n\
             if (d != 0) { return 100 / d; }\n\
             return 0;\n\
             }",
        );
        assert!(p.div_by_zero.is_empty());
    }

    #[test]
    fn provable_div_by_zero_is_flagged() {
        let p = proofs_of(
            "fn main(n: int) -> int {\n\
             var d: int = 0;\n\
             return n / d;\n\
             }",
        );
        assert_eq!(p.div_by_zero.len(), 1);
    }

    #[test]
    fn bounded_loop_interior_test_is_proved() {
        // i stays in [0, 9] inside the loop, so `i < 100` is always true.
        let p = proofs_of(
            "fn main(n: int) -> int {\n\
             var i: int = 0;\n\
             var acc: int = 0;\n\
             while (i < 10) {\n\
             if (i < 100) { acc = acc + 1; }\n\
             i = i + 1;\n\
             }\n\
             return acc;\n\
             }",
        );
        assert!(count(&p, Proof::AlwaysTaken) >= 1, "proofs: {:?}", p.proofs);
    }

    #[test]
    fn widening_keeps_unbounded_counter_unknown() {
        // The loop bound depends on input: nothing provable about i < n.
        let p = proofs_of(
            "fn main(n: int) -> int {\n\
             var i: int = 0;\n\
             while (i < n) { i = i + 1; }\n\
             return i;\n\
             }",
        );
        assert_eq!(count(&p, Proof::AlwaysTaken), 0);
        assert_eq!(count(&p, Proof::NeverTaken), 0);
    }

    #[test]
    fn dead_block_behind_contradictory_guards() {
        let p = proofs_of(
            "fn main(n: int) -> int {\n\
             if (n < 0) {\n\
             if (n > 0) { return 1; }\n\
             }\n\
             return 0;\n\
             }",
        );
        // The inner `n > 0` test is proved never-taken via edge
        // refinement (n < 0 on the outer taken edge).
        assert!(count(&p, Proof::NeverTaken) >= 1, "proofs: {:?}", p.proofs);
    }

    #[test]
    fn proofs_agree_with_execution_on_a_small_program() {
        // Structural check only: every proof map entry is a real site.
        let program = compile(
            "fn main(n: int) -> int {\n\
             var i: int = 0;\n\
             var acc: int = 0;\n\
             while (i < 10) {\n\
             if (i < 100) { acc = acc + n; }\n\
             if (i > 50) { acc = 0; }\n\
             i = i + 1;\n\
             }\n\
             return acc;\n\
             }",
        );
        let proofs = analyze(&program);
        let live = program.live_branches();
        for id in proofs.proofs.keys() {
            assert!(live.contains_key(id), "{id} proved but not a live site");
        }
    }

    #[test]
    fn features_align_with_names_and_are_deterministic() {
        let program = compile(
            "fn main(n: int) -> int {\n\
             var i: int = 0;\n\
             while (i < n) { i = i + 2; }\n\
             if (i == 4) { return 1; }\n\
             return 0;\n\
             }",
        );
        let proofs = analyze(&program);
        let a = extract(&program, &proofs);
        let b = extract(&program, &proofs);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert_eq!(FEATURE_NAMES.len(), NUM_FEATURES);
        for f in &a {
            assert!(f.values.iter().all(|v| v.is_finite()));
            assert_eq!(f.values[0], 1.0, "bias term");
        }
        // Sorted by site id.
        assert!(a.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn split_is_disjoint() {
        for t in TRAIN_WORKLOADS {
            assert!(!EVAL_WORKLOADS.contains(&t), "{t} in both halves");
        }
        assert_eq!(TRAIN_WORKLOADS.len() + EVAL_WORKLOADS.len(), 15);
    }

    #[test]
    fn static_tier_precedence_and_coverage() {
        let program = compile(
            "fn main(n: int) -> int {\n\
             var i: int = 0;\n\
             var acc: int = 0;\n\
             while (i < 10) {\n\
             if (i < 100) { acc = acc + n; }\n\
             i = i + 1;\n\
             }\n\
             return acc;\n\
             }",
        );
        let live: Vec<BranchId> = program.live_branches().keys().copied().collect();
        assert!(live.len() >= 2);
        let preds = static_tier(&program, &live);
        assert_eq!(preds.len(), live.len(), "every live site predicted");
        assert!(preds.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        // The provable interior guard must come from the proof tier and
        // predict taken; no site uses BTFN while the committed model has
        // real weights.
        assert!(preds
            .iter()
            .any(|&(_, taken, src)| src == StaticTierSource::Proof && taken));
        // Dead ids are skipped, duplicates collapse.
        let mut with_junk = live.clone();
        with_junk.push(BranchId(9999));
        with_junk.push(live[0]);
        assert_eq!(static_tier(&program, &with_junk), preds);
        // The profile bridge yields pure-direction counters for the same
        // sites.
        let profile = static_tier_profile(&program, &live);
        assert_eq!(profile.len(), preds.len());
        for ((id, taken, _), &(pid, e, t)) in preds.iter().zip(&profile) {
            assert_eq!(id, &pid);
            assert_eq!(e, 2);
            assert_eq!(t, if *taken { 2 } else { 0 });
        }
    }

    #[test]
    fn pseudo_profile_shape() {
        let id = BranchId::from_index(3);
        let id2 = BranchId::from_index(5);
        let pp = pseudo_profile([(id, true), (id2, false)]);
        assert_eq!(pp, vec![(id, 2, 2), (id2, 2, 0)]);
    }
}
