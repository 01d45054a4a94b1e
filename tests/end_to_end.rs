//! Integration tests spanning all crates: the full compile → run →
//! profile → predict pipeline on real workloads.

use fisher92::predict::experiment::{self, DatasetRun};
use fisher92::predict::{evaluate, evaluate_unpredicted, BreakConfig, Predictor};
use fisher92::profile::{combine, coverage, overlap, CombineRule, ProfileDb};
use fisher92::workloads::suite;

/// Collect runs for one (cheap) workload.
fn runs_for(name: &str) -> Vec<DatasetRun> {
    let all = suite();
    let w = all
        .iter()
        .find(|w| w.name == name)
        .expect("workload exists");
    let program = w.compile().expect("compiles");
    w.datasets
        .iter()
        .map(|d| {
            let run = w.run(&program, d).expect("runs");
            DatasetRun::new(d.name.clone(), run.stats)
        })
        .collect()
}

#[test]
fn cross_dataset_prediction_pipeline_on_spiff() {
    let runs = runs_for("spiff");
    assert_eq!(runs.len(), 3);
    let cfg = BreakConfig::fig2();

    for i in 0..runs.len() {
        let self_m = experiment::self_metrics(&runs[i].stats, cfg);
        // Self prediction is the bound for every other predictor.
        let loo = experiment::loo_metrics(&runs, i, CombineRule::Scaled, cfg);
        assert!(loo.instrs_per_break <= self_m.instrs_per_break + 1e-9);
        assert!(loo.mispredicted >= self_m.mispredicted);
        // Prediction beats no-prediction.
        let none = evaluate_unpredicted(&runs[i].stats, BreakConfig::fig1());
        assert!(
            self_m.instrs_per_break > 2.0 * none.instrs_per_break,
            "{}: prediction gained too little ({} vs {})",
            runs[i].dataset,
            self_m.instrs_per_break,
            none.instrs_per_break
        );
    }
}

#[test]
fn profile_db_accumulation_equals_unscaled_combination() {
    let runs = runs_for("mfcom");
    let mut db = ProfileDb::new();
    for r in &runs {
        db.record("all", &r.stats.branches);
    }
    let from_db = Predictor::from_counts(db.profile("all").unwrap(), Default::default());
    let profiles: Vec<_> = runs.iter().map(|r| &r.stats.branches).collect();
    let from_combine = Predictor::from_weighted(
        &combine(&profiles, CombineRule::Unscaled),
        Default::default(),
    );
    assert_eq!(from_db, from_combine);
}

#[test]
fn coverage_of_self_is_total() {
    let runs = runs_for("doduc");
    for r in &runs {
        let c = coverage(&r.stats.branches, &r.stats.branches);
        assert_eq!(c.dynamic, 1.0);
        assert_eq!(c.agreement, 1.0);
    }
    // doduc's datasets differ only in length: high mutual coverage.
    let c = coverage(&runs[0].stats.branches, &runs[2].stats.branches);
    assert!(c.dynamic > 0.95, "coverage {c:?}");
    assert!(overlap(&runs[0].stats.branches, &runs[2].stats.branches) > 0.9);
}

#[test]
fn optimized_build_profiles_match_on_surviving_branches() {
    let all = suite();
    let w = all.iter().find(|w| w.name == "eqntott").expect("eqntott");
    let base = w.compile().expect("compiles");
    let opt = w.compile_optimized().expect("optimizes");
    let d = w.dataset("add4").expect("dataset");
    let base_run = w.run(&base, d).expect("runs");
    let opt_run = w.run(&opt, d).expect("runs");
    assert_eq!(base_run.output, opt_run.output, "behaviour preserved");
    for id in opt.live_branches().keys() {
        assert_eq!(
            base_run.stats.branches.get(*id),
            opt_run.stats.branches.get(*id),
            "branch identity broken by optimization"
        );
    }
    // A profile collected on the unoptimized build predicts the optimized
    // build's run perfectly (same counts), and vice versa.
    let p = Predictor::from_counts(&base_run.stats.branches, Default::default());
    let m_opt = evaluate(&opt_run.stats, &p, BreakConfig::fig2());
    let m_self = evaluate(
        &opt_run.stats,
        &Predictor::from_counts(&opt_run.stats.branches, Default::default()),
        BreakConfig::fig2(),
    );
    assert_eq!(m_opt.mispredicted, m_self.mispredicted);
}

#[test]
fn unavoidable_breaks_floor_the_metric() {
    // li's eval loop makes indirect-free but call-heavy traffic; with
    // fig2_with_calls the ipb must drop (calls become breaks).
    let runs = runs_for("mfcom");
    for r in &runs {
        let without = experiment::self_metrics(&r.stats, BreakConfig::fig2());
        let with = experiment::self_metrics(&r.stats, BreakConfig::fig2_with_calls());
        assert!(with.instrs_per_break < without.instrs_per_break);
        assert!(with.breaks > without.breaks);
    }
}

#[test]
fn directive_feedback_reproduces_predictor() {
    use fisher92::profile::directives;
    let all = suite();
    let w = all.iter().find(|w| w.name == "spiff").expect("spiff");
    let program = w.compile().expect("compiles");
    let run = w.run(&program, &w.datasets[2]).expect("runs");
    let text = directives::write_directives(&program, &run.stats.branches);
    let fresh = w.compile().expect("recompiles");
    let parsed = directives::parse_directives(&fresh, &text).expect("parses");
    assert_eq!(
        Predictor::from_counts(&run.stats.branches, Default::default()),
        Predictor::from_counts(&parsed, Default::default()),
    );
}
