//! Tests for the two extensions beyond the paper's own measurements:
//! dynamic-scheme simulation over observed branch streams, and procedure
//! inlining.

use fisher92::lang::compile;
use fisher92::opt::Inliner;
use fisher92::predict::{evaluate, BreakConfig, Direction, Predictor};
use fisher92::vm::{Input, Observer, Recorder, Run, Vm};
use fisher92::workloads::suite;
use mfdyn::{Zoo, ZooCounts};

/// One run of a suite dataset, watched by `obs`.
fn observed_run(name: &str, dataset: &str, obs: &mut impl Observer) -> Run {
    let w = suite()
        .into_iter()
        .find(|w| w.name == name)
        .expect("workload");
    let d = w.dataset(dataset).expect("dataset");
    let program = w.compile().expect("compiles");
    Vm::new(&program)
        .run_observed(&d.inputs, obs)
        .expect("runs")
}

/// Per-site 1-bit, 2-bit and self-seeded 2-bit tallies over one run, with
/// the run.
fn site_predictors(name: &str, dataset: &str) -> ([ZooCounts; 3], Run) {
    let w = suite()
        .into_iter()
        .find(|w| w.name == name)
        .expect("workload");
    let specs = mfdyn::site_zoo(&w.compile().expect("compiles"));
    let mut zoo = Zoo::new(&specs);
    let run = observed_run(name, dataset, &mut zoo);
    let report = zoo.report();
    (specs.map(|s| report.get(s).expect("spec in zoo")), run)
}

#[test]
fn trace_agrees_with_aggregate_counts() {
    let mut recorder = Recorder::default();
    let run = observed_run("spiff", "case3", &mut recorder);
    let trace = &recorder.branches;
    assert_eq!(trace.len() as u64, run.stats.branches.total_executed());
    let taken = trace.iter().filter(|e| e.taken).count() as u64;
    assert_eq!(taken, run.stats.branches.total_taken());
    // Per-branch reconciliation.
    let mut per: std::collections::HashMap<_, (u64, u64)> = Default::default();
    for ev in trace {
        let e = per.entry(ev.id).or_insert((0, 0));
        e.0 += 1;
        e.1 += u64::from(ev.taken);
    }
    for (id, e, t) in run.stats.branches.iter() {
        assert_eq!(per.get(&id).copied().unwrap_or((0, 0)), (e, t));
    }
}

#[test]
fn trace_recording_off_by_default() {
    // A plain run keeps no trace; recording is an observer, and attaching
    // one changes nothing the run reports.
    let w = suite()
        .into_iter()
        .find(|w| w.name == "spiff")
        .expect("spiff");
    let plain = w.run(&w.compile().expect("compiles"), &w.datasets[2]);
    let mut recorder = Recorder::default();
    let observed = observed_run("spiff", &w.datasets[2].name, &mut recorder);
    assert_eq!(plain.expect("runs"), observed);
    assert!(!recorder.branches.is_empty());
}

#[test]
fn dynamic_schemes_order_as_in_the_literature() {
    // 2-bit beats 1-bit, and static self-prediction is competitive with
    // 2-bit — the relationship the hardware literature reports and the
    // paper leans on.
    for (name, dataset) in [("doduc", "tiny"), ("spiff", "case1"), ("mfcom", "c_metric")] {
        let ([one, two, _], run) = site_predictors(name, dataset);
        assert!(
            two.mispredict_rate() <= one.mispredict_rate(),
            "{name}: 2-bit ({}) should beat 1-bit ({})",
            two.percent_correct(),
            one.percent_correct()
        );
        let self_pred = Predictor::from_counts(&run.stats.branches, Direction::NotTaken);
        let static_m = evaluate(&run.stats, &self_pred, BreakConfig::fig2());
        let gap = (static_m.correct_fraction() - (1.0 - two.mispredict_rate())).abs();
        assert!(
            gap < 0.08,
            "{name}: static ({:.3}) and 2-bit ({:.3}) should be comparable",
            static_m.correct_fraction(),
            1.0 - two.mispredict_rate()
        );
    }
}

#[test]
fn profile_seeding_never_hurts_much() {
    let ([_, cold, warm], _) = site_predictors("gcc", "loop_mod");
    assert!(warm.mispredicted <= cold.mispredicted);
}

#[test]
fn inlining_workloads_preserves_output_and_profiles() {
    let all = suite();
    for (name, dataset) in [("doduc", "tiny"), ("spiff", "case1")] {
        let w = all.iter().find(|w| w.name == name).expect("workload");
        let base = w.compile().expect("compiles");
        let mut inlined = base.clone();
        let sites = Inliner::default().run(&mut inlined);
        assert!(sites > 0, "{name}: nothing inlined");
        assert_eq!(inlined.validate_inlined(), Ok(()));
        let d = w.dataset(dataset).expect("dataset");
        let b = w.run(&base, d).expect("runs");
        let i = w.run(&inlined, d).expect("runs inlined");
        assert_eq!(b.output, i.output, "{name}: behaviour changed");
        assert!(
            i.stats.events.direct_calls < b.stats.events.direct_calls,
            "{name}: no call reduction"
        );
        // Source-level branch counts are preserved exactly (inlined copies
        // share their BranchId and the VM merges them).
        for (id, e, t) in b.stats.branches.iter() {
            assert_eq!(i.stats.branches.get(id), (e, t), "{name} {id:?}");
        }
    }
}

#[test]
fn inlining_improves_call_counted_ipb() {
    let src = r#"
        fn classify(x: int) -> int {
            if (x % 3 == 0) { return 0; }
            if (x % 3 == 1) { return 1; }
            return 2;
        }
        fn main(n: int) {
            var counts0: int = 0;
            var counts1: int = 0;
            for (var i: int = 0; i < n; i = i + 1) {
                var c: int = classify(i);
                if (c == 0) { counts0 = counts0 + 1; }
                if (c == 1) { counts1 = counts1 + 1; }
            }
            emit(counts0); emit(counts1);
        }
    "#;
    let base = compile(src).unwrap();
    let mut inlined = base.clone();
    Inliner::default().run(&mut inlined);
    let inputs = [Input::Int(3000)];
    let b = Vm::new(&base).run(&inputs).unwrap();
    let i = Vm::new(&inlined).run(&inputs).unwrap();
    assert_eq!(b.output, i.output);

    let cfg = BreakConfig::fig2_with_calls();
    let m = |run: &fisher92::vm::Run| {
        let p = Predictor::from_counts(&run.stats.branches, Direction::NotTaken);
        evaluate(&run.stats, &p, cfg).instrs_per_break
    };
    assert!(
        m(&i) > 1.5 * m(&b),
        "inlining should lift call-counted instrs/break: {} vs {}",
        m(&i),
        m(&b)
    );
}
