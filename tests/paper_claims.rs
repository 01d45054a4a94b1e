//! The paper's headline claims, asserted as tests against the reproduced
//! system. These pin the *shape* of every figure/table: who wins, by
//! roughly what factor, where the outliers sit. (Absolute values differ
//! from the paper — our substrate is a simulator, not a Trace 14/300 — and
//! EXPERIMENTS.md records both sides.)
//!
//! Uses a subset of the suite to stay fast in debug; the `repro` binary
//! covers the whole matrix in release.

use std::sync::OnceLock;

use fisher92::predict::experiment::{self, DatasetRun};
use fisher92::predict::{evaluate, evaluate_unpredicted, BreakConfig, Predictor};
use fisher92::profile::CombineRule;
use fisher92::workloads::{suite, Workload};

struct Collected {
    workload: Workload,
    runs: Vec<DatasetRun>,
    heuristic: Predictor,
}

fn collected() -> &'static Vec<Collected> {
    static DATA: OnceLock<Vec<Collected>> = OnceLock::new();
    DATA.get_or_init(|| {
        // Small-but-diverse subset: one FORTRAN multi-dataset program, the
        // fpppp outlier, and three C programs.
        let names = ["doduc", "fpppp", "gcc", "spiff", "mfcom"];
        suite()
            .into_iter()
            .filter(|w| names.contains(&w.name))
            .map(|w| {
                let program = w.compile().expect("compiles");
                let heuristic = Predictor::heuristic(&program);
                let runs = w
                    .datasets
                    .iter()
                    .map(|d| {
                        let run = w.run(&program, d).expect("runs");
                        DatasetRun::new(d.name.clone(), run.stats)
                    })
                    .collect();
                Collected {
                    workload: w,
                    runs,
                    heuristic,
                }
            })
            .collect()
    })
}

fn find(name: &str) -> &'static Collected {
    collected()
        .iter()
        .find(|c| c.workload.name == name)
        .expect("collected workload")
}

/// §3: "fpppp, with a huge basic block in its inner loop, is very
/// uncharacteristic in having 150-170 instructions per break" — the
/// Figure 1 outlier.
#[test]
fn fpppp_is_the_unpredicted_outlier() {
    let fpppp = find("fpppp");
    let others = ["doduc", "gcc", "spiff", "mfcom"];
    let fpppp_ipb =
        evaluate_unpredicted(&fpppp.runs[0].stats, BreakConfig::fig1()).instrs_per_break;
    for name in others {
        let c = find(name);
        for r in &c.runs {
            let ipb = evaluate_unpredicted(&r.stats, BreakConfig::fig1()).instrs_per_break;
            assert!(
                fpppp_ipb > 5.0 * ipb,
                "fpppp ({fpppp_ipb}) should dwarf {name}/{} ({ipb})",
                r.dataset
            );
        }
    }
}

/// Figure 1: C/integer programs run roughly 5–17 instructions per break
/// unpredicted (we accept a slightly wider band for the reproduction).
#[test]
fn c_programs_unpredicted_band() {
    for name in ["gcc", "spiff", "mfcom"] {
        let c = find(name);
        for r in &c.runs {
            let ipb = evaluate_unpredicted(&r.stats, BreakConfig::fig1()).instrs_per_break;
            assert!(
                (3.0..20.0).contains(&ipb),
                "{name}/{}: {ipb} outside the C band",
                r.dataset
            );
        }
    }
}

/// The core claim: feeding back previous runs predicts branch directions
/// almost as well as is possible. Leave-one-out prediction recovers most
/// of the self-prediction bound.
#[test]
fn feedback_recovers_most_of_the_bound() {
    let cfg = BreakConfig::fig2();
    let mut total_ratio = 0.0;
    let mut n = 0;
    for c in collected() {
        if c.runs.len() < 2 {
            continue;
        }
        for i in 0..c.runs.len() {
            let self_m = experiment::self_metrics(&c.runs[i].stats, cfg);
            let loo = experiment::loo_metrics(&c.runs, i, CombineRule::Scaled, cfg);
            let ratio = loo.instrs_per_break / self_m.instrs_per_break;
            assert!(
                ratio > 0.35,
                "{}/{}: feedback recovered only {:.0}%",
                c.workload.name,
                c.runs[i].dataset,
                ratio * 100.0
            );
            total_ratio += ratio;
            n += 1;
        }
    }
    let mean = total_ratio / f64::from(n);
    assert!(
        mean > 0.75,
        "mean recovery {:.0}% — the paper's claim needs most of the bound",
        mean * 100.0
    );
}

/// Prediction lifts instructions-per-break far above the unpredicted
/// level (an order of magnitude in the paper's C programs: ~5-17 → ~40-160).
#[test]
fn prediction_is_a_large_multiplier() {
    let cfg = BreakConfig::fig2();
    for name in ["gcc", "spiff", "mfcom"] {
        let c = find(name);
        for r in &c.runs {
            let none = evaluate_unpredicted(&r.stats, BreakConfig::fig1()).instrs_per_break;
            let with = experiment::self_metrics(&r.stats, cfg).instrs_per_break;
            assert!(
                with > 4.0 * none,
                "{name}/{}: {none} -> {with} is too small a gain",
                r.dataset
            );
        }
    }
}

/// §3 informal: simple loop/non-loop heuristics "usually gave up about a
/// factor of two in instructions per break" against profile feedback.
#[test]
fn heuristic_loses_roughly_2x() {
    let cfg = BreakConfig::fig2();
    let mut ratios = Vec::new();
    for c in collected() {
        for (i, r) in c.runs.iter().enumerate() {
            let h = evaluate(&r.stats, &c.heuristic, cfg).instrs_per_break;
            let p = if c.runs.len() > 1 {
                experiment::loo_metrics(&c.runs, i, CombineRule::Scaled, cfg).instrs_per_break
            } else {
                experiment::self_metrics(&r.stats, cfg).instrs_per_break
            };
            ratios.push(p / h);
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean > 1.2,
        "profiles must clearly beat the heuristic (mean ratio {mean:.2})"
    );
    assert!(
        ratios.iter().all(|r| *r > 0.8),
        "heuristic should never win big: {ratios:?}"
    );
}

/// §3 informal: scaled and unscaled combination "appeared to perform as
/// well as each other ... on average they were indistinguishably close".
#[test]
fn scaled_and_unscaled_are_close_on_average() {
    let cfg = BreakConfig::fig2();
    let mut diffs = Vec::new();
    for c in collected() {
        if c.runs.len() < 2 {
            continue;
        }
        for i in 0..c.runs.len() {
            let s = experiment::loo_metrics(&c.runs, i, CombineRule::Scaled, cfg).instrs_per_break;
            let u =
                experiment::loo_metrics(&c.runs, i, CombineRule::Unscaled, cfg).instrs_per_break;
            diffs.push((s - u).abs() / s.max(u));
        }
    }
    let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
    assert!(
        mean < 0.15,
        "scaled vs unscaled mean relative gap {mean:.2}"
    );
}

/// §2: percent-correct is the wrong measure — doduc and fpppp have similar
/// percent-correct but wildly different instructions-per-break (the
/// paper's fpppp-vs-li anecdote, reproduced with our pair).
#[test]
fn percent_correct_hides_branch_density() {
    let cfg = BreakConfig::fig2();
    let doduc = experiment::self_metrics(&find("doduc").runs[0].stats, cfg);
    let fpppp = experiment::self_metrics(&find("fpppp").runs[0].stats, cfg);
    let pc_gap = (doduc.correct_fraction() - fpppp.correct_fraction()).abs();
    assert!(
        pc_gap < 0.15,
        "percent-correct should look similar: {} vs {}",
        doduc.correct_fraction(),
        fpppp.correct_fraction()
    );
    assert!(
        fpppp.instrs_per_break > 10.0 * doduc.instrs_per_break,
        "…while instrs/break separates them: {} vs {}",
        fpppp.instrs_per_break,
        doduc.instrs_per_break
    );
}

/// §3 informal: percent-taken is nearly a program constant across datasets
/// (≤9% spread for everything but spice2g6). Our low-variability programs
/// obey the tight version.
#[test]
fn percent_taken_is_nearly_constant_for_similar_datasets() {
    for name in ["doduc", "mfcom"] {
        let c = find(name);
        let (lo, hi) = experiment::percent_taken_spread(&c.runs).expect("has branches");
        assert!(
            hi - lo < 0.09,
            "{name}: percent-taken spread {:.1}% exceeds the paper's bound",
            (hi - lo) * 100.0
        );
    }
}

/// §2: select instructions were a negligible fraction of all instructions
/// (0.2–0.7% in the paper).
#[test]
fn selects_are_negligible() {
    for c in collected() {
        let ratio = c.runs[0].stats.select_ratio();
        assert!(
            ratio < 0.02,
            "{}: selects are {:.2}% of instructions",
            c.workload.name,
            ratio * 100.0
        );
    }
}
