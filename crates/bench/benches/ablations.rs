//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * combination rule (scaled / unscaled / polling) — §3 informal,
//! * heuristic vs profile predictors,
//! * `switch` lowering: cascaded conditional branches (the paper's choice)
//!   vs a branch-target table (an unavoidable indirect jump),
//! * break accounting with and without direct call/return traffic
//!   (the paper's inlining discussion).
//!
//! Each ablation prints its comparison once, then times the evaluation.

use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bpredict::experiment::{self, DatasetRun};
use bpredict::{evaluate, BreakConfig, Predictor};
use ifprob::CombineRule;
use mfbench::{collect_subset, combination_table, heuristic_table, SuiteRuns};
use mflang::{compile_with, CompileOptions, SwitchMode};
use trace_vm::{Input, Vm};

fn subset() -> &'static SuiteRuns {
    static RUNS: OnceLock<SuiteRuns> = OnceLock::new();
    RUNS.get_or_init(|| {
        eprintln!("[ablations] collecting subset…");
        collect_subset(&["doduc", "gcc", "espresso", "spiff", "mfcom"])
    })
}

fn bench_combination_rules(c: &mut Criterion) {
    let s = subset();
    println!("\n{}", combination_table(s).render());
    let gcc = s.workload("gcc").expect("gcc collected");
    c.bench_function("ablate_combination_rules", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for rule in [
                CombineRule::Scaled,
                CombineRule::Unscaled,
                CombineRule::Polling,
            ] {
                for i in 0..gcc.runs.len() {
                    acc += experiment::loo_metrics(&gcc.runs, i, rule, BreakConfig::fig2())
                        .instrs_per_break;
                }
            }
            black_box(acc)
        })
    });
}

fn bench_heuristic(c: &mut Criterion) {
    let s = subset();
    println!("\n{}", heuristic_table(s).render());
    let gcc = s.workload("gcc").expect("gcc collected");
    c.bench_function("ablate_heuristic_vs_profile", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for run in &gcc.runs {
                acc += evaluate(&run.stats, &gcc.heuristic, BreakConfig::fig2()).instrs_per_break;
                acc += experiment::self_metrics(run, BreakConfig::fig2()).instrs_per_break;
            }
            black_box(acc)
        })
    });
}

/// A switch-heavy dispatcher program for the lowering ablation.
const DISPATCHER: &str = r#"
fn main(tape: [int], n: int) {
    var a: int = 0;
    var b: int = 1;
    for (var i: int = 0; i < n; i = i + 1) {
        switch (tape[i]) {
            case 0: { a = a + 1; }
            case 1: { a = a - 1; }
            case 2: { b = b * 2; }
            case 3: { b = b % 1000003; }
            case 4: { a = a + b; }
            case 5: { b = b + a; }
            case 6: { if (a > b) { a = b; } }
            default: { a = a ^ b; }
        }
    }
    emit(a); emit(b);
}
"#;

fn bench_switch_lowering(c: &mut Criterion) {
    let tape: Vec<i64> = (0..60_000).map(|i: i64| (i * 7 + i / 13) % 9).collect();
    let inputs = [Input::Ints(tape.clone()), Input::Int(tape.len() as i64)];
    let cascade = compile_with(DISPATCHER, &CompileOptions::default()).expect("compiles");
    let table = compile_with(
        DISPATCHER,
        &CompileOptions {
            switch_mode: SwitchMode::JumpTable,
            ..CompileOptions::default()
        },
    )
    .expect("compiles");

    let run_c = Vm::new(&cascade).run(&inputs).expect("cascade runs");
    let run_t = Vm::new(&table).run(&inputs).expect("table runs");
    assert_eq!(run_c.output, run_t.output);

    let m_c = experiment::self_metrics(
        &DatasetRun::new("dispatch", run_c.stats.clone()),
        BreakConfig::fig2(),
    );
    let m_t = experiment::self_metrics(
        &DatasetRun::new("dispatch", run_t.stats.clone()),
        BreakConfig::fig2(),
    );
    println!("\nswitch lowering ablation (self-predicted instrs/break):");
    println!(
        "  cascaded ifs:        {:>8.1}  ({} instrs, {} breaks)",
        m_c.instrs_per_break, m_c.instrs, m_c.breaks
    );
    println!(
        "  branch-target table: {:>8.1}  ({} instrs, {} breaks — every table jump is an unavoidable break)",
        m_t.instrs_per_break, m_t.instrs, m_t.breaks
    );

    let p = Predictor::from_counts(&run_c.stats.branches, Default::default());
    c.bench_function("ablate_switch_lowering_eval", |b| {
        b.iter(|| {
            let a = evaluate(&run_c.stats, &p, BreakConfig::fig2());
            let b2 = evaluate(&run_t.stats, &p, BreakConfig::fig2());
            black_box((a, b2))
        })
    });
}

fn bench_inlining_accounting(c: &mut Criterion) {
    let s = subset();
    println!("\ninlining accounting (self-predicted instrs/break):");
    println!("  PROGRAM/DATASET        CALLS EXCLUDED   CALLS COUNTED");
    for w in &s.workloads {
        for run in &w.runs {
            let a = experiment::self_metrics(run, BreakConfig::fig2());
            let b = experiment::self_metrics(run, BreakConfig::fig2_with_calls());
            println!(
                "  {:<22} {:>10.1} {:>15.1}",
                format!("{}/{}", w.name, run.dataset),
                a.instrs_per_break,
                b.instrs_per_break
            );
        }
    }
    let doduc = s.workload("doduc").expect("doduc collected");
    c.bench_function("ablate_inlining_accounting", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for run in &doduc.runs {
                acc += experiment::self_metrics(run, BreakConfig::fig2()).instrs_per_break;
                acc +=
                    experiment::self_metrics(run, BreakConfig::fig2_with_calls()).instrs_per_break;
            }
            black_box(acc)
        })
    });
}

fn bench_dynamic_schemes(c: &mut Criterion) {
    // The bench times one run observed by the per-site 1-bit and 2-bit
    // schemes.
    let all = mfwork::suite();
    let w = all.iter().find(|w| w.name == "spiff").expect("spiff");
    let program = w.compile().expect("compiles");
    let specs = &mfdyn::site_zoo(&program)[..2];
    println!("\n{}", mfbench::dynamic_table().render());
    c.bench_function("extension_dynamic_schemes", |b| {
        b.iter(|| {
            let mut zoo = mfdyn::Zoo::new(specs);
            let run = Vm::new(&program).run_observed(&w.datasets[0].inputs, &mut zoo);
            black_box((run, zoo.report()))
        })
    });
}

fn bench_inliner(c: &mut Criterion) {
    use mfopt::Inliner;
    println!("\n{}", mfbench::inlining_table().render());
    let all = mfwork::suite();
    let gcc = all.iter().find(|w| w.name == "gcc").expect("gcc");
    let program = gcc.compile().expect("compiles");
    c.bench_function("extension_inliner_pass", |b| {
        b.iter(|| {
            let mut p = program.clone();
            Inliner::default().run(&mut p);
            black_box(p)
        })
    });
}

criterion_group!(
    benches,
    bench_combination_rules,
    bench_heuristic,
    bench_switch_lowering,
    bench_inlining_accounting,
    bench_dynamic_schemes,
    bench_inliner
);
criterion_main!(benches);
