//! mftrain — offline trainer for the `mfpredict` static branch model.
//!
//! Collects profiles for the *training half* of the suite
//! ([`mfpredict::TRAIN_WORKLOADS`]) through the harness (so collection is
//! cached, parallel, and jobs-invariant), extracts their static feature
//! vectors, trains the deterministic softsign model, and writes the
//! versioned byte-stable artifact. `--eval` and `--soundness` read the
//! held-out half too, so they collect the whole suite. Two consecutive
//! runs — at any `--jobs` — produce byte-identical artifacts; CI
//! retrains and compares against the committed file.
//!
//! ```text
//! mftrain                          # train, write the committed artifact path
//! mftrain --check                  # train, byte-compare vs committed, exit 1 on drift
//! mftrain --eval                   # also print the held-out evaluation table
//! mftrain --soundness              # verify interval proofs across the suite
//! mftrain --features f.tsv --jobs 8
//! ```
//!
//! Exit codes: 0 success; 1 gate failure (`--check` drift, `--soundness`
//! contradiction); 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use bpredict::{evaluate, experiment, BreakConfig, Direction, Metrics, Predictor};
use mfbench::{collect_subset_with, collect_with, SuiteRuns};
use mfharness::{Harness, HarnessOptions};
use mfpredict::{
    analyze, extract, train, Model, ProgramProofs, Sample, TrainConfig, COMMITTED_MODEL_PATH,
    EVAL_WORKLOADS, TRAIN_WORKLOADS,
};
use mfreport::{fmt_percent, Table};
use trace_ir::{BranchId, Program};

const USAGE: &str = "\
usage: mftrain [options]

  --out PATH        artifact destination (default: the committed in-tree
                    artifact path)
  --check           train and byte-compare against the committed artifact
                    instead of writing; exit 1 on any difference
  --eval            print the held-out evaluation table (mispredict rate
                    of BTFN / proofs / ML / self per eval dataset)
  --soundness       hold every interval proof against every workload
                    run's observed branch counters; exit 1 on any
                    contradiction
  --features PATH   dump the training feature matrix as TSV (exact f64
                    debug formatting; used by the determinism tests)
  --jobs N          harness worker threads (default: MFHARNESS_JOBS, else
                    the available parallelism clamped to 8)
  -h, --help        this message
";

struct Options {
    out: Option<PathBuf>,
    check: bool,
    eval: bool,
    soundness: bool,
    features: Option<PathBuf>,
    jobs: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        out: None,
        check: false,
        eval: false,
        soundness: false,
        features: None,
        jobs: None,
    };
    let mut iter = args.iter();
    let value = |flag: &str, iter: &mut std::slice::Iter<'_, String>| {
        iter.next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--out" => options.out = Some(PathBuf::from(value("--out", &mut iter)?)),
            "--check" => options.check = true,
            "--eval" => options.eval = true,
            "--soundness" => options.soundness = true,
            "--features" => options.features = Some(PathBuf::from(value("--features", &mut iter)?)),
            "--jobs" => {
                let jobs: usize = value("--jobs", &mut iter)?
                    .parse()
                    .map_err(|_| "--jobs requires an unsigned integer".to_string())?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                options.jobs = Some(jobs);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(Some(options))
}

/// One collected workload's analysis and aggregated counters.
struct WorkloadData<'s> {
    name: &'s str,
    /// The profiling build the workload's runs executed.
    program: &'s Program,
    analysis: ProgramProofs,
    /// Per-site `(executed, taken)` summed over every dataset.
    totals: std::collections::BTreeMap<BranchId, (u64, u64)>,
}

fn gather(s: &SuiteRuns) -> Vec<WorkloadData<'_>> {
    s.workloads
        .iter()
        .map(|w| {
            let analysis = analyze(&w.program);
            let mut totals: std::collections::BTreeMap<BranchId, (u64, u64)> = Default::default();
            for r in &w.runs {
                for (id, e, t) in r.stats.branches.iter() {
                    let slot = totals.entry(id).or_insert((0, 0));
                    slot.0 += e;
                    slot.1 += t;
                }
            }
            WorkloadData {
                name: &w.name,
                program: &w.program,
                analysis,
                totals,
            }
        })
        .collect()
}

/// Integer log2-style weight: branches executed more often matter more,
/// but only through an integer-derived value so the weighting introduces
/// no platform-dependent arithmetic.
fn sample_weight(executed: u64) -> f64 {
    f64::from(64 - executed.leading_zeros())
}

/// Per-sample bookkeeping kept alongside the feature matrix: workload
/// name, branch site, majority direction, and sample weight.
type SampleMeta = (String, BranchId, bool, f64);

fn build_samples(data: &[WorkloadData]) -> (Vec<Sample>, Vec<SampleMeta>) {
    let mut samples = Vec::new();
    let mut meta = Vec::new();
    for wd in data {
        if !TRAIN_WORKLOADS.contains(&wd.name) {
            continue;
        }
        let features = extract(wd.program, &wd.analysis);
        for f in &features {
            let Some(&(executed, taken)) = wd.totals.get(&f.id) else {
                continue; // never executed: no label
            };
            if executed == 0 {
                continue;
            }
            let label = taken * 2 >= executed;
            let weight = sample_weight(executed);
            samples.push(Sample {
                features: f.values,
                taken: label,
                weight,
            });
            meta.push((wd.name.to_string(), f.id, label, weight));
        }
    }
    (samples, meta)
}

fn dump_features(
    path: &PathBuf,
    samples: &[Sample],
    meta: &[(String, BranchId, bool, f64)],
) -> Result<(), String> {
    let mut out = String::new();
    out.push_str("# workload\tbranch\ttaken\tweight\tfeatures\n");
    for (s, (name, id, label, weight)) in samples.iter().zip(meta) {
        let feats: Vec<String> = s.features.iter().map(|v| format!("{v:?}")).collect();
        out.push_str(&format!(
            "{name}\t{id}\t{}\t{weight:?}\t{}\n",
            u8::from(*label),
            feats.join(",")
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("writing {} failed: {e}", path.display()))
}

fn direction(taken: bool) -> Direction {
    if taken {
        Direction::Taken
    } else {
        Direction::NotTaken
    }
}

fn eval_table(s: &SuiteRuns, data: &[WorkloadData], model: &Model) -> Table {
    let cfg = BreakConfig::fig2();
    let mut t = Table::new(&[
        "PROGRAM", "DATASET", "BRANCHES", "BTFN", "PROOF", "ML", "SELF",
    ]);
    for wd in data {
        if !EVAL_WORKLOADS.contains(&wd.name) {
            continue;
        }
        let w = s.workload(wd.name).expect("collected workload");
        let features = extract(wd.program, &wd.analysis);
        let ml = Predictor::from_directions(
            model
                .predict_branches(&features)
                .map(|(id, taken)| (id, direction(taken))),
            Direction::NotTaken,
        );
        for run in &w.runs {
            let rate = |m: Metrics| fmt_percent(1.0 - m.correct_fraction());
            let eval = |p: &Predictor| rate(evaluate(&run.stats, p, cfg));
            t.row_owned(vec![
                wd.name.to_string(),
                run.dataset.clone(),
                run.stats.branches.total_executed().to_string(),
                eval(&w.btfn),
                eval(&w.proof),
                eval(&ml),
                rate(experiment::self_metrics(&run.stats, cfg)),
            ]);
        }
    }
    t
}

/// Counts proof contradictions across every workload run; prints any.
fn soundness_failures(s: &SuiteRuns, data: &[WorkloadData]) -> usize {
    let mut failures = 0;
    for wd in data {
        let w = s.workload(wd.name).expect("collected workload");
        for run in &w.runs {
            let broken = wd.analysis.contradictions(run.stats.branches.iter());
            for c in &broken {
                eprintln!("mftrain: SOUNDNESS: {}/{}: {c}", wd.name, run.dataset);
            }
            failures += broken.len();
        }
    }
    failures
}

fn run(options: &Options) -> Result<ExitCode, String> {
    // `--jobs` overrides `MFHARNESS_JOBS` and keeps every other
    // `MFHARNESS_*` setting.
    let mut harness_options = HarnessOptions::from_env();
    if options.jobs.is_some() {
        harness_options.jobs = options.jobs;
    }
    // Training reads only its half of the suite; the held-out table and
    // the proof check read every workload.
    let harness = Harness::new(harness_options);
    let s = if options.eval || options.soundness {
        collect_with(&harness)
    } else {
        collect_subset_with(&harness, &TRAIN_WORKLOADS)
    };
    let data = gather(&s);

    if options.soundness {
        let total: usize = data
            .iter()
            .map(|wd| {
                s.workload(wd.name)
                    .map(|w| w.runs.len())
                    .unwrap_or_default()
            })
            .sum();
        let failures = soundness_failures(&s, &data);
        if failures > 0 {
            eprintln!("mftrain: {failures} proof contradiction(s) across {total} runs");
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "soundness: 0 contradictions across {} workloads, {total} runs",
            data.len()
        );
    }

    let (samples, meta) = build_samples(&data);
    if let Some(path) = &options.features {
        dump_features(path, &samples, &meta)?;
        eprintln!("wrote {} feature rows to {}", samples.len(), path.display());
    }
    let model = train(&samples, &TrainConfig::default());
    let bytes = model.to_bytes();
    println!(
        "trained on {} branch sites from {} workloads ({} bytes, {} weights)",
        samples.len(),
        TRAIN_WORKLOADS.len(),
        bytes.len(),
        model.weights.len()
    );

    let mut exit = ExitCode::SUCCESS;
    if options.check {
        match Model::load_committed() {
            Ok(committed) if committed.to_bytes() == bytes => {
                println!("check: committed artifact reproduced byte-for-byte");
            }
            Ok(_) => {
                eprintln!("mftrain: check FAILED: retrained artifact differs from committed");
                exit = ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("mftrain: check FAILED: committed artifact unusable: {e}");
                exit = ExitCode::FAILURE;
            }
        }
    } else {
        let out = options
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(COMMITTED_MODEL_PATH));
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("creating {} failed: {e}", dir.display()))?;
        }
        std::fs::write(&out, &bytes)
            .map_err(|e| format!("writing {} failed: {e}", out.display()))?;
        println!("wrote model artifact to {}", out.display());
    }

    if options.eval {
        println!("\n==== Held-out evaluation (mispredict rate, eval half only) ====");
        print!("{}", eval_table(&s, &data, &model).render());
    }
    Ok(exit)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Some(options)) => match run(&options) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("mftrain: {e}");
                ExitCode::from(2)
            }
        },
        Ok(None) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mftrain: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
