//! `mffuzz`: the coverage-guided differential fuzzing driver.
//!
//! ```text
//! mffuzz --iters 5000 --seed 42            # fixed-seed smoke run
//! mffuzz --corpus corpus --jobs 8          # fan out over the corpus
//! mffuzz --defect opt-fold-add-off-by-one  # arm one gauntlet defect
//! mffuzz --list-defects                    # show the gauntlet roster
//! ```
//!
//! Everything printed on stdout is a pure function of the seed, iteration
//! count, and corpus — timing goes to stderr and (with `--json-metrics`)
//! to the JSON report, so output diffing across runs and `--jobs` settings
//! is exact.
//!
//! Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
//! or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mffuzz::{corpus, FuzzConfig, Fuzzer};

const USAGE: &str = "\
usage: mffuzz [OPTION...]

options:
  --seed N            master seed (default 0); same seed + same corpus =>
                      byte-identical stdout at any --jobs setting
  --iters N           fuzz iterations to run (default 5000)
  --time-budget SECS  stop after roughly SECS seconds (checked between
                      scheduling chunks)
  --corpus DIR        load (and replay) the regression corpus in DIR
  --save-corpus       write coverage-selected new entries back to DIR
  --jobs N            worker threads (default 1)
  --max-findings N    stop after N findings (default 12)
  --no-minimize       skip test-case minimization of findings
  --backend NAME      VM backend for primary oracle runs: 'reference'
                      (default) or 'flat'; the flat-vs-reference
                      differential always runs the other backend
  --defect NAME       arm one seeded defect (repeatable; see --list-defects)
  --list-defects      print the mutation-gauntlet defect roster and exit
  --json-metrics PATH write the full report (including timing) as JSON
  -h, --help          this message

exit status: 0 clean, 1 findings, 2 usage/IO error";

struct Options {
    config: FuzzConfig,
    corpus_dir: Option<PathBuf>,
    save_corpus: bool,
    defects: Vec<String>,
    list_defects: bool,
    json_metrics: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        config: FuzzConfig {
            iters: 5000,
            minimize: true,
            ..Default::default()
        },
        corpus_dir: None,
        save_corpus: false,
        defects: Vec::new(),
        list_defects: false,
        json_metrics: None,
    };
    let mut iter = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next()
            .map(|s| s.to_string())
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--seed" => {
                options.config.seed = value("--seed", &mut iter)?
                    .parse()
                    .map_err(|_| "--seed requires an unsigned integer".to_string())?;
            }
            "--iters" => {
                options.config.iters = value("--iters", &mut iter)?
                    .parse()
                    .map_err(|_| "--iters requires an unsigned integer".to_string())?;
            }
            "--time-budget" => {
                let secs: f64 = value("--time-budget", &mut iter)?
                    .parse()
                    .map_err(|_| "--time-budget requires seconds".to_string())?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--time-budget requires non-negative seconds".to_string());
                }
                options.config.time_budget = Some(Duration::from_secs_f64(secs));
            }
            "--corpus" => options.corpus_dir = Some(PathBuf::from(value("--corpus", &mut iter)?)),
            "--save-corpus" => options.save_corpus = true,
            "--jobs" => {
                let jobs: usize = value("--jobs", &mut iter)?
                    .parse()
                    .map_err(|_| "--jobs requires an unsigned integer".to_string())?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                options.config.jobs = jobs;
            }
            "--max-findings" => {
                options.config.max_findings = value("--max-findings", &mut iter)?
                    .parse()
                    .map_err(|_| "--max-findings requires an unsigned integer".to_string())?;
            }
            "--no-minimize" => options.config.minimize = false,
            "--backend" => {
                let backend = value("--backend", &mut iter)?.parse()?;
                mffuzz::oracle::set_backend(backend);
            }
            "--defect" => options.defects.push(value("--defect", &mut iter)?),
            "--list-defects" => options.list_defects = true,
            "--json-metrics" => {
                options.json_metrics = Some(PathBuf::from(value("--json-metrics", &mut iter)?));
            }
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    if options.save_corpus && options.corpus_dir.is_none() {
        return Err("--save-corpus requires --corpus DIR".to_string());
    }
    Ok(Some(options))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("mffuzz: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if options.list_defects {
        for name in mfdefect::KNOWN {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }

    for name in &options.defects {
        if !mfdefect::activate(name) {
            eprintln!("mffuzz: unknown defect '{name}' (see --list-defects)");
            return ExitCode::from(2);
        }
    }

    let initial = match &options.corpus_dir {
        Some(dir) => match corpus::load_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("mffuzz: reading corpus {} failed: {e}", dir.display());
                return ExitCode::from(2);
            }
        },
        None => Vec::new(),
    };
    let initial_names: std::collections::BTreeSet<String> =
        initial.iter().map(|e| e.name.clone()).collect();

    let mut fuzzer = Fuzzer::new(options.config, initial);
    let report = fuzzer.run();

    // Deterministic findings/coverage summary on stdout; timing on stderr.
    print!("{}", report.deterministic_text());
    eprintln!(
        "mffuzz: {} iterations in {:.3}s ({:.1} execs/sec, {} workers)",
        report.iterations,
        report.elapsed.as_secs_f64(),
        report.execs_per_sec(),
        report.workers
    );

    if let Some(path) = &options.json_metrics {
        if let Err(e) = std::fs::write(path, report.to_json().render()) {
            eprintln!("mffuzz: writing {} failed: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote fuzz metrics to {}", path.display());
    }

    if options.save_corpus {
        let dir = options.corpus_dir.as_ref().expect("checked in parse_args");
        for entry in fuzzer.into_corpus() {
            if initial_names.contains(&entry.name) {
                continue;
            }
            if let Err(e) = corpus::save_entry(dir, &entry) {
                eprintln!("mffuzz: writing corpus entry {} failed: {e}", entry.name);
                return ExitCode::from(2);
            }
        }
    }

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
