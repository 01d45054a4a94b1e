//! `dynbench`: characterizes the online dynamic-predictor zoo against
//! profile feedback.
//!
//! ```text
//! dynbench                         # full suite headline + sweeps
//! dynbench --quick                 # three-workload subset (CI smoke)
//! dynbench --quick --gate          # fail (exit 1) on malformed results
//! dynbench --out BENCH_dynpred.json
//! ```
//!
//! Four experiments, all deterministic and `--jobs`-invariant:
//!
//! 1. **Headline** — instructions per mispredicted branch for static
//!    profile feedback (leave-one-out), BTFN, the committed ML model, and
//!    every online predictor in the `mfdyn` roster, per program×dataset,
//!    with geomeans.
//! 2. **History sweep** — gshare mispredict rate at 4/8/12/16 bits of
//!    global history (fixed 12-bit table).
//! 3. **Table-size sweep** — gshare mispredict rate at 8 bits of history
//!    as the table shrinks from 12 to 4 index bits (aliasing pressure).
//! 4. **Padding distance** — a synthetic pair of perfectly correlated
//!    branches separated by a growing run of constant padding branches:
//!    once the padding exceeds the history length, the correlation falls
//!    out of the register and gshare degrades to a coin flip.
//!
//! Exit codes: 0 success, 1 `--gate` violation, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use mfbench::{
    collect_subset_with, dyn_geomeans, dyn_row_json, dyn_rows, dyn_table, ipm_json, DynRow,
    SuiteRuns, DYN_COLUMNS, ML_TRAIN_MARKER,
};
use mfdyn::DynSpec;
use mfharness::{DiskCache, Harness, HarnessOptions, Observe, RunJob};
use mfreport::json::Json;
use mfreport::{fmt_percent, Table};
use trace_vm::{Backend, Input, Vm, VmConfig};

const QUICK: &[&str] = &["doduc", "spiff", "mfcom"];

/// Gshare history lengths the sweeps and padding experiment cover.
const HISTORIES: [u32; 4] = [4, 8, 12, 16];

/// Gshare table sizes (index bits) the aliasing sweep covers.
const TABLE_BITS: [u32; 5] = [4, 6, 8, 10, 12];

/// Padding distances (correlated-branch separation) the synthetic
/// experiment covers.
const PADDINGS: [usize; 6] = [0, 1, 2, 4, 8, 16];

const USAGE: &str = "\
usage: dynbench [OPTION...]

options:
  --quick             three-workload subset instead of the full suite
  --gate              validate the results (well-formed headline, rates in
                      range, padding degrades gshare) and exit 1 on any
                      violation
  --gate-min-ipm N    with --gate: additionally fail unless every headline
                      geomean is at least N instructions per mispredict
  --out PATH          write the machine-readable results (the
                      BENCH_dynpred.json schema) to PATH
  --jobs N            worker threads for the collection harness
  --no-cache          skip the persistent run cache
  -h, --help          this message";

struct Options {
    quick: bool,
    gate: bool,
    gate_min_ipm: Option<f64>,
    out: Option<PathBuf>,
    jobs: Option<usize>,
    no_cache: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        quick: false,
        gate: false,
        gate_min_ipm: None,
        out: None,
        jobs: None,
        no_cache: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = |iter: &mut std::slice::Iter<String>| -> Result<String, String> {
            match inline_value.clone().or_else(|| iter.next().cloned()) {
                Some(v) => Ok(v),
                None => Err(format!("{flag} requires a value")),
            }
        };
        match flag {
            "-h" | "--help" => return Ok(None),
            "--quick" => options.quick = true,
            "--gate" => options.gate = true,
            "--gate-min-ipm" => {
                let v = value(&mut iter)?;
                let n: f64 = v
                    .parse()
                    .map_err(|_| format!("--gate-min-ipm expects a number, got '{v}'"))?;
                if !n.is_finite() || n < 0.0 {
                    return Err("--gate-min-ipm must be a finite non-negative number".to_string());
                }
                options.gate_min_ipm = Some(n);
            }
            "--out" => options.out = Some(PathBuf::from(value(&mut iter)?)),
            "--jobs" => {
                let v = value(&mut iter)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a positive integer, got '{v}'"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                options.jobs = Some(n);
            }
            "--no-cache" => options.no_cache = true,
            _ => return Err(format!("unknown flag '{arg}'")),
        }
    }
    Ok(Some(options))
}

fn section(title: &str) {
    println!(
        "\n==== {title} {}",
        "=".repeat(68usize.saturating_sub(title.len()))
    );
}

/// The measurement VM configuration for the sweep runs: the workload's
/// canonical limits on the flat backend (predictor tallies are
/// backend-invariant; flat is just faster).
fn sweep_config(base: VmConfig) -> VmConfig {
    VmConfig {
        backend: Backend::Flat,
        ..base
    }
}

/// One sweep row: gshare mispredict rates per swept parameter value.
struct SweepRow {
    program: String,
    dataset: String,
    rates: Vec<f64>,
}

/// Drives a parameterized gshare family over each collected workload's
/// first dataset through `harness` (one observed run per workload, all
/// predictors riding on it). Each run takes its program from the
/// collection and generates only that dataset.
fn gshare_sweep(harness: &Harness, s: &SuiteRuns, specs: &[DynSpec]) -> Vec<SweepRow> {
    let mut selected = Vec::new();
    let mut jobs = Vec::new();
    for w in &s.workloads {
        let row = mfwork::row(&w.name).expect("collected workloads are suite rows");
        let d = row.datasets[0].generate();
        jobs.push(RunJob::with_observer(
            w.name.clone(),
            d.name.clone(),
            Arc::clone(&w.program),
            d.inputs,
            sweep_config(mfwork::vm_config()),
            Observe::Zoo(specs.to_vec()),
        ));
        selected.push((w.name.clone(), d.name));
    }
    let outcomes = harness.run(jobs).unwrap_or_else(|e| panic!("{e}"));
    selected
        .into_iter()
        .zip(outcomes)
        .map(|((program, dataset), outcome)| {
            let report = outcome.zoo().expect("zoo jobs carry a report");
            let rates = specs
                .iter()
                .map(|&spec| {
                    report
                        .get(spec)
                        .expect("sweep spec in report")
                        .mispredict_rate()
                })
                .collect();
            SweepRow {
                program,
                dataset,
                rates,
            }
        })
        .collect()
}

fn sweep_table(title_cols: &[String], rows: &[SweepRow]) -> Table {
    let mut headers: Vec<&str> = vec!["PROGRAM", "DATASET"];
    headers.extend(title_cols.iter().map(String::as_str));
    let mut t = Table::new(&headers);
    for r in rows {
        let mut cells = vec![r.program.clone(), r.dataset.clone()];
        cells.extend(r.rates.iter().map(|&v| fmt_percent(v)));
        t.row_owned(cells);
    }
    t
}

/// The synthetic correlated-branch program: branch A follows a
/// pseudo-random bit, `pad` constant (always-taken) branches execute, then
/// branch B repeats A's direction exactly. With `pad + 1 <= history` the
/// gshare register still holds A's outcome when B is predicted; past that,
/// B's relevant bit has been shifted out and only constants remain.
///
/// Every `if` body deliberately holds *two* statements: the mflang front
/// end if-converts single-assignment bodies into `select` instructions
/// (as the Trace front ends did), which would erase the very branches
/// this experiment measures.
fn padding_source(pad: usize) -> String {
    let mut body = String::new();
    for _ in 0..pad {
        body.push_str("        if (i >= 0) { acc = acc + 1; acc = acc + 1; }\n");
    }
    format!(
        "fn main(n: int) {{\n\
         \x20   var seed: int = 123456789;\n\
         \x20   var acc: int = 0;\n\
         \x20   var i: int = 0;\n\
         \x20   while (i < n) {{\n\
         \x20       seed = (seed * 1103515245 + 12345) % 1073741824;\n\
         \x20       var a: int = seed / 536870912;\n\
         \x20       if (a == 1) {{ acc = acc + 1; acc = acc + 1; }}\n\
         {body}\
         \x20       if (a == 1) {{ acc = acc + 2; acc = acc + 2; }}\n\
         \x20       i = i + 1;\n\
         \x20   }}\n\
         \x20   emit(acc);\n\
         }}\n"
    )
}

/// Loop iterations the synthetic padding programs run.
const PADDING_ITERS: i64 = 3000;

/// One padding row: gshare mispredicts *per loop iteration* per history
/// length at one padding distance. Per-iteration, not rate: the padding
/// branches are perfectly predictable, so a plain rate would be diluted by
/// the very padding under study. Per iteration, the pseudo-random branch A
/// costs ~0.5 regardless, and its correlated copy B costs ~0 while A's
/// outcome is still in the history register — and another ~0.5 once the
/// padding has pushed it out.
struct PaddingRow {
    pad: usize,
    misp_per_iter: Vec<f64>,
}

fn padding_experiment() -> Vec<PaddingRow> {
    let specs: Vec<DynSpec> = HISTORIES
        .iter()
        .map(|&h| DynSpec::Gshare {
            history: h,
            table_bits: 16,
        })
        .collect();
    PADDINGS
        .iter()
        .map(|&pad| {
            let source = padding_source(pad);
            let program = mflang::compile(&source).expect("synthetic program compiles");
            let mut zoo = mfdyn::Zoo::new(&specs);
            Vm::with_config(&program, sweep_config(VmConfig::default()))
                .run_observed(&[Input::Int(PADDING_ITERS)], &mut zoo)
                .expect("synthetic program runs");
            let report = zoo.report();
            let misp_per_iter = specs
                .iter()
                .map(|&spec| {
                    report.get(spec).expect("spec in report").mispredicted as f64
                        / PADDING_ITERS as f64
                })
                .collect();
            PaddingRow { pad, misp_per_iter }
        })
        .collect()
}

fn padding_table(rows: &[PaddingRow]) -> Table {
    let cols: Vec<String> = HISTORIES.iter().map(|h| format!("H{h}")).collect();
    let mut headers: Vec<&str> = vec!["PADDING"];
    headers.extend(cols.iter().map(String::as_str));
    let mut t = Table::new(&headers);
    for r in rows {
        let mut cells = vec![r.pad.to_string()];
        cells.extend(r.misp_per_iter.iter().map(|&v| format!("{v:.3}")));
        t.row_owned(cells);
    }
    t
}

/// A result row: the `head` members, then one rate per label, to four
/// decimals.
fn rate_row(head: Vec<(&str, Json)>, labels: &[String], rates: &[f64]) -> Json {
    let rates = labels.iter().zip(rates);
    Json::object(
        head.into_iter()
            .chain(rates.map(|(l, &v)| (l.as_str(), Json::Fixed(v, 4)))),
    )
}

/// The whole result set as the committed `BENCH_dynpred.json` schema.
fn results_json(
    quick: bool,
    rows: &[DynRow],
    geomeans: &[Option<f64>],
    history: &[SweepRow],
    tables: &[SweepRow],
    padding: &[PaddingRow],
) -> Json {
    let h_labels: Vec<String> = HISTORIES.iter().map(|h| format!("h{h}")).collect();
    let t_labels: Vec<String> = TABLE_BITS.iter().map(|t| format!("t{t}")).collect();
    let sweep = |rows: &[SweepRow], labels: &[String]| {
        Json::array(rows.iter().map(|r| {
            let head = vec![
                ("program", r.program.as_str().into()),
                ("dataset", r.dataset.as_str().into()),
            ];
            rate_row(head, labels, &r.rates)
        }))
    };
    let padding = padding
        .iter()
        .map(|r| rate_row(vec![("pad", r.pad.into())], &h_labels, &r.misp_per_iter));
    Json::object([
        ("quick", quick.into()),
        ("columns", Json::array(DYN_COLUMNS)),
        ("headline", Json::array(rows.iter().map(dyn_row_json))),
        (
            "geomean",
            Json::array(geomeans.iter().map(|&v| ipm_json(v))),
        ),
        ("history_sweep", sweep(history, &h_labels)),
        ("table_sweep", sweep(tables, &t_labels)),
        ("padding", Json::array(padding)),
    ])
}

/// `--gate`: structural and directional sanity over the computed results.
/// Everything here is deterministic, so a pass is a permanent pass.
fn gate(
    options: &Options,
    rows: &[DynRow],
    geomeans: &[Option<f64>],
    history: &[SweepRow],
    tables: &[SweepRow],
    padding: &[PaddingRow],
) -> Result<(), String> {
    if rows.is_empty() {
        return Err("headline has no rows".to_string());
    }
    for r in rows {
        if r.ipm.len() != DYN_COLUMNS.len() {
            return Err(format!("{}/{}: ragged headline row", r.program, r.dataset));
        }
        for (c, v) in r.ipm.iter().enumerate() {
            match v {
                Some(v) if *v > 0.0 && v.is_finite() => {}
                Some(v) => {
                    return Err(format!(
                        "{}/{} {}: non-positive ipm {v}",
                        r.program, r.dataset, DYN_COLUMNS[c]
                    ))
                }
                None if DYN_COLUMNS[c] == "ML" => {}
                None => {
                    return Err(format!(
                        "{}/{} {}: missing cell",
                        r.program, r.dataset, DYN_COLUMNS[c]
                    ))
                }
            }
        }
    }
    let rate_ok = |rows: &[SweepRow]| {
        rows.iter()
            .all(|r| !r.rates.is_empty() && r.rates.iter().all(|v| (0.0..=1.0).contains(v)))
    };
    if !rate_ok(history) || !rate_ok(tables) {
        return Err("a sweep rate left [0, 1]".to_string());
    }
    let (first, last) = (
        padding.first().ok_or("padding experiment is empty")?,
        padding.last().ok_or("padding experiment is empty")?,
    );
    // Shortest history, shortest vs longest padding: the correlation must
    // fall out of the register and cost real mispredicts — roughly an
    // extra half-mispredict per iteration (branch B degrading to a coin
    // flip).
    if last.misp_per_iter[0] <= first.misp_per_iter[0] + 0.25 {
        return Err(format!(
            "padding failed to degrade gshare/h{}: {:.3} misp/iter at pad {} vs {:.3} at pad {}",
            HISTORIES[0], last.misp_per_iter[0], last.pad, first.misp_per_iter[0], first.pad,
        ));
    }
    if let Some(min) = options.gate_min_ipm {
        for (c, g) in geomeans.iter().enumerate() {
            if let Some(g) = g {
                if *g < min {
                    return Err(format!(
                        "geomean {} = {g:.2} below --gate-min-ipm {min}",
                        DYN_COLUMNS[c]
                    ));
                }
            }
        }
    }
    Ok(())
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
            eprintln!("dynbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Preflight --out before the (long) collection: an unwritable path is
    // a usage error the user wants now, not after the full suite ran.
    if let Some(path) = &options.out {
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            eprintln!("dynbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let mut harness_options = HarnessOptions::from_env();
    if options.jobs.is_some() {
        harness_options.jobs = options.jobs;
    }
    if options.no_cache {
        harness_options.disk_cache = DiskCache::Off;
    }
    let harness = Harness::new(harness_options);

    let names: Vec<&str> = if options.quick {
        QUICK.to_vec()
    } else {
        mfwork::names().collect()
    };
    eprintln!(
        "dynbench: collecting {} workloads with the online predictor zoo…",
        names.len()
    );
    let s: SuiteRuns = collect_subset_with(&harness, &names);

    let rows = dyn_rows(&s);
    let geomeans = dyn_geomeans(&rows);
    section("Headline: instructions per mispredicted branch");
    print!("{}", dyn_table(&s).render());
    println!("(ML column: \"{ML_TRAIN_MARKER}\" rows trained the committed model)");

    // History sweep comes straight off the headline zoo (gshare at 4
    // history lengths rides on every collected run).
    let gshare_at = |h: u32| DynSpec::Gshare {
        history: h,
        table_bits: 12,
    };
    let history_rows: Vec<SweepRow> = s
        .workloads
        .iter()
        .flat_map(|w| {
            w.runs.iter().zip(&w.zoo).map(|(run, report)| SweepRow {
                program: w.name.clone(),
                dataset: run.dataset.clone(),
                rates: HISTORIES
                    .iter()
                    .map(|&h| {
                        report
                            .get(gshare_at(h))
                            .expect("full_zoo has the history family")
                            .mispredict_rate()
                    })
                    .collect(),
            })
        })
        .collect();
    section("Gshare history-length sensitivity (12-bit table, mispredict rate)");
    let h_cols: Vec<String> = HISTORIES.iter().map(|h| format!("H{h}")).collect();
    print!("{}", sweep_table(&h_cols, &history_rows).render());

    let table_specs: Vec<DynSpec> = TABLE_BITS
        .iter()
        .map(|&t| DynSpec::Gshare {
            history: 8,
            table_bits: t,
        })
        .collect();
    let table_rows = gshare_sweep(&harness, &s, &table_specs);
    section("Gshare table-size/aliasing sweep (8-bit history, mispredict rate)");
    let t_cols: Vec<String> = TABLE_BITS.iter().map(|t| format!("T{t}")).collect();
    print!("{}", sweep_table(&t_cols, &table_rows).render());

    let padding_rows = padding_experiment();
    section("Correlated-branch padding distance (synthetic, gshare misp/iter)");
    print!("{}", padding_table(&padding_rows).render());
    println!(
        "(two perfectly correlated branches; once the padding run exceeds the\n\
         history length, the correlating outcome has left the register)"
    );

    let json = results_json(
        options.quick,
        &rows,
        &geomeans,
        &history_rows,
        &table_rows,
        &padding_rows,
    );
    if let Some(path) = &options.out {
        if let Err(e) = std::fs::write(path, json.render()) {
            eprintln!("dynbench: writing {} failed: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("dynbench: wrote {}", path.display());
    }

    if options.gate {
        if let Err(message) = gate(
            &options,
            &rows,
            &geomeans,
            &history_rows,
            &table_rows,
            &padding_rows,
        ) {
            eprintln!("dynbench: gate violation: {message}");
            return ExitCode::from(1);
        }
        eprintln!("dynbench: gate passed");
    }
    ExitCode::SUCCESS
}
