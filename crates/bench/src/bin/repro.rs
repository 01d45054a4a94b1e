//! `repro`: regenerates every table and figure of Fisher & Freudenberger
//! (ASPLOS 1992) from the reproduced system.
//!
//! ```text
//! repro                      # everything, in parallel, cached
//! repro --table1             # just Table 1
//! repro --fig2 --jobs 8      # just Figure 2a/2b, eight workers
//! repro --json-metrics m.json --no-cache
//! ```
//!
//! Build with `--release`; the full matrix executes a few hundred million
//! guest instructions. Runs go through the mfharness scheduler: repeats
//! are served from `target/mfharness-cache/` (delete the directory or
//! pass `--no-cache` for a cold start), and a scheduler/cache summary is
//! printed at the end.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use mfbench::{
    collect, combination_table, configure_harness, coverage_table, crossmode_table,
    distribution_table, dyn_table, dyn_table_json, dynamic_table, fig1_chart, fig2_chart,
    fig2_rows, fig3_chart, fig3_rows, harness, heuristic_table, heuristic_table_json,
    inlining_table, percent_correct_table, percent_taken_table, record_suite_svc, selects_table,
    skew_json, suite_skew, table1, table2, table3, SuiteRuns, SuiteSkew,
};
use mffault::{FaultPlan, FaultVfs, RealVfs, RetryPolicy, Vfs};
use mfharness::{DiskCache, HarnessOptions};
use mfprofsvc::{ProfileService, ServiceOptions};
use mfwork::Group;

const WIDTH: usize = 60;

/// Section-selecting flags, in print order.
const SECTIONS: &[&str] = &[
    "--table1",
    "--table2",
    "--table3",
    "--fig1",
    "--fig2",
    "--fig3",
    "--correct",
    "--taken",
    "--combine",
    "--heuristic",
    "--selects",
    "--crossmode",
    "--coverage",
    "--dynamic",
    "--inline",
    "--distribution",
    "--dyn",
];

const USAGE: &str = "\
usage: repro [SECTION...] [OPTION...]

sections (default: all):
  --table1 --table2 --table3 --fig1 --fig2 --fig3
  --correct --taken --combine --heuristic --selects --crossmode
  --coverage --dynamic --inline --distribution --dyn

options:
  --jobs N            worker threads (default: MFHARNESS_JOBS or
                      available parallelism, clamped to 8)
  --backend NAME      VM backend for measured runs: 'flat' (default,
                      the pre-compiled bytecode interpreter) or
                      'reference' (the tree-walking baseline); both
                      produce bit-identical tables and figures
  --json-metrics PATH write the harness report (timings, cache hits,
                      utilization) as JSON to PATH
  --no-cache          skip the persistent cache (target/mfharness-cache/)
  --verify-each       run the mfcheck semantic verifier between
                      optimization passes (a defective pass aborts, named)
                      and stamp each run record with its program's
                      verification digest
  --profile-db DIR    append every collected run's branch profile to the
                      crash-safe sharded profile database at DIR (created
                      on first use; repeat invocations accumulate; an old
                      single-log database migrates on first write) and
                      print a persistence summary
  --shards N          shard count for a NEWLY created profile database
                      (default: 8); an existing database keeps the count
                      pinned in its manifest
  --compact-every N   fold the profile database's history only once it
                      holds at least N committed batches (default: 1,
                      i.e. compact on every invocation that recorded)
  --io-retries N      bounded retries for transient I/O faults in the
                      run cache and profile db (default: 2)
  --fault-seed N      deterministically inject I/O faults into the run
                      cache and profile db (a robustness experiment:
                      tables and figures stay exact; persistence may
                      degrade without failing the run)
  -h, --help          this message";

struct Options {
    sections: Vec<String>,
    jobs: Option<usize>,
    json_metrics: Option<PathBuf>,
    no_cache: bool,
    verify_each: bool,
    profile_db: Option<PathBuf>,
    shards: Option<u32>,
    compact_every: Option<u64>,
    io_retries: Option<u32>,
    fault_seed: Option<u64>,
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("repro: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        sections: Vec::new(),
        jobs: None,
        json_metrics: None,
        no_cache: false,
        verify_each: false,
        profile_db: None,
        shards: None,
        compact_every: None,
        io_retries: None,
        fault_seed: None,
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
            "--backend" => {
                let backend = value(&mut iter)?.parse()?;
                mfbench::set_backend(backend);
            }
            "--json-metrics" => {
                options.json_metrics = Some(PathBuf::from(value(&mut iter)?));
            }
            "--no-cache" => options.no_cache = true,
            "--verify-each" => options.verify_each = true,
            "--profile-db" => {
                options.profile_db = Some(PathBuf::from(value(&mut iter)?));
            }
            "--shards" => {
                let v = value(&mut iter)?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("--shards expects a positive integer, got '{v}'"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                options.shards = Some(n);
            }
            "--compact-every" => {
                let v = value(&mut iter)?;
                let n: u64 = v.parse().map_err(|_| {
                    format!("--compact-every expects a positive integer, got '{v}'")
                })?;
                if n == 0 {
                    return Err("--compact-every must be at least 1".to_string());
                }
                options.compact_every = Some(n);
            }
            "--io-retries" => {
                let v = value(&mut iter)?;
                options.io_retries = Some(
                    v.parse()
                        .map_err(|_| format!("--io-retries expects a retry count, got '{v}'"))?,
                );
            }
            "--fault-seed" => {
                let v = value(&mut iter)?;
                options.fault_seed =
                    Some(v.parse().map_err(|_| {
                        format!("--fault-seed expects an unsigned seed, got '{v}'")
                    })?);
            }
            _ if inline_value.is_none() && SECTIONS.contains(&flag) => {
                options.sections.push(flag.to_string());
            }
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => return usage_error(&message),
    };

    // CLI flags override the MFHARNESS_* environment knobs, which in turn
    // override the built-in defaults.
    let mut harness_options = HarnessOptions::from_env();
    if options.jobs.is_some() {
        harness_options.jobs = options.jobs;
    }
    if options.no_cache {
        harness_options.disk_cache = DiskCache::Off;
    }
    if options.verify_each {
        harness_options.verify = true;
        mfbench::set_verify_each(true);
    }
    if options.io_retries.is_some() {
        harness_options.io_retries = options.io_retries;
    }
    if options.fault_seed.is_some() {
        harness_options.fault_seed = options.fault_seed;
    }
    let store = options
        .profile_db
        .as_ref()
        .map(|dir| open_profile_db(dir, &options, &harness_options));
    configure_harness(harness_options);
    let want =
        |flag: &str| options.sections.is_empty() || options.sections.iter().any(|s| s == flag);

    if want("--table2") {
        section("Table 2: programs and datasets");
        print!("{}", table2().render());
        if options.sections == ["--table2"] {
            // Nothing ran, but --json-metrics still deserves a (zeroed)
            // report — and a failure exit if the path is unwritable or
            // the profile database could not be made persistent.
            let db_failed = profile_db_summary(&options, store.as_ref(), None);
            let metrics = write_json_metrics(&options, None, None);
            return if db_failed {
                ExitCode::from(2)
            } else {
                metrics
            };
        }
    }

    eprintln!("collecting runs for the whole suite (one run per program x dataset)…");
    let start = std::time::Instant::now();
    let s: SuiteRuns = collect();
    let total: u64 = s
        .workloads
        .iter()
        .flat_map(|w| w.runs.iter())
        .map(|r| r.stats.total_instrs)
        .sum();
    eprintln!(
        "collected {} runs, {} guest instructions, in {:.1}s",
        s.workloads.iter().map(|w| w.runs.len()).sum::<usize>(),
        total,
        start.elapsed().as_secs_f64()
    );
    // Assess how the prior generation's counts map onto the programs as
    // compiled now — BEFORE this generation's runs are recorded on top.
    let skew = store.as_ref().and_then(|db| assess_skew(db, &s));
    if let Some(db) = store.as_ref() {
        let (committed, in_memory) = record_suite_svc(&db.svc, &s)
            .expect("probabilistic fault plans never include crash points");
        eprintln!(
            "profile db: recorded {} runs ({committed} durable, {in_memory} in memory)",
            committed + in_memory
        );
        // Fold the accumulated history so the database stays bounded
        // across repeat invocations — by default on every run, or only
        // once at least `--compact-every` batches piled up.
        let threshold = options.compact_every.unwrap_or(1);
        let batches = db
            .svc
            .total_batches()
            .expect("probabilistic fault plans never include crash points");
        if batches >= threshold {
            db.svc
                .compact()
                .expect("probabilistic fault plans never include crash points");
        } else {
            eprintln!("profile db: compaction deferred ({batches} of {threshold} batches)");
        }
    }

    if want("--table1") {
        section("Table 1: dynamic dead code the compiler's DCE would remove");
        print!("{}", table1(&s).render());
    }
    if want("--fig1") {
        section("Figure 1a/1b: instrs per break, no prediction");
        print!("{}", fig1_chart(&s, Group::FortranFp).render(WIDTH));
        println!();
        print!("{}", fig1_chart(&s, Group::CInteger).render(WIDTH));
    }
    if want("--fig2") {
        section("Figure 2a/2b: instrs per break, predicted (self vs sum-of-others)");
        print!("{}", fig2_chart(&s, true).render(WIDTH));
        println!();
        print!("{}", fig2_chart(&s, false).render(WIDTH));
        let rows = fig2_rows(&s, false);
        let recovered: Vec<f64> = rows
            .iter()
            .filter(|r| r.self_ipb > 0.0)
            .map(|r| r.others_ipb / r.self_ipb)
            .collect();
        if !recovered.is_empty() {
            let mean = recovered.iter().sum::<f64>() / recovered.len() as f64;
            println!(
                "\n(sum-of-others recovers on average {:.0}% of the self-prediction bound)",
                mean * 100.0
            );
        }
    }
    if want("--table3") {
        section("Table 3: instrs/break (FORTRAN programs, little dataset variability)");
        print!("{}", table3(&s).render());
    }
    if want("--fig3") {
        section("Figure 3a/3b: best/worst single-dataset predictor, % of self");
        print!("{}", fig3_chart(&s, true).render(WIDTH));
        println!();
        print!("{}", fig3_chart(&s, false).render(WIDTH));
        let worst = fig3_rows(&s, false)
            .into_iter()
            .min_by(|a, b| a.worst.1.partial_cmp(&b.worst.1).expect("finite"));
        if let Some(w) = worst {
            println!(
                "\n(most dramatic worst case: {} predicted by {} at {:.0}% of self)",
                w.label,
                w.worst.0,
                w.worst.1 * 100.0
            );
        }
    }
    if want("--correct") {
        section("The misleading measure: % branches correct vs instrs/break");
        print!("{}", percent_correct_table(&s).render());
    }
    if want("--taken") {
        section("Informal: percent-taken as a program constant");
        print!("{}", percent_taken_table(&s).render());
    }
    if want("--combine") {
        section("Informal: scaled vs unscaled vs polling combination");
        print!("{}", combination_table(&s).render());
    }
    if want("--heuristic") {
        section("Informal: loop heuristic vs profile feedback");
        print!("{}", heuristic_table(&s).render());
    }
    if want("--selects") {
        section("Informal: select instructions as a fraction of all instructions");
        print!("{}", selects_table(&s).render());
    }
    if want("--crossmode") {
        section("Informal: compress and uncompress do not predict each other");
        if let Some(t) = crossmode_table(&s) {
            print!("{}", t.render());
        }
    }
    if want("--coverage") {
        section("Informal: does poor cross-prediction come from coverage or flips?");
        print!("{}", coverage_table(&s).render());
    }
    if want("--dynamic") {
        section("Extension: static profile feedback vs 1-bit/2-bit hardware schemes");
        print!("{}", dynamic_table().render());
    }
    if want("--inline") {
        section("Extension: inlining removes direct call/return breaks");
        print!("{}", inlining_table().render());
    }
    if want("--distribution") {
        section("Run lengths between mispredicted branches are not evenly spaced");
        print!("{}", distribution_table().render());
    }
    if want("--dyn") {
        section("Extension: online dynamic-predictor zoo (instrs per mispredict)");
        print!("{}", dyn_table(&s).render());
        println!("(higher is better; dynamic predictors observe every outcome online,");
        println!(" profile feedback sees only a prior run's aggregate counts)");
    }

    let report = harness().report();
    section("Harness: scheduler and cache summary");
    print!("{}", report.summary_table().render());
    if let Some(dir) = harness().cache_dir() {
        println!(
            "(persistent cache: {}; delete it or pass --no-cache for a cold run)",
            dir.display()
        );
    }
    let db_failed = profile_db_summary(&options, store.as_ref(), skew.as_ref());
    let metrics = write_json_metrics(&options, Some(&s), skew.as_ref());
    if db_failed {
        ExitCode::from(2)
    } else {
        metrics
    }
}

/// The opened `--profile-db` service plus a point-in-time snapshot of
/// what it held *before* this invocation recorded anything — the prior
/// generation the version-skew remap assesses reuse against.
struct DbSession {
    svc: ProfileService,
    /// Per-dataset merged totals at open time. Empty on the very first
    /// generation (a fresh database).
    prior: mfprofsvc::MergedTotals,
    /// Stored structural fingerprints at open time, per dataset label.
    prior_fps: std::collections::BTreeMap<String, std::collections::BTreeMap<u32, u64>>,
}

/// Opens the `--profile-db` sharded service, with fault injection and
/// retry budget matching the harness's own I/O discipline. `--shards`
/// applies only when the database is created here; an existing manifest
/// wins, and an old single-log database opens read-only and migrates on
/// the first write.
fn open_profile_db(dir: &Path, options: &Options, harness_options: &HarnessOptions) -> DbSession {
    let vfs: Arc<dyn Vfs> = match harness_options.fault_seed {
        Some(seed) => Arc::new(FaultVfs::new(
            Arc::new(RealVfs) as Arc<dyn Vfs>,
            FaultPlan::from_seed(seed),
        )),
        None => Arc::new(RealVfs),
    };
    let svc_options = ServiceOptions {
        shards: options.shards.unwrap_or(8),
        retry: RetryPolicy::immediate(harness_options.io_retries.unwrap_or(2)),
        ..ServiceOptions::default()
    };
    let svc = ProfileService::open(vfs, dir, svc_options)
        .expect("probabilistic fault plans never include crash points");
    let prior = svc.merged_totals().unwrap_or_else(|e| {
        eprintln!("repro: warning: reading prior profile totals failed: {e}");
        Default::default()
    });
    let prior_fps = svc.merged_fingerprints_by_dataset().unwrap_or_else(|e| {
        eprintln!("repro: warning: reading prior profile fingerprints failed: {e}");
        Default::default()
    });
    DbSession {
        svc,
        prior,
        prior_fps,
    }
}

/// Assesses how the prior generation's counts carry over to the programs
/// as compiled now. `None` when there is no prior data to assess (the
/// first generation) or the prior records are corrupt (warned, never
/// fatal — skew tolerance degrades, it does not fail the run).
fn assess_skew(db: &DbSession, s: &SuiteRuns) -> Option<SuiteSkew> {
    if db.prior.is_empty() {
        return None;
    }
    match suite_skew(&db.prior, &db.prior_fps, s) {
        Ok(skew) => Some(skew),
        Err(e) => {
            eprintln!("repro: warning: prior profile unusable for reuse ({e}); recording fresh");
            None
        }
    }
}

/// Prints the profile-database section and surfaces its warnings. Returns
/// true when the run must fail: the database could not be made (or kept)
/// persistent and no fault injection was requested, so data the user
/// asked to keep exists only in this process's memory.
fn profile_db_summary(
    options: &Options,
    store: Option<&DbSession>,
    skew: Option<&SuiteSkew>,
) -> bool {
    let Some(db) = store else {
        return false;
    };
    let store = &db.svc;
    section("Profile database");
    let svc = store.counters();
    let c = svc.store;
    let datasets = store.merged_totals().map(|m| m.len()).unwrap_or(0);
    println!("path: {}", store.dir().display());
    println!(
        "state: {}",
        if store.is_persistent() {
            "persistent"
        } else {
            "in-memory only (degraded)"
        }
    );
    println!("  shards                   {}", store.shard_count());
    println!("  datasets                 {datasets}");
    println!("  records committed        {}", c.committed_appends);
    println!("  records in memory only   {}", c.degraded_appends);
    println!("  records salvaged at open {}", c.salvaged_records);
    println!("  torn bytes truncated     {}", c.truncated_bytes);
    println!("  io retries               {}", c.io_retries);
    println!("  compactions              {}", c.compactions);
    println!("  group commits            {}", svc.group_commits);
    println!("  records migrated         {}", svc.migrated_records);
    println!("\nProfile reuse (version skew):");
    if db.prior.is_empty() {
        println!("  first generation (no prior runs)");
    } else if let Some(skew) = skew {
        println!("  prior datasets           {}", db.prior.len());
        println!("  sites: {}", skew.total);
        println!(
            "  reuse                    {:.1}% of recorded sites{}",
            skew.total.reuse_fraction() * 100.0,
            if skew.is_identity() {
                " (identity: program unchanged)"
            } else {
                ""
            }
        );
        for w in &skew.workloads {
            println!(
                "    {:<12} {} [{} prior dataset{}]",
                w.name,
                w.report,
                w.prior_datasets,
                if w.prior_datasets == 1 { "" } else { "s" }
            );
            for &(id, taken, source) in &w.fallback {
                println!(
                    "      site {} -> static tier {:?} predicts {}",
                    id.0,
                    source,
                    if taken { "taken" } else { "not taken" }
                );
            }
        }
    } else {
        println!(
            "  prior profile present ({} datasets); reuse is assessed when runs are collected",
            db.prior.len()
        );
    }
    for w in store.warnings() {
        eprintln!("repro: warning: {w}");
    }
    if !store.is_persistent() && options.fault_seed.is_none() {
        eprintln!(
            "repro: profile database at {} is not persistent",
            store.dir().display()
        );
        return true;
    }
    false
}

/// Writes the harness report to `--json-metrics` (when requested) and turns
/// a write failure into a failing exit code. When the suite was collected,
/// the heuristic table (mispredict rate per strategy), the dynamic
/// predictor headline, and — under `--profile-db` — the version-skew
/// assessment follow as additive `heuristic_table`, `dyn_table`, and
/// `skew` members.
fn write_json_metrics(
    options: &Options,
    s: Option<&SuiteRuns>,
    skew: Option<&SuiteSkew>,
) -> ExitCode {
    if let Some(path) = &options.json_metrics {
        let mut body = harness().report().to_json();
        if let Some(s) = s {
            body.push("heuristic_table", heuristic_table_json(s));
            body.push("dyn_table", dyn_table_json(s));
            if options.profile_db.is_some() {
                body.push("skew", skew_json(skew));
            }
        }
        if let Err(e) = std::fs::write(path, body.render()) {
            eprintln!("repro: writing {} failed: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote harness metrics to {}", path.display());
    }
    ExitCode::SUCCESS
}
