#![warn(missing_docs)]

//! # mfbench
//!
//! The experiment driver: runs the whole program sample base once,
//! collecting per-dataset run statistics, then regenerates every table and
//! figure of the paper analytically from those runs (a static predictor's
//! mispredictions on a recorded run are fully determined by the per-branch
//! counts, so nothing is ever re-executed per predictor).
//!
//! The `repro` binary prints everything; `vmbench`, `dynbench` and
//! `svcbench` measure the machinery behind it.
//!
//! All guest execution is routed through an [`mfharness::Harness`] the
//! caller builds and passes in (`repro`, `dynbench` and `mftrain` build
//! one from their flags over [`mfharness::HarnessOptions::from_env`]):
//! runs are deduplicated by content key, repeats are served from the
//! cache, and misses execute on a work-stealing pool. The same workers
//! prepare the runs: they generate only the workloads a collection runs
//! ([`mfwork::workload`]) and only the datasets an extension table runs
//! ([`mfwork::DatasetRow`]), build each distinct program with its static
//! predictors, and construct the run jobs with their keys; a one-worker
//! harness does all of it on the calling thread. Table 2 renders from
//! the suite's static metadata and generates nothing.
//! Results come back in submission order, so every table and figure is
//! bit-identical to the serial reference path ([`collect_serial`]) at any
//! worker count.

pub mod chaos;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use bpredict::experiment::{self, DatasetRun};
use bpredict::{evaluate, evaluate_unpredicted, BreakConfig, Direction, Metrics, Predictor};
use ifprob::CombineRule;
use mfdyn::{DynSpec, ZooReport};
use mfharness::{Harness, Observe, RunJob};
use mfreport::json::Json;
use mfreport::{fmt_percent, fmt_value, BarChart, Table};
use mfwork::{suite, Group, Workload};
use trace_ir::{BranchId, Program};
use trace_vm::{Backend, Input, VmConfig};

/// One workload's collected experiment data: the profiling build and
/// everything measured on it, so whatever persists or reinterprets the
/// counts ([`record_suite_svc`], [`suite_skew`]) reads the branch sites
/// from the build that produced them.
#[derive(Clone, Debug)]
pub struct WorkloadRuns {
    /// Program name.
    pub name: String,
    /// FORTRAN/FP or C/integer.
    pub group: Group,
    /// The profiling build (optimization off) every run in `runs`
    /// executed; its branch ids key their counters.
    pub program: Arc<Program>,
    /// One profiled run per dataset, on `program`.
    pub runs: Vec<DatasetRun>,
    /// Dynamic instructions of the *optimized* build on the first dataset
    /// (for Table 1).
    pub opt_instrs_first: u64,
    /// Dynamic instructions of the profiling build on the first dataset.
    pub base_instrs_first: u64,
    /// Select-instruction fraction on the first dataset.
    pub select_ratio: f64,
    /// The heuristic (backward-taken / forward-not-taken) predictor for
    /// this program's profiling build.
    pub heuristic: Predictor,
    /// The BTFN static-heuristic predictor computed from the loop forest
    /// (back edges by dominance, not block layout).
    pub btfn: Predictor,
    /// BTFN with every branch the interval abstract interpreter *proved*
    /// pinned to its proven direction (`mfpredict::analyze`).
    pub proof: Predictor,
    /// The committed static ML model's per-branch predictions
    /// (`mfpredict::Model::committed` over `mfpredict` feature vectors).
    pub ml: Predictor,
    /// Online dynamic-predictor tallies per dataset, aligned with `runs`:
    /// the [`mfdyn::full_zoo`] roster driven over each profiling run's
    /// branch stream as it executed (same run, observed — attaching the
    /// zoo changes no statistic).
    pub zoo: Vec<ZooReport>,
}

/// The whole suite's collected data.
#[derive(Clone, Debug)]
pub struct SuiteRuns {
    /// Per-workload data, in Table 2 order.
    pub workloads: Vec<WorkloadRuns>,
}

impl SuiteRuns {
    /// Finds one workload's data by name.
    pub fn workload(&self, name: &str) -> Option<&WorkloadRuns> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

// --------------------------------------------------------------------
// Collection through the execution harness
// --------------------------------------------------------------------

/// The VM backend harness-scheduled measurement runs execute on. Both
/// backends are observably identical, so this never changes a table or
/// figure — it only changes how fast the collection step goes. Bench
/// collection defaults to the flat backend; `repro --backend reference`
/// restores the tree-walking baseline. The serial reference path
/// ([`collect_serial`]) always runs the reference interpreter, so the
/// harness-vs-serial equivalence tests double as a whole-suite
/// flat-vs-reference differential.
static BACKEND: AtomicU8 = AtomicU8::new(Backend::Flat as u8);

/// Selects the VM backend for harness-scheduled measurement runs.
pub fn set_backend(backend: Backend) {
    BACKEND.store(backend as u8, Ordering::Relaxed);
}

/// The VM backend harness-scheduled measurement runs execute on.
pub fn backend() -> Backend {
    if BACKEND.load(Ordering::Relaxed) == Backend::Reference as u8 {
        Backend::Reference
    } else {
        Backend::Flat
    }
}

/// Stamps the selected backend onto a base VM configuration.
fn run_config(base: VmConfig) -> VmConfig {
    VmConfig {
        backend: backend(),
        ..base
    }
}

/// A recorded run's branch counters must be consistent with the program
/// that produced them — `taken ≤ executed` and every counter keyed by a
/// registered branch site. A violation means the measurement itself is
/// corrupt, so it stops the experiment rather than skewing a table.
fn check_run_profile(program: &Program, label: &str, dataset: &str, stats: &trace_vm::RunStats) {
    let entries: Vec<_> = stats.branches.iter().collect();
    let issues = mfcheck::check_against_program(program, &entries);
    assert!(
        issues.is_empty(),
        "{label}/{dataset}: corrupt branch profile: {}",
        issues
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

/// A workload's builds and run jobs, ready to submit.
struct Prepared {
    name: &'static str,
    group: Group,
    /// The workload's dataset names, in order.
    datasets: Vec<String>,
    /// Shared by the workloads that run one source.
    build: Arc<Build>,
    /// One zoo-observed job per dataset on the profiling build, then the
    /// optimized build on the first dataset.
    jobs: Vec<RunJob>,
}

/// What preparing a guest program yields: its builds and static
/// predictors. Workloads that run one source share one `Build`.
#[derive(Clone)]
struct Build {
    program: Arc<Program>,
    optimized: Arc<Program>,
    heuristic: Predictor,
    btfn: Predictor,
    proof: Predictor,
    ml: Predictor,
}

/// BTFN with interval proofs pinned: every site the abstract interpreter
/// proved keeps its proven direction; everything else falls back to the
/// loop-forest heuristic.
fn proof_predictor(analysis: &mfpredict::ProgramProofs, btfn: &Predictor) -> Predictor {
    use bpredict::Direction;
    let mut dirs: std::collections::BTreeMap<_, _> = btfn.iter().collect();
    for (id, taken) in analysis.proven_directions() {
        let dir = if taken {
            Direction::Taken
        } else {
            Direction::NotTaken
        };
        dirs.insert(id, dir);
    }
    Predictor::from_directions(dirs, Direction::NotTaken)
}

/// The committed ML model's predictions over `program`'s static features.
fn ml_predictor(program: &Program, analysis: &mfpredict::ProgramProofs) -> Predictor {
    use bpredict::Direction;
    let features = mfpredict::extract(program, analysis);
    Predictor::from_directions(
        mfpredict::Model::committed()
            .predict_branches(&features)
            .map(|(id, taken)| {
                let dir = if taken {
                    Direction::Taken
                } else {
                    Direction::NotTaken
                };
                (id, dir)
            }),
        Direction::NotTaken,
    )
}

/// The optimized build of a workload: the standard pipeline over a copy
/// of its profiling build `program`, so the source compiles once. With
/// `verify` (a verifying harness, `repro --verify-each`) the `mfcheck`
/// verifier runs between passes ([`mfopt::Pipeline::run_checked`]), so a
/// defective pass is reported by name instead of corrupting the
/// measurement.
fn optimize(name: &str, program: &Program, verify: bool) -> Program {
    let mut optimized = program.clone();
    if verify {
        mfopt::Pipeline::standard()
            .run_checked(&mut optimized)
            .unwrap_or_else(|defect| panic!("{name}: {defect}"));
    } else {
        mfopt::Pipeline::standard().run(&mut optimized);
    }
    optimized
}

/// The profiling build (optimization off) of a bundled source.
fn compile_workload(source: &str) -> Program {
    mflang::compile(source).expect("bundled workload compiles")
}

impl Build {
    /// The builds and predictors of `workload`, whose profiling build
    /// comes from `h`'s program store. A verifying `h` checks the
    /// optimized build between passes.
    fn of(h: &Harness, workload: &Workload) -> Build {
        let program = h.program(&workload.source, compile_workload);
        let optimized = Arc::new(optimize(workload.name, &program, h.verify()));
        let heuristic = Predictor::heuristic(&program);
        let btfn = Predictor::static_heuristic(&program);
        let analysis = mfpredict::analyze(&program);
        let proof = proof_predictor(&analysis, &btfn);
        let ml = ml_predictor(&program, &analysis);
        Build {
            program,
            optimized,
            heuristic,
            btfn,
            proof,
            ml,
        }
    }
}

/// Runs `f(i)` for every `i in 0..count` on `h`'s workers and returns the
/// results in index order; a one-worker harness runs them on the calling
/// thread and spawns none. A panic in `f` (the first in index order)
/// resurfaces on the calling thread with its own message, so a failed
/// build reads the same at any worker count.
fn on_workers<T, F>(h: &Harness, count: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    mfharness::run_indexed_supervised(h.jobs(), count, f)
        .0
        .into_iter()
        .map(|r| r.unwrap_or_else(|message| std::panic::resume_unwind(Box::new(message))))
        .collect()
}

/// Prepares each workload on `h`'s workers: builds every distinct source
/// once, then constructs each workload's run jobs, keys included.
/// compress and uncompress are one guest program, so they share its
/// builds and predictors (the `Arc`s point at one program). A verifying
/// harness also checks the optimized builds between passes.
fn prepare(h: &Harness, workloads: Vec<Workload>) -> Vec<Prepared> {
    // `firsts`: the first workload with each distinct source, in order;
    // `build_of[i]`: which of them workload `i` shares its build with.
    let mut firsts: Vec<usize> = Vec::new();
    let build_of: Vec<usize> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            firsts
                .iter()
                .position(|&f| workloads[f].source == w.source)
                .unwrap_or_else(|| {
                    firsts.push(i);
                    firsts.len() - 1
                })
        })
        .collect();
    let builds = on_workers(h, firsts.len(), |k| {
        Arc::new(Build::of(h, &workloads[firsts[k]]))
    });
    let jobs = on_workers(h, workloads.len(), |i| {
        let (w, build) = (&workloads[i], &builds[build_of[i]]);
        let config = run_config(w.vm_config());
        let mut jobs: Vec<RunJob> = w
            .datasets
            .iter()
            .map(|d| {
                RunJob::with_observer(
                    w.name,
                    d.name.clone(),
                    Arc::clone(&build.program),
                    d.inputs.clone(),
                    config,
                    Observe::Zoo(mfdyn::full_zoo()),
                )
            })
            .collect();
        let first = &w.datasets[0];
        jobs.push(RunJob::new(
            format!("{}:optimized", w.name),
            first.name.clone(),
            Arc::clone(&build.optimized),
            first.inputs.clone(),
            config,
        ));
        jobs
    });
    workloads
        .iter()
        .zip(jobs)
        .zip(build_of)
        .map(|((w, jobs), k)| Prepared {
            name: w.name,
            group: w.group,
            datasets: w.datasets.iter().map(|d| d.name.clone()).collect(),
            build: Arc::clone(&builds[k]),
            jobs,
        })
        .collect()
}

/// Submits the whole batch — every prepared job, in workload order — and
/// assembles per-workload results in submission order.
fn collect_prepared(h: &Harness, mut prepared: Vec<Prepared>) -> SuiteRuns {
    let mut jobs = Vec::new();
    for p in &mut prepared {
        jobs.append(&mut p.jobs);
    }
    let outcomes = h.run(jobs).unwrap_or_else(|e| panic!("{e}"));
    let mut outcomes = outcomes.into_iter();
    let mut workloads = Vec::with_capacity(prepared.len());
    for p in prepared {
        let mut runs = Vec::with_capacity(p.datasets.len());
        let mut zoo = Vec::with_capacity(p.datasets.len());
        for dataset in p.datasets {
            let outcome = outcomes.next().expect("one outcome per dataset job");
            check_run_profile(&p.build.program, p.name, &dataset, &outcome.stats);
            zoo.push(
                outcome
                    .zoo()
                    .expect("zoo jobs always carry a report")
                    .clone(),
            );
            runs.push(DatasetRun::new(dataset, (*outcome.stats).clone()));
        }
        let opt = outcomes.next().expect("one outcome per optimized job");
        let base_instrs_first = runs[0].stats.total_instrs;
        let select_ratio = runs[0].stats.select_ratio();
        let build = Arc::unwrap_or_clone(p.build);
        workloads.push(WorkloadRuns {
            name: p.name.to_string(),
            group: p.group,
            program: build.program,
            runs,
            opt_instrs_first: opt.stats.total_instrs,
            base_instrs_first,
            select_ratio,
            heuristic: build.heuristic,
            btfn: build.btfn,
            proof: build.proof,
            ml: build.ml,
            zoo,
        });
    }
    SuiteRuns { workloads }
}

/// Appends every collected run's branch counters to the sharded profile
/// service, one record per program × dataset labelled `program/dataset`.
/// Each record carries the structural site fingerprints of the build the
/// counts were measured on ([`WorkloadRuns::program`]), so a later
/// `repro --profile-db` can reuse them across a program edit (see
/// `mfstale`). Every run is enqueued, then one `flush` group-commits the
/// whole suite: a single append+sync per touched shard instead of one per
/// run. Returns `(committed, in_memory_only)` record counts; `Err` only on
/// an injected crash point (never from a probabilistic fault plan).
pub fn record_suite_svc(
    svc: &mfprofsvc::ProfileService,
    s: &SuiteRuns,
) -> Result<(usize, usize), mfprofsvc::DbError> {
    for w in &s.workloads {
        let fps = mfstale::site_fingerprints(&w.program);
        for r in &w.runs {
            let label = format!("{}/{}", w.name, r.dataset);
            svc.enqueue_with_fps(&label, &r.stats.branches, &fps)?;
        }
    }
    let (mut committed, mut degraded) = (0usize, 0usize);
    for (_, p) in svc.flush()? {
        match p {
            mfprofsvc::Persistence::Committed => committed += 1,
            mfprofsvc::Persistence::Degraded => degraded += 1,
        }
    }
    Ok((committed, degraded))
}

// --------------------------------------------------------------------
// Profile reuse under version skew
// --------------------------------------------------------------------

/// One workload's profile-reuse assessment: how a prior database's
/// accumulated counts mapped onto the program as it compiles *today*.
#[derive(Clone, Debug)]
pub struct WorkloadSkew {
    /// Program name.
    pub name: String,
    /// Prior `program/dataset` records consumed.
    pub prior_datasets: usize,
    /// How every recorded site and every live site classified.
    pub report: mfstale::SkewReport,
    /// Live sites no prior record could feed, with their static-tier
    /// fallback prediction (interval proof → ML model → BTFN).
    pub fallback: Vec<(trace_ir::BranchId, bool, mfpredict::StaticTierSource)>,
}

/// The whole suite's profile-reuse assessment against a prior database.
#[derive(Clone, Debug, Default)]
pub struct SuiteSkew {
    /// Per-workload assessments, suite order, only workloads with prior
    /// records.
    pub workloads: Vec<WorkloadSkew>,
    /// All per-workload reports folded together.
    pub total: mfstale::SkewReport,
}

impl SuiteSkew {
    /// True when every workload's remap was a pure identity — the program
    /// has not changed since the counts were recorded.
    pub fn is_identity(&self) -> bool {
        self.total.is_identity()
    }
}

/// The version-skew assessment as the `skew` object of `repro
/// --json-metrics`: the suite-wide [`mfstale::SkewReport`] tallies plus
/// per-workload rows, or only `first_generation: true` when there was no
/// prior generation. The key set — `first_generation`, `matched`,
/// `salvaged`, `degraded`, `orphaned`, `unverified`, `reuse_fraction`,
/// `workloads` — is the schema contract the crash-matrix CI job checks.
pub fn skew_json(skew: Option<&SuiteSkew>) -> Json {
    let Some(skew) = skew else {
        return Json::object([("first_generation", true.into())]);
    };
    let t = &skew.total;
    let workloads = skew.workloads.iter().map(|w| {
        Json::object([
            ("name", w.name.as_str().into()),
            ("prior_datasets", w.prior_datasets.into()),
            ("matched", w.report.matched.into()),
            ("salvaged", w.report.salvaged.into()),
            ("degraded", w.report.degraded.into()),
            ("orphaned", w.report.orphaned.into()),
            ("unverified", w.report.unverified.into()),
            ("fallback_sites", w.fallback.len().into()),
        ])
    });
    Json::object([
        ("first_generation", false.into()),
        ("matched", t.matched.into()),
        ("salvaged", t.salvaged.into()),
        ("degraded", t.degraded.into()),
        ("orphaned", t.orphaned.into()),
        ("unverified", t.unverified.into()),
        ("reuse_fraction", Json::Fixed(t.reuse_fraction(), 6)),
        ("workloads", Json::array(workloads)),
    ])
}

/// Assesses how a prior profile database's counts carry over to this
/// generation's builds — the read half of version-skew-tolerant reuse
/// (`repro --profile-db` across a program edit), and the one place a
/// multi-dataset prior is carried onto a build.
///
/// `prior` and `prior_fps` come from
/// [`mfprofsvc::ProfileService::merged_totals`] and
/// [`mfprofsvc::ProfileService::merged_fingerprints_by_dataset`] *before*
/// this generation's runs are recorded. Per workload, every prior
/// `workload/dataset` record is validated and remapped by structural
/// fingerprint onto [`WorkloadRuns::program`], the build this generation
/// measured and will record ([`mfstale::remap_counts`]); the per-dataset
/// reports fold into the workload's report. The records' element-wise sum
/// is then remapped once: its degraded sites, the ones *no* record could
/// feed, fall to the static tier ([`mfpredict::static_tier`]). Workloads
/// with no prior records are skipped — that is the first-generation case,
/// not an error.
///
/// # Errors
///
/// [`ifprob::CombineError::Corrupt`] if a prior record is internally
/// inconsistent (`taken > executed`, or a branch listed twice) — skew
/// tolerance does not excuse corruption.
pub fn suite_skew(
    prior: &mfprofsvc::MergedTotals,
    prior_fps: &BTreeMap<String, BTreeMap<u32, u64>>,
    s: &SuiteRuns,
) -> Result<SuiteSkew, ifprob::CombineError> {
    let mut out = SuiteSkew::default();
    for w in &s.workloads {
        let prefix = format!("{}/", w.name);
        type DatasetRows<'a> = Vec<(&'a String, &'a Vec<(u32, u64, u64)>)>;
        let datasets: DatasetRows = prior
            .iter()
            .filter(|(label, _)| label.starts_with(&prefix))
            .collect();
        if datasets.is_empty() {
            continue;
        }
        let program = &w.program;
        let new_fps = mfstale::site_fingerprints(program);
        // Stored fingerprints, unioned across the workload's datasets
        // (they all describe the same program; later records win).
        let mut old_fps: BTreeMap<BranchId, mfstale::SiteFp> = BTreeMap::new();
        for (label, _) in &datasets {
            if let Some(fps) = prior_fps.get(*label) {
                old_fps.extend(fps.iter().map(|(&id, &fp)| (BranchId(id), fp)));
            }
        }
        let mut report = mfstale::SkewReport::default();
        let mut summed: BTreeMap<BranchId, (u64, u64)> = BTreeMap::new();
        for (i, (_, rows)) in datasets.iter().enumerate() {
            let entries: Vec<(BranchId, u64, u64)> = rows
                .iter()
                .map(|&(id, e, t)| (BranchId(id), e, t))
                .collect();
            let issues = mfcheck::check_entries(&entries);
            if !issues.is_empty() {
                return Err(ifprob::CombineError::Corrupt { dataset: i, issues });
            }
            report.merge(&mfstale::remap_counts(&entries, &old_fps, &new_fps).report);
            for (id, e, t) in entries {
                let slot = summed.entry(id).or_insert((0, 0));
                slot.0 = slot.0.saturating_add(e);
                slot.1 = slot.1.saturating_add(t);
            }
        }
        // Remapping the sum degrades a site every dataset missed once,
        // not once per dataset, and applies mfstale's zero-count
        // structural matching across all of them: a never-executed site
        // both program versions share is silence, not skew.
        let summed: Vec<(BranchId, u64, u64)> =
            summed.into_iter().map(|(id, (e, t))| (id, e, t)).collect();
        let remap = mfstale::remap_counts(&summed, &old_fps, &new_fps);
        report.degraded = remap.degraded.len();
        out.total.merge(&report);
        out.workloads.push(WorkloadSkew {
            name: w.name.clone(),
            prior_datasets: datasets.len(),
            report,
            fallback: mfpredict::static_tier(program, &remap.degraded),
        });
    }
    Ok(out)
}

/// Runs every workload on every dataset (the expensive step — everything
/// downstream is analytic) through `h`, whose workers also generate the
/// workloads, build the programs and key the runs. When `h` verifies
/// ([`Harness::verify`]), the optimized builds are also checked between
/// passes.
pub fn collect_with(h: &Harness) -> SuiteRuns {
    collect_subset_with(h, &mfwork::names().collect::<Vec<_>>())
}

/// [`collect_with`] over a named subset (used by tests and the quick
/// bench profile), in suite order; it generates only those workloads.
pub fn collect_subset_with(h: &Harness, names: &[&str]) -> SuiteRuns {
    let names: Vec<&str> = mfwork::names().filter(|n| names.contains(n)).collect();
    let workloads = on_workers(h, names.len(), |i| {
        mfwork::workload(names[i]).expect("names come from the suite")
    });
    collect_prepared(h, prepare(h, workloads))
}

// --------------------------------------------------------------------
// The serial reference path. This is the seed's original collection
// loop, kept verbatim as the ground truth the harness must match
// bit-for-bit (see the equivalence tests).
// --------------------------------------------------------------------

fn collect_workload_serial(w: &Workload) -> WorkloadRuns {
    let program = Arc::new(w.compile().expect("bundled workload compiles"));
    let optimized = optimize(w.name, &program, false);
    let heuristic = Predictor::heuristic(&program);
    let btfn = Predictor::static_heuristic(&program);
    let analysis = mfpredict::analyze(&program);
    let proof = proof_predictor(&analysis, &btfn);
    let ml = ml_predictor(&program, &analysis);
    let mut runs = Vec::with_capacity(w.datasets.len());
    let mut zoo = Vec::with_capacity(w.datasets.len());
    for d in &w.datasets {
        // Observed by the predictor roster, whose tallies are
        // backend-invariant, so they must match the harness path bit for
        // bit.
        let mut observers = mfdyn::Zoo::new(&mfdyn::full_zoo());
        let run = trace_vm::Vm::with_config(&program, w.vm_config())
            .run_observed(&d.inputs, &mut observers)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, d.name));
        check_run_profile(&program, w.name, &d.name, &run.stats);
        runs.push(DatasetRun::new(d.name.clone(), run.stats));
        zoo.push(observers.report());
    }
    let first = &w.datasets[0];
    let base_instrs_first = runs[0].stats.total_instrs;
    let select_ratio = runs[0].stats.select_ratio();
    let opt_run = w
        .run(&optimized, first)
        .unwrap_or_else(|e| panic!("{} optimized: {e}", w.name));
    WorkloadRuns {
        name: w.name.to_string(),
        group: w.group,
        program,
        runs,
        opt_instrs_first: opt_run.stats.total_instrs,
        base_instrs_first,
        select_ratio,
        heuristic,
        btfn,
        proof,
        ml,
        zoo,
    }
}

/// [`collect_with`] without the harness: one thread, no cache, no dedup.
pub fn collect_serial() -> SuiteRuns {
    SuiteRuns {
        workloads: suite().iter().map(collect_workload_serial).collect(),
    }
}

/// [`collect_subset_with`] without the harness.
pub fn collect_subset_serial(names: &[&str]) -> SuiteRuns {
    SuiteRuns {
        workloads: suite()
            .iter()
            .filter(|w| names.contains(&w.name))
            .map(collect_workload_serial)
            .collect(),
    }
}

// --------------------------------------------------------------------
// Table 1: dynamic dead-code percentage
// --------------------------------------------------------------------

/// Table 1: the dynamic fraction of instructions the compiler's DCE (plus
/// constant-branch folding) would have removed, per program.
pub fn table1(s: &SuiteRuns) -> Table {
    let mut t = Table::new(&["PROGRAM", "DEAD CODE"]);
    let mut rows: Vec<(String, f64)> = s
        .workloads
        .iter()
        .map(|w| {
            let dead = 1.0 - w.opt_instrs_first as f64 / w.base_instrs_first as f64;
            (w.name.clone(), dead.max(0.0))
        })
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (name, dead) in rows {
        t.row_owned(vec![name, format!("{:.0}%", dead * 100.0)]);
    }
    t
}

// --------------------------------------------------------------------
// Table 2: the program/dataset inventory
// --------------------------------------------------------------------

/// Table 2: the programs tested and their datasets, rendered from the
/// suite's static metadata ([`mfwork::rows`]): no input is generated.
pub fn table2() -> Table {
    let mut t = Table::new(&["GROUP", "PROGRAM", "DATASET", "DESCRIPTION"]);
    for row in mfwork::rows() {
        let group = match row.group {
            Group::FortranFp => "FORTRAN/FP",
            Group::CInteger => "C/Integer",
        };
        for d in row.datasets {
            t.row(&[group, row.name, d.name, d.description]);
        }
    }
    t
}

// --------------------------------------------------------------------
// Table 3: instrs/break for the low-variability FORTRAN programs
// --------------------------------------------------------------------

/// The programs Table 3 covers: FORTRAN programs with little or no dataset
/// variability.
pub const TABLE3_PROGRAMS: &[&str] = &["tomcatv", "matrix300", "nasa7", "fpppp", "lfk", "doduc"];

/// Table 3: instructions per break under self-prediction for the FORTRAN
/// programs with little dataset variability.
pub fn table3(s: &SuiteRuns) -> Table {
    let mut t = Table::new(&["PROGRAM", "DATASET", "INSTRS/BREAK"]);
    let cfg = BreakConfig::fig2();
    for name in TABLE3_PROGRAMS {
        let Some(w) = s.workload(name) else { continue };
        for run in &w.runs {
            let m = experiment::self_metrics(&run.stats, cfg);
            let ds = if run.dataset == "ref" && w.runs.len() == 1 {
                ""
            } else {
                &run.dataset
            };
            t.row_owned(vec![
                w.name.clone(),
                ds.to_string(),
                fmt_value(m.instrs_per_break),
            ]);
        }
    }
    t
}

// --------------------------------------------------------------------
// Figure 1: instructions per break with no prediction
// --------------------------------------------------------------------

/// One Figure 1 row: a program×dataset pair's unpredicted
/// instructions-per-break, without and with direct call/return breaks.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig1Row {
    /// `program/dataset` label.
    pub label: String,
    /// Black bar: conditional branches + unavoidable breaks.
    pub without_calls: f64,
    /// White bar: plus direct calls and returns.
    pub with_calls: f64,
}

/// Figure 1 data for one program group (1a = FORTRAN/FP, 1b = C/integer).
pub fn fig1_rows(s: &SuiteRuns, group: Group) -> Vec<Fig1Row> {
    let mut rows = Vec::new();
    for w in s.workloads.iter().filter(|w| w.group == group) {
        for run in &w.runs {
            let black = evaluate_unpredicted(&run.stats, BreakConfig::fig1());
            let white = evaluate_unpredicted(&run.stats, BreakConfig::fig1_with_calls());
            rows.push(Fig1Row {
                label: format!("{}/{}", w.name, run.dataset),
                without_calls: black.instrs_per_break,
                with_calls: white.instrs_per_break,
            });
        }
    }
    rows
}

/// Renders Figure 1a or 1b.
pub fn fig1_chart(s: &SuiteRuns, group: Group) -> BarChart {
    let (title, letter) = match group {
        Group::FortranFp => ("Figure 1a: instrs/break, no prediction (FORTRAN/FP)", "a"),
        Group::CInteger => ("Figure 1b: instrs/break, no prediction (C/Integer)", "b"),
    };
    let _ = letter;
    let mut c = BarChart::new(title, "branches+unavoidable", "+direct calls/returns");
    for r in fig1_rows(s, group) {
        c.entry(&r.label, r.without_calls, r.with_calls);
    }
    c
}

// --------------------------------------------------------------------
// Figure 2: instructions per break with prediction
// --------------------------------------------------------------------

/// One Figure 2 row: self-prediction (black) vs the scaled sum of all
/// other datasets (white).
#[derive(Clone, Debug, PartialEq)]
pub struct Fig2Row {
    /// `program/dataset` label.
    pub label: String,
    /// Black bar: the dataset predicting itself (upper bound).
    pub self_ipb: f64,
    /// White bar: leave-one-out scaled-combined predictor. Equal to
    /// `self_ipb` for single-dataset programs (nothing else to combine).
    pub others_ipb: f64,
}

/// Figure 2 data: `spice_only` selects Figure 2a (the spice2g6 datasets);
/// otherwise the C/integer programs (Figure 2b).
pub fn fig2_rows(s: &SuiteRuns, spice_only: bool) -> Vec<Fig2Row> {
    let cfg = BreakConfig::fig2();
    let mut rows = Vec::new();
    for w in &s.workloads {
        let included = if spice_only {
            w.name == "spice2g6"
        } else {
            w.group == Group::CInteger
        };
        if !included {
            continue;
        }
        for (i, run) in w.runs.iter().enumerate() {
            let self_m = experiment::self_metrics(&run.stats, cfg);
            let others = if w.runs.len() > 1 {
                experiment::loo_metrics(&w.runs, i, CombineRule::Scaled, cfg).instrs_per_break
            } else {
                self_m.instrs_per_break
            };
            rows.push(Fig2Row {
                label: format!("{}/{}", w.name, run.dataset),
                self_ipb: self_m.instrs_per_break,
                others_ipb: others,
            });
        }
    }
    rows
}

/// Renders Figure 2a or 2b.
pub fn fig2_chart(s: &SuiteRuns, spice_only: bool) -> BarChart {
    let title = if spice_only {
        "Figure 2a: instrs/break, predicted (spice2g6)"
    } else {
        "Figure 2b: instrs/break, predicted (C/Integer)"
    };
    let mut c = BarChart::new(title, "self (best possible)", "scaled sum of others");
    for r in fig2_rows(s, spice_only) {
        c.entry(&r.label, r.self_ipb, r.others_ipb);
    }
    c
}

// --------------------------------------------------------------------
// Figure 3: best and worst single-dataset predictors
// --------------------------------------------------------------------

/// One Figure 3 row: the best/worst single other dataset as a fraction of
/// self-prediction.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig3Row {
    /// `program/dataset` label of the target.
    pub label: String,
    /// Best single other dataset (fraction of self, and its name).
    pub best: (String, f64),
    /// Worst single other dataset.
    pub worst: (String, f64),
}

/// Figure 3 data: `spice_only` selects 3a; otherwise C/integer programs
/// with ≥2 datasets (3b).
pub fn fig3_rows(s: &SuiteRuns, spice_only: bool) -> Vec<Fig3Row> {
    let cfg = BreakConfig::fig2();
    let mut rows = Vec::new();
    for w in &s.workloads {
        let included = if spice_only {
            w.name == "spice2g6"
        } else {
            w.group == Group::CInteger && w.runs.len() >= 2
        };
        if !included {
            continue;
        }
        for i in 0..w.runs.len() {
            if let Some(bw) = experiment::best_worst(&w.runs, i, cfg) {
                rows.push(Fig3Row {
                    label: format!("{}/{}", w.name, w.runs[i].dataset),
                    best: bw.best,
                    worst: bw.worst,
                });
            }
        }
    }
    rows
}

/// Renders Figure 3a or 3b.
pub fn fig3_chart(s: &SuiteRuns, spice_only: bool) -> BarChart {
    let title = if spice_only {
        "Figure 3a: best/worst single-dataset prediction, % of self (spice2g6)"
    } else {
        "Figure 3b: best/worst single-dataset prediction, % of self (C/Integer)"
    };
    let mut c = BarChart::new(title, "best other dataset", "worst other dataset");
    for r in fig3_rows(s, spice_only) {
        c.entry(&r.label, r.best.1 * 100.0, r.worst.1 * 100.0);
    }
    c
}

// --------------------------------------------------------------------
// Informal observations
// --------------------------------------------------------------------

/// Percent-taken per dataset and the per-program spread (the paper's
/// "program constant" observation: ≤9% spread except spice2g6).
pub fn percent_taken_table(s: &SuiteRuns) -> Table {
    let mut t = Table::new(&["PROGRAM", "DATASET", "% TAKEN", "PROGRAM SPREAD"]);
    for w in &s.workloads {
        let spread = experiment::percent_taken_spread(&w.runs)
            .map(|(lo, hi)| fmt_percent(hi - lo))
            .unwrap_or_default();
        for (i, run) in w.runs.iter().enumerate() {
            let pt = run.percent_taken().map(fmt_percent).unwrap_or_default();
            t.row_owned(vec![
                w.name.clone(),
                run.dataset.clone(),
                pt,
                if i == 0 {
                    spread.clone()
                } else {
                    String::new()
                },
            ]);
        }
    }
    t
}

/// Scaled vs unscaled vs polling: leave-one-out instrs/break per target
/// under each combination rule (multi-dataset programs only).
pub fn combination_table(s: &SuiteRuns) -> Table {
    let cfg = BreakConfig::fig2();
    let mut t = Table::new(&["PROGRAM", "DATASET", "SCALED", "UNSCALED", "POLLING"]);
    for w in &s.workloads {
        if w.runs.len() < 2 {
            continue;
        }
        for i in 0..w.runs.len() {
            let m =
                |rule| fmt_value(experiment::loo_metrics(&w.runs, i, rule, cfg).instrs_per_break);
            t.row_owned(vec![
                w.name.clone(),
                w.runs[i].dataset.clone(),
                m(CombineRule::Scaled),
                m(CombineRule::Unscaled),
                m(CombineRule::Polling),
            ]);
        }
    }
    t
}

/// The heuristic table's fixed column order. This exact sequence is the
/// contract for both the rendered table and the `heuristic_table` object
/// in `repro --json-metrics` — reorder here and you have changed the
/// JSON schema, so don't.
pub const HEURISTIC_COLUMNS: [&str; 11] = [
    "PROGRAM",
    "DATASET",
    "BRANCHES",
    "BTFN",
    "HEURISTIC",
    "PROOF",
    "ML",
    "PROFILE",
    "SELF",
    "2-BIT",
    "GSHARE",
];

/// The online 2-bit counter configuration the heuristic table's `2-BIT`
/// column reports (from the [`mfdyn::full_zoo`] roster).
pub const TWO_BIT_SPEC: DynSpec = DynSpec::TwoBit { table_bits: 12 };

/// The online gshare configuration the heuristic table's `GSHARE` column
/// reports (from the [`mfdyn::full_zoo`] roster).
pub const GSHARE_SPEC: DynSpec = DynSpec::Gshare {
    history: 8,
    table_bits: 12,
};

/// Placeholder in the ML column for workloads whose profiles the
/// committed model trained on: their numbers would be in-sample, so they
/// are never reported (the held-out half carries the ML result).
pub const ML_TRAIN_MARKER: &str = "(train)";

/// The heuristic table's row data, unformatted except for the percent
/// cells, in [`HEURISTIC_COLUMNS`] order. Shared by [`heuristic_table`]
/// and the JSON metrics writer so the two can never disagree.
///
/// Per program/dataset: executed conditional branches, then the
/// mispredict rate (fraction of executed branches predicted wrong) under
/// each prediction family — BTFN (loop forest), the source-kind loop
/// heuristic, interval proofs pinned over BTFN, the static ML model
/// (held-out workloads only — training-half rows show
/// [`ML_TRAIN_MARKER`]), leave-one-out profile feedback (frequency), and
/// self-prediction (the real-profile upper bound).
pub fn heuristic_rows(s: &SuiteRuns) -> Vec<Vec<String>> {
    let cfg = BreakConfig::fig2();
    let mut rows = Vec::new();
    for w in &s.workloads {
        for (i, run) in w.runs.iter().enumerate() {
            let rate = |m: Metrics| fmt_percent(1.0 - m.correct_fraction());
            let of = |p: &Predictor| rate(evaluate(&run.stats, p, cfg));
            let loo = if w.runs.len() > 1 {
                experiment::loo_metrics(&w.runs, i, CombineRule::Scaled, cfg)
            } else {
                experiment::self_metrics(&run.stats, cfg)
            };
            let ml = if mfpredict::is_train_workload(&w.name) {
                ML_TRAIN_MARKER.to_string()
            } else {
                of(&w.ml)
            };
            let dyn_rate = |spec: DynSpec| {
                fmt_percent(
                    w.zoo[i]
                        .get(spec)
                        .expect("full_zoo carries the table's specs")
                        .mispredict_rate(),
                )
            };
            rows.push(vec![
                w.name.clone(),
                run.dataset.clone(),
                run.stats.branches.total_executed().to_string(),
                of(&w.btfn),
                of(&w.heuristic),
                of(&w.proof),
                ml,
                rate(loo),
                rate(experiment::self_metrics(&run.stats, cfg)),
                dyn_rate(TWO_BIT_SPEC),
                dyn_rate(GSHARE_SPEC),
            ]);
        }
    }
    rows
}

/// Static prediction vs profile feedback: per-dataset mispredict rate
/// under the BTFN static heuristic (loop forest: back edges taken,
/// everything else not-taken), the source-kind loop heuristic, interval
/// proofs over BTFN, the profile-free ML model (evaluated strictly on
/// the held-out workload half), leave-one-out profile prediction, and
/// the self-prediction upper bound.
pub fn heuristic_table(s: &SuiteRuns) -> Table {
    let mut t = Table::new(&HEURISTIC_COLUMNS);
    for row in heuristic_rows(s) {
        t.row_owned(row);
    }
    t
}

/// The heuristic table as the `heuristic_table` object of `repro
/// --json-metrics`: consumers key cells by position in `columns`
/// ([`HEURISTIC_COLUMNS`]), never by guessing at render-time alignment.
pub fn heuristic_table_json(s: &SuiteRuns) -> Json {
    Json::object([
        ("columns", Json::array(HEURISTIC_COLUMNS)),
        (
            "rows",
            Json::array(heuristic_rows(s).into_iter().map(Json::array)),
        ),
    ])
}

/// Select-instruction ratios (the paper: under 0.2–0.7% of executed
/// instructions).
pub fn selects_table(s: &SuiteRuns) -> Table {
    let mut t = Table::new(&["PROGRAM", "SELECT % OF INSTRS"]);
    for w in &s.workloads {
        t.row_owned(vec![w.name.clone(), fmt_percent(w.select_ratio)]);
    }
    t
}

/// compress vs uncompress cross-mode prediction: each mode's datasets
/// predicting the other mode (the paper: "a very bad idea").
pub fn crossmode_table(s: &SuiteRuns) -> Option<Table> {
    let cfg = BreakConfig::fig2();
    let comp = s.workload("compress")?;
    let unc = s.workload("uncompress")?;
    let mut t = Table::new(&["TARGET", "SELF", "OTHER MODE", "FRACTION"]);
    let combined = |w: &WorkloadRuns| {
        let profiles: Vec<_> = w.runs.iter().map(|r| &r.stats.branches).collect();
        ifprob::combine(&profiles, CombineRule::Scaled)
    };
    let comp_profile = combined(comp);
    let unc_profile = combined(unc);
    for (target, other_profile) in [(comp, &unc_profile), (unc, &comp_profile)] {
        for run in &target.runs {
            let self_m = experiment::self_metrics(&run.stats, cfg).instrs_per_break;
            let cross = evaluate(
                &run.stats,
                &Predictor::from_weighted(other_profile, Default::default()),
                cfg,
            )
            .instrs_per_break;
            t.row_owned(vec![
                format!("{}/{}", target.name, run.dataset),
                fmt_value(self_m),
                fmt_value(cross),
                fmt_percent(cross / self_m),
            ]);
        }
    }
    Some(t)
}

/// The profiling build of the program `prog`, from `h`'s program store,
/// and the inputs of its dataset `dataset` alone; `None` when the suite has
/// no such pair.
fn generate_pair(h: &Harness, prog: &str, dataset: &str) -> Option<(Arc<Program>, Vec<Input>)> {
    let row = mfwork::row(prog)?;
    let inputs = (row.dataset(dataset)?.inputs)();
    Some((h.program(&(row.source)(), compile_workload), inputs))
}

/// The program×dataset pairs of the dynamic-predictor table.
const DYNAMIC_PAIRS: [(&str, &str); 7] = [
    ("doduc", "tiny"),
    ("gcc", "loop_mod"),
    ("espresso", "ti"),
    ("li", "kittyv"),
    ("compress", "cmprssc"),
    ("spiff", "case1"),
    ("mfcom", "c_metric"),
];

/// The pairs of the run-length distribution table.
const DISTRIBUTION_PAIRS: [(&str, &str); 6] = [
    ("doduc", "tiny"),
    ("gcc", "loop_mod"),
    ("li", "kittyv"),
    ("compress", "cmprssc"),
    ("spiff", "case1"),
    ("espresso", "ti"),
];

/// The pairs of the inlining table.
const INLINING_PAIRS: [(&str, &str); 5] = [
    ("doduc", "tiny"),
    ("gcc", "loop_mod"),
    ("li", "kittyv"),
    ("mfcom", "c_metric"),
    ("spiff", "case1"),
];

/// One job per suite pair in `pairs`, observed by its program's
/// [`mfdyn::site_zoo`]. `h`'s workers generate and key the pairs, taking
/// their programs from `h`'s store.
fn site_predictor_jobs(h: &Harness, pairs: &[(&'static str, &'static str)]) -> Vec<RunJob> {
    on_workers(h, pairs.len(), |i| {
        let (prog, dataset) = pairs[i];
        let (program, inputs) = generate_pair(h, prog, dataset)?;
        let specs = mfdyn::site_zoo(&program).to_vec();
        Some(RunJob::with_observer(
            prog,
            dataset,
            program,
            inputs,
            run_config(VmConfig::default()),
            Observe::Zoo(specs),
        ))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Runs [`site_predictor_jobs`] through `h`, returning each job with its
/// outcome. The dynamic and distribution tables submit identical jobs for
/// the pairs they share, so those run once per harness.
fn site_predictor_runs(
    h: &Harness,
    pairs: &[(&'static str, &'static str)],
) -> Vec<(RunJob, mfharness::RunOutcome)> {
    let jobs = site_predictor_jobs(h, pairs);
    let outcomes = h.run(jobs.clone()).unwrap_or_else(|e| panic!("{e}"));
    jobs.into_iter().zip(outcomes).collect()
}

/// Static vs dynamic prediction (extension): the hardware literature's
/// 1-bit and 2-bit per-branch schemes next to static profile feedback on
/// the same runs — the comparison the paper frames against [Smith 81] /
/// [Lee and Smith 84] — plus the profile-seeded 2-bit hybrid. Runs a fixed
/// set of small program×dataset pairs, through `h`.
pub fn dynamic_table_with(h: &Harness) -> Table {
    let cfg = BreakConfig::fig2();
    let mut t = Table::new(&[
        "PROGRAM/DATASET",
        "STATIC SELF",
        "1-BIT",
        "2-BIT",
        "2-BIT+PROFILE",
        "I/B STATIC",
        "I/B 2-BIT",
    ]);
    for (job, outcome) in site_predictor_runs(h, &DYNAMIC_PAIRS) {
        let stats = &outcome.stats;
        let static_m = experiment::self_metrics(stats, cfg);
        let zoo = outcome.zoo().expect("site jobs carry a zoo report");
        let [one, two, seeded] =
            mfdyn::site_zoo(&job.program).map(|spec| zoo.get(spec).expect("spec in its zoo"));
        let correct = |c: mfdyn::ZooCounts| fmt_percent(1.0 - c.mispredict_rate());
        let breaks = (two.mispredicted + stats.events.unavoidable()).max(1);
        let ipb_two = stats.total_instrs as f64 / breaks as f64;
        t.row_owned(vec![
            job.label(),
            fmt_percent(static_m.correct_fraction()),
            correct(one),
            correct(two),
            correct(seeded),
            fmt_value(static_m.instrs_per_break),
            fmt_value(ipb_two),
        ]);
    }
    t
}

/// The run-length distribution between mispredicted branches (§3 "The
/// distribution of runs of instructions between mispredicted branches will
/// not be constant"): percentiles of instructions between mispredicts
/// under self-prediction, showing how unevenly the breaks fall. Two
/// passes through `h`: the dynamic table's jobs supply each run's counts,
/// then a second run per pair streams its run lengths under the
/// self-predictor those counts define.
pub fn distribution_table_with(h: &Harness) -> Table {
    let counted = site_predictor_runs(h, &DISTRIBUTION_PAIRS);
    let jobs: Vec<RunJob> = counted
        .iter()
        .map(|(job, outcome)| {
            let p = Predictor::from_counts(&outcome.stats.branches, Direction::NotTaken);
            let taken = (0..job.program.branch_info.len())
                .map(|i| p.predict(BranchId::from_index(i)) == Direction::Taken)
                .collect();
            RunJob::with_observer(
                job.program_name.clone(),
                job.dataset.clone(),
                Arc::clone(&job.program),
                job.inputs.clone(),
                job.config,
                Observe::RunLengths(Arc::new(taken)),
            )
        })
        .collect();
    let outcomes = h.run(jobs).unwrap_or_else(|e| panic!("{e}"));
    let mut t = Table::new(&[
        "PROGRAM/DATASET",
        "MEAN",
        "P10",
        "MEDIAN",
        "P90",
        "MAX",
        "P90/P10",
    ]);
    for outcome in outcomes {
        let g = outcome
            .run_lengths()
            .expect("run-length jobs carry a histogram")
            .summary();
        let spread = if g.p10 > 0 {
            format!("{:.1}x", g.p90 as f64 / g.p10 as f64)
        } else {
            "-".to_string()
        };
        t.row_owned(vec![
            outcome.label,
            fmt_value(g.mean),
            g.p10.to_string(),
            g.p50.to_string(),
            g.p90.to_string(),
            g.max.to_string(),
            spread,
        ]);
    }
    t
}

/// Inlining (extension): the paper argues inlining removes the two breaks
/// per executed call. Compare instrs/break with calls counted, before and
/// after the `mfopt` inliner, on a subset of programs. `h`'s workers
/// generate and inline the pairs, taking the base builds from `h`'s
/// store. Base and inlined builds are distinct IR, hence distinct run
/// keys — both are submitted to `h` in one batch and execute in parallel.
/// A base run that the dynamic table already observed through `h` is
/// answered from memory.
pub fn inlining_table_with(h: &Harness) -> Table {
    let cfg = BreakConfig::fig2_with_calls();
    let mut t = Table::new(&[
        "PROGRAM/DATASET",
        "I/B (CALLS BREAK)",
        "AFTER INLINING",
        "CALLS BEFORE",
        "CALLS AFTER",
    ]);
    let outcomes = h.run(inlining_jobs(h)).unwrap_or_else(|e| panic!("{e}"));
    for pair in outcomes.chunks_exact(2) {
        let (label, base_run, in_run) = (&pair[0].label, &pair[0].run, &pair[1].run);
        assert_eq!(base_run.output, in_run.output, "{label}: inlining broke it");
        let ipb = |stats| experiment::self_metrics(stats, cfg).instrs_per_break;
        t.row_owned(vec![
            label.clone(),
            fmt_value(ipb(&base_run.stats)),
            fmt_value(ipb(&in_run.stats)),
            base_run.stats.events.direct_calls.to_string(),
            in_run.stats.events.direct_calls.to_string(),
        ]);
    }
    t
}

/// The inlining table's jobs: each pair's base build, from `h`'s store,
/// then its inlined build, which `h`'s workers make.
fn inlining_jobs(h: &Harness) -> Vec<RunJob> {
    on_workers(h, INLINING_PAIRS.len(), |i| {
        let (prog, dataset) = INLINING_PAIRS[i];
        let (base, inputs) = generate_pair(h, prog, dataset)?;
        let mut inlined = (*base).clone();
        mfopt::Inliner::default().run(&mut inlined);
        let config = run_config(VmConfig::default());
        Some([
            RunJob::new(prog, dataset, base, inputs.clone(), config),
            RunJob::new(
                format!("{prog}:inlined"),
                dataset,
                Arc::new(inlined),
                inputs,
                config,
            ),
        ])
    })
    .into_iter()
    .flatten()
    .flatten()
    .collect()
}

/// The paper's "coverage" hunt (§3 informal): the authors suspected poor
/// cross-prediction came from the predictor *emphasizing different parts
/// of the program* rather than branches flipping direction, but could not
/// find a quantity that correlated. This table takes every (target,
/// worst-single-predictor) pair and puts the prediction ratio next to the
/// predictor's dynamic coverage of the target and, where covered, the
/// direction-agreement rate — separating the two hypotheses directly.
pub fn coverage_table(s: &SuiteRuns) -> Table {
    let cfg = BreakConfig::fig2();
    let mut t = Table::new(&[
        "TARGET",
        "WORST PREDICTOR",
        "% OF SELF",
        "DYN COVERAGE",
        "AGREEMENT",
        "OVERLAP",
    ]);
    for w in &s.workloads {
        if w.runs.len() < 2 {
            continue;
        }
        for i in 0..w.runs.len() {
            let Some(bw) = experiment::best_worst(&w.runs, i, cfg) else {
                continue;
            };
            let worst = w
                .runs
                .iter()
                .find(|r| r.dataset == bw.worst.0)
                .expect("worst predictor is one of the runs");
            let cov = ifprob::coverage(&worst.stats.branches, &w.runs[i].stats.branches);
            let ovl = ifprob::overlap(&worst.stats.branches, &w.runs[i].stats.branches);
            t.row_owned(vec![
                format!("{}/{}", w.name, w.runs[i].dataset),
                bw.worst.0.clone(),
                fmt_percent(bw.worst.1),
                fmt_percent(cov.dynamic),
                fmt_percent(cov.agreement),
                fmt_percent(ovl),
            ]);
        }
    }
    t
}

/// The percent-correct measure the paper opens with (fpppp 83% vs li 85%):
/// self-prediction percent-correct next to instrs-per-mispredict, showing
/// why percent-correct is the wrong measure.
pub fn percent_correct_table(s: &SuiteRuns) -> Table {
    let cfg = BreakConfig::fig2();
    let mut t = Table::new(&["PROGRAM", "DATASET", "% CORRECT", "INSTRS/BREAK"]);
    for w in &s.workloads {
        for run in &w.runs {
            let m: Metrics = experiment::self_metrics(&run.stats, cfg);
            t.row_owned(vec![
                w.name.clone(),
                run.dataset.clone(),
                fmt_percent(m.correct_fraction()),
                fmt_value(m.instrs_per_break),
            ]);
        }
    }
    t
}

// --------------------------------------------------------------------
// Dynamic predictors (extension): instructions per mispredict
// --------------------------------------------------------------------

/// The dynamic-predictor headline's value columns, in order: static
/// profile feedback (leave-one-out, self for single-dataset programs),
/// the BTFN loop-forest heuristic, the committed static ML model
/// (held-out workloads only), then the online hardware-style predictors
/// from the [`mfdyn::full_zoo`] roster. This exact sequence is the
/// contract for the rendered table, `BENCH_dynpred.json`, and the
/// `dyn_table` object in `repro --json-metrics`.
pub const DYN_COLUMNS: [&str; 10] = [
    "PROFILE",
    "BTFN",
    "ML",
    "1-BIT",
    "2-BIT",
    "GSHARE/4",
    "GSHARE/8",
    "GSHARE/12",
    "GSHARE/16",
    "PERCEPTRON",
];

/// The zoo specs behind [`DYN_COLUMNS`]' online columns (same order).
const DYN_ZOO_SPECS: [DynSpec; 7] = [
    DynSpec::OneBit { table_bits: 12 },
    DynSpec::TwoBit { table_bits: 12 },
    DynSpec::Gshare {
        history: 4,
        table_bits: 12,
    },
    DynSpec::Gshare {
        history: 8,
        table_bits: 12,
    },
    DynSpec::Gshare {
        history: 12,
        table_bits: 12,
    },
    DynSpec::Gshare {
        history: 16,
        table_bits: 12,
    },
    DynSpec::Perceptron {
        history: 12,
        table_bits: 8,
    },
];

/// One headline row: a program×dataset pair's instructions-per-mispredict
/// under each prediction family, in [`DYN_COLUMNS`] order.
#[derive(Clone, Debug, PartialEq)]
pub struct DynRow {
    /// Program name.
    pub program: String,
    /// Dataset name.
    pub dataset: String,
    /// Instructions per mispredicted conditional branch, one per value
    /// column; `None` where the cell is not reported (the ML column on
    /// the committed model's training workloads).
    pub ipm: Vec<Option<f64>>,
}

/// Instructions per mispredict, with the whole run as the value when
/// nothing was mispredicted (the same convention as instrs-per-break).
fn per_mispredict(instrs: u64, mispredicted: u64) -> f64 {
    if mispredicted == 0 {
        instrs as f64
    } else {
        instrs as f64 / mispredicted as f64
    }
}

/// The headline data: every program×dataset pair's
/// instructions-per-mispredict under profile feedback and each dynamic
/// predictor, in [`DYN_COLUMNS`] order. Purely analytic over the
/// collected runs — the online tallies ride along on the profiling runs,
/// so nothing is re-executed here.
pub fn dyn_rows(s: &SuiteRuns) -> Vec<DynRow> {
    let cfg = BreakConfig::fig2();
    let mut rows = Vec::new();
    for w in &s.workloads {
        for (i, run) in w.runs.iter().enumerate() {
            let of = |m: Metrics| per_mispredict(m.instrs, m.mispredicted);
            let loo = if w.runs.len() > 1 {
                experiment::loo_metrics(&w.runs, i, CombineRule::Scaled, cfg)
            } else {
                experiment::self_metrics(&run.stats, cfg)
            };
            let ml = if mfpredict::is_train_workload(&w.name) {
                None
            } else {
                Some(of(evaluate(&run.stats, &w.ml, cfg)))
            };
            let mut ipm = vec![
                Some(of(loo)),
                Some(of(evaluate(&run.stats, &w.btfn, cfg))),
                ml,
            ];
            for spec in DYN_ZOO_SPECS {
                let counts = w.zoo[i].get(spec).expect("full_zoo carries the roster");
                ipm.push(Some(per_mispredict(
                    run.stats.total_instrs,
                    counts.mispredicted,
                )));
            }
            rows.push(DynRow {
                program: w.name.clone(),
                dataset: run.dataset.clone(),
                ipm,
            });
        }
    }
    rows
}

/// Per-column geometric means over the headline rows, skipping cells that
/// are not reported; `None` for a column with no reported cells.
pub fn dyn_geomeans(rows: &[DynRow]) -> Vec<Option<f64>> {
    (0..DYN_COLUMNS.len())
        .map(|c| {
            let vals: Vec<f64> = rows
                .iter()
                .filter_map(|r| r.ipm[c])
                .filter(|v| *v > 0.0)
                .collect();
            if vals.is_empty() {
                None
            } else {
                Some((vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp())
            }
        })
        .collect()
}

/// One dynamic-predictor cell as JSON: instructions per mispredict to
/// four decimals, `null` where the cell is not reported.
pub fn ipm_json(v: Option<f64>) -> Json {
    v.map_or(Json::Null, |v| Json::Fixed(v, 4))
}

/// One headline row as JSON, shared by [`dyn_table_json`] and
/// `BENCH_dynpred.json`'s `headline`.
pub fn dyn_row_json(r: &DynRow) -> Json {
    Json::object([
        ("program", r.program.as_str().into()),
        ("dataset", r.dataset.as_str().into()),
        ("ipm", Json::array(r.ipm.iter().map(|&v| ipm_json(v)))),
    ])
}

/// The dynamic-predictor headline as the `dyn_table` object of `repro
/// --json-metrics`: cells in [`DYN_COLUMNS`] order (null where a predictor
/// is out of scope, e.g. the ML column on its own training workloads),
/// and `geomean` aggregating each column across rows.
pub fn dyn_table_json(s: &SuiteRuns) -> Json {
    let rows = dyn_rows(s);
    let geomean = dyn_geomeans(&rows).into_iter().map(ipm_json);
    Json::object([
        ("columns", Json::array(DYN_COLUMNS)),
        ("rows", Json::array(rows.iter().map(dyn_row_json))),
        ("geomean", Json::array(geomean)),
    ])
}

/// The dynamic-predictor headline: instructions per mispredicted branch,
/// profile feedback vs each online predictor, with a closing geomean row.
pub fn dyn_table(s: &SuiteRuns) -> Table {
    let mut headers = vec!["PROGRAM", "DATASET"];
    headers.extend(DYN_COLUMNS);
    let mut t = Table::new(&headers);
    let fmt_cell = |v: Option<f64>| match v {
        Some(v) => fmt_value(v),
        None => ML_TRAIN_MARKER.to_string(),
    };
    let rows = dyn_rows(s);
    for r in &rows {
        let mut cells = vec![r.program.clone(), r.dataset.clone()];
        cells.extend(r.ipm.iter().map(|&v| fmt_cell(v)));
        t.row_owned(cells);
    }
    let mut cells = vec!["GEOMEAN".to_string(), String::new()];
    cells.extend(dyn_geomeans(&rows).into_iter().map(|v| match v {
        Some(v) => fmt_value(v),
        None => "-".to_string(),
    }));
    t.row_owned(cells);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfharness::{DiskCache, HarnessOptions};
    use std::sync::OnceLock;

    const QUICK: &[&str] = &["doduc", "spiff", "mfcom"];

    fn test_harness(jobs: usize) -> Harness {
        Harness::new(HarnessOptions {
            jobs: Some(jobs),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        })
    }

    /// A fresh, empty cache directory for the test named `tag`.
    fn fresh_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mfbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A new harness — a new process, in effect — over the disk tier `dir`.
    fn disk_harness(dir: &std::path::Path) -> Harness {
        Harness::new(HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Dir(dir.to_path_buf()),
            ..HarnessOptions::default()
        })
    }

    fn quick() -> &'static SuiteRuns {
        static RUNS: OnceLock<SuiteRuns> = OnceLock::new();
        // An isolated in-memory harness: tests must not read or write the
        // persistent cache under target/.
        RUNS.get_or_init(|| collect_subset_with(&test_harness(4), QUICK))
    }

    #[test]
    fn collect_subset_gathers_runs() {
        let s = quick();
        assert_eq!(s.workloads.len(), 3);
        let doduc = s.workload("doduc").unwrap();
        assert_eq!(doduc.runs.len(), 3);
        assert!(doduc.base_instrs_first > 0);
        assert!(doduc.opt_instrs_first <= doduc.base_instrs_first);
    }

    #[test]
    fn table1_reports_positive_dead_code() {
        let t = table1(quick());
        assert_eq!(t.len(), 3);
        assert!(t.render().contains('%'));
    }

    #[test]
    fn table2_covers_whole_suite() {
        let t = table2();
        let text = t.render();
        for name in ["spice2g6", "li", "compress", "fpppp"] {
            assert!(text.contains(name));
        }
        assert!(t.len() >= 30, "rows = {}", t.len());
    }

    #[test]
    fn fig_rows_have_expected_shape() {
        let s = quick();
        let f1 = fig1_rows(s, Group::CInteger);
        assert!(!f1.is_empty());
        for r in &f1 {
            assert!(r.without_calls >= r.with_calls, "{}", r.label);
        }
        let f2 = fig2_rows(s, false);
        for r in &f2 {
            assert!(
                r.self_ipb >= r.others_ipb - 1e-9,
                "{}: self must be the bound",
                r.label
            );
        }
        let f3 = fig3_rows(s, false);
        for r in &f3 {
            assert!(r.best.1 >= r.worst.1);
            assert!(r.best.1 <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn informal_tables_render() {
        let s = quick();
        assert!(!percent_taken_table(s).is_empty());
        assert!(!combination_table(s).is_empty());
        assert!(!heuristic_table(s).is_empty());
        assert!(!selects_table(s).is_empty());
        assert!(!percent_correct_table(s).is_empty());
    }

    #[test]
    fn heuristic_columns_are_explicit_and_stable() {
        // The `--json-metrics` contract keys cells by position in this
        // array; reordering or renaming is a breaking change.
        assert_eq!(
            HEURISTIC_COLUMNS,
            [
                "PROGRAM",
                "DATASET",
                "BRANCHES",
                "BTFN",
                "HEURISTIC",
                "PROOF",
                "ML",
                "PROFILE",
                "SELF",
                "2-BIT",
                "GSHARE"
            ]
        );
        let s = quick();
        for row in heuristic_rows(s) {
            assert_eq!(row.len(), HEURISTIC_COLUMNS.len());
        }
    }

    #[test]
    fn heuristic_table_aligns_seven_digit_site_counts() {
        // Regression: a BRANCHES cell past six digits must widen its
        // column instead of shearing every column to its right.
        let mut t = Table::new(&HEURISTIC_COLUMNS);
        t.row(&[
            "doduc", "tiny", "917", "29.7%", "30.1%", "28.0%", "24.2%", "13.0%", "9.9%", "11.4%",
            "10.2%",
        ]);
        t.row(&[
            "gcc",
            "insn-emit",
            "1436537",
            "12.3%",
            "11.9%",
            "12.3%",
            "(train)",
            "8.0%",
            "6.1%",
            "5.5%",
            "4.9%",
        ]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        let btfn = lines[0].find("BTFN").unwrap();
        for line in &lines[2..] {
            assert_eq!(&line[btfn - 2..btfn], "  ", "sheared columns:\n{rendered}");
            assert_ne!(&line[btfn..btfn + 1], " ", "sheared columns:\n{rendered}");
        }
    }

    #[test]
    fn heuristic_table_has_a_btfn_column() {
        let s = quick();
        let rendered = heuristic_table(s).render();
        assert!(rendered.contains("BTFN"), "{rendered}");
        assert!(rendered.contains("HEURISTIC"));
        assert!(rendered.contains("PROFILE"));
        // Every workload carries a distinct BTFN predictor with at least
        // one branch site classified.
        for w in &s.workloads {
            assert!(!w.btfn.is_empty(), "{}: empty BTFN predictor", w.name);
        }
    }

    #[test]
    fn verify_each_collection_matches_plain_collection() {
        let plain = collect_subset_with(&test_harness(2), &["spiff"]);
        let verifying = Harness::new(HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Off,
            verify: true,
            ..HarnessOptions::default()
        });
        let checked = collect_subset_with(&verifying, &["spiff"]);
        assert!(verifying
            .report()
            .records
            .iter()
            .all(|r| r.verify_digest.is_some()));
        // The verifier must be invisible in the science: same optimized
        // instruction counts, same run statistics.
        let (a, b) = (&plain.workloads[0], &checked.workloads[0]);
        assert_eq!(a.opt_instrs_first, b.opt_instrs_first);
        assert_eq!(a.base_instrs_first, b.base_instrs_first);
        assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn builds_share_a_key_only_when_they_are_one_program() {
        // The profiling, optimized and inlined builds of all 15 programs,
        // keyed with one input list and one configuration, so only the
        // program differs. compress and uncompress are one guest program,
        // and inlining leaves the call-free fpppp, tomcatv and lfk as they
        // are: 45 builds, 39 distinct programs.
        let cfg = VmConfig::default();
        let mut builds = Vec::new();
        for w in suite() {
            let program = w.compile().unwrap();
            let optimized = optimize(w.name, &program, false);
            assert_eq!(optimized, w.compile_optimized().unwrap(), "{}", w.name);
            let mut inlined = program.clone();
            mfopt::Inliner::default().run(&mut inlined);
            builds.extend([program, optimized, inlined]);
        }
        let keys: Vec<_> = builds
            .iter()
            .map(|b| mfharness::RunKey::of(b, &[], &cfg))
            .collect();
        for i in 0..builds.len() {
            for j in i + 1..builds.len() {
                let one_program = builds[i] == builds[j];
                assert_eq!(keys[i] == keys[j], one_program, "builds {i} and {j}");
            }
        }
        let distinct: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), 39);
    }

    /// compress and uncompress are one guest program: a collection
    /// prepares it once, so both workloads carry one build, and every
    /// table renders as the serial path's per-workload preparation
    /// renders it.
    #[test]
    fn one_guest_program_is_prepared_once() {
        let names = &["compress", "uncompress"];
        let shared = collect_subset_with(&test_harness(2), names);
        let serial = collect_subset_serial(names);
        let [a, b] = &shared.workloads[..] else {
            panic!("two workloads");
        };
        assert!(Arc::ptr_eq(&a.program, &b.program));
        assert!(!Arc::ptr_eq(
            &serial.workloads[0].program,
            &serial.workloads[1].program
        ));
        assert_eq!(table1(&shared).render(), table1(&serial).render());
        assert_eq!(table3(&shared).render(), table3(&serial).render());
        let crossmode = |s: &SuiteRuns| crossmode_table(s).expect("both modes").render();
        assert_eq!(crossmode(&shared), crossmode(&serial));
        for group in [Group::FortranFp, Group::CInteger] {
            assert_eq!(fig1_rows(&shared, group), fig1_rows(&serial, group));
        }
        for spice_only in [true, false] {
            assert_eq!(
                fig2_rows(&shared, spice_only),
                fig2_rows(&serial, spice_only)
            );
            assert_eq!(
                fig3_rows(&shared, spice_only),
                fig3_rows(&serial, spice_only)
            );
        }
        for table in [
            percent_taken_table,
            combination_table,
            heuristic_table,
            selects_table,
            coverage_table,
            percent_correct_table,
            dyn_table,
        ] {
            assert_eq!(table(&shared).render(), table(&serial).render());
        }
    }

    /// One harness compiles each distinct source once: the collection
    /// builds its programs, and the three extension tables take theirs,
    /// the collected ones included, from the same store.
    #[test]
    fn one_harness_compiles_each_source_once() {
        let h = test_harness(2);
        let s = collect_subset_with(&h, QUICK);
        assert_eq!(h.programs_compiled(), QUICK.len());
        let jobs = [
            site_predictor_jobs(&h, &DYNAMIC_PAIRS),
            site_predictor_jobs(&h, &DISTRIBUTION_PAIRS),
            inlining_jobs(&h),
        ]
        .concat();
        let names: std::collections::BTreeSet<&str> = QUICK
            .iter()
            .chain(DYNAMIC_PAIRS.iter().map(|(p, _)| p))
            .chain(DISTRIBUTION_PAIRS.iter().map(|(p, _)| p))
            .chain(INLINING_PAIRS.iter().map(|(p, _)| p))
            .copied()
            .collect();
        assert_eq!(h.programs_compiled(), names.len());
        for job in jobs
            .iter()
            .filter(|j| !j.program_name.ends_with(":inlined"))
        {
            let name = job.program_name.as_str();
            let source = (mfwork::row(name).unwrap().source)();
            let stored = h.program(&source, |_| panic!("{name} compiled twice"));
            assert!(Arc::ptr_eq(&job.program, &stored), "{}", job.label());
            if let Some(w) = s.workload(name) {
                assert!(Arc::ptr_eq(&job.program, &w.program), "{}", job.label());
            }
        }
    }

    /// A build that panics on a worker thread resurfaces on the calling
    /// thread with its own message — the one `Build::of` panics with and
    /// a one-worker harness gives — not as a failed worker.
    #[test]
    fn a_failed_build_keeps_its_message_at_any_worker_count() {
        fn message(payload: Box<dyn std::any::Any + Send>) -> String {
            match payload.downcast::<String>() {
                Ok(text) => *text,
                Err(payload) => payload
                    .downcast_ref::<&str>()
                    .expect("a text payload")
                    .to_string(),
            }
        }
        let mut broken = mfwork::workload("spiff").unwrap();
        broken.source.push_str("\nfn (");
        let direct = std::panic::catch_unwind(|| Build::of(&test_harness(1), &broken))
            .map(|_| ())
            .expect_err("the source does not compile");
        let direct = message(direct);
        assert!(direct.starts_with("bundled workload compiles"), "{direct}");
        for jobs in [1, 2] {
            // Two distinct sources, so two workers spawn two threads.
            let workloads = vec![broken.clone(), mfwork::workload("doduc").unwrap()];
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                prepare(&test_harness(jobs), workloads)
            }))
            .map(|_| ())
            .expect_err("preparing a source that does not compile panics");
            assert_eq!(message(payload), direct, "jobs = {jobs}");
        }
    }

    #[test]
    fn charts_render() {
        let s = quick();
        let text = fig2_chart(s, false).render(40);
        assert!(text.contains("Figure 2b"));
        let text = fig1_chart(s, Group::FortranFp).render(40);
        assert!(text.contains("Figure 1a"));
    }

    /// The scheduler must be invisible in the science: the same subset
    /// collected serially (the seed's original loop), on one worker, and
    /// on eight workers yields byte-identical figure rows and tables.
    #[test]
    fn worker_count_does_not_change_results() {
        let serial = collect_subset_serial(QUICK);
        let one = collect_subset_with(&test_harness(1), QUICK);
        let eight = collect_subset_with(&test_harness(8), QUICK);

        for group in [Group::FortranFp, Group::CInteger] {
            assert_eq!(fig1_rows(&serial, group), fig1_rows(&one, group));
            assert_eq!(fig1_rows(&one, group), fig1_rows(&eight, group));
        }
        for spice_only in [true, false] {
            assert_eq!(fig2_rows(&serial, spice_only), fig2_rows(&one, spice_only));
            assert_eq!(fig2_rows(&one, spice_only), fig2_rows(&eight, spice_only));
            assert_eq!(fig3_rows(&one, spice_only), fig3_rows(&eight, spice_only));
        }
        assert_eq!(table1(&serial).render(), table1(&one).render());
        assert_eq!(table1(&one).render(), table1(&eight).render());
        assert_eq!(table3(&one).render(), table3(&eight).render());
        // The heuristic table now carries online-predictor columns, so
        // this also proves the serial reference zoo pass (reference
        // backend) matches the harness zoo observers (flat backend) and
        // that worker count never perturbs a predictor tally.
        assert_eq!(
            heuristic_table(&serial).render(),
            heuristic_table(&one).render()
        );
        assert_eq!(
            heuristic_table(&one).render(),
            heuristic_table(&eight).render()
        );
        assert_eq!(dyn_table(&serial).render(), dyn_table(&one).render());
        assert_eq!(dyn_table(&one).render(), dyn_table(&eight).render());
        assert_eq!(
            percent_taken_table(&serial).render(),
            percent_taken_table(&eight).render()
        );
    }

    /// Re-collecting through the same harness is served entirely from the
    /// memo table: no new executions, identical results.
    #[test]
    fn recollection_hits_the_cache() {
        let h = test_harness(4);
        let first = collect_subset_with(&h, QUICK);
        let computed_after_first = h.report().computed();
        let second = collect_subset_with(&h, QUICK);
        let report = h.report();
        assert_eq!(
            report.computed(),
            computed_after_first,
            "second collection must not execute anything"
        );
        assert!(report.cache.mem_hits > 0);
        assert_eq!(table1(&first).render(), table1(&second).render());
        assert_eq!(fig2_rows(&first, false), fig2_rows(&second, false));
    }

    /// A second process over a primed disk tier runs nothing — zoo jobs
    /// included — and renders the same tables.
    #[test]
    fn warm_tables_equal_cold_tables() {
        let dir = fresh_cache_dir("warm-tables");
        let cold = collect_subset_with(&disk_harness(&dir), QUICK);
        let h = disk_harness(&dir);
        let warm = collect_subset_with(&h, QUICK);
        assert_eq!(h.report().computed(), 0);
        assert_eq!(table1(&warm).render(), table1(&cold).render());
        assert_eq!(
            heuristic_table(&warm).render(),
            heuristic_table(&cold).render()
        );
        assert_eq!(dyn_table(&warm).render(), dyn_table(&cold).render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dyn_rows_have_expected_shape() {
        let s = quick();
        let rows = dyn_rows(s);
        assert_eq!(
            rows.len(),
            s.workloads.iter().map(|w| w.runs.len()).sum::<usize>()
        );
        for r in &rows {
            assert_eq!(r.ipm.len(), DYN_COLUMNS.len(), "{}", r.program);
            for (c, v) in r.ipm.iter().enumerate() {
                match v {
                    Some(v) => assert!(*v > 0.0, "{}/{}: {}", r.program, r.dataset, c),
                    None => assert_eq!(DYN_COLUMNS[c], "ML", "only ML cells may be absent"),
                }
            }
        }
        let geo = dyn_geomeans(&rows);
        assert_eq!(geo.len(), DYN_COLUMNS.len());
        let rendered = dyn_table(s).render();
        assert!(rendered.contains("GEOMEAN"), "{rendered}");
        assert!(rendered.contains("PERCEPTRON"), "{rendered}");
    }

    #[test]
    fn table_json_has_one_cell_per_column() {
        fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
            match v {
                Json::Object(members) => match members.iter().find(|(k, _)| k == key) {
                    Some((_, Json::Array(items))) => items,
                    other => panic!("{key}: {other:?}"),
                },
                other => panic!("not an object: {other:?}"),
            }
        }
        let s = quick();
        let heuristic = heuristic_table_json(s);
        let columns = items(&heuristic, "columns").len();
        assert_eq!(columns, HEURISTIC_COLUMNS.len());
        assert!(!items(&heuristic, "rows").is_empty());
        for row in items(&heuristic, "rows") {
            assert!(
                matches!(row, Json::Array(cells) if cells.len() == columns),
                "{row:?}"
            );
        }
        let dyn_json = dyn_table_json(s);
        let columns = items(&dyn_json, "columns").len();
        assert_eq!(items(&dyn_json, "rows").len(), dyn_rows(s).len());
        for row in items(&dyn_json, "rows") {
            assert_eq!(items(row, "ipm").len(), columns);
        }
        assert_eq!(items(&dyn_json, "geomean").len(), columns);
    }

    /// Every predictor the zoo runs beside a collected run has a reader:
    /// the headline's online columns (whose gshare specs are also
    /// `dynbench`'s history sweep) and the heuristic table's `2-BIT` and
    /// `GSHARE` columns.
    #[test]
    fn full_zoo_is_what_the_tables_read() {
        let zoo: std::collections::HashSet<DynSpec> = mfdyn::full_zoo().into_iter().collect();
        let read = DYN_ZOO_SPECS.into_iter().chain([TWO_BIT_SPEC, GSHARE_SPEC]);
        assert_eq!(zoo, read.collect());
    }

    #[test]
    fn zoo_reports_cover_every_dataset() {
        let s = quick();
        for w in &s.workloads {
            assert_eq!(w.zoo.len(), w.runs.len(), "{}", w.name);
            for (run, report) in w.runs.iter().zip(&w.zoo) {
                assert_eq!(report.entries.len(), mfdyn::full_zoo().len());
                let executed = run.stats.branches.total_executed();
                for (spec, counts) in &report.entries {
                    assert_eq!(
                        counts.executed, executed,
                        "{}/{} {spec}: every predictor sees every branch",
                        w.name, run.dataset
                    );
                }
            }
        }
    }

    fn mem_service() -> mfprofsvc::ProfileService {
        let mem: Arc<dyn mffault::Vfs> = Arc::new(mffault::MemVfs::new());
        mfprofsvc::ProfileService::open(
            mem,
            "profile-db",
            mfprofsvc::ServiceOptions {
                shards: 2,
                ..Default::default()
            },
        )
        .expect("in-memory service opens")
    }

    /// Recording a suite and immediately assessing reuse against the same
    /// build is a pure identity: every recorded site matches by
    /// fingerprint, nothing salvages, degrades, or orphans, and no site
    /// needs the static fallback tier.
    #[test]
    fn suite_skew_is_identity_on_unedited_programs() {
        let s = quick();
        let svc = mem_service();
        let (committed, degraded) = record_suite_svc(&svc, s).unwrap();
        assert!(committed > 0, "quick subset records something");
        assert_eq!(degraded, 0);
        let prior = svc.merged_totals().unwrap();
        let prior_fps = svc.merged_fingerprints_by_dataset().unwrap();
        let skew = suite_skew(&prior, &prior_fps, s).unwrap();
        assert_eq!(skew.workloads.len(), s.workloads.len());
        assert!(skew.is_identity(), "{}", skew.total);
        assert!((skew.total.reuse_fraction() - 1.0).abs() < 1e-12);
        for w in &skew.workloads {
            assert!(w.report.is_identity(), "{}: {}", w.name, w.report);
            assert!(w.fallback.is_empty(), "{}", w.name);
            assert!(w.prior_datasets > 0, "{}", w.name);
        }
    }

    /// A prior database carried onto an edited build of doduc: a branchy
    /// function inserted ahead of the others renumbers every recorded
    /// site and adds sites no run ever fed. The renumbered sites are
    /// salvaged with their counts, each new site degrades once however
    /// many of doduc's three datasets miss it, and the static-tier
    /// fallback lists exactly the degraded sites.
    #[test]
    fn suite_skew_salvages_renumbered_sites_and_degrades_new_ones_once() {
        use std::collections::BTreeSet;

        let svc = mem_service();
        record_suite_svc(&svc, quick()).unwrap();
        let prior = svc.merged_totals().unwrap();
        let prior_fps = svc.merged_fingerprints_by_dataset().unwrap();

        let mut s = quick().clone();
        let doduc = s.workloads.iter_mut().find(|w| w.name == "doduc").unwrap();
        let old_program = Arc::clone(&doduc.program);
        let mut edited = suite().into_iter().find(|w| w.name == "doduc").unwrap();
        edited.source = mfstale::edit::replace_once(
            &edited.source,
            "fn build_tables",
            "fn inserted(x: int) -> int {
    var s: int = 0;
    for (var i: int = 0; i < x; i = i + 3) {
        if (i > 7777) { s = s + 5; emit(s); } else { s = s - 11; }
    }
    return s;
}
fn build_tables",
        )
        .expect("doduc defines build_tables");
        doduc.program = Arc::new(edited.compile().unwrap());
        let program = Arc::clone(&doduc.program);

        // The edit renumbers: every old site reappears `shift` ids later
        // with its fingerprint, and the inserted function's sites are new.
        let old_fps = mfstale::site_fingerprints(&old_program);
        let new_fps = mfstale::site_fingerprints(&program);
        let shift = (new_fps.len() - old_fps.len()) as u32;
        assert!(shift > 0);
        for (id, fp) in &old_fps {
            assert_eq!(new_fps.get(&BranchId(id.0 + shift)), Some(fp), "{id}");
        }
        let inserted: Vec<BranchId> = program
            .branch_info
            .iter()
            .enumerate()
            .filter(|(_, info)| program.functions[info.func.index()].name == "inserted")
            .map(|(i, _)| BranchId::from_index(i))
            .collect();
        assert_eq!(inserted.len(), shift as usize);

        let skew = suite_skew(&prior, &prior_fps, &s).unwrap();
        for w in &skew.workloads {
            if w.name != "doduc" {
                assert!(w.report.is_identity(), "{}: {}", w.name, w.report);
            }
        }
        let w = skew.workloads.iter().find(|w| w.name == "doduc").unwrap();
        assert_eq!(w.prior_datasets, 3);

        // Every recorded entry is salvaged: its counts follow its
        // fingerprint to the renumbered site; none stays in place, none is
        // orphaned.
        let recorded: usize = prior
            .iter()
            .filter(|(label, _)| label.starts_with("doduc/"))
            .map(|(_, rows)| rows.len())
            .sum();
        assert_eq!(w.report.salvaged, recorded, "{}", w.report);
        assert_eq!(w.report.matched + w.report.orphaned, 0, "{}", w.report);

        // Each new site degrades once, not once per dataset that missed
        // it; no renumbered site degrades, so each claimed its counts.
        assert_eq!(w.report.degraded, inserted.len(), "{}", w.report);
        let fallback: BTreeSet<BranchId> = w.fallback.iter().map(|&(id, ..)| id).collect();
        assert_eq!(fallback.len(), w.fallback.len());
        assert_eq!(fallback, inserted.into_iter().collect::<BTreeSet<_>>());
        assert_eq!(skew.total.degraded, w.report.degraded);
    }

    /// Every recorded `program/dataset` record carries exactly the
    /// fingerprints of the build its counts were measured on — also when
    /// that build is not what the bundled source compiles to today.
    #[test]
    fn recorded_fingerprints_come_from_the_profiling_build() {
        use std::collections::BTreeMap;

        let mut s = quick().clone();
        let doduc = s.workloads.iter_mut().find(|w| w.name == "doduc").unwrap();
        let mut edited = suite().into_iter().find(|w| w.name == "doduc").unwrap();
        edited.source = mfstale::edit::append_fn(
            &edited.source,
            "fn spare(x: int) -> int { if (x < 3) { return 1; } return 0; }",
        );
        let bundled = mfstale::site_fingerprints(&doduc.program);
        doduc.program = Arc::new(edited.compile().unwrap());
        assert_ne!(mfstale::site_fingerprints(&doduc.program), bundled);

        let svc = mem_service();
        record_suite_svc(&svc, &s).unwrap();
        let mut want = BTreeMap::new();
        for w in &s.workloads {
            let fps: BTreeMap<u32, u64> = mfstale::site_fingerprints(&w.program)
                .into_iter()
                .map(|(id, fp)| (id.0, fp))
                .collect();
            for r in &w.runs {
                want.insert(format!("{}/{}", w.name, r.dataset), fps.clone());
            }
        }
        assert_eq!(svc.merged_fingerprints_by_dataset().unwrap(), want);
    }

    /// A database written by a fingerprint-free (legacy) writer still
    /// remaps — by id, flagged unverified — and an empty database skips
    /// every workload (the first-generation case).
    #[test]
    fn suite_skew_handles_legacy_and_empty_databases() {
        let s = quick();
        let svc = mem_service();
        let empty = suite_skew(
            &svc.merged_totals().unwrap(),
            &svc.merged_fingerprints_by_dataset().unwrap(),
            s,
        )
        .unwrap();
        assert!(empty.workloads.is_empty());
        assert!(empty.is_identity());

        for w in &s.workloads {
            for r in &w.runs {
                svc.enqueue(&format!("{}/{}", w.name, r.dataset), &r.stats.branches)
                    .unwrap();
            }
        }
        svc.flush().unwrap();
        let prior = svc.merged_totals().unwrap();
        let prior_fps = svc.merged_fingerprints_by_dataset().unwrap();
        assert!(prior_fps.is_empty(), "legacy writer stored no fingerprints");
        let skew = suite_skew(&prior, &prior_fps, s).unwrap();
        assert_eq!(skew.workloads.len(), s.workloads.len());
        assert!(!skew.is_identity(), "unverified reuse is not identity");
        assert_eq!(skew.total.unverified, skew.total.matched);
        assert_eq!(skew.total.orphaned, 0);
        // A legacy database stores no fingerprints, so sites that never
        // executed in any dataset cannot be structurally verified: exactly
        // those degrade to the static tier.
        let mut never_executed = 0usize;
        for w in &s.workloads {
            let mut fed = std::collections::BTreeSet::new();
            for r in &w.runs {
                for (id, _, _) in r.stats.branches.iter() {
                    fed.insert(id);
                }
            }
            never_executed += mfstale::site_fingerprints(&w.program)
                .keys()
                .filter(|id| !fed.contains(id))
                .count();
        }
        assert_eq!(skew.total.degraded, never_executed, "{}", skew.total);
        let listed: usize = skew.workloads.iter().map(|w| w.fallback.len()).sum();
        assert_eq!(
            listed, never_executed,
            "every degraded site gets a static fallback"
        );
    }

    #[test]
    fn coverage_table_renders() {
        let t = coverage_table(quick());
        // doduc has 3 datasets -> 3 worst-pair rows; the others in the
        // quick subset contribute theirs too.
        assert!(t.len() >= 3);
        assert!(t.render().contains("doduc"));
    }

    /// Whether `table` renders to the FNV-64 digest the end-to-end
    /// benchmark pins for `section` in `e2e/golden/paper.fnv`.
    fn matches_golden(table: &Table, section: &str) -> bool {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../e2e/golden/paper.fnv");
        let line = format!(
            "{section} {:016x}",
            mfharness::fnv64(table.render().as_bytes())
        );
        std::fs::read_to_string(path)
            .expect("golden digests")
            .lines()
            .any(|l| l == line)
    }

    #[test]
    fn table2_renders() {
        assert!(matches_golden(&table2(), "table2"));
    }

    // The extension tables execute additional observed/inlined runs; they
    // are exercised every time `repro` runs in release, and can be run
    // here explicitly with
    // `cargo test --release -p mfbench -- --ignored`.
    #[test]
    #[ignore = "runs several observed workloads; covered by the release harness"]
    fn dynamic_table_renders() {
        let t = dynamic_table_with(&test_harness(4));
        assert!(t.len() >= 5);
        assert!(matches_golden(&t, "dynamic"));
    }

    #[test]
    #[ignore = "runs inlined workload builds; covered by the release harness"]
    fn inlining_table_renders() {
        let dir = fresh_cache_dir("inlining");
        let t = inlining_table_with(&disk_harness(&dir));
        assert!(t.len() >= 4);
        assert!(matches_golden(&t, "inline"));
        // A new process renders it again from the disk tier alone.
        let h = disk_harness(&dir);
        assert_eq!(inlining_table_with(&h).render(), t.render());
        assert_eq!(h.report().computed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[ignore = "runs several observed workloads; covered by the release harness"]
    fn distribution_table_renders() {
        let dir = fresh_cache_dir("distribution");
        let h = disk_harness(&dir);
        let t = distribution_table_with(&h);
        assert!(t.len() >= 4);
        assert!(matches_golden(&t, "distribution"));
        // Two passes over its six pairs: the counting jobs, then one
        // run-length job per pair.
        assert_eq!(h.report().computed(), 12);
        // The counting jobs are dynamic_table's own for the pairs they
        // share, so running that next reuses every shared run.
        let before = h.report().computed();
        let _ = dynamic_table_with(&h);
        let after = h.report().computed();
        assert_eq!(after - before, 1, "only mfcom/c_metric is new");
        // A new process renders it again from the disk tier alone.
        let h = disk_harness(&dir);
        assert_eq!(distribution_table_with(&h).render(), t.render());
        assert_eq!(h.report().computed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
