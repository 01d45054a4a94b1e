//! # mfharness — the experiment execution engine
//!
//! Every measured run in the evaluation matrix — `(program, dataset,
//! vm-config)` — is a [`RunJob`] with a stable content-addressed
//! [`RunKey`]. A [`Harness`] deduplicates submitted jobs, serves repeats
//! from a two-tier cache, and executes the remainder on a dependency-free
//! work-stealing thread pool. Both tiers — an in-process memo table and an
//! optional on-disk store — hold a job's whole outcome: the
//! [`trace_vm::Run`] (output, result, stats) and what its [`Observe`]
//! observer measured, so a warm process re-runs nothing. The whole
//! matrix takes about 1.5 MiB on disk, mostly the output streams of
//! compress and uncompress; the directory is never evicted. Results always
//! come back in submission order, so downstream tables and figures are
//! bit-identical whether the matrix ran on one worker or eight.
//!
//! Knobs (also surfaced as `repro` flags):
//!
//! * `MFHARNESS_JOBS` — worker thread count (default: available
//!   parallelism, clamped to 8).
//! * `MFHARNESS_CACHE` — `off`/`0` disables the persistent tier; any
//!   other value is used as the cache directory. Default:
//!   `target/mfharness-cache/`.
//! * `MFHARNESS_VERIFY` — any value other than `off`/`0`/empty runs the
//!   `mfcheck` semantic verifier over every unique job's program and
//!   stamps its digest on the run record (cache hits included).
//!
//! Observability — per-run timing, guest-instructions-per-second, cache
//! hit/miss counters, worker utilization — accumulates in a
//! [`HarnessReport`] available from [`Harness::report`].

mod cache;
mod job;
mod key;
mod pool;
mod report;

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mffault::{FaultPlan, FaultVfs, RealVfs, RetryPolicy, Vfs};
use trace_vm::{Run, RuntimeError};

pub use cache::{CacheCounters, CacheHit, CacheRobustness, RunCache};
pub use job::{CacheSource, Observe, Observed, RunJob, RunOutcome};
pub use key::{fnv64, Fingerprint, RunKey};
pub use pool::{default_workers, run_indexed, run_indexed_supervised, PoolStats};
pub use report::{HarnessReport, RobustnessReport, RunRecord};

/// Persistent-cache configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum DiskCache {
    /// `target/mfharness-cache/` next to the workspace build directory.
    #[default]
    Default,
    /// In-process memoization only.
    Off,
    /// An explicit directory.
    Dir(PathBuf),
}

/// Construction-time options for a [`Harness`].
#[derive(Clone, Debug, Default)]
pub struct HarnessOptions {
    /// Worker thread count; `None` means [`default_workers`].
    pub jobs: Option<usize>,
    /// Persistent-cache mode.
    pub disk_cache: DiskCache,
    /// Run the semantic verifier over every unique job's program and stamp
    /// the digest on its [`RunRecord`] — including cache hits, so results
    /// loaded from disk are still re-checked against today's verifier.
    pub verify: bool,
    /// Bounded retry budget for transient cache I/O errors (`None` = the
    /// default of 2).
    pub io_retries: Option<u32>,
    /// Wrap all cache I/O in a seeded [`mffault::FaultVfs`] — the
    /// fault-injection mode behind `repro --fault-seed`. Cache failures
    /// degrade to recomputation, so results are unchanged; only the
    /// robustness counters tell the difference.
    pub fault_seed: Option<u64>,
}

impl HarnessOptions {
    /// Reads `MFHARNESS_JOBS`, `MFHARNESS_CACHE`, and `MFHARNESS_VERIFY`
    /// from the environment.
    pub fn from_env() -> Self {
        let jobs = std::env::var("MFHARNESS_JOBS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let disk_cache = match std::env::var("MFHARNESS_CACHE") {
            Err(_) => DiskCache::Default,
            Ok(v) if v.trim().is_empty() || v.trim() == "off" || v.trim() == "0" => DiskCache::Off,
            Ok(v) => DiskCache::Dir(PathBuf::from(v)),
        };
        let verify = match std::env::var("MFHARNESS_VERIFY") {
            Err(_) => false,
            Ok(v) => !matches!(v.trim(), "" | "0" | "off"),
        };
        let io_retries = std::env::var("MFHARNESS_IO_RETRIES")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok());
        let fault_seed = std::env::var("MFHARNESS_FAULT_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        HarnessOptions {
            jobs,
            disk_cache,
            verify,
            io_retries,
            fault_seed,
        }
    }
}

/// The workspace-relative default cache directory, honoring
/// `CARGO_TARGET_DIR` when the build was redirected.
pub fn default_cache_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        });
    target.join("mfharness-cache")
}

/// The default executor: a plain VM run, or — when the job carries an
/// observer — a [`trace_vm::Vm::run_observed`] run with it attached,
/// returned with what it measured. A zoo's predictors run on a helper
/// thread beside the VM ([`mfdyn::Zoo::observe_beside`]).
fn exec_default(job: &RunJob) -> Result<(Run, Observed), RuntimeError> {
    let vm = trace_vm::Vm::with_config(&job.program, job.config);
    Ok(match &job.observe {
        None => (vm.run(&job.inputs)?, Observed::Nothing),
        Some(Observe::Zoo(specs)) => {
            let mut zoo = mfdyn::Zoo::for_program(specs, &job.program);
            let run = zoo.observe_beside(|feed| vm.run_observed(&job.inputs, feed))?;
            (run, Observed::Zoo(Arc::new(zoo.report())))
        }
        Some(Observe::RunLengths(taken)) => {
            let mut lengths = mfdyn::RunLengths::new(taken);
            let run = vm.run_observed(&job.inputs, &mut lengths)?;
            (run, Observed::RunLengths(Arc::new(lengths)))
        }
    })
}

/// A run failed; carries the failing job's label and the VM error.
#[derive(Debug)]
pub enum HarnessError {
    /// The guest program faulted (or exhausted fuel/stack/alloc budgets).
    Run {
        /// `program/dataset` label of the failing job.
        label: String,
        /// The underlying VM error.
        error: RuntimeError,
    },
    /// A run panicked inside a worker. The pool survived (every other job
    /// of the batch ran to completion and was cached); the panicking key
    /// is quarantined so resubmission fails fast instead of re-panicking.
    Panicked {
        /// `program/dataset` label of the poisoned job.
        label: String,
        /// The panic message, as captured by the supervisor.
        detail: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Run { label, error } => write!(f, "run {label} failed: {error}"),
            HarnessError::Panicked { label, detail } => {
                write!(f, "run {label} panicked (quarantined): {detail}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// The deduplicating, caching, parallel run executor.
#[derive(Debug)]
pub struct Harness {
    jobs: usize,
    verify: bool,
    cache: RunCache,
    records: Mutex<Vec<RunRecord>>,
    jobs_submitted: AtomicU64,
    unique_jobs: AtomicU64,
    workers_seen: AtomicUsize,
    wall_ns: AtomicU64,
    busy_ns: AtomicU64,
    panics: AtomicU64,
    quarantine: Mutex<HashMap<RunKey, (String, String)>>,
}

impl Harness {
    /// Builds a harness from explicit options.
    pub fn new(options: HarnessOptions) -> Self {
        let retry = RetryPolicy::immediate(options.io_retries.unwrap_or(2));
        let vfs: Arc<dyn Vfs> = match options.fault_seed {
            Some(seed) => Arc::new(FaultVfs::new(
                Arc::new(RealVfs) as Arc<dyn Vfs>,
                FaultPlan::from_seed(seed),
            )),
            None => Arc::new(RealVfs),
        };
        let cache = match options.disk_cache {
            DiskCache::Off => RunCache::in_memory(),
            DiskCache::Default => RunCache::with_disk_on(vfs, default_cache_dir(), retry),
            DiskCache::Dir(dir) => RunCache::with_disk_on(vfs, dir, retry),
        };
        Harness {
            jobs: options.jobs.unwrap_or_else(default_workers),
            verify: options.verify,
            cache,
            records: Mutex::new(Vec::new()),
            jobs_submitted: AtomicU64::new(0),
            unique_jobs: AtomicU64::new(0),
            workers_seen: AtomicUsize::new(0),
            wall_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            quarantine: Mutex::new(HashMap::new()),
        }
    }

    /// Builds a harness configured from the environment.
    pub fn from_env() -> Self {
        Harness::new(HarnessOptions::from_env())
    }

    /// A harness with no persistent tier — what tests should use.
    pub fn in_memory() -> Self {
        Harness::new(HarnessOptions {
            jobs: None,
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        })
    }

    /// Worker thread count this harness schedules with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether run records carry a semantic-verification digest.
    pub fn verify(&self) -> bool {
        self.verify
    }

    /// The persistent cache directory, if the tier is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache.disk_dir()
    }

    /// Executes a batch. Jobs with equal keys are collapsed to one
    /// execution; cache hits skip execution entirely. The returned vector
    /// is index-aligned with `batch`.
    ///
    /// Jobs with a [`RunJob::observe`] observer run with it attached (pure
    /// observation — stats are bit-identical to an unobserved run) and come
    /// back with what it measured.
    pub fn run(&self, batch: Vec<RunJob>) -> Result<Vec<RunOutcome>, HarnessError> {
        self.run_with(batch, exec_default)
    }

    /// [`Harness::run`] with an explicit executor — the seam supervision
    /// tests (and alternative backends) plug into. `exec` returns the run
    /// and its observer's product ([`Observed::Nothing`] from an executor
    /// that does not drive observers, which leaves an observed job
    /// uncached). It runs on pool workers under `catch_unwind`; a panic
    /// inside it becomes [`HarnessError::Panicked`] and quarantines the
    /// job's key rather than killing the pool or poisoning the harness.
    pub fn run_with<E>(&self, batch: Vec<RunJob>, exec: E) -> Result<Vec<RunOutcome>, HarnessError>
    where
        E: Fn(&RunJob) -> Result<(Run, Observed), RuntimeError> + Sync,
    {
        self.jobs_submitted
            .fetch_add(batch.len() as u64, Ordering::Relaxed);

        // Deduplicate: the first occurrence of a key owns the work.
        let mut unique: Vec<RunJob> = Vec::new();
        let mut index_of: HashMap<RunKey, usize> = HashMap::new();
        let mut fanout: Vec<usize> = Vec::with_capacity(batch.len());
        for job in batch {
            match index_of.get(&job.key) {
                Some(&i) => fanout.push(i),
                None => {
                    let i = unique.len();
                    index_of.insert(job.key, i);
                    fanout.push(i);
                    unique.push(job);
                }
            }
        }
        self.unique_jobs
            .fetch_add(unique.len() as u64, Ordering::Relaxed);

        // Quarantined keys fail fast: a job that already panicked once is
        // not given a second chance to take a worker down.
        {
            let quarantine = self.quarantine.lock().expect("quarantine lock");
            for job in &unique {
                if let Some((label, detail)) = quarantine.get(&job.key) {
                    return Err(HarnessError::Panicked {
                        label: label.clone(),
                        detail: detail.clone(),
                    });
                }
            }
        }

        // Cache pass (serial, submission order — keeps counter totals and
        // record order deterministic), then pooled execution of misses.
        let mut resolved: Vec<Option<RunOutcome>> = Vec::with_capacity(unique.len());
        let mut to_run: Vec<usize> = Vec::new();
        for (i, job) in unique.iter().enumerate() {
            match self.cache.lookup(job) {
                Some(hit) => resolved.push(Some(RunOutcome {
                    label: job.label(),
                    key: job.key,
                    stats: hit.stats,
                    run: hit.run,
                    source: hit.source,
                    wall: std::time::Duration::ZERO,
                    observed: hit.observed,
                })),
                None => {
                    to_run.push(i);
                    resolved.push(None);
                }
            }
        }

        if !to_run.is_empty() {
            let (executed, stats) = pool::run_indexed_supervised(self.jobs, to_run.len(), |slot| {
                let job = &unique[to_run[slot]];
                let t0 = Instant::now();
                (exec(job), t0.elapsed())
            });
            self.workers_seen
                .fetch_max(stats.workers, Ordering::Relaxed);
            self.wall_ns
                .fetch_add(stats.wall.as_nanos() as u64, Ordering::Relaxed);
            self.busy_ns.fetch_add(
                stats.busy.iter().map(|d| d.as_nanos() as u64).sum::<u64>(),
                Ordering::Relaxed,
            );
            // Every slot is drained before the first error is surfaced, so
            // all completed work lands in the cache and every panic of the
            // batch is quarantined — not just the first one.
            let mut first_error: Option<HarnessError> = None;
            for (slot, outcome) in executed.into_iter().enumerate() {
                let i = to_run[slot];
                let job = &unique[i];
                match outcome {
                    Err(detail) => {
                        self.panics.fetch_add(1, Ordering::Relaxed);
                        self.quarantine
                            .lock()
                            .expect("quarantine lock")
                            .insert(job.key, (job.label(), detail.clone()));
                        if first_error.is_none() {
                            first_error = Some(HarnessError::Panicked {
                                label: job.label(),
                                detail,
                            });
                        }
                    }
                    Ok((Err(error), _)) => {
                        if first_error.is_none() {
                            first_error = Some(HarnessError::Run {
                                label: job.label(),
                                error,
                            });
                        }
                    }
                    Ok((Ok((run, observed)), wall)) => {
                        let run = Arc::new(run);
                        self.cache.insert_observed(job, &run, observed.clone());
                        resolved[i] = Some(RunOutcome {
                            label: job.label(),
                            key: job.key,
                            stats: Arc::new(run.stats.clone()),
                            run,
                            source: CacheSource::Computed,
                            wall,
                            observed,
                        });
                    }
                }
            }
            if let Some(error) = first_error {
                return Err(error);
            }
        }

        let outcomes: Vec<RunOutcome> = resolved
            .into_iter()
            .map(|o| o.expect("every unique job resolved"))
            .collect();

        // Verification digests: one per distinct program (many unique jobs
        // share one `Arc<Program>` across datasets). Cache hits are
        // digested too — that is the point: a stale disk result still gets
        // checked against today's verifier.
        let digests: Vec<Option<u64>> = if self.verify {
            let mut memo: HashMap<*const trace_ir::Program, u64> = HashMap::new();
            unique
                .iter()
                .map(|job| {
                    Some(
                        *memo
                            .entry(Arc::as_ptr(&job.program))
                            .or_insert_with(|| mfcheck::verify_digest(&job.program)),
                    )
                })
                .collect()
        } else {
            vec![None; unique.len()]
        };

        {
            let mut records = self.records.lock().expect("records lock");
            // `outcomes` is index-aligned with `unique`, so zipping pairs
            // each outcome with its job's digest.
            for (outcome, digest) in outcomes.iter().zip(&digests) {
                records.push(RunRecord {
                    label: outcome.label.clone(),
                    key: outcome.key,
                    guest_instrs: outcome.stats.total_instrs,
                    wall: outcome.wall,
                    source: outcome.source,
                    verify_digest: *digest,
                });
            }
        }

        Ok(fanout.into_iter().map(|i| outcomes[i].clone()).collect())
    }

    /// Convenience: submit one job.
    pub fn run_one(&self, job: RunJob) -> Result<RunOutcome, HarnessError> {
        Ok(self.run(vec![job])?.pop().expect("one job, one outcome"))
    }

    /// Labels currently quarantined after panicking, sorted.
    pub fn quarantined(&self) -> Vec<String> {
        let quarantine = self.quarantine.lock().expect("quarantine lock");
        let mut labels: Vec<String> = quarantine.values().map(|(l, _)| l.clone()).collect();
        labels.sort();
        labels
    }

    /// Snapshot of accumulated observability.
    pub fn report(&self) -> HarnessReport {
        let cache_robustness = self.cache.robustness();
        HarnessReport {
            records: self.records.lock().expect("records lock").clone(),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            unique_jobs: self.unique_jobs.load(Ordering::Relaxed),
            workers: self.workers_seen.load(Ordering::Relaxed),
            wall: std::time::Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed)),
            busy: std::time::Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            cache: self.cache.counters(),
            robustness: RobustnessReport {
                panics: self.panics.load(Ordering::Relaxed),
                quarantined: self.quarantined(),
                io_retries: cache_robustness.io_retries,
                cache_store_failures: cache_robustness.store_failures,
                cache_corrupt_misses: cache_robustness.corrupt_misses,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_vm::{Input, VmConfig};

    fn job(source: &str, inputs: Vec<Input>) -> RunJob {
        let program = Arc::new(mflang::compile(source).unwrap());
        RunJob::new("test", "d0", program, inputs, VmConfig::default())
    }

    fn observed_job(source: &str, inputs: Vec<Input>, observe: Observe) -> RunJob {
        let program = Arc::new(mflang::compile(source).unwrap());
        RunJob::with_observer("test", "d0", program, inputs, VmConfig::default(), observe)
    }

    const LOOPY: &str = "fn main(n: int) { var i: int = 0; var acc: int = 0; \
        while (i < n) { if (i % 3 == 0) { acc = acc + i; } i = i + 1; } emit(acc); }";

    #[test]
    fn duplicate_jobs_execute_once() {
        let harness = Harness::in_memory();
        let jobs: Vec<RunJob> = (0..6).map(|_| job(LOOPY, vec![Input::Int(50)])).collect();
        let outcomes = harness.run(jobs).unwrap();
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes
            .windows(2)
            .all(|w| w[0].stats.total_instrs == w[1].stats.total_instrs));
        let report = harness.report();
        assert_eq!(report.jobs_submitted, 6);
        assert_eq!(report.unique_jobs, 1);
        // Only the single deduplicated job actually executed.
        assert_eq!(report.computed(), 1);
        assert_eq!(report.records.len(), 1);
    }

    #[test]
    fn second_batch_hits_memo_table() {
        let harness = Harness::in_memory();
        let first = harness.run_one(job(LOOPY, vec![Input::Int(40)])).unwrap();
        assert_eq!(first.source, CacheSource::Computed);
        let second = harness.run_one(job(LOOPY, vec![Input::Int(40)])).unwrap();
        assert_eq!(second.source, CacheSource::Memory);
        assert_eq!(first.stats, second.stats);
    }

    #[test]
    fn every_hit_carries_the_full_run() {
        // Computed or served from memory, an outcome holds the whole run:
        // output and result as well as the stats.
        let harness = Harness::in_memory();
        let computed = harness.run_one(job(LOOPY, vec![Input::Int(30)])).unwrap();
        let hit = harness.run_one(job(LOOPY, vec![Input::Int(30)])).unwrap();
        assert_eq!(hit.source, CacheSource::Memory);
        assert!(!computed.run.output.is_empty());
        assert_eq!(hit.run, computed.run);
        assert_eq!(*hit.stats, hit.run.stats);
    }

    #[test]
    fn runtime_errors_surface_with_labels() {
        let harness = Harness::in_memory();
        let mut bad = job(LOOPY, vec![Input::Int(1_000_000)]);
        bad.config.fuel = 10; // guarantee fuel exhaustion
        bad.key = RunKey::of(&bad.program, &bad.inputs, &bad.config);
        let err = harness.run_one(bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("test/d0"), "message was: {msg}");
    }

    #[test]
    fn verify_mode_stamps_digests_on_all_records() {
        let harness = Harness::new(HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Off,
            verify: true,
            ..HarnessOptions::default()
        });
        assert!(harness.verify());
        // Two batches of the same job: a computed record and a memory-hit
        // record, both of which must carry the clean digest.
        harness.run_one(job(LOOPY, vec![Input::Int(25)])).unwrap();
        harness.run_one(job(LOOPY, vec![Input::Int(25)])).unwrap();
        let report = harness.report();
        assert_eq!(report.records.len(), 2);
        for record in &report.records {
            assert_eq!(record.verify_digest, Some(mfcheck::CLEAN_DIGEST));
        }
        assert_eq!(report.verified(), 2);
        assert_eq!(report.verified_clean(), 2);
        assert!(report.summary_table().render().contains("runs verified"));
        assert!(report
            .to_json()
            .render()
            .contains("\"verify_digest\": \"0x"));
    }

    #[test]
    fn unverified_records_have_no_digest() {
        let harness = Harness::in_memory();
        harness.run_one(job(LOOPY, vec![Input::Int(12)])).unwrap();
        let report = harness.report();
        assert_eq!(report.records[0].verify_digest, None);
        assert_eq!(report.verified(), 0);
        assert!(!report.summary_table().render().contains("runs verified"));
        assert!(report
            .to_json()
            .render()
            .contains("\"verify_digest\": null"));
    }

    #[test]
    fn panicking_run_is_quarantined_not_fatal() {
        // Silence the default panic hook for the expected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        let harness = Harness::new(HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let good = job(LOOPY, vec![Input::Int(20)]);
        let bad = job(LOOPY, vec![Input::Int(21)]);
        let bad_key = bad.key;
        let batch = vec![good.clone(), bad.clone()];
        let err = harness
            .run_with(batch, |j| {
                if j.key == bad_key {
                    panic!("injected poison");
                }
                trace_vm::run_program(&j.program, j.config, &j.inputs)
                    .map(|r| (r, Observed::Nothing))
            })
            .unwrap_err();
        match &err {
            HarnessError::Panicked { label, detail } => {
                assert_eq!(label, "test/d0");
                assert!(detail.contains("injected poison"), "{detail}");
            }
            other => panic!("expected Panicked, got {other}"),
        }

        // The pool survived: the good job completed and was cached.
        let again = harness.run_one(good).unwrap();
        assert_eq!(again.source, CacheSource::Memory);

        // The poisoned key is quarantined: resubmission fails fast with
        // the stored detail instead of re-running.
        let err = harness.run_one(bad).unwrap_err();
        assert!(matches!(err, HarnessError::Panicked { .. }), "{err}");

        let report = harness.report();
        assert_eq!(report.robustness.panics, 1);
        assert_eq!(report.robustness.quarantined, vec!["test/d0".to_string()]);
        assert!(report.to_json().render().contains("\"robustness\""));

        std::panic::set_hook(prev);
    }

    #[test]
    fn zoo_job_out_of_fuel_fails_with_its_label() {
        // The guest runs out of fuel after tens of thousands of branches,
        // with handoff blocks in flight to the zoo's helper thread.
        let starved = RunJob::with_observer(
            "test",
            "d0",
            Arc::new(mflang::compile(LOOPY).unwrap()),
            vec![Input::Int(1_000_000)],
            VmConfig {
                fuel: 200_000,
                ..VmConfig::default()
            },
            Observe::Zoo(mfdyn::full_zoo()),
        );
        match Harness::in_memory().run_one(starved).unwrap_err() {
            HarnessError::Run { label, error } => {
                assert_eq!(label, "test/d0");
                assert_eq!(error, RuntimeError::OutOfFuel { limit: 200_000 });
            }
            other => panic!("expected Run, got {other}"),
        }
    }

    #[test]
    fn panic_beside_a_zoo_is_quarantined_not_fatal() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        let harness = Harness::new(HarnessOptions {
            jobs: Some(2),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let zooed = |n| observed_job(LOOPY, vec![Input::Int(n)], Observe::Zoo(mfdyn::full_zoo()));
        let bad = zooed(9_000);
        let bad_key = bad.key;
        let err = harness
            .run_with(vec![zooed(8_000), bad], |j| {
                if j.key != bad_key {
                    return exec_default(j);
                }
                // The run completes, its blocks reach the helper, and then
                // the executor panics before the zoo's tail is handed over.
                let vm = trace_vm::Vm::with_config(&j.program, j.config);
                let mut zoo = mfdyn::Zoo::for_program(&mfdyn::full_zoo(), &j.program);
                zoo.observe_beside(|feed| {
                    vm.run_observed(&j.inputs, feed).expect("clean run");
                    panic!("injected poison beside the zoo");
                })
            })
            .unwrap_err();
        assert!(
            matches!(&err, HarnessError::Panicked { detail, .. } if detail.contains("injected poison")),
            "{err}"
        );
        assert_eq!(harness.quarantined(), vec!["test/d0".to_string()]);

        // The next zoo batch on the same harness computes, and its tallies
        // equal a zoo observing the same run inline.
        let next = zooed(20_000);
        let outcome = harness.run_one(next.clone()).unwrap();
        assert_eq!(outcome.source, CacheSource::Computed);
        let mut inline = mfdyn::Zoo::for_program(&mfdyn::full_zoo(), &next.program);
        trace_vm::Vm::with_config(&next.program, next.config)
            .run_observed(&next.inputs, &mut inline)
            .unwrap();
        assert_eq!(outcome.zoo(), Some(&inline.report()));

        std::panic::set_hook(prev);
    }

    #[test]
    fn zoo_jobs_carry_reports_and_identical_stats() {
        let harness = Harness::in_memory();
        let plain = job(LOOPY, vec![Input::Int(60)]);
        let zooed = observed_job(LOOPY, vec![Input::Int(60)], Observe::Zoo(mfdyn::full_zoo()));
        assert_ne!(plain.key, zooed.key, "zoo must perturb the key");
        let outcomes = harness.run(vec![plain, zooed.clone()]).unwrap();
        // Observation is pure: both jobs measured the same run.
        assert_eq!(outcomes[0].stats, outcomes[1].stats);
        assert!(outcomes[0].zoo().is_none());
        let report = outcomes[1].zoo().expect("zoo job has a report");
        assert_eq!(report.entries.len(), mfdyn::full_zoo().len());
        for (spec, counts) in &report.entries {
            assert!(counts.executed > 0, "{spec} saw no branches");
            assert!(counts.mispredicted <= counts.executed);
        }
        // A memo hit still finds its zoo report.
        let again = harness.run_one(zooed).unwrap();
        assert_eq!(again.source, CacheSource::Memory);
        assert_eq!(again.zoo(), Some(report));
    }

    #[test]
    fn executors_that_skip_the_observer_leave_the_job_uncached() {
        let harness = Harness::in_memory();
        let observed = observed_job(LOOPY, vec![Input::Int(15)], Observe::Zoo(mfdyn::full_zoo()));
        let unobserving = |j: &RunJob| {
            trace_vm::run_program(&j.program, j.config, &j.inputs).map(|r| (r, Observed::Nothing))
        };
        let first = harness
            .run_with(vec![observed.clone()], unobserving)
            .unwrap();
        assert!(first[0].zoo().is_none());
        // No entry without its product: the next run computes the report.
        let second = harness.run_one(observed).unwrap();
        assert_eq!(second.source, CacheSource::Computed);
        assert!(second.zoo().is_some());
    }

    #[test]
    fn run_length_jobs_are_keyed_by_their_predictions() {
        let observed = |taken: bool| {
            let taken = Arc::new(vec![taken; 2]);
            observed_job(LOOPY, vec![Input::Int(45)], Observe::RunLengths(taken))
        };
        let (all, none) = (observed(true), observed(false));
        assert_ne!(all.key, none.key);
        let outcomes = Harness::in_memory()
            .run(vec![job(LOOPY, vec![Input::Int(45)]), all, none])
            .unwrap();
        assert_eq!(outcomes[0].stats, outcomes[1].stats);
        assert!(outcomes[0].run_lengths().is_none() && outcomes[1].zoo().is_none());
        let [a, b] = [1, 2].map(|i| outcomes[i].run_lengths().expect("a histogram").summary());
        assert!(a.count > 0 && b.count > 0 && a != b);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let serial = Harness::new(HarnessOptions {
            jobs: Some(1),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let parallel = Harness::new(HarnessOptions {
            jobs: Some(8),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let batch = |h: &Harness| {
            let jobs: Vec<RunJob> = (10..30).map(|n| job(LOOPY, vec![Input::Int(n)])).collect();
            h.run(jobs).unwrap()
        };
        let a = batch(&serial);
        let b = batch(&parallel);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.stats, y.stats);
        }
    }
}
