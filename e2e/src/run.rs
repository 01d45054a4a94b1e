//! The run loop: set-up, the measured window, the replay, and the
//! metrics each kind of run reports.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::{number, quote};
use crate::trace::{layer_seconds, self_times, Phase, Tracer};
use crate::{bump, dir_bytes, edit, paper, profdb, replay, stats, Counts, Ctx, Workload};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper-cold", "paper-warm", "edit-compile", "profile-db"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes a window runs at least, whatever its length.
const MIN_PASSES: u32 = 3;
/// The same for a traced run, which alternates untraced and traced passes.
const MIN_TRACED_PASSES: u32 = 4;
/// Failure messages kept per run (all failures are counted).
const KEEP_MESSAGES: usize = 20;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer times in seconds: metric, and the span whose self time it
/// sums (mean over the traced passes plus the replay). Like every
/// per-layer time they are raw wall time; `calibration.factor` says how
/// slow the host ran.
const LAYER_TIMES: [(&str, &str); 19] = [
    ("lang.compile_s", "lang.compile"),
    ("opt.pipeline_s", "opt.pipeline"),
    ("analysis.verify_s", "analysis.verify"),
    ("predict.analyze_s", "predict.analyze"),
    ("predict.static_tier_s", "predict.static_tier"),
    ("stale.fingerprint_s", "stale.fingerprint"),
    ("stale.remap_s", "stale.remap"),
    ("work.datagen_s", "work.datagen"),
    ("harness.key_s", "harness.key"),
    ("harness.lookup_s", "harness.lookup"),
    ("harness.store_s", "harness.store"),
    ("vm.flat_compile_s", "vm.flat_compile"),
    ("vm.exec_s", "vm.exec"),
    ("vm.check_exec_s", "vm.check_exec"),
    ("profsvc.open_s", "profsvc.open"),
    ("profsvc.enqueue_s", "profsvc.enqueue"),
    ("profsvc.flush_s", "profsvc.flush"),
    ("profsvc.compact_s", "profsvc.compact"),
    ("profsvc.read_s", "profsvc.read"),
];

/// Per-layer counts and rates a pass or the replay reports: metric and
/// unit. Counts are the first traced pass's plus the replay's.
const LAYER_COUNTS: [(&str, &str); 24] = [
    ("calibration.factor", "ratio"),
    ("lang.ir_instrs", "count"),
    ("opt.instrs_removed", "count"),
    ("vm.flat_ops", "count"),
    ("vm.guest_instrs", "count"),
    ("vm.exec_mips", "M/s"),
    ("vm.exec_mips.int", "M/s"),
    ("vm.exec_mips.fp", "M/s"),
    ("vm.li_8queens_mips", "M/s"),
    ("dynpred.branches", "count"),
    ("stale.salvaged", "count"),
    ("stale.degraded", "count"),
    ("stale.orphaned", "count"),
    ("profsvc.group_commits", "count"),
    ("profsvc.degraded_acks", "count"),
    ("profdb.bytes", "bytes"),
    ("harness.disk_hits", "count"),
    ("harness.misses", "count"),
    ("harness.hit_rate", "ratio"),
    ("harness.utilization", "ratio"),
    ("harness.pool_frac", "ratio"),
    ("harness.critical_frac", "ratio"),
    ("harness.guest_mips", "M/s"),
    ("report.bytes", "bytes"),
];

/// Per-layer metrics derived from several sources.
const LAYER_DERIVED: [(&str, &str); 6] = [
    ("dynpred.observe_s", "s"),
    ("profsvc.read_p50_ms", "ms"),
    ("profsvc.read_p99_ms", "ms"),
    ("disk_mb", "MiB"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// What to run.
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke-test scale.
    pub quick: bool,
    /// Directory of the golden digests.
    pub golden: PathBuf,
    /// Where to write the span file (traced runs).
    pub spans: Option<PathBuf>,
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: &'static str,
    /// As measured.
    pub value: f64,
    /// Unit from `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A finished run.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The scratch directory of one run, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    /// `$CARGO_TARGET_DIR/e2e-work/<workload>-<pid>`, or under this
    /// package's `target/` when the variable is unset.
    fn create(workload: &str) -> Result<Self, String> {
        let root = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
        let dir = root
            .join("e2e-work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Pins glibc's mmap threshold at its default of 128 KiB. Left dynamic,
/// it rises whenever a large block is freed, and from then on how much
/// freed memory stays resident depends on the order of earlier frees (the
/// reference task's timing, hash-map seeds): one pass's peak RSS then
/// swung by 10 MiB between runs of the same code.
fn steady_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: M_MMAP_THRESHOLD (-3) takes a byte count; mallopt only
    // changes allocator parameters.
    unsafe {
        mallopt(-3, 128 * 1024);
    }
}

/// Returns freed heap memory to the kernel, then restarts the peak
/// resident set size (`VmHWM`) from the current size, so a pass's peak does
/// not depend on what the passes before it left resident. Where the kernel
/// refuses, the peak stays the process's lifetime peak.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free memory.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Running totals of operations and failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn add(&mut self, ops: u64, failures: Vec<String>) {
        self.attempted += ops;
        self.failed += failures.len() as u64;
        let room = KEEP_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(failures.into_iter().take(room));
    }
}

fn workload(opts: &Options) -> Result<Box<dyn Workload>, String> {
    Ok(match opts.workload.as_str() {
        "paper-cold" => Box::new(paper::Paper::new(false, opts.golden.clone(), opts.quick)),
        "paper-warm" => Box::new(paper::Paper::new(true, opts.golden.clone(), opts.quick)),
        "edit-compile" => Box::<edit::EditCompile>::default(),
        "profile-db" => Box::<profdb::ProfileDb>::default(),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// Runs one workload once.
///
/// # Errors
///
/// A message when the workload cannot be set up.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    steady_allocator();
    let mut w = workload(opts)?;
    let work = WorkDir::create(&opts.workload)?;
    let tracer = Tracer::new(format!(
        "{}-{}-{}",
        opts.workload,
        opts.seed,
        std::process::id()
    ));
    let ctx = Ctx::new(&tracer, work.0.clone(), opts.seed, opts.quick);

    // Each set-up is one step; so is each step of a pass. A pass's time is
    // the sum of its steps, calibrated.
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let from = ctx.clock.borrow().steps();
        ctx.step(|| w.setup(&ctx, i))?;
        setups.push((from, ctx.clock.borrow().steps()));
    }
    ctx.clock.borrow_mut().close();

    let mut tally = Tally::default();
    let mut counts: Option<Counts> = None;
    let min = if opts.trace {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    w.begin_window(&ctx);
    let start = Instant::now();
    let (mut passes, mut peaks) = (Vec::new(), Vec::new());
    for n in 0.. {
        let done = if opts.quick {
            n >= 2
        } else {
            n >= min && start.elapsed().as_secs_f64() >= opts.seconds
        };
        if done {
            break;
        }
        let traced_pass = opts.trace && n % 2 == 1;
        tracer.set(traced_pass, Phase::Pass(n));
        let from = ctx.clock.borrow().steps();
        reset_peak_rss();
        let out = {
            let _pass = tracer.span("e2e.pass");
            w.pass(&ctx, n)
        };
        peaks.push(peak_rss_mb());
        tracer.set(false, Phase::Replay);
        tally.add(out.ops, out.failures);
        passes.push((from, ctx.clock.borrow().steps(), traced_pass));
        if traced_pass {
            counts.get_or_insert(out.counts);
        }
    }
    let window = start.elapsed().as_secs_f64();
    ctx.clock.borrow_mut().close();
    let clock = ctx.clock.borrow();
    let (mut untraced, mut traced, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    for &(from, to, t) in passes.iter().filter(|p| p.1 > p.0) {
        let secs = clock.normalized(from, to);
        factors.push(clock.raw(from, to) / secs);
        if t { &mut traced } else { &mut untraced }.push(secs);
    }
    let setup_secs: Vec<f64> = setups
        .iter()
        .map(|&(a, b)| clock.normalized(a, b))
        .collect();
    drop(clock);
    let window_factor = stats::median(&factors);
    eprintln!(
        "{}: {} passes in {window:.2} s; host at {window_factor:.3}x the nominal calibration time",
        opts.workload,
        passes.len()
    );
    let side = w.end_window(&ctx);
    tally.add(side.ops, side.failures);

    let metrics = if opts.trace {
        tracer.set(true, Phase::Replay);
        let r = replay::replay(&ctx, &w.replay_set(&ctx));
        tracer.set(false, Phase::Replay);
        tally.add(r.ops, r.failures);
        let mut counts = counts.unwrap_or_default();
        for (k, v) in r.counts {
            bump(&mut counts, k, v);
        }
        bump(&mut counts, "calibration.factor", window_factor);
        let reads: Vec<f64> = side.latencies_ms.into_iter().chain(r.read_ms).collect();
        layer_metrics(&tracer, &counts, &reads, &traced, &untraced, &work.0)
    } else {
        let metric = |i: usize, value: f64| Metric {
            name: END_TO_END[i].0,
            value,
            unit: END_TO_END[i].1,
        };
        vec![
            metric(0, stats::median(&setup_secs)),
            metric(1, stats::median(&untraced)),
            metric(2, stats::median(&peaks)),
        ]
    };
    if let Some(path) = &opts.spans {
        std::fs::write(path, crate::trace::to_json(&tracer))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        messages: tally.messages,
        metrics,
    })
}

fn layer_metrics(
    tracer: &Tracer,
    counts: &Counts,
    reads_ms: &[f64],
    traced: &[f64],
    untraced: &[f64],
    work: &Path,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let seconds = layer_seconds(&spans);
    let secs = |span: &str| seconds.get(span).copied().unwrap_or(0.0);
    let own = self_times(&spans);
    let (mut covered, mut total) = (0.0, 0.0);
    for (s, t) in spans.iter().zip(&own) {
        if s.name == "e2e.pass" {
            total += s.secs();
            covered += s.secs() - t;
        }
    }
    let mut out: Vec<Metric> = LAYER_TIMES
        .iter()
        .map(|&(name, span)| Metric {
            name,
            value: secs(span),
            unit: "s",
        })
        .collect();
    out.extend(LAYER_COUNTS.iter().map(|&(name, unit)| Metric {
        name,
        value: counts.get(name).copied().unwrap_or(0.0),
        unit,
    }));
    let derived = [
        secs("dynpred.observe") - secs("vm.exec"),
        stats::percentile(reads_ms, 50.0),
        stats::percentile(reads_ms, 99.0),
        dir_bytes(work) as f64 / (1024.0 * 1024.0),
        stats::median(traced) / stats::median(untraced) - 1.0,
        if total > 0.0 {
            1.0 - covered / total
        } else {
            0.0
        },
    ];
    out.extend(
        LAYER_DERIVED
            .iter()
            .zip(derived)
            .map(|(&(name, unit), value)| Metric { name, value, unit }),
    );
    out
}
