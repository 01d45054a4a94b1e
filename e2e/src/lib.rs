//! # mfe2e — the end-to-end benchmark
//!
//! Four closed-loop workloads, each run in one process: `paper-cold` and
//! `paper-warm` regenerate the paper's tables through the run harness,
//! `edit-compile` drives the developer loop over seeded source edits, and
//! `profile-db` accumulates generations of counts in the profile service
//! while a second thread reads it. A run sets its workload up several
//! times, then repeats the workload's *pass* for a fixed window of wall
//! time. A traced run alternates untraced and traced passes and then
//! replays the workload's jobs layer by layer; per-layer metrics come from
//! the spans. See `README.md` for the metric definitions.
//!
//! The benchmark calls the program only through public functions and
//! times those calls from outside.

pub mod clock;
pub mod compare;
pub mod edit;
pub mod golden;
pub mod json;
pub mod paper;
pub mod profdb;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use clock::Calibrated;
use trace::Tracer;

/// Per-layer counts a pass or the replay contributes, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds `v` to count `name`.
pub fn bump(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_default() += v;
}

/// What every workload needs from the run loop.
pub struct Ctx<'a> {
    /// The run's span recorder.
    pub tracer: &'a Tracer,
    /// A private scratch directory, removed when the run ends.
    pub work: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// Smoke-test scale: tiny inputs, exactly two passes.
    pub quick: bool,
    /// Every timed step of the run.
    pub clock: RefCell<Calibrated>,
    in_step: Cell<bool>,
}

impl<'a> Ctx<'a> {
    /// A context whose clock starts with a reference run.
    pub fn new(tracer: &'a Tracer, work: PathBuf, seed: u64, quick: bool) -> Self {
        Ctx {
            tracer,
            work,
            seed,
            quick,
            clock: RefCell::new(Calibrated::new()),
            in_step: Cell::new(false),
        }
    }

    /// Runs `f` as one timed step of the current set-up or pass; a step
    /// inside a step is part of the outer one. Between steps the clock
    /// runs its reference task when one is due, under an `e2e.calibrate`
    /// span, outside every step's time.
    pub fn step<T>(&self, f: impl FnOnce() -> T) -> T {
        if self.in_step.replace(true) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let raw = t0.elapsed().as_secs_f64();
        self.in_step.set(false);
        let mut clock = self.clock.borrow_mut();
        clock.record(raw);
        if clock.due() {
            let _span = self.tracer.span("e2e.calibrate");
            clock.calibrate();
        }
        out
    }
}

/// The result of one pass.
#[derive(Default)]
pub struct PassOutcome {
    /// Operations attempted.
    pub ops: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Per-layer counts.
    pub counts: Counts,
}

/// Operations issued beside the passes for the whole window (the
/// profile-db reader).
#[derive(Default)]
pub struct WindowOutcome {
    /// Operations attempted.
    pub ops: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Latency of each operation, in ms.
    pub latencies_ms: Vec<f64>,
}

/// One benchmark workload.
pub trait Workload {
    /// Builds the workload's state from scratch (called several times;
    /// the last set-up is the one the window uses).
    ///
    /// # Errors
    ///
    /// A message when the set-up itself failed; the run stops.
    fn setup(&mut self, ctx: &Ctx, index: usize) -> Result<(), String>;

    /// Starts work that runs beside the passes for the whole window.
    fn begin_window(&mut self, _ctx: &Ctx) {}

    /// One pass: the unit of work the window repeats. Its timed work
    /// runs in [`Ctx::step`]s; checking the outputs stays outside them.
    fn pass(&mut self, ctx: &Ctx, n: u32) -> PassOutcome;

    /// Stops the work begun by [`Workload::begin_window`].
    fn end_window(&mut self, _ctx: &Ctx) -> WindowOutcome {
        WindowOutcome::default()
    }

    /// The programs and inputs the traced run replays layer by layer.
    fn replay_set(&self, ctx: &Ctx) -> Vec<replay::ReplayProgram>;
}

/// Runs `f`, turning a panic inside the program into an error message.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let detail = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        format!("{what}: {detail}")
    })
}

/// splitmix64: the benchmark's only source of randomness.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Total bytes of the regular files under `dir` (0 if it is absent).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}
