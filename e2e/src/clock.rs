//! Calibrated time.
//!
//! The host this benchmark was built on changes speed by up to 2x within
//! minutes, and by tens of percent within seconds, with no steal time to
//! show for it. Raw wall times of two runs minutes apart are therefore not
//! comparable. The benchmark times its work in short steps and, between
//! steps, runs a fixed reference task that shares no code with the
//! program. Each step's wall time is scaled by how much slower than
//! nominal the reference ran on either side of it. The correction only
//! works when the reference runs on the same thread and close in time to
//! the work: a reference averaged over longer spans, or run on the other
//! core at the same time, tracks the slowdown far worse.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::mix;

/// Nominal duration of [`reference_task`]: a round figure near its time on
/// the host the baseline was measured on. It only sets the scale.
const NOMINAL_S: f64 = 0.0125;

/// The least time between two reference runs: steps shorter than this
/// share one bracket.
const MIN_GAP_S: f64 = 0.25;

/// The reference task: branchy read-modify-write traffic over a 256 KiB
/// table, then building and probing a map of short strings. The two
/// halves follow the two kinds of slowdown seen on the host (arithmetic,
/// and allocation-heavy pointer chasing). Returns its duration in seconds.
fn reference_task() -> f64 {
    let t0 = Instant::now();
    let mut state = 0x5EED_CA1Bu64;
    let mut table = vec![0u32; 1 << 16];
    for i in 0..750_000u32 {
        let r = mix(&mut state);
        let slot = &mut table[(r as usize) & 0xFFFF];
        if r & 1 == 0 {
            *slot = slot.wrapping_add(i);
        } else {
            *slot ^= (r >> 32) as u32;
        }
    }
    black_box(&table);
    let mut map = BTreeMap::new();
    for i in 0..15_000u64 {
        map.insert(format!("k{:x}", mix(&mut state) >> 40), i);
    }
    let mut hits = 0u64;
    for _ in 0..15_000 {
        hits += u64::from(map.contains_key(&format!("k{:x}", mix(&mut state) >> 40)));
    }
    black_box((hits, map));
    t0.elapsed().as_secs_f64()
}

/// Timed steps and the reference runs that bracket them.
pub struct Calibrated {
    /// Durations of the reference runs, in order.
    refs: Vec<f64>,
    last_ref: Instant,
    /// Raw seconds of each step and the reference run before it.
    steps: Vec<(f64, usize)>,
}

impl Calibrated {
    /// Starts with one reference run.
    pub fn new() -> Self {
        Calibrated {
            refs: vec![reference_task()],
            last_ref: Instant::now(),
            steps: Vec::new(),
        }
    }

    /// Records a step of `raw` seconds.
    pub fn record(&mut self, raw: f64) {
        self.steps.push((raw, self.refs.len() - 1));
    }

    /// Number of steps recorded so far.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Whether a reference run is due: a step is unbracketed and the last
    /// reference run is at least [`MIN_GAP_S`] old.
    pub fn due(&self) -> bool {
        self.pending() && self.last_ref.elapsed().as_secs_f64() >= MIN_GAP_S
    }

    fn pending(&self) -> bool {
        self.steps
            .last()
            .is_some_and(|&(_, r)| r + 1 == self.refs.len())
    }

    /// Runs the reference task.
    pub fn calibrate(&mut self) {
        self.refs.push(reference_task());
        self.last_ref = Instant::now();
    }

    /// Brackets the last steps if they are still unbracketed.
    pub fn close(&mut self) {
        if self.pending() {
            self.calibrate();
        }
    }

    /// How much slower than nominal the host ran around step `i`.
    fn factor(&self, i: usize) -> f64 {
        let r = self.steps[i].1;
        let after = self.refs.get(r + 1).unwrap_or(&self.refs[r]);
        (self.refs[r] + after) / 2.0 / NOMINAL_S
    }

    /// Raw seconds of steps `from..to`.
    pub fn raw(&self, from: usize, to: usize) -> f64 {
        self.steps[from..to].iter().map(|s| s.0).sum()
    }

    /// Seconds of steps `from..to` at the host's nominal speed.
    pub fn normalized(&self, from: usize, to: usize) -> f64 {
        (from..to).map(|i| self.steps[i].0 / self.factor(i)).sum()
    }
}

impl Default for Calibrated {
    fn default() -> Self {
        Calibrated::new()
    }
}
