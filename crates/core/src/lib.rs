#![warn(missing_docs)]

//! # bpredict
//!
//! Profile-guided static branch prediction and the measurement methodology
//! of Fisher & Freudenberger, *Predicting Conditional Branch Directions From
//! Previous Runs of a Program* (ASPLOS 1992) — the paper's primary
//! contribution, built on the `trace-vm` machine and `ifprob` profile
//! substrate.
//!
//! The paper's central points, all implemented here:
//!
//! 1. **Static prediction from previous runs.** A [`Predictor`] attaches one
//!    direction to every conditional branch at compile time, built from the
//!    branch statistics of earlier runs ([`Predictor::from_counts`]), from
//!    combined multi-dataset profiles ([`Predictor::from_weighted`]), or
//!    from the naive loop heuristic the paper uses as a baseline
//!    ([`Predictor::heuristic`]). It holds one slot per branch-site id,
//!    so evaluating a run is one indexed lookup per branch counter.
//! 2. **Instructions per mispredicted branch** (more generally *per break in
//!    control*) as the right measure — percent-correct ignores branch
//!    density (the paper's fpppp-vs-li anecdote). [`evaluate`] computes it
//!    for a run under any [`BreakConfig`] accounting convention.
//! 3. **The evaluation matrix**: each dataset predicted by itself (the upper
//!    bound), by every other single dataset, and by the scaled sum of all
//!    others — [`experiment`] drives Figures 1–3 and Table 3.
//!
//! ```
//! use bpredict::{evaluate, BreakConfig, Predictor};
//! use mflang::compile;
//! use trace_vm::{Input, Vm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = compile(
//!     "fn main(n: int) {
//!         var s: int = 0;
//!         for (var i: int = 0; i < n; i = i + 1) {
//!             if (i % 8 == 0) { s = s + 1; }
//!         }
//!         emit(s);
//!     }",
//! )?;
//! // Profile a training run, predict a different run.
//! let train = Vm::new(&program).run(&[Input::Int(500)])?;
//! let test = Vm::new(&program).run(&[Input::Int(3000)])?;
//! let predictor = Predictor::from_counts(&train.stats.branches, Default::default());
//! let m = evaluate(&test.stats, &predictor, BreakConfig::fig2());
//! assert!(m.instrs_per_break > 10.0);
//! assert!(m.correct_fraction() > 0.8);
//! # Ok(())
//! # }
//! ```

mod breaks;
pub mod experiment;
mod metrics;
mod predictor;

pub use breaks::BreakConfig;
pub use metrics::{evaluate, evaluate_unpredicted, Metrics};
pub use predictor::{Direction, Predictor};
