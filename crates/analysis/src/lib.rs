#![warn(missing_docs)]

//! # mfcheck
//!
//! A static-analysis framework over `trace-ir`, plus the checkers built
//! on it. The crate deliberately depends on nothing but the IR so every
//! other layer — the optimizer, the predictors, the profile store, the
//! bench harness, and the `mflint` driver — can reuse one set of
//! analyses instead of growing private ad-hoc copies.
//!
//! Three layers:
//!
//! * **Analyses** — [`Cfg`] (predecessor/successor views and reverse
//!   postorder), [`DomTree`] (Cooper–Harvey–Kennedy dominators),
//!   [`LoopForest`] (natural loops, nesting, irreducibility), and a
//!   gen/kill bitset dataflow [`engine`] instantiated as [`liveness`] and
//!   [`definite_init`]. The fixpoint ([`solve`]) allocates nothing, and
//!   [`single_def_consts`] is a dense per-register table ([`RegConsts`]).
//! * **Semantic verifier** — [`verify_program`] layers dataflow-backed
//!   diagnostics (use-before-def, dead stores, unreachable blocks,
//!   degenerate terminators) on top of the IR's structural validation,
//!   each locatable to function/block/instruction. The optimizer's
//!   `Pipeline::run_checked` runs it between passes to attribute
//!   regressions to the pass that introduced them.
//! * **Profile checks** — [`check_entries`] / [`check_against_program`]
//!   validate raw branch counters (`taken ≤ executed`, no duplicate ids,
//!   known branch ids), and [`parse_raw_profile`] reads the raw counter
//!   file format they are run against.

mod cfg;
mod dataflow;
mod dom;
mod loops;
mod profile;
mod verify;

pub use cfg::{reachable_blocks, single_def_consts, Cfg, RegConsts};
pub use dataflow::{
    all_uses_initialized, definite_init, liveness, solve, uninitialized_uses, BitSet, DefiniteInit,
    Direction, GenKill, Liveness, Meet, Solution, UninitUse,
};
pub use dom::DomTree;
pub use loops::{LoopForest, NaturalLoop};
pub use profile::{
    check_against_program, check_entries, parse_raw_profile, ProfileIssue, RawProfileError,
};
pub use verify::{
    is_clean, verify_digest, verify_function, verify_program, Diagnostic, Severity, CLEAN_DIGEST,
};

/// Re-export of the dataflow module for callers that want the engine
/// itself rather than the packaged analyses.
pub mod engine {
    pub use crate::dataflow::*;
}
