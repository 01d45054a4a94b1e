#![warn(missing_docs)]

//! # mfdefect — the seeded-defect registry
//!
//! The mutation gauntlet needs known bugs it can switch on to prove the
//! fuzzer's oracles have teeth. Each defect is a tiny, deliberate
//! mis-compilation or mis-measurement wired into a product crate behind
//! that crate's off-by-default `seeded-defects` cargo feature; this crate
//! holds the process-global switchboard that decides, at runtime, which
//! (if any) of those defects is live.
//!
//! Two properties matter:
//!
//! * **Dormant by default.** Even in a build with the feature enabled,
//!   every defect is inactive until [`activate`] is called, so a test
//!   binary that links the gauntlet machinery still behaves identically
//!   to a clean build unless a test (or `mffuzz --defect`) opts in.
//! * **Near-zero cost.** Hook sites call [`active`], whose fast path is
//!   one relaxed atomic load of a global counter: when nothing was ever
//!   activated the name is not even looked at.
//!
//! Activation is process-global, so tests that activate defects must
//! serialize themselves (the gauntlet runs all defects inside one test).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Every seeded defect, by the `layer-site-effect` naming scheme. The
/// gauntlet iterates this list; `mffuzz --list-defects` prints it.
pub const KNOWN: &[&str] = &[
    // mfopt: fold_binop's Add case folds to l + r + 1.
    "opt-fold-add-off-by-one",
    // mfopt: dead_code treats Emit as removable.
    "opt-dce-drops-emit",
    // mfopt: jump_thread swaps a threaded branch's taken/not-taken edges.
    "opt-thread-swaps-edges",
    // trace-vm: aggregate branch counters record the inverted direction
    // (the recorded trace stays correct).
    "vm-branch-count-polarity",
    // trace-vm: not-taken executions are not counted at all.
    "vm-profile-drop-increment",
    // trace-vm flat backend: the flattener swaps a fused compare-branch's
    // taken/not-taken code targets (recording stays correct, control goes
    // to the wrong arm — only the flat-vs-reference differential sees it).
    "vm-flat-fuse-swapped-arms",
    // mflang: cascaded switch lowering compares with <= instead of ==.
    "lang-switch-case-compare",
    // ifprob: directive writing drops the per-line ordinal increment, so
    // two branches on one source line collide.
    "profile-directive-ordinal",
    // ifprob: the Scaled combine rule inflates taken weight by 1.5x.
    "profile-combine-taken-inflate",
    // mfprofdb: frame validation skips the checksum comparison, so
    // corrupted segment tails are accepted instead of salvaged away.
    "profdb-checksum-skipped",
    // mfprofsvc: group commit acknowledges a batch as Committed before
    // the shard segment is synced, so a crash (or failed sync) can lose
    // records the caller was told were durable.
    "profsvc-batch-ack-early",
    // mfpredict: interval widening keeps a stale upper bound instead of
    // widening it to +inf, so loop counters "provably" never exceed their
    // first-iterations value and the analysis emits unsound proofs that
    // dynamic execution contradicts.
    "predict-widen-dropped-bound",
    // mfdyn: the online gshare predictor skips its global-history update
    // on not-taken branches, so its table indices drift away from the
    // golden trace replay's and the mispredict counts disagree.
    "dynpred-history-not-updated",
    // mfstale: site fingerprints hash every comparison operator as Eq, so
    // an edit that flips an operator (`<` to `<=`) leaves the fingerprint
    // unchanged and the remap wrongly salvages the old counts onto the
    // now-different branch instead of orphaning them.
    "stale-fingerprint-ignores-operator",
];

static ACTIVE_COUNT: AtomicUsize = AtomicUsize::new(0);

// One flag per KNOWN entry, same order. `AtomicBool::new(false)` is not
// const-cloneable, hence the explicit list sized by a compile-time check.
static FLAGS: [AtomicBool; 14] = [
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
];

const _: () = assert!(KNOWN.len() == FLAGS.len());

fn index_of(name: &str) -> Option<usize> {
    KNOWN.iter().position(|&k| k == name)
}

/// True when `name` is a known defect that has been activated. The fast
/// path — nothing active anywhere — is a single relaxed load.
#[inline]
pub fn active(name: &str) -> bool {
    if ACTIVE_COUNT.load(Ordering::Relaxed) == 0 {
        return false;
    }
    index_of(name).is_some_and(|i| FLAGS[i].load(Ordering::Relaxed))
}

/// Activates a seeded defect for the rest of the process (or until
/// [`clear`]). Returns false when the name is not in [`KNOWN`].
pub fn activate(name: &str) -> bool {
    let Some(i) = index_of(name) else {
        return false;
    };
    if !FLAGS[i].swap(true, Ordering::Relaxed) {
        ACTIVE_COUNT.fetch_add(1, Ordering::Relaxed);
    }
    true
}

/// Deactivates every defect, restoring clean behavior.
pub fn clear() {
    for flag in &FLAGS {
        flag.store(false, Ordering::Relaxed);
    }
    ACTIVE_COUNT.store(0, Ordering::Relaxed);
}

/// Names of the currently active defects, in [`KNOWN`] order.
pub fn active_names() -> Vec<&'static str> {
    KNOWN
        .iter()
        .zip(&FLAGS)
        .filter(|(_, f)| f.load(Ordering::Relaxed))
        .map(|(&n, _)| n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share the process-global switchboard, so they run as one
    // test function to avoid interleaving.
    #[test]
    fn lifecycle() {
        clear();
        assert!(!active("opt-fold-add-off-by-one"));
        assert!(active_names().is_empty());

        assert!(activate("opt-fold-add-off-by-one"));
        assert!(active("opt-fold-add-off-by-one"));
        assert!(!active("opt-dce-drops-emit"));
        // Re-activation is idempotent.
        assert!(activate("opt-fold-add-off-by-one"));
        assert_eq!(active_names(), vec!["opt-fold-add-off-by-one"]);

        assert!(!activate("no-such-defect"));
        assert!(!active("no-such-defect"));

        clear();
        assert!(!active("opt-fold-add-off-by-one"));
        assert!(active_names().is_empty());
    }
}
