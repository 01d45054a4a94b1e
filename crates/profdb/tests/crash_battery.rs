//! The crash-consistency battery: a fixed write script is executed once
//! fault-free to count its mutating operations, then re-executed with a
//! hard crash injected at *every* operation index. After each crash the
//! surviving in-memory filesystem is reopened with a clean accessor and
//! the recovered log must equal the fold of an exact prefix of the
//! script's runs — bounded below by the commits whose sync was
//! acknowledged and above by the commit in flight at the crash — and
//! the next commit must repair it and land.
//!
//! A second pass storms the same script with seeded mixed fault plans
//! (short writes, `ENOSPC`, transients, torn renames) and asserts the
//! degrade-never-die contract: the script always completes, the log's
//! committed prefix plus its in-memory records always hold every run,
//! and whatever reached disk is still an exact prefix.

use std::sync::Arc;

use mffault::{FaultPlan, FaultVfs, MemVfs, RetryPolicy, Vfs};
use mfprofdb::{fold_record, LockCfg, Persistence, ProfileRecord, RawFold, SegmentLog};

const DIR: &str = "/db";

/// One scripted commit: dataset name plus raw `(branch, executed, taken)` rows.
type ScriptedRun = (&'static str, &'static [(u32, u64, u64)]);

/// The committed-run script: seven commits across three datasets, with a
/// compaction injected between runs 3 and 4 so crash points land inside
/// the compaction protocol too.
const RUNS: &[ScriptedRun] = &[
    ("train", &[(0, 10, 4), (1, 8, 8)]),
    ("train", &[(0, 6, 1)]),
    ("ref", &[(2, 20, 5)]),
    ("train", &[(1, 3, 0), (4, 12, 11)]),
    ("ref", &[(2, 4, 4), (5, 9, 2)]),
    ("extra", &[(7, 1, 1)]),
    ("train", &[(0, 2, 2)]),
];
const COMPACT_AFTER: usize = 4;

fn record(&(dataset, rows): &ScriptedRun) -> ProfileRecord {
    ProfileRecord {
        dataset: dataset.to_string(),
        entries: rows.to_vec(),
        ..Default::default()
    }
}

/// The writer's lock: it steals a lock left by a dead writer, which in
/// this battery is always a crashed run of the same process.
fn steal() -> LockCfg {
    LockCfg {
        steal: true,
        ..LockCfg::default()
    }
}

/// The fold of the first `m` runs — what a recovered database must equal
/// for some valid `m`.
fn expected(m: usize) -> RawFold {
    let mut fold = RawFold::new();
    for run in &RUNS[..m] {
        fold_record(&mut fold, &record(run));
    }
    fold
}

/// Every committed batch plus every record acknowledged in memory.
fn totals(log: &mut SegmentLog) -> RawFold {
    let mut fold = RawFold::new();
    let batches = log
        .read_batches()
        .expect("reads never crash before a crash point");
    for r in batches.iter().flatten().chain(log.memory_records()) {
        fold_record(&mut fold, r);
    }
    fold
}

struct ScriptRun {
    /// The live log, when the script completed without a crash.
    log: Option<SegmentLog>,
    /// Commits whose sync was acknowledged.
    acked: usize,
    /// Commits attempted (includes one possibly in flight at the crash).
    issued: usize,
}

/// Runs the script as one writer that takes the lock at its first
/// commit and holds it until the log drops.
fn run_script(vfs: Arc<dyn Vfs>, retry: RetryPolicy) -> ScriptRun {
    let mut acked = 0;
    let mut issued = 0;
    let dead = |acked, issued| ScriptRun {
        log: None,
        acked,
        issued,
    };
    let Ok(mut log) = SegmentLog::open(vfs, DIR, retry) else {
        return dead(acked, issued);
    };
    for (i, run) in RUNS.iter().enumerate() {
        if i == COMPACT_AFTER && log.compact(&steal()).is_err() {
            return dead(acked, issued);
        }
        issued += 1;
        match log.commit_batch_keep(&[record(run)], &steal(), true) {
            Ok(Persistence::Committed) => acked += 1,
            Ok(Persistence::Degraded) => {}
            Err(_) => return dead(acked, issued),
        }
    }
    ScriptRun {
        log: Some(log),
        acked,
        issued,
    }
}

#[test]
fn every_crash_point_recovers_an_exact_prefix() {
    // Profiling pass: count the script's mutating operations fault-free.
    let mem = Arc::new(MemVfs::new());
    let fv = Arc::new(FaultVfs::new(mem as Arc<dyn Vfs>, FaultPlan::none()));
    let clean = run_script(fv.clone() as Arc<dyn Vfs>, RetryPolicy::none());
    assert_eq!(clean.acked, RUNS.len());
    let mut log = clean.log.expect("fault-free script completes");
    assert_eq!(totals(&mut log), expected(RUNS.len()));
    assert_eq!(log.counters().compactions, 1);
    drop(log);
    let total_ops = fv.op_count();
    assert!(
        total_ops >= 20,
        "script too small to be an interesting battery: {total_ops} ops"
    );

    let after_crash = record(&("after-crash", &[(9, 1, 1)]));
    for k in 0..total_ops {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(
            mem.clone() as Arc<dyn Vfs>,
            FaultPlan::crash_at(k),
        ));
        let crashed = run_script(fv.clone() as Arc<dyn Vfs>, RetryPolicy::none());
        // The final op belongs to the log's Drop (lock release), so the
        // crash may only fire once the log is gone.
        drop(crashed.log);
        assert!(fv.crashed(), "op {k} of {total_ops} never fired");

        // Reopen the surviving filesystem with a clean accessor. Its
        // read-only scan checksum-verifies every salvaged frame.
        let mut recovered = SegmentLog::open(mem as Arc<dyn Vfs>, DIR, RetryPolicy::none())
            .unwrap_or_else(|e| panic!("clean reopen after crash at op {k} died: {e}"));
        let got = totals(&mut recovered);
        let matched = (crashed.acked..=crashed.issued).find(|&m| got == expected(m));
        assert!(
            matched.is_some(),
            "crash at op {k}: recovered state is not a committed prefix \
             (acked {} / issued {}): {got:?}",
            crashed.acked,
            crashed.issued
        );

        // The next commit steals the dead writer's lock, repairs the log
        // under it, and lands on the recovered prefix.
        let landed = recovered
            .commit_batch(std::slice::from_ref(&after_crash), &steal())
            .unwrap_or_else(|e| panic!("commit after crash at op {k} died: {e}"));
        assert_eq!(
            landed,
            Persistence::Committed,
            "repair after crash at op {k} degraded: {:?}",
            recovered.warnings()
        );
        let mut want = got;
        fold_record(&mut want, &after_crash);
        assert_eq!(totals(&mut recovered), want, "crash at op {k}");
    }
}

#[test]
fn seeded_fault_storms_never_lose_in_memory_data() {
    for seed in 0..32u64 {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(
            mem.clone() as Arc<dyn Vfs>,
            FaultPlan::from_seed(seed),
        ));
        let run = run_script(fv.clone() as Arc<dyn Vfs>, RetryPolicy::immediate(4));
        // No crash points in a from_seed plan: degrade, never die.
        let mut log = run
            .log
            .unwrap_or_else(|| panic!("seed {seed}: script died without a crash plan"));
        assert_eq!(run.issued, RUNS.len());
        assert_eq!(
            totals(&mut log),
            expected(RUNS.len()),
            "seed {seed}: disk plus memory must hold every run in any I/O weather"
        );
        if !log.is_persistent() {
            assert!(
                !log.warnings().is_empty(),
                "seed {seed}: degradation must be surfaced"
            );
        }
        let injected = fv.counters();
        drop(log);

        // Whatever reached disk is an exact committed prefix.
        let mut recovered =
            SegmentLog::open(mem as Arc<dyn Vfs>, DIR, RetryPolicy::none()).unwrap();
        let got = totals(&mut recovered);
        let matched = (0..=RUNS.len()).find(|&m| got == expected(m));
        assert!(
            matched.is_some(),
            "seed {seed} (injected {injected:?}): disk state is not a prefix: {got:?}"
        );
        assert!(
            matched.unwrap() >= run.acked.min(RUNS.len()),
            "seed {seed}: disk lost acknowledged commits (acked {}, disk holds {})",
            run.acked,
            matched.unwrap()
        );
    }
}
