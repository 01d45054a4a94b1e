//! The crash-consistency battery: a fixed write script is executed once
//! fault-free to count its mutating operations, then re-executed with a
//! hard crash injected at *every* operation index. After each crash the
//! surviving in-memory filesystem is reopened with a clean accessor and
//! the recovered database must equal the fold of an exact prefix of the
//! script's runs — bounded below by the appends whose sync was
//! acknowledged and above by the append in flight at the crash.
//!
//! A second pass storms the same script with seeded mixed fault plans
//! (short writes, `ENOSPC`, transients, torn renames) and asserts the
//! degrade-never-die contract: the script always completes, the
//! in-memory view is always complete, and whatever reached disk is still
//! an exact prefix.

use std::collections::BTreeMap;
use std::sync::Arc;

use mffault::{FaultPlan, FaultVfs, MemVfs, RetryPolicy, Vfs};
use mfprofdb::{LockCfg, OpenOptions, Persistence, ProfileStore};
use trace_ir::BranchId;
use trace_vm::BranchCounts;

const DIR: &str = "/db";

/// One scripted append: dataset name plus raw `(branch, executed, taken)` rows.
type ScriptedRun = (&'static str, &'static [(u32, u64, u64)]);

/// The committed-run script: seven appends across three datasets, with a
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

fn counts(rows: &[(u32, u64, u64)]) -> BranchCounts {
    rows.iter()
        .map(|&(id, e, t)| (BranchId(id), e, t))
        .collect()
}

fn steal_opts() -> OpenOptions {
    OpenOptions {
        lock: LockCfg {
            steal: true,
            ..LockCfg::default()
        },
        retry: RetryPolicy::none(),
    }
}

/// The fold of the first `m` runs — what a recovered database must equal
/// for some valid `m`.
fn expected(m: usize) -> BTreeMap<String, Vec<(u32, u64, u64)>> {
    let mut fold: BTreeMap<String, BTreeMap<u32, (u64, u64)>> = BTreeMap::new();
    for &(ds, rows) in &RUNS[..m] {
        let per = fold.entry(ds.to_string()).or_default();
        for &(id, e, t) in rows {
            let slot = per.entry(id).or_insert((0, 0));
            slot.0 += e;
            slot.1 += t;
        }
    }
    fold.into_iter()
        .map(|(ds, m)| (ds, m.into_iter().map(|(id, (e, t))| (id, e, t)).collect()))
        .collect()
}

struct ScriptRun {
    /// The live store, when the script completed without a crash.
    store: Option<ProfileStore>,
    /// Appends whose sync was acknowledged.
    acked: usize,
    /// Appends attempted (includes one possibly in flight at the crash).
    issued: usize,
}

fn run_script(vfs: Arc<dyn Vfs>, retry: RetryPolicy) -> ScriptRun {
    let options = OpenOptions {
        lock: LockCfg {
            steal: true,
            ..LockCfg::default()
        },
        retry,
    };
    let mut acked = 0;
    let mut issued = 0;
    let Ok(mut store) = ProfileStore::open(vfs, DIR, options) else {
        return ScriptRun {
            store: None,
            acked,
            issued,
        };
    };
    for (i, &(ds, rows)) in RUNS.iter().enumerate() {
        if i == COMPACT_AFTER && store.compact().is_err() {
            return ScriptRun {
                store: None,
                acked,
                issued,
            };
        }
        issued += 1;
        match store.append(ds, &counts(rows)) {
            Ok(Persistence::Committed) => acked += 1,
            Ok(Persistence::Degraded) => {}
            Err(_) => {
                return ScriptRun {
                    store: None,
                    acked,
                    issued,
                }
            }
        }
    }
    ScriptRun {
        store: Some(store),
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
    let store = clean.store.expect("fault-free script completes");
    assert_eq!(store.raw_totals(), expected(RUNS.len()));
    assert_eq!(store.counters().compactions, 1);
    drop(store);
    let total_ops = fv.op_count();
    assert!(
        total_ops >= 20,
        "script too small to be an interesting battery: {total_ops} ops"
    );

    for k in 0..total_ops {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(
            mem.clone() as Arc<dyn Vfs>,
            FaultPlan::crash_at(k),
        ));
        let crashed = run_script(fv.clone() as Arc<dyn Vfs>, RetryPolicy::none());
        // The final ops belong to the store's Drop (lock release), so the
        // crash may only fire once the store is gone.
        drop(crashed.store);
        assert!(fv.crashed(), "op {k} of {total_ops} never fired");

        // Reopen the surviving filesystem with a clean accessor — the
        // crashed writer is dead, so its lock is stolen. The default read
        // path checksum-verifies every salvaged frame.
        let recovered = ProfileStore::open(mem as Arc<dyn Vfs>, DIR, steal_opts())
            .unwrap_or_else(|e| panic!("clean reopen after crash at op {k} died: {e}"));
        assert!(
            recovered.is_persistent(),
            "reopen after crash at op {k} degraded: {:?}",
            recovered.warnings()
        );
        let got = recovered.raw_totals();
        let matched = (crashed.acked..=crashed.issued).find(|&m| got == expected(m));
        assert!(
            matched.is_some(),
            "crash at op {k}: recovered state is not a committed prefix \
             (acked {} / issued {}): {got:?}",
            crashed.acked,
            crashed.issued
        );
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
        let store = run
            .store
            .unwrap_or_else(|| panic!("seed {seed}: script died without a crash plan"));
        assert_eq!(run.issued, RUNS.len());
        assert_eq!(
            store.raw_totals(),
            expected(RUNS.len()),
            "seed {seed}: the in-memory view must survive any I/O weather"
        );
        if store.is_degraded() {
            assert!(
                !store.warnings().is_empty(),
                "seed {seed}: degradation must be surfaced"
            );
        }
        let injected = fv.counters();
        drop(store);

        // Whatever reached disk is an exact committed prefix.
        let recovered = ProfileStore::open(mem as Arc<dyn Vfs>, DIR, steal_opts()).unwrap();
        let got = recovered.raw_totals();
        let matched = (0..=RUNS.len()).find(|&m| got == expected(m));
        assert!(
            matched.is_some(),
            "seed {seed} (injected {injected:?}): disk state is not a prefix: {got:?}"
        );
        assert!(
            matched.unwrap() >= run.acked.min(RUNS.len()),
            "seed {seed}: disk lost acknowledged appends (acked {}, disk holds {})",
            run.acked,
            matched.unwrap()
        );
    }
}
