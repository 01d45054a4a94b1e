//! Graceful-degradation contract: a profile database that cannot reach
//! its disk keeps accumulating in memory, surfaces a warning, and never
//! panics — a read-only filesystem, a disk that fills mid-append, or a
//! lock that cannot be acquired all cost durability, not correctness.

use std::sync::Arc;

use mffault::{FaultPlan, FaultVfs, MemVfs, RetryPolicy, Vfs};
use mfprofdb::{LockCfg, OpenOptions, Persistence, ProfileStore};
use trace_ir::BranchId;
use trace_vm::BranchCounts;

const DIR: &str = "/db";

fn counts(rows: &[(u32, u64, u64)]) -> BranchCounts {
    rows.iter()
        .map(|&(id, e, t)| (BranchId(id), e, t))
        .collect()
}

fn opts() -> OpenOptions {
    OpenOptions {
        lock: LockCfg {
            steal: true,
            ..LockCfg::default()
        },
        retry: RetryPolicy::none(),
    }
}

#[test]
fn read_only_filesystem_degrades_to_memory() {
    // Every mutation denied — the moral equivalent of a read-only mount
    // (run as root, a chmod-based test would be a no-op).
    let fv: Arc<dyn Vfs> = Arc::new(FaultVfs::new(
        Arc::new(MemVfs::new()) as Arc<dyn Vfs>,
        FaultPlan::deny_writes(),
    ));
    let mut store = ProfileStore::open(fv, DIR, opts()).expect("degrade, not die");
    assert!(store.is_degraded());
    assert!(
        store.warnings().iter().any(|w| w.contains("in memory")),
        "warnings: {:?}",
        store.warnings()
    );
    for i in 0..3u64 {
        assert_eq!(
            store.append("train", &counts(&[(0, 10 + i, i)])).unwrap(),
            Persistence::Degraded
        );
    }
    assert_eq!(store.counters().degraded_appends, 3);
    assert_eq!(store.raw_profile("train").unwrap(), vec![(0, 33, 3)]);
    // Compaction on a degraded store is a no-op, not an error.
    store.compact().unwrap();
    assert_eq!(store.raw_profile("train").unwrap(), vec![(0, 33, 3)]);
}

#[test]
fn enospc_mid_append_preserves_the_committed_prefix() {
    let mem = Arc::new(MemVfs::new());
    let fv = Arc::new(FaultVfs::new(
        mem.clone() as Arc<dyn Vfs>,
        FaultPlan::none(),
    ));
    let mut store =
        ProfileStore::open(fv.clone() as Arc<dyn Vfs>, DIR, opts()).expect("clean open");
    assert_eq!(
        store.append("train", &counts(&[(0, 10, 4)])).unwrap(),
        Persistence::Committed
    );
    assert_eq!(
        store.append("ref", &counts(&[(1, 5, 5)])).unwrap(),
        Persistence::Committed
    );

    // The disk fills: every data write now fails with ENOSPC (possibly
    // after landing a partial prefix).
    fv.set_plan(FaultPlan {
        enospc_per_mille: 1000,
        ..FaultPlan::none()
    });
    assert_eq!(
        store.append("train", &counts(&[(0, 99, 99)])).unwrap(),
        Persistence::Degraded
    );
    assert!(store.is_degraded());
    assert!(
        store.warnings().iter().any(|w| w.contains("in memory")),
        "warnings: {:?}",
        store.warnings()
    );
    // Later appends stay in memory without touching the broken disk.
    assert_eq!(
        store.append("ref", &counts(&[(1, 1, 0)])).unwrap(),
        Persistence::Degraded
    );
    // The complete view survives in memory.
    assert_eq!(store.raw_profile("train").unwrap(), vec![(0, 109, 103)]);
    assert_eq!(store.raw_profile("ref").unwrap(), vec![(1, 6, 5)]);
    drop(store);

    // On disk: exactly the two committed appends, and no torn garbage —
    // the failed append's partial frame was repaired away (or dropped by
    // checksum salvage if even the repair was refused).
    let recovered = ProfileStore::open(mem as Arc<dyn Vfs>, DIR, opts()).unwrap();
    assert_eq!(recovered.records().len(), 2);
    assert_eq!(recovered.raw_profile("train").unwrap(), vec![(0, 10, 4)]);
    assert_eq!(recovered.raw_profile("ref").unwrap(), vec![(1, 5, 5)]);
}

#[test]
fn unopenable_directory_degrades_to_memory() {
    // Directory creation itself is denied — nothing on disk at all.
    let fv: Arc<dyn Vfs> = Arc::new(FaultVfs::new(
        Arc::new(MemVfs::new()) as Arc<dyn Vfs>,
        FaultPlan::deny_writes(),
    ));
    let mut store = ProfileStore::open(fv, "/no/such/mount", opts()).unwrap();
    assert!(store.is_degraded());
    assert!(store.warnings()[0].contains("unavailable"));
    assert_eq!(
        store.append("x", &counts(&[(0, 1, 1)])).unwrap(),
        Persistence::Degraded
    );
    assert_eq!(store.raw_profile("x").unwrap(), vec![(0, 1, 1)]);
}

#[test]
fn transient_faults_are_absorbed_by_retry_without_degrading() {
    // A 300‰ transient rate with four immediate retries: every operation
    // eventually succeeds, so the store must stay fully persistent.
    let mem = Arc::new(MemVfs::new());
    let fv = Arc::new(FaultVfs::new(
        mem.clone() as Arc<dyn Vfs>,
        FaultPlan::transient(7, 300),
    ));
    let mut store = ProfileStore::open(
        fv.clone() as Arc<dyn Vfs>,
        DIR,
        OpenOptions {
            lock: LockCfg {
                steal: true,
                ..LockCfg::default()
            },
            retry: RetryPolicy::immediate(4),
        },
    )
    .unwrap();
    assert!(store.is_persistent(), "{:?}", store.warnings());
    for i in 0..5u64 {
        assert_eq!(
            store.append("train", &counts(&[(0, i + 1, 1)])).unwrap(),
            Persistence::Committed,
            "append {i}"
        );
    }
    assert!(
        store.counters().io_retries > 0,
        "a 300 per-mille plan over dozens of ops should have injected something"
    );
    drop(store);
    let recovered = ProfileStore::open(mem as Arc<dyn Vfs>, DIR, opts()).unwrap();
    assert_eq!(recovered.records().len(), 5);
    assert_eq!(recovered.raw_profile("train").unwrap(), vec![(0, 15, 5)]);
}
