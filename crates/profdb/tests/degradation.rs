//! Graceful-degradation contract: a segment log that cannot reach its
//! disk keeps every record it acknowledges in memory, surfaces a
//! warning, and never panics — a read-only filesystem, a disk that fills
//! mid-append, or a directory that cannot be created all cost
//! durability, not correctness.

use std::sync::Arc;

use mffault::{FaultPlan, FaultVfs, MemVfs, RetryPolicy, Vfs};
use mfprofdb::{fold_record, LockCfg, Persistence, ProfileRecord, RawFold, SegmentLog};

const DIR: &str = "/db";

fn record(dataset: &str, entries: &[(u32, u64, u64)]) -> ProfileRecord {
    ProfileRecord {
        dataset: dataset.to_string(),
        entries: entries.to_vec(),
        ..Default::default()
    }
}

/// Commits `record` as a one-record batch, keeping the lock held after
/// the first commit so a later fault strikes the append itself.
fn commit(log: &mut SegmentLog, record: ProfileRecord) -> Persistence {
    let lock = LockCfg {
        steal: true,
        ..LockCfg::default()
    };
    log.commit_batch_keep(&[record], &lock, true).unwrap()
}

/// `(branch, executed, taken)` rows of `dataset` over every committed
/// batch plus every record acknowledged in memory.
fn rows(log: &mut SegmentLog, dataset: &str) -> Vec<(u32, u64, u64)> {
    let mut fold = RawFold::new();
    let batches = log.read_batches().unwrap();
    for r in batches.iter().flatten().chain(log.memory_records()) {
        fold_record(&mut fold, r);
    }
    fold.get(dataset)
        .map(|m| m.iter().map(|(&id, &(e, t))| (id, e, t)).collect())
        .unwrap_or_default()
}

#[test]
fn read_only_filesystem_degrades_to_memory() {
    // Every mutation denied — the moral equivalent of a read-only mount
    // (run as root, a chmod-based test would be a no-op).
    let fv: Arc<dyn Vfs> = Arc::new(FaultVfs::new(
        Arc::new(MemVfs::new()) as Arc<dyn Vfs>,
        FaultPlan::deny_writes(),
    ));
    let mut log = SegmentLog::open(fv, DIR, RetryPolicy::none()).expect("degrade, not die");
    assert!(!log.is_persistent());
    assert!(
        log.warnings().iter().any(|w| w.contains("in memory")),
        "warnings: {:?}",
        log.warnings()
    );
    for i in 0..3u64 {
        assert_eq!(
            commit(&mut log, record("train", &[(0, 10 + i, i)])),
            Persistence::Degraded
        );
    }
    assert_eq!(log.counters().degraded_appends, 3);
    assert_eq!(log.memory_records().len(), 3);
    assert_eq!(rows(&mut log, "train"), vec![(0, 33, 3)]);
    // Compaction on a degraded log is a no-op, not an error.
    assert_eq!(log.compact(&LockCfg::default()).unwrap(), None);
    assert_eq!(rows(&mut log, "train"), vec![(0, 33, 3)]);
}

#[test]
fn enospc_mid_append_preserves_the_committed_prefix() {
    let mem = Arc::new(MemVfs::new());
    let fv = Arc::new(FaultVfs::new(
        mem.clone() as Arc<dyn Vfs>,
        FaultPlan::none(),
    ));
    let mut log =
        SegmentLog::open(fv.clone() as Arc<dyn Vfs>, DIR, RetryPolicy::none()).expect("clean open");
    assert_eq!(
        commit(&mut log, record("train", &[(0, 10, 4)])),
        Persistence::Committed
    );
    assert_eq!(
        commit(&mut log, record("ref", &[(1, 5, 5)])),
        Persistence::Committed
    );

    // The disk fills: every data write now fails with ENOSPC (possibly
    // after landing a partial prefix).
    fv.set_plan(FaultPlan {
        enospc_per_mille: 1000,
        ..FaultPlan::none()
    });
    assert_eq!(
        commit(&mut log, record("train", &[(0, 99, 99)])),
        Persistence::Degraded
    );
    assert!(!log.is_persistent());
    assert!(
        log.warnings().iter().any(|w| w.contains("in memory")),
        "warnings: {:?}",
        log.warnings()
    );
    // Later commits stay in memory without touching the broken disk.
    assert_eq!(
        commit(&mut log, record("ref", &[(1, 1, 0)])),
        Persistence::Degraded
    );
    // The complete view survives: the committed prefix plus memory.
    assert_eq!(log.memory_records().len(), 2);
    assert_eq!(rows(&mut log, "train"), vec![(0, 109, 103)]);
    assert_eq!(rows(&mut log, "ref"), vec![(1, 6, 5)]);
    drop(log);

    // On disk: exactly the two committed batches, and no torn garbage —
    // the failed append's partial frame was repaired away (or dropped by
    // checksum salvage if even the repair was refused).
    let mut recovered = SegmentLog::open(mem as Arc<dyn Vfs>, DIR, RetryPolicy::none()).unwrap();
    assert_eq!(recovered.read_batches().unwrap().len(), 2);
    assert_eq!(rows(&mut recovered, "train"), vec![(0, 10, 4)]);
    assert_eq!(rows(&mut recovered, "ref"), vec![(1, 5, 5)]);
}

#[test]
fn unopenable_directory_degrades_to_memory() {
    // Directory creation itself is denied — nothing on disk at all.
    let fv: Arc<dyn Vfs> = Arc::new(FaultVfs::new(
        Arc::new(MemVfs::new()) as Arc<dyn Vfs>,
        FaultPlan::deny_writes(),
    ));
    let mut log = SegmentLog::open(fv, "/no/such/mount", RetryPolicy::none()).unwrap();
    assert!(!log.is_persistent());
    assert!(log.warnings()[0].contains("unavailable"));
    assert_eq!(
        commit(&mut log, record("x", &[(0, 1, 1)])),
        Persistence::Degraded
    );
    assert_eq!(rows(&mut log, "x"), vec![(0, 1, 1)]);
}

#[test]
fn transient_faults_are_absorbed_by_retry_without_degrading() {
    // A 300‰ transient rate with four immediate retries: every operation
    // eventually succeeds, so the log must stay fully persistent.
    let mem = Arc::new(MemVfs::new());
    let fv = Arc::new(FaultVfs::new(
        mem.clone() as Arc<dyn Vfs>,
        FaultPlan::transient(7, 300),
    ));
    let mut log =
        SegmentLog::open(fv.clone() as Arc<dyn Vfs>, DIR, RetryPolicy::immediate(4)).unwrap();
    assert!(log.is_persistent(), "{:?}", log.warnings());
    for i in 0..5u64 {
        assert_eq!(
            commit(&mut log, record("train", &[(0, i + 1, 1)])),
            Persistence::Committed,
            "commit {i}: {:?}",
            log.warnings()
        );
    }
    assert!(
        log.counters().io_retries > 0,
        "a 300 per-mille plan over dozens of ops should have injected something"
    );
    drop(log);
    let mut recovered = SegmentLog::open(mem as Arc<dyn Vfs>, DIR, RetryPolicy::none()).unwrap();
    assert_eq!(recovered.read_batches().unwrap().len(), 5);
    assert_eq!(rows(&mut recovered, "train"), vec![(0, 15, 5)]);
}
