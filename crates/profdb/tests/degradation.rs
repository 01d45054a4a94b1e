//! Graceful-degradation contract: a segment log that cannot reach its
//! disk keeps every record it acknowledges in memory, surfaces a
//! warning, and never panics — a read-only filesystem, a disk that fills
//! mid-append, or a directory that cannot be created all cost
//! durability, not correctness.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// A `MemVfs` whose `sync` and `truncate` fail once `broken` is set.
#[derive(Debug)]
struct SyncAndTruncateFail {
    mem: MemVfs,
    broken: AtomicBool,
}

impl SyncAndTruncateFail {
    fn fail_if_broken(&self) -> io::Result<()> {
        if self.broken.load(Ordering::Relaxed) {
            Err(io::Error::other("injected failure"))
        } else {
            Ok(())
        }
    }
}

impl Vfs for SyncAndTruncateFail {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.mem.read(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.mem.len(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.mem.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.mem.append(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.mem.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.mem.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.mem.create_dir_all(path)
    }
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.mem.create_new(path, bytes)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.fail_if_broken()?;
        self.mem.truncate(path, len)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        self.fail_if_broken()?;
        self.mem.sync(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.mem.read_dir(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.mem.exists(path)
    }
}

#[test]
fn a_failed_batch_left_on_disk_counts_once() {
    let vfs = Arc::new(SyncAndTruncateFail {
        mem: MemVfs::new(),
        broken: AtomicBool::new(false),
    });
    let mut log = SegmentLog::open(vfs.clone() as Arc<dyn Vfs>, DIR, RetryPolicy::none()).unwrap();
    assert_eq!(
        commit(&mut log, record("train", &[(0, 1, 1)])),
        Persistence::Committed
    );

    // The next append lands whole, but its sync fails and so does the
    // truncate that should cut it back: the log degrades and keeps the
    // batch in memory while its complete frame stays on disk.
    vfs.broken.store(true, Ordering::Relaxed);
    assert_eq!(
        commit(&mut log, record("train", &[(0, 1, 1)])),
        Persistence::Degraded
    );
    assert!(!log.is_persistent());
    assert!(
        log.warnings()
            .iter()
            .any(|w| w.contains("tail repair also failed")),
        "warnings: {:?}",
        log.warnings()
    );
    assert_eq!(log.memory_records().len(), 1);
    // Each commit counts once: the first from disk, the second from
    // memory.
    assert_eq!(rows(&mut log, "train"), vec![(0, 2, 2)]);

    // A fresh reader sees both frames on disk: the failed batch really
    // is there, and only the degraded log that kept it must skip it.
    let mut reader = SegmentLog::open(vfs as Arc<dyn Vfs>, DIR, RetryPolicy::none()).unwrap();
    assert_eq!(reader.read_batches().unwrap().len(), 2);
}
