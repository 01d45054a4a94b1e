#![warn(missing_docs)]

//! # mfprofdb — the profile database's codec and engine
//!
//! The paper's IFPROBBER accumulated `(executed, taken)` counter pairs
//! "into a database across runs". This crate is the storage under that
//! database, built to survive what real databases survive: torn writes,
//! `ENOSPC`, crashes mid-append, crashes mid-compaction, and concurrent
//! writers. `mfprofsvc` is the database itself: it runs one log per
//! shard, and serves a single-log database (a root-level log, the layout
//! earlier versions' single-writer store wrote) in place as one shard.
//!
//! Layout: a directory of segment files (`seg-<generation>.mfdb`), each
//! an append-only log of checksummed frames (see [`format`]). One engine,
//! [`SegmentLog`], owns the write protocol for every writer: a commit
//! appends one batch frame per chunk and pays one sync, whose
//! acknowledgment is the commit point; recovery salvages the longest
//! valid frame prefix of each segment and truncates the torn tail;
//! compaction folds the records into one per dataset in a new segment
//! whose header supersedes (`folds_through`) every older generation —
//! written to a temp name, synced, then renamed, and validated by a
//! committed-length field so a torn copy can never masquerade as a
//! complete compaction. Every failure that is not a crash degrades the
//! log to in-memory acknowledgment with a surfaced warning — opening or
//! committing never panics and never loses the current process's data.
//!
//! All I/O goes through [`mffault::Vfs`], so the crash battery can
//! enumerate every crash-point deterministically on an in-memory
//! filesystem.

pub mod format;
mod log;

use std::collections::BTreeMap;
use std::fmt;
use std::io;

pub use format::ProfileRecord;
use log::MAX_FRAME_BYTES;
pub use log::{LockCfg, SegmentLog};

/// Where a commit landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Persistence {
    /// Durable in the segment log (append + sync acknowledged).
    Committed,
    /// In memory only — the log is (now) degraded, or its lock was held
    /// by a live peer.
    Degraded,
}

/// The only hard failure: an injected crash-point fired. The accessor is
/// dead; tests treat this as process death. Real filesystems never
/// produce it — every real I/O failure degrades instead.
#[derive(Debug)]
pub struct DbError {
    /// The operation that was interrupted.
    pub op: &'static str,
    /// The underlying (injected) crash error.
    pub source: io::Error,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile db crashed during {}: {}", self.op, self.source)
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Classifies an I/O result: crashes become `DbError`, everything else
/// stays for the caller's degrade-or-proceed policy.
pub fn crash_check<T>(op: &'static str, result: io::Result<T>) -> Result<io::Result<T>, DbError> {
    match result {
        Err(e) if mffault::is_crash(&e) => Err(DbError { op, source: e }),
        other => Ok(other),
    }
}

/// Observability counters for one log's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Appends acknowledged durable.
    pub committed_appends: u64,
    /// Appends that fell back to memory.
    pub degraded_appends: u64,
    /// Records recovered from disk at open.
    pub salvaged_records: u64,
    /// Torn-tail bytes truncated by recovery.
    pub truncated_bytes: u64,
    /// Transient I/O faults absorbed by retry.
    pub io_retries: u64,
    /// Successful compactions.
    pub compactions: u64,
}

// -- folds -----------------------------------------------------------------

/// Per-dataset raw accumulation: branch id → (executed, taken), summed
/// saturating so even nonsense counts (from a seeded defect) cannot trip
/// an arithmetic invariant while being compared against expectations.
pub type RawFold = BTreeMap<String, BTreeMap<u32, (u64, u64)>>;

/// Structural fingerprints folded across records (last writer wins per
/// branch id — fingerprints describe a program, not a dataset's counts).
pub type FpFold = BTreeMap<u32, u64>;

/// Fingerprints folded per dataset label. A log can hold several
/// distinct *programs* (each numbering its branches from zero), so folds
/// that feed back into stored records must never mix labels.
type FpFoldByDataset = BTreeMap<String, FpFold>;

/// Adds one record's counters into `fold`.
pub fn fold_record(fold: &mut RawFold, record: &ProfileRecord) {
    let per_dataset = fold.entry(record.dataset.clone()).or_default();
    for &(id, e, t) in &record.entries {
        let slot = per_dataset.entry(id).or_insert((0, 0));
        slot.0 = slot.0.saturating_add(e);
        slot.1 = slot.1.saturating_add(t);
    }
}

/// Folds one record's fingerprints into `fps` (last writer wins).
pub fn fold_fps(fps: &mut FpFold, record: &ProfileRecord) {
    for &(id, fp) in &record.fps {
        fps.insert(id, fp);
    }
}

/// Folds one record's fingerprints under its own dataset label.
fn fold_fps_by_dataset(by_ds: &mut FpFoldByDataset, record: &ProfileRecord) {
    if record.fps.is_empty() {
        return;
    }
    fold_fps(by_ds.entry(record.dataset.clone()).or_default(), record);
}

/// One folded record per dataset, each carrying the folded fingerprint of
/// every site *its own program* counts — so compaction never sheds the
/// fingerprints the skew remapper needs later, and never smears one
/// program's fingerprints onto another dataset's record.
fn fold_to_records(fold: &RawFold, fps: &FpFoldByDataset) -> Vec<ProfileRecord> {
    fold.iter()
        .map(|(ds, m)| ProfileRecord {
            dataset: ds.clone(),
            entries: m.iter().map(|(&id, &(e, t))| (id, e, t)).collect(),
            fps: fps
                .get(ds)
                .map(|f| f.iter().map(|(&id, &fp)| (id, fp)).collect())
                .unwrap_or_default(),
        })
        .collect()
}

/// Splits records into chunks whose encoded size stays under one batch
/// frame, cutting oversized records (a 100M-site fold) into sub-records
/// — safe because accumulation sums per `(dataset, branch)`.
fn chunk_records(records: &[ProfileRecord]) -> Vec<Vec<ProfileRecord>> {
    let max = MAX_FRAME_BYTES;
    let mut chunks: Vec<Vec<ProfileRecord>> = Vec::new();
    let mut chunk: Vec<ProfileRecord> = Vec::new();
    let mut chunk_bytes = 0usize;
    let push = |r: ProfileRecord,
                chunks: &mut Vec<Vec<ProfileRecord>>,
                chunk: &mut Vec<ProfileRecord>,
                chunk_bytes: &mut usize| {
        let len = format::record_body_len(&r);
        if !chunk.is_empty() && *chunk_bytes + len > max {
            chunks.push(std::mem::take(chunk));
            *chunk_bytes = 0;
        }
        *chunk_bytes += len;
        chunk.push(r);
    };
    for r in records {
        if format::record_body_len(r) <= max {
            push(r.clone(), &mut chunks, &mut chunk, &mut chunk_bytes);
            continue;
        }
        // An entry costs 20 bytes, plus 12 more when it drags its
        // fingerprint along.
        let entry_cost = if r.fps.is_empty() { 20 } else { 32 };
        let per = ((max - 12 - r.dataset.len()).max(entry_cost) / entry_cost).max(1);
        let fp_of: BTreeMap<u32, u64> = r.fps.iter().copied().collect();
        for part in r.entries.chunks(per) {
            push(
                ProfileRecord {
                    dataset: r.dataset.clone(),
                    entries: part.to_vec(),
                    // Each fingerprint travels with its own entries.
                    fps: part
                        .iter()
                        .filter_map(|&(id, _, _)| fp_of.get(&id).map(|&fp| (id, fp)))
                        .collect(),
                },
                &mut chunks,
                &mut chunk,
                &mut chunk_bytes,
            );
        }
    }
    if !chunk.is_empty() {
        chunks.push(chunk);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffault::{MemVfs, RetryPolicy, Vfs};
    use std::path::Path;
    use std::sync::Arc;
    use std::time::Duration;

    const DIR: &str = "/profdb";

    fn record(dataset: &str, entries: &[(u32, u64, u64)]) -> ProfileRecord {
        ProfileRecord {
            dataset: dataset.into(),
            entries: entries.to_vec(),
            ..Default::default()
        }
    }

    fn open(vfs: &Arc<dyn Vfs>) -> SegmentLog {
        SegmentLog::open(Arc::clone(vfs), DIR, RetryPolicy::none()).unwrap()
    }

    /// Commits `record` as a one-record batch under a per-commit lock.
    fn commit(log: &mut SegmentLog, record: &ProfileRecord) -> Persistence {
        log.commit_batch(std::slice::from_ref(record), &LockCfg::default())
            .unwrap()
    }

    /// Every committed batch plus every record acknowledged in memory.
    fn totals(log: &mut SegmentLog) -> RawFold {
        let mut fold = RawFold::new();
        for batch in log.read_batches().unwrap() {
            batch.iter().for_each(|r| fold_record(&mut fold, r));
        }
        log.memory_records()
            .iter()
            .for_each(|r| fold_record(&mut fold, r));
        fold
    }

    fn fingerprints(log: &mut SegmentLog) -> FpFold {
        let mut fps = FpFold::new();
        for batch in log.read_batches().unwrap() {
            batch.iter().for_each(|r| fold_fps(&mut fps, r));
        }
        fps
    }

    fn rows(fold: &RawFold, dataset: &str) -> Option<Vec<(u32, u64, u64)>> {
        fold.get(dataset)
            .map(|m| m.iter().map(|(&id, &(e, t))| (id, e, t)).collect())
    }

    #[test]
    fn append_reopen_accumulate() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let runs = [
            record("train", &[(0, 10, 4), (2, 6, 6)]),
            record("train", &[(0, 5, 1)]),
            record("ref", &[(1, 7, 0)]),
        ];
        {
            let mut log = open(&mem);
            assert!(log.is_persistent());
            for run in &runs {
                assert_eq!(commit(&mut log, run), Persistence::Committed);
            }
            assert!(log.warnings().is_empty(), "{:?}", log.warnings());
        }
        let mut log = open(&mem);
        assert_eq!(log.counters().salvaged_records, 3);
        let batches: Vec<Vec<ProfileRecord>> = runs.iter().map(|r| vec![r.clone()]).collect();
        assert_eq!(log.read_batches().unwrap(), batches, "one batch per commit");
        let fold = totals(&mut log);
        assert_eq!(rows(&fold, "train").unwrap(), vec![(0, 15, 5), (2, 6, 6)]);
        assert_eq!(rows(&fold, "ref").unwrap(), vec![(1, 7, 0)]);
    }

    #[test]
    fn fingerprints_survive_reopen_and_compaction() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let fps: FpFold = [(0, 111), (2, 222)].into_iter().collect();
        {
            let mut log = open(&mem);
            // A fingerprint-free record first: the two kinds coexist.
            commit(&mut log, &record("train", &[(0, 10, 4)]));
            let with_fps = ProfileRecord {
                fps: fps.iter().map(|(&id, &fp)| (id, fp)).collect(),
                ..record("train", &[(0, 5, 1), (2, 6, 6)])
            };
            commit(&mut log, &with_fps);
        }
        let mut log = open(&mem);
        assert_eq!(fingerprints(&mut log), fps);
        let before = totals(&mut log);
        log.compact(&LockCfg::default())
            .unwrap()
            .expect("compaction published");
        assert_eq!(totals(&mut log), before);
        drop(log);
        let mut reopened = open(&mem);
        assert_eq!(totals(&mut reopened), before);
        assert_eq!(fingerprints(&mut reopened), fps);
    }

    #[test]
    fn compaction_folds_and_supersedes() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let mut log = open(&mem);
        for i in 0..5u64 {
            let dataset = if i % 2 == 0 { "a" } else { "b" };
            commit(&mut log, &record(dataset, &[(0, i + 1, 1)]));
        }
        let before = totals(&mut log);
        let published = log
            .compact(&LockCfg::default())
            .unwrap()
            .expect("compaction published");
        assert_eq!(log.counters().compactions, 1);
        assert_eq!(published.len(), 1, "one folded batch");
        assert_eq!(published[0].len(), 2, "one folded record per dataset");
        assert_eq!(log.read_batches().unwrap(), published);
        assert_eq!(totals(&mut log), before);

        // Exactly one segment remains on disk, the new generation.
        let seg = log.active_segment().unwrap().to_path_buf();
        assert!(seg.to_string_lossy().contains("seg-00000002"));
        assert_eq!(mem.read_dir(Path::new(DIR)).unwrap(), vec![seg]);
        drop(log);
        let mut reopened = open(&mem);
        assert_eq!(totals(&mut reopened), before);
        assert_eq!(reopened.read_batches().unwrap(), published);

        // Commits after compaction keep accumulating.
        commit(&mut reopened, &record("a", &[(9, 3, 2)]));
        assert_eq!(reopened.read_batches().unwrap().len(), 2);
        drop(reopened);
        let mut reopened = open(&mem);
        let a = rows(&totals(&mut reopened), "a").unwrap();
        assert_eq!(a.last(), Some(&(9, 3, 2)));
    }

    #[test]
    fn corrupt_tail_is_salvaged_to_a_prefix() {
        let mem = Arc::new(MemVfs::new());
        let vfs: Arc<dyn Vfs> = mem.clone();
        let seg;
        {
            let mut log = open(&vfs);
            for i in 0..4u64 {
                commit(&mut log, &record(&format!("ds{i}"), &[(0, 10 + i, i)]));
            }
            seg = log.active_segment().unwrap().to_path_buf();
        }
        // Flip a byte inside the last frame's payload.
        let mut bytes = mem.read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0x40;
        mem.write(&seg, &bytes).unwrap();

        // Opening is a read-only scan: it salvages the prefix in memory.
        let mut log = open(&vfs);
        assert_eq!(log.counters().salvaged_records, 3);
        assert_eq!(log.read_batches().unwrap().len(), 3, "last frame dropped");
        assert!(!totals(&mut log).contains_key("ds3"));
        assert_eq!(mem.read(&seg).unwrap(), bytes, "a read never repairs");

        // The first commit repairs under the lock: the torn tail goes.
        commit(&mut log, &record("ds4", &[(0, 1, 1)]));
        assert!(log.counters().truncated_bytes > 0);
        assert!(
            log.warnings().iter().any(|w| w.contains("torn tail")),
            "warnings: {:?}",
            log.warnings()
        );
        assert!(log.is_persistent());
        drop(log);

        // The truncation repaired the file: the next commit cuts nothing.
        let mut clean = open(&vfs);
        commit(&mut clean, &record("ds5", &[(0, 1, 1)]));
        assert_eq!(clean.counters().truncated_bytes, 0);
        assert!(clean.warnings().is_empty(), "{:?}", clean.warnings());
        let fold = totals(&mut clean);
        assert_eq!(
            fold.keys().collect::<Vec<_>>(),
            ["ds0", "ds1", "ds2", "ds4", "ds5"]
        );
    }

    #[test]
    fn lock_contention_degrades_and_releases() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let lock = LockCfg {
            attempts: 2,
            base: Duration::ZERO,
            steal: false,
        };
        // A writer that keeps the lock after its commit, as a burst does.
        let mut holder = open(&mem);
        let held = record("held", &[(0, 1, 1)]);
        assert_eq!(
            holder.commit_batch_keep(&[held], &lock, true).unwrap(),
            Persistence::Committed
        );

        let mut second = open(&mem);
        let x = record("x", &[(0, 1, 0)]);
        assert_eq!(
            second
                .commit_batch(std::slice::from_ref(&x), &lock)
                .unwrap(),
            Persistence::Degraded
        );
        assert!(
            second.warnings()[0].contains("locked by a live writer"),
            "{:?}",
            second.warnings()
        );
        // Contention costs the batch its durability, not the log: the
        // record stays readable in memory, and the next commit retries.
        assert_eq!(second.memory_records(), std::slice::from_ref(&x));
        assert_eq!(rows(&totals(&mut second), "x").unwrap(), vec![(0, 1, 0)]);
        assert!(second.is_persistent());

        drop(holder); // releases the lock
        let y = record("y", &[(1, 2, 2)]);
        assert_eq!(
            second
                .commit_batch(std::slice::from_ref(&y), &lock)
                .unwrap(),
            Persistence::Committed
        );
        drop(second);
        let mut third = open(&mem);
        let fold = totals(&mut third);
        assert_eq!(fold.keys().collect::<Vec<_>>(), ["held", "y"]);
    }

    #[test]
    fn stale_lock_from_dead_writer_is_stolen() {
        let mem = Arc::new(MemVfs::new());
        mem.create_dir_all(Path::new(DIR)).unwrap();
        let vfs: Arc<dyn Vfs> = mem.clone();
        let lock = LockCfg {
            attempts: 1,
            base: Duration::ZERO,
            steal: false,
        };
        // A pid far above any live one on this machine, and a torn lock.
        for lock_content in [&b"999999999"[..], &b"\xFF\xFEgarbage"[..]] {
            let _ = mem.remove_file(&Path::new(DIR).join("LOCK"));
            mem.create_new(&Path::new(DIR).join("LOCK"), lock_content)
                .unwrap();
            let mut log = open(&vfs);
            let landed = log.commit_batch(&[record("x", &[(0, 1, 1)])], &lock);
            assert_eq!(
                landed.unwrap(),
                Persistence::Committed,
                "{:?}",
                log.warnings()
            );
            assert!(log.warnings().iter().any(|w| w.contains("dead writer")));
        }
    }

    #[test]
    fn chunking_splits_oversized_records_without_losing_counts() {
        let big = ProfileRecord {
            dataset: "huge".into(),
            entries: (0..500_000u32).map(|i| (i, 2, 1)).collect(),
            ..Default::default()
        };
        let chunks = chunk_records(std::slice::from_ref(&big));
        assert!(chunks.len() > 1, "10MB of entries spans multiple frames");
        let mut fold = RawFold::new();
        for c in &chunks {
            for r in c {
                assert!(format::record_body_len(r) <= MAX_FRAME_BYTES);
                fold_record(&mut fold, r);
            }
        }
        let mut expected = RawFold::new();
        fold_record(&mut expected, &big);
        assert_eq!(fold, expected);
    }
}
