#![warn(missing_docs)]

//! # mfprofdb — the crash-safe cross-run profile database
//!
//! The paper's IFPROBBER accumulated `(executed, taken)` counter pairs
//! "into a database across runs"; this crate is that database, built to
//! survive what real databases survive: torn writes, `ENOSPC`, crashes
//! mid-append, crashes mid-compaction, and concurrent writers.
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
//! complete compaction. `mfprofsvc` runs one log per shard.
//!
//! [`ProfileStore`] is the single-writer database on that engine: it
//! takes the log's `LOCK` file for its whole lifetime (a dead holder's
//! lock is stolen), commits each appended run as a one-record batch
//! frame, and keeps the accumulated views in memory. Every failure that
//! is not a crash degrades the store to in-memory accumulation with a
//! surfaced warning — opening or appending never panics and never loses
//! the current process's data.
//!
//! All I/O goes through [`mffault::Vfs`], so the crash battery can
//! enumerate every crash-point deterministically on an in-memory
//! filesystem.

pub mod format;
mod log;

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mffault::{RetryPolicy, Vfs};
use trace_ir::BranchId;
use trace_vm::BranchCounts;

pub use format::ProfileRecord;
use log::MAX_FRAME_BYTES;
pub use log::{LockCfg, SegmentLog};

/// Open-time knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenOptions {
    /// How the store takes its writer lock.
    pub lock: LockCfg,
    /// Bounded retry for transient I/O faults.
    pub retry: RetryPolicy,
}

/// Where an append landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Persistence {
    /// Durable in the segment log (append + sync acknowledged).
    Committed,
    /// In memory only — the store is (now) degraded.
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

/// Observability counters for one store's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Appends acknowledged durable.
    pub committed_appends: u64,
    /// Appends that fell back to memory.
    pub degraded_appends: u64,
    /// Records recovered from disk at open.
    pub salvaged_records: u64,
    /// Torn-tail bytes truncated at open.
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

/// Fingerprints folded per dataset label. A store can hold several
/// distinct *programs* (each numbering its branches from zero), so folds
/// that feed back into stored records must never mix labels.
pub type FpFoldByDataset = BTreeMap<String, FpFold>;

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
pub fn fold_fps_by_dataset(by_ds: &mut FpFoldByDataset, record: &ProfileRecord) {
    if record.fps.is_empty() {
        return;
    }
    fold_fps(by_ds.entry(record.dataset.clone()).or_default(), record);
}

/// One folded record per dataset, each carrying the folded fingerprint of
/// every site *its own program* counts — so compaction and migration
/// never shed the fingerprints the skew remapper needs later, and never
/// smear one program's fingerprints onto another dataset's record.
pub fn fold_to_records(fold: &RawFold, fps: &FpFoldByDataset) -> Vec<ProfileRecord> {
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
pub fn chunk_records(records: &[ProfileRecord]) -> Vec<Vec<ProfileRecord>> {
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

// -- the store -------------------------------------------------------------

/// The crash-safe single-writer profile store. See the crate docs.
#[derive(Debug)]
pub struct ProfileStore {
    log: SegmentLog,
    lock: LockCfg,
    records: Vec<ProfileRecord>,
    fold: RawFold,
    /// Program-wide structural fingerprints folded across every record
    /// that carried them (last writer wins per branch id). Fingerprints
    /// describe the *program*, not a dataset, so one map serves all.
    fps: FpFold,
    salvaged_records: u64,
}

impl ProfileStore {
    /// Opens (or creates) the database at `dir`: takes the log's writer
    /// lock for the store's lifetime, scans and repairs the log under
    /// that lock and loads what it salvaged. Returns `Err` only on an injected
    /// crash; every real failure yields a degraded, in-memory store with
    /// a warning in [`ProfileStore::warnings`].
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
        options: OpenOptions,
    ) -> Result<Self, DbError> {
        let mut salvaged = Vec::new();
        let log = SegmentLog::open_held(vfs, dir, options.retry, &options.lock, |batch| {
            salvaged.extend(batch)
        })?;
        let mut store = ProfileStore {
            log,
            lock: options.lock,
            records: Vec::with_capacity(salvaged.len()),
            fold: RawFold::new(),
            fps: FpFold::new(),
            salvaged_records: salvaged.len() as u64,
        };
        for record in salvaged {
            store.ingest(record);
        }
        Ok(store)
    }

    // -- public accessors ------------------------------------------------

    /// False once the store fell back to in-memory accumulation.
    pub fn is_persistent(&self) -> bool {
        self.log.is_persistent()
    }

    /// True when appends no longer reach disk.
    pub fn is_degraded(&self) -> bool {
        !self.is_persistent()
    }

    /// Everything that went wrong so far, in order, human-readable.
    pub fn warnings(&self) -> &[String] {
        self.log.warnings()
    }

    /// Lifetime counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            salvaged_records: self.salvaged_records,
            ..self.log.counters()
        }
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        self.log.dir()
    }

    /// The active segment file, when persistent.
    pub fn active_segment(&self) -> Option<&Path> {
        self.log.active_segment()
    }

    /// Every record currently in the store (recovered + appended), in
    /// log order. After a compaction this is one folded record per
    /// dataset (cut into frame-sized parts when larger) followed by any
    /// later appends.
    pub fn records(&self) -> &[ProfileRecord] {
        &self.records
    }

    /// Dataset names present, sorted.
    pub fn datasets(&self) -> Vec<&str> {
        self.fold.keys().map(String::as_str).collect()
    }

    /// Raw accumulated `(branch, executed, taken)` rows for one dataset.
    pub fn raw_profile(&self, dataset: &str) -> Option<Vec<(u32, u64, u64)>> {
        self.fold
            .get(dataset)
            .map(|m| m.iter().map(|(&id, &(e, t))| (id, e, t)).collect())
    }

    /// Raw accumulated totals for every dataset — the comparison currency
    /// of the crash battery and the fuzz oracle (no counter invariants
    /// are asserted on the way out).
    pub fn raw_totals(&self) -> BTreeMap<String, Vec<(u32, u64, u64)>> {
        self.fold
            .iter()
            .map(|(ds, m)| {
                (
                    ds.clone(),
                    m.iter().map(|(&id, &(e, t))| (id, e, t)).collect(),
                )
            })
            .collect()
    }

    /// Structural site fingerprints folded across every record that
    /// carried them, keyed by branch id. Empty for a database written
    /// entirely by legacy (fingerprint-free) writers.
    pub fn fingerprints(&self) -> &BTreeMap<u32, u64> {
        &self.fps
    }

    /// The accumulated database as the in-memory [`ifprob::ProfileDb`]
    /// every downstream predictor consumes.
    pub fn snapshot(&self) -> ifprob::ProfileDb {
        let mut db = ifprob::ProfileDb::new();
        for (dataset, entries) in &self.fold {
            let counts: BranchCounts = entries
                .iter()
                .map(|(&id, &(e, t))| (BranchId(id), e, t))
                .collect();
            db.record(dataset, &counts);
        }
        db
    }

    // -- the write path --------------------------------------------------

    /// Appends one run's counters under `dataset`. Returns where the
    /// record landed; `Err` only on an injected crash.
    pub fn append(&mut self, dataset: &str, counts: &BranchCounts) -> Result<Persistence, DbError> {
        self.append_with_fps(dataset, counts, &BTreeMap::new())
    }

    /// [`ProfileStore::append`] carrying the structural site fingerprints
    /// of the program the counts were gathered on. The record commits as
    /// a one-record batch frame: v2 when it carries fingerprints, v1
    /// byte-for-byte when the map is empty.
    pub fn append_with_fps(
        &mut self,
        dataset: &str,
        counts: &BranchCounts,
        fps: &BTreeMap<BranchId, u64>,
    ) -> Result<Persistence, DbError> {
        let record = ProfileRecord {
            dataset: dataset.to_string(),
            entries: counts.iter().map(|(id, e, t)| (id.0, e, t)).collect(),
            fps: fps.iter().map(|(&id, &fp)| (id.0, fp)).collect(),
        };
        let persistence =
            self.log
                .commit_batch_keep(std::slice::from_ref(&record), &self.lock, true)?;
        self.ingest(record);
        Ok(persistence)
    }

    /// Folds every record into one per dataset inside a fresh segment
    /// that supersedes all current generations. On any real failure the
    /// store keeps running on the current segment.
    pub fn compact(&mut self) -> Result<(), DbError> {
        if let Some(batches) = self.log.compact(&self.lock)? {
            self.records = batches.into_iter().flatten().collect();
        }
        Ok(())
    }

    fn ingest(&mut self, record: ProfileRecord) {
        fold_record(&mut self.fold, &record);
        fold_fps(&mut self.fps, &record); // log order ⇒ last writer wins
        self.records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffault::MemVfs;
    use std::time::Duration;
    use trace_ir::BranchId;

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

    const DIR: &str = "/profdb";

    #[test]
    fn append_reopen_accumulate() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        {
            let mut store = ProfileStore::open(Arc::clone(&mem), DIR, steal_opts()).unwrap();
            assert!(store.is_persistent());
            assert!(store.warnings().is_empty());
            assert_eq!(
                store
                    .append("train", &counts(&[(0, 10, 4), (2, 6, 6)]))
                    .unwrap(),
                Persistence::Committed
            );
            assert_eq!(
                store.append("train", &counts(&[(0, 5, 1)])).unwrap(),
                Persistence::Committed
            );
            assert_eq!(
                store.append("ref", &counts(&[(1, 7, 0)])).unwrap(),
                Persistence::Committed
            );
        }
        let store = ProfileStore::open(Arc::clone(&mem), DIR, steal_opts()).unwrap();
        assert_eq!(store.counters().salvaged_records, 3);
        assert_eq!(store.records().len(), 3);
        assert_eq!(
            store.raw_profile("train").unwrap(),
            vec![(0, 15, 5), (2, 6, 6)]
        );
        assert_eq!(store.raw_profile("ref").unwrap(), vec![(1, 7, 0)]);

        // The snapshot equals the same runs folded through the in-memory
        // accumulation path.
        let mut expected = ifprob::ProfileDb::new();
        expected.record("train", &counts(&[(0, 10, 4), (2, 6, 6)]));
        expected.record("train", &counts(&[(0, 5, 1)]));
        expected.record("ref", &counts(&[(1, 7, 0)]));
        assert_eq!(store.snapshot(), expected);
    }

    #[test]
    fn fingerprints_survive_reopen_and_compaction() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let fps: BTreeMap<BranchId, u64> = [(BranchId(0), 111), (BranchId(2), 222)]
            .into_iter()
            .collect();
        {
            let mut store = ProfileStore::open(Arc::clone(&mem), DIR, steal_opts()).unwrap();
            // Legacy append first: a fingerprint-free record coexists.
            store.append("train", &counts(&[(0, 10, 4)])).unwrap();
            store
                .append_with_fps("train", &counts(&[(0, 5, 1), (2, 6, 6)]), &fps)
                .unwrap();
        }
        let mut store = ProfileStore::open(Arc::clone(&mem), DIR, steal_opts()).unwrap();
        assert_eq!(
            store
                .fingerprints()
                .iter()
                .map(|(&i, &f)| (i, f))
                .collect::<Vec<_>>(),
            vec![(0, 111), (2, 222)]
        );
        let before = store.raw_totals();
        store.compact().unwrap();
        assert_eq!(store.raw_totals(), before);
        drop(store);
        let reopened = ProfileStore::open(mem, DIR, steal_opts()).unwrap();
        assert_eq!(reopened.raw_totals(), before);
        assert_eq!(reopened.fingerprints().get(&0), Some(&111));
        assert_eq!(reopened.fingerprints().get(&2), Some(&222));
    }

    #[test]
    fn compaction_folds_and_supersedes() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let mut store = ProfileStore::open(Arc::clone(&mem), DIR, steal_opts()).unwrap();
        for i in 0..5u64 {
            store
                .append(
                    if i % 2 == 0 { "a" } else { "b" },
                    &counts(&[(0, i + 1, 1)]),
                )
                .unwrap();
        }
        let before = store.raw_totals();
        store.compact().unwrap();
        assert_eq!(store.counters().compactions, 1);
        assert_eq!(store.records().len(), 2, "one folded record per dataset");
        assert_eq!(store.raw_totals(), before);

        // Exactly one segment remains on disk, the new generation.
        let seg = store.active_segment().unwrap().to_path_buf();
        assert!(seg.to_string_lossy().contains("seg-00000002"));
        drop(store);
        let reopened = ProfileStore::open(Arc::clone(&mem), DIR, steal_opts()).unwrap();
        assert_eq!(reopened.raw_totals(), before);
        assert_eq!(reopened.records().len(), 2);

        // Appends after compaction keep accumulating.
        let mut store = reopened;
        store.append("a", &counts(&[(9, 3, 2)])).unwrap();
        assert_eq!(store.records().len(), 3);
        drop(store);
        let reopened = ProfileStore::open(Arc::clone(&mem), DIR, steal_opts()).unwrap();
        assert_eq!(reopened.raw_profile("a").unwrap().last(), Some(&(9, 3, 2)));
    }

    #[test]
    fn corrupt_tail_is_salvaged_to_a_prefix() {
        let mem = Arc::new(MemVfs::new());
        let vfs: Arc<dyn Vfs> = mem.clone();
        let seg;
        {
            let mut store = ProfileStore::open(Arc::clone(&vfs), DIR, steal_opts()).unwrap();
            for i in 0..4u64 {
                store
                    .append(&format!("ds{i}"), &counts(&[(0, 10 + i, i)]))
                    .unwrap();
            }
            seg = store.active_segment().unwrap().to_path_buf();
        }
        // Flip a byte inside the last frame's payload.
        let mut bytes = mem.read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0x40;
        mem.write(&seg, &bytes).unwrap();

        let store = ProfileStore::open(Arc::clone(&vfs), DIR, steal_opts()).unwrap();
        assert_eq!(store.records().len(), 3, "last frame dropped");
        assert!(store.raw_profile("ds3").is_none());
        assert!(store.counters().truncated_bytes > 0);
        assert!(
            store.warnings().iter().any(|w| w.contains("torn tail")),
            "warnings: {:?}",
            store.warnings()
        );
        // The truncation repaired the file: a further reopen is clean.
        assert!(store.is_persistent());
        drop(store);
        let clean = ProfileStore::open(vfs, DIR, steal_opts()).unwrap();
        assert!(clean.warnings().is_empty(), "{:?}", clean.warnings());
        assert_eq!(clean.records().len(), 3);
    }

    #[test]
    fn lock_contention_degrades_and_releases() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let acquire = OpenOptions {
            lock: LockCfg {
                attempts: 2,
                base: Duration::ZERO,
                steal: false,
            },
            retry: RetryPolicy::none(),
        };
        let holder = ProfileStore::open(Arc::clone(&mem), DIR, acquire).unwrap();
        assert!(holder.is_persistent());

        let mut second = ProfileStore::open(Arc::clone(&mem), DIR, acquire).unwrap();
        assert!(second.is_degraded(), "{:?}", second.warnings());
        assert!(second.warnings()[0].contains("locked by a live writer"));
        assert_eq!(
            second.append("x", &counts(&[(0, 1, 0)])).unwrap(),
            Persistence::Degraded
        );
        assert_eq!(second.raw_profile("x").unwrap(), vec![(0, 1, 0)]);

        drop(holder); // releases the lock
        drop(second);
        let third = ProfileStore::open(mem, DIR, acquire).unwrap();
        assert!(third.is_persistent(), "{:?}", third.warnings());
    }

    #[test]
    fn stale_lock_from_dead_writer_is_stolen() {
        let mem = Arc::new(MemVfs::new());
        mem.create_dir_all(Path::new(DIR)).unwrap();
        // A pid far above any live one on this machine, and a torn lock.
        for lock_content in [&b"999999999"[..], &b"\xFF\xFEgarbage"[..]] {
            let _ = mem.remove_file(&Path::new(DIR).join("LOCK"));
            mem.create_new(&Path::new(DIR).join("LOCK"), lock_content)
                .unwrap();
            let store = ProfileStore::open(
                mem.clone() as Arc<dyn Vfs>,
                DIR,
                OpenOptions {
                    lock: LockCfg {
                        attempts: 1,
                        base: Duration::ZERO,
                        steal: false,
                    },
                    retry: RetryPolicy::none(),
                },
            )
            .unwrap();
            assert!(store.is_persistent(), "{:?}", store.warnings());
            assert!(store.warnings().iter().any(|w| w.contains("dead writer")));
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
