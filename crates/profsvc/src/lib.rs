#![warn(missing_docs)]

//! # mfprofsvc — the profile database, a sharded multi-writer service
//!
//! [`mfprofdb`] is the database's codec and its one crash-safe storage
//! engine, [`mfprofdb::SegmentLog`]; this crate makes *many* writers fast
//! without giving that up. A new database is
//! hash-partitioned by branch id into N independent shard logs
//! (`shard-000/ … shard-NNN/`, each a `SegmentLog` directory), so
//! writers touching different shards never contend. A shard takes its
//! `LOCK` per group commit and drops it once idle, so two live processes
//! interleave. Within a shard, concurrent submissions coalesce into
//! **group commits**: the first waiter becomes the leader, drains the
//! queue, appends the whole batch as atomic batch frames, and pays ONE
//! sync for everyone. A batch is one checksummed frame, so a crash
//! mid-commit recovers to an exact prefix of acknowledged batches —
//! never a partial batch.
//!
//! Readers are snapshot-isolated: a merged read takes a point-in-time
//! copy of each shard's segment and salvages it in memory, never
//! mutating the directory, so compaction and cross-shard merges proceed
//! while writers stream.
//!
//! The shard count is pinned in a checksummed `MANIFEST` at the
//! database root. A manifest-less directory that holds a single-log
//! database (a root-level `SegmentLog`: root `seg-*.mfdb` files, the
//! layout earlier versions' single-writer store wrote) is served in
//! place as one shard: the root log takes group commits and compactions
//! under the same per-commit `LOCK` as any shard, so while another
//! writer holds that lock the service's writes are acknowledged
//! `Degraded` (kept in memory) instead of racing it. A directory that
//! cannot be made persistent, or a fresh one whose manifest cannot be
//! written, is one in-memory shard.
//!
//! All I/O goes through [`mffault::Vfs`]; the crash battery extends
//! per-shard and across a crash mid-group-commit.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use mffault::{RetryPolicy, Vfs};
use mfprofdb::format;
use mfprofdb::{fold_fps, fold_record, FpFold, RawFold, SegmentLog};
use trace_ir::BranchId;
use trace_vm::BranchCounts;

pub use mfprofdb::{DbError, LockCfg, Persistence, ProfileRecord, StoreCounters};

/// Name of the root manifest file that pins the shard count.
const MANIFEST_FILE: &str = "MANIFEST";
/// Manifest magic.
const MANIFEST_MAGIC: &[u8; 4] = b"MFPS";
/// Manifest format version.
const MANIFEST_VERSION: u8 = 1;
/// Encoded manifest size: magic + version + shard_count + checksum.
const MANIFEST_LEN: usize = 17;

/// What [`ProfileService::merged_totals`] returns: per-dataset sorted
/// `(branch, executed, taken)` triples.
pub type MergedTotals = BTreeMap<String, Vec<(u32, u64, u64)>>;

/// The shard a branch's counters land in. Pure function of the branch
/// id and the manifest's shard count, so every writer and reader agrees
/// and per-shard keyspaces are disjoint.
pub fn shard_of(branch: u32, shards: u32) -> u32 {
    (format::fnv64(&branch.to_le_bytes()) % u64::from(shards.max(1))) as u32
}

fn encode_manifest(shards: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MANIFEST_LEN);
    buf.extend_from_slice(MANIFEST_MAGIC);
    buf.push(MANIFEST_VERSION);
    buf.extend_from_slice(&shards.to_le_bytes());
    let sum = format::fnv64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

fn decode_manifest(bytes: &[u8]) -> Option<u32> {
    if bytes.len() != MANIFEST_LEN {
        return None;
    }
    let (body, sum) = bytes.split_at(MANIFEST_LEN - 8);
    if u64::from_le_bytes(sum.try_into().ok()?) != format::fnv64(body) {
        return None;
    }
    if &body[..4] != MANIFEST_MAGIC || body[4] != MANIFEST_VERSION {
        return None;
    }
    let shards = u32::from_le_bytes(body[5..9].try_into().ok()?);
    (shards > 0).then_some(shards)
}

/// Open-time knobs for the service.
#[derive(Clone, Copy, Debug)]
pub struct ServiceOptions {
    /// Shard count for a new database. An existing manifest always wins,
    /// and a single-log database is served in place as one shard.
    pub shards: u32,
    /// Per-commit shard-lock policy.
    pub lock: LockCfg,
    /// Bounded retry for transient I/O faults.
    pub retry: RetryPolicy,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            shards: 8,
            lock: LockCfg::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Aggregated lifetime counters for the whole service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SvcCounters {
    /// Summed per-shard store counters.
    pub store: StoreCounters,
    /// Group commits that reached the disk path (one sync each).
    pub group_commits: u64,
}

/// One shard's group-commit queue plus its log.
struct ShardCell {
    queue: Mutex<QueueState>,
    cv: Condvar,
    log: Mutex<SegmentLog>,
}

impl ShardCell {
    fn new(log: SegmentLog) -> Self {
        ShardCell {
            queue: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            log: Mutex::new(log),
        }
    }
}

#[derive(Default)]
struct QueueState {
    /// Submissions awaiting the next group commit.
    pending: Vec<(u64, ProfileRecord)>,
    /// Acknowledgments awaiting pickup by their submitters.
    acks: BTreeMap<u64, Persistence>,
    /// True while some submitter is the commit leader.
    leader: bool,
    /// Set when an injected crash killed a commit; everyone dies.
    dead: Option<String>,
}

/// The sharded multi-writer profile service. See the crate docs.
pub struct ProfileService {
    dir: PathBuf,
    lock: LockCfg,
    /// The shard logs in shard order: the manifest's shard directories,
    /// or the root alone for a database served in place.
    cells: Vec<ShardCell>,
    next_sid: AtomicU64,
    group_commits: AtomicU64,
    /// Warnings raised while opening, ahead of every shard's own.
    open_warnings: Vec<String>,
}

fn crash_err(op: &'static str, reason: &str) -> DbError {
    DbError {
        op,
        source: io::Error::other(reason.to_string()),
    }
}

fn worst(a: Persistence, b: Persistence) -> Persistence {
    if a == Persistence::Degraded || b == Persistence::Degraded {
        Persistence::Degraded
    } else {
        Persistence::Committed
    }
}

/// One retried service-level I/O operation, classified like a log's.
fn io<T>(
    retry: RetryPolicy,
    op: &'static str,
    f: impl FnMut() -> io::Result<T>,
) -> Result<io::Result<T>, DbError> {
    mfprofdb::crash_check(op, mffault::retry(retry, f).0)
}

fn open_shards(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    shards: u32,
    retry: RetryPolicy,
) -> Result<Vec<SegmentLog>, DbError> {
    (0..shards)
        .map(|i| SegmentLog::open(Arc::clone(vfs), dir.join(format!("shard-{i:03}")), retry))
        .collect()
}

/// The logs of a directory without a valid manifest: a single-log
/// database, or a directory that cannot be made persistent, is its own
/// root log; a fresh one gets the manifest, then its shards.
fn open_without_manifest(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    options: &ServiceOptions,
) -> Result<Vec<SegmentLog>, DbError> {
    let mut root = SegmentLog::open(Arc::clone(vfs), dir, options.retry)?;
    if root.has_segments() || !root.is_persistent() {
        return Ok(vec![root]);
    }
    let shards = options.shards.max(1);
    let path = dir.join(MANIFEST_FILE);
    let bytes = encode_manifest(shards);
    let written = match io(options.retry, "write manifest", || vfs.write(&path, &bytes))? {
        Ok(()) => io(options.retry, "sync manifest", || vfs.sync(&path))?,
        Err(e) => Err(e),
    };
    match written {
        Ok(()) => open_shards(vfs, dir, shards, options.retry),
        Err(e) => {
            // The manifest may have landed despite the error, and would
            // then hide the root at the next open: nothing written to
            // the root now may be acknowledged durable.
            root.force_degrade(format!(
                "could not write manifest in {} ({e}); accumulating in memory only",
                dir.display()
            ));
            Ok(vec![root])
        }
    }
}

impl ProfileService {
    /// Opens (or creates) the service at `dir`. A fresh directory is
    /// initialized with `options.shards` shards and a manifest pins the
    /// count thereafter; a manifest-less directory with root segments is
    /// served in place as one shard. Returns `Err` only on an injected
    /// crash — every real failure degrades with a warning, like the
    /// segment log.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
        options: ServiceOptions,
    ) -> Result<Self, DbError> {
        let dir = dir.into();
        let mut open_warnings = Vec::new();
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = io(options.retry, "read manifest", || vfs.read(&manifest_path))?
            .ok()
            .map(|bytes| decode_manifest(&bytes));
        let logs = match manifest {
            Some(Some(shards)) => {
                let logs = open_shards(&vfs, &dir, shards, options.retry)?;
                // Root segments beside a manifest are never read (an
                // earlier version's move of a single-log database into
                // shards, cut off after the manifest, left them): say so.
                if SegmentLog::open(Arc::clone(&vfs), dir.clone(), options.retry)?.has_segments() {
                    open_warnings.push(format!(
                        "stale root segments present in {}; ignored",
                        dir.display()
                    ));
                }
                logs
            }
            manifest => {
                if manifest.is_some() {
                    // A torn manifest write: the fresh database it began
                    // never committed a record.
                    open_warnings.push(format!(
                        "corrupt manifest in {}; ignoring it",
                        dir.display()
                    ));
                }
                open_without_manifest(&vfs, &dir, &options)?
            }
        };
        Ok(ProfileService {
            dir,
            lock: options.lock,
            cells: logs.into_iter().map(ShardCell::new).collect(),
            next_sid: AtomicU64::new(1),
            group_commits: AtomicU64::new(0),
            open_warnings,
        })
    }

    // -- accessors -------------------------------------------------------

    /// The database root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shard count per the manifest; 1 for a database served in place.
    pub fn shard_count(&self) -> u32 {
        self.cells.len() as u32
    }

    /// False once any shard fell back to in-memory accumulation.
    pub fn is_persistent(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.log.lock().expect("log lock").is_persistent())
    }

    /// Everything that went wrong so far: the open's warnings first,
    /// then each shard's, in shard order.
    pub fn warnings(&self) -> Vec<String> {
        let mut out = self.open_warnings.clone();
        for c in &self.cells {
            out.extend_from_slice(c.log.lock().expect("log lock").warnings());
        }
        out
    }

    /// Aggregated lifetime counters.
    pub fn counters(&self) -> SvcCounters {
        let mut store = StoreCounters::default();
        for cell in &self.cells {
            let c = cell.log.lock().expect("log lock").counters();
            store.committed_appends += c.committed_appends;
            store.degraded_appends += c.degraded_appends;
            store.salvaged_records += c.salvaged_records;
            store.truncated_bytes += c.truncated_bytes;
            store.io_retries += c.io_retries;
            store.compactions += c.compactions;
        }
        SvcCounters {
            store,
            group_commits: self.group_commits.load(Ordering::Relaxed),
        }
    }

    // -- the write path --------------------------------------------------

    /// Blocking submit for concurrent writers: splits the run's counters
    /// per shard and rides each shard's group commit (becoming the
    /// leader if nobody else is). Returns the worst persistence across
    /// the record's shard parts; `Err` only on an injected crash. Do not
    /// mix with [`ProfileService::enqueue`]/[`ProfileService::flush`]
    /// from other threads at the same time.
    pub fn submit(&self, dataset: &str, counts: &BranchCounts) -> Result<Persistence, DbError> {
        self.submit_with_fps(dataset, counts, &BTreeMap::new())
    }

    /// [`ProfileService::submit`] carrying the structural site
    /// fingerprints of the program the counts were gathered on (see
    /// `mfstale`). Fingerprinted records commit as v2 frames; an empty
    /// map behaves exactly like `submit`.
    pub fn submit_with_fps(
        &self,
        dataset: &str,
        counts: &BranchCounts,
        fps: &BTreeMap<BranchId, u64>,
    ) -> Result<Persistence, DbError> {
        let record = ProfileRecord::from_run(dataset, counts, fps);
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        let mut overall = Persistence::Committed;
        for (shard, part) in split_record(&record, self.shard_count()) {
            let p = self.submit_part(&self.cells[shard as usize], sid, part)?;
            overall = worst(overall, p);
        }
        Ok(overall)
    }

    /// Deterministic two-phase submit, for single-threaded drivers (the
    /// crash battery, `repro`): queue now, commit on
    /// [`ProfileService::flush`]. Returns the submission id.
    pub fn enqueue(&self, dataset: &str, counts: &BranchCounts) -> Result<u64, DbError> {
        self.enqueue_with_fps(dataset, counts, &BTreeMap::new())
    }

    /// [`ProfileService::enqueue`] carrying structural site fingerprints
    /// (committed with the queued record at the next flush).
    pub fn enqueue_with_fps(
        &self,
        dataset: &str,
        counts: &BranchCounts,
        fps: &BTreeMap<BranchId, u64>,
    ) -> Result<u64, DbError> {
        let record = ProfileRecord::from_run(dataset, counts, fps);
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        for (shard, part) in split_record(&record, self.shard_count()) {
            let mut q = self.cells[shard as usize].queue.lock().expect("queue lock");
            q.pending.push((sid, part));
        }
        Ok(sid)
    }

    /// Commits every queued submission, one group commit per shard (in
    /// shard order — deterministic under fault injection). Returns each
    /// flushed submission's worst persistence across its shard parts.
    pub fn flush(&self) -> Result<BTreeMap<u64, Persistence>, DbError> {
        let mut acks: BTreeMap<u64, Persistence> = BTreeMap::new();
        for cell in &self.cells {
            let batch = {
                let mut q = cell.queue.lock().expect("queue lock");
                std::mem::take(&mut q.pending)
            };
            if batch.is_empty() {
                continue;
            }
            let records: Vec<ProfileRecord> = batch.iter().map(|(_, r)| r.clone()).collect();
            let p = cell
                .log
                .lock()
                .expect("log lock")
                .commit_batch(&records, &self.lock)?;
            self.group_commits.fetch_add(1, Ordering::Relaxed);
            for (sid, _) in batch {
                let slot = acks.entry(sid).or_insert(Persistence::Committed);
                *slot = worst(*slot, p);
            }
        }
        Ok(acks)
    }

    fn submit_part(
        &self,
        cell: &ShardCell,
        sid: u64,
        record: ProfileRecord,
    ) -> Result<Persistence, DbError> {
        let mut q = cell.queue.lock().expect("queue lock");
        q.pending.push((sid, record));
        loop {
            if let Some(p) = q.acks.remove(&sid) {
                return Ok(p);
            }
            if let Some(reason) = &q.dead {
                return Err(crash_err("group commit", reason));
            }
            if !q.leader {
                q.leader = true;
                // Everything that queued while the previous commit was
                // syncing rides this one.
                let batch = std::mem::take(&mut q.pending);
                drop(q);
                let records: Vec<ProfileRecord> = batch.iter().map(|(_, r)| r.clone()).collect();
                // Keep the shard lock hot: back-to-back group commits
                // within a burst skip the lock-file churn; the lock is
                // dropped below the moment the queue drains.
                let result = cell
                    .log
                    .lock()
                    .expect("log lock")
                    .commit_batch_keep(&records, &self.lock, true);
                q = cell.queue.lock().expect("queue lock");
                q.leader = false;
                match result {
                    Ok(p) => {
                        for (s, _) in batch {
                            let slot = q.acks.entry(s).or_insert(Persistence::Committed);
                            *slot = worst(*slot, p);
                        }
                        self.group_commits.fetch_add(1, Ordering::Relaxed);
                        cell.cv.notify_all();
                        if q.pending.is_empty() {
                            // Idle: give the lock back so a waiting peer
                            // (another process) can take its turn.
                            drop(q);
                            let release = cell.log.lock().expect("log lock").release_if_held();
                            q = cell.queue.lock().expect("queue lock");
                            if let Err(e) = release {
                                q.dead = Some(e.to_string());
                                cell.cv.notify_all();
                                return Err(e);
                            }
                        }
                    }
                    Err(e) => {
                        q.dead = Some(e.to_string());
                        cell.cv.notify_all();
                        return Err(e);
                    }
                }
            } else {
                q = cell.cv.wait(q).expect("queue lock");
            }
        }
    }

    /// Compacts every shard (fold to one frame per dataset in a
    /// superseding segment).
    pub fn compact(&self) -> Result<(), DbError> {
        for cell in &self.cells {
            cell.log.lock().expect("log lock").compact(&self.lock)?;
        }
        Ok(())
    }

    // -- the read path ---------------------------------------------------

    /// Raw accumulated totals for every dataset, merged across shards —
    /// the union of each shard's committed prefix plus any
    /// degraded-acknowledged in-memory records. Snapshot-isolated:
    /// reads point-in-time copies and never blocks on or mutates a
    /// streaming writer. Enqueued-but-unflushed submissions are not
    /// visible.
    pub fn merged_totals(&self) -> Result<MergedTotals, DbError> {
        let mut fold = RawFold::new();
        self.visit_all(|r| fold_record(&mut fold, r))?;
        Ok(fold
            .iter()
            .map(|(ds, m)| {
                (
                    ds.clone(),
                    m.iter().map(|(&id, &(e, t))| (id, e, t)).collect(),
                )
            })
            .collect())
    }

    /// Structural site fingerprints merged across every shard, per dataset
    /// label (last record in log order wins per branch id); a dataset
    /// whose writers recorded no fingerprints is omitted. Fingerprints are
    /// kept per label because a store may accumulate several distinct
    /// *programs* (the benchmark harness records `"workload/dataset"`
    /// labels, and every program numbers its branches from zero): one
    /// fold over every label would let one program's sites shadow
    /// another's.
    pub fn merged_fingerprints_by_dataset(
        &self,
    ) -> Result<BTreeMap<String, BTreeMap<u32, u64>>, DbError> {
        let mut by_ds: BTreeMap<String, FpFold> = BTreeMap::new();
        self.visit_all(|r| {
            let fps = by_ds.entry(r.dataset.clone()).or_default();
            fold_fps(fps, r);
        })?;
        by_ds.retain(|_, fps| !fps.is_empty());
        Ok(by_ds)
    }

    /// The merged database as the in-memory [`ifprob::ProfileDb`] every
    /// downstream predictor consumes.
    pub fn snapshot(&self) -> Result<ifprob::ProfileDb, DbError> {
        let mut fold = RawFold::new();
        self.visit_all(|r| fold_record(&mut fold, r))?;
        let mut db = ifprob::ProfileDb::new();
        for (dataset, entries) in &fold {
            let counts: BranchCounts = entries
                .iter()
                .map(|(&id, &(e, t))| (BranchId(id), e, t))
                .collect();
            db.record(dataset, &counts);
        }
        Ok(db)
    }

    fn visit_all(&self, mut visit: impl FnMut(&ProfileRecord)) -> Result<(), DbError> {
        for cell in &self.cells {
            let mut log = cell.log.lock().expect("log lock");
            log.visit_batches(|batch| {
                for r in &batch {
                    visit(r);
                }
            })?;
            for r in log.memory_records() {
                visit(r);
            }
        }
        Ok(())
    }

    /// The committed batches currently on disk in shard `i`, in log
    /// order — the granularity at which recovery may cut. Test/battery
    /// API.
    pub fn shard_batches(&self, i: u32) -> Result<Vec<Vec<ProfileRecord>>, DbError> {
        match self.cells.get(i as usize) {
            Some(cell) => cell.log.lock().expect("log lock").read_batches(),
            None => Ok(Vec::new()),
        }
    }
}

/// Splits one record into its per-shard parts (ascending shard index).
/// An empty-entry record (dataset presence) lands in shard 0. Each
/// fingerprint follows its branch id's shard, so per-shard keyspaces stay
/// disjoint for fingerprints exactly as for counts.
pub(crate) fn split_record(record: &ProfileRecord, shards: u32) -> Vec<(u32, ProfileRecord)> {
    if record.entries.is_empty() {
        return vec![(0, record.clone())];
    }
    fn part<'a>(
        parts: &'a mut BTreeMap<u32, ProfileRecord>,
        dataset: &str,
        shard: u32,
    ) -> &'a mut ProfileRecord {
        parts.entry(shard).or_insert_with(|| ProfileRecord {
            dataset: dataset.to_string(),
            ..ProfileRecord::default()
        })
    }
    let mut parts: BTreeMap<u32, ProfileRecord> = BTreeMap::new();
    for &e in &record.entries {
        part(&mut parts, &record.dataset, shard_of(e.0, shards))
            .entries
            .push(e);
    }
    for &f in &record.fps {
        part(&mut parts, &record.dataset, shard_of(f.0, shards))
            .fps
            .push(f);
    }
    parts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mffault::MemVfs;
    use std::time::Duration;

    fn counts(rows: &[(u32, u64, u64)]) -> BranchCounts {
        rows.iter()
            .map(|&(id, e, t)| (BranchId(id), e, t))
            .collect()
    }

    fn opts(shards: u32) -> ServiceOptions {
        ServiceOptions {
            shards,
            lock: LockCfg {
                attempts: 2,
                base: Duration::ZERO,
                steal: false,
            },
            retry: RetryPolicy::none(),
        }
    }

    const DIR: &str = "/svc";

    #[test]
    fn submit_reopen_accumulate_across_shards() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        {
            let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
            assert_eq!(svc.shard_count(), 4);
            assert_eq!(
                svc.submit("train", &counts(&[(0, 10, 4), (1, 6, 6), (2, 9, 1)]))
                    .unwrap(),
                Persistence::Committed
            );
            assert_eq!(
                svc.submit("train", &counts(&[(0, 5, 1)])).unwrap(),
                Persistence::Committed
            );
            assert_eq!(
                svc.submit("ref", &counts(&[(3, 7, 0)])).unwrap(),
                Persistence::Committed
            );
        }
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.shard_count(), 4, "manifest pins the count");
        let totals = svc.merged_totals().unwrap();
        assert_eq!(
            totals["train"],
            vec![(0, 15, 5), (1, 6, 6), (2, 9, 1)],
            "union across shards equals the fold"
        );
        assert_eq!(totals["ref"], vec![(3, 7, 0)]);

        // The snapshot equals the same runs folded through the
        // in-memory accumulation path.
        let mut expected = ifprob::ProfileDb::new();
        expected.record("train", &counts(&[(0, 15, 5), (1, 6, 6), (2, 9, 1)]));
        expected.record("ref", &counts(&[(3, 7, 0)]));
        assert_eq!(svc.snapshot().unwrap(), expected);
    }

    #[test]
    fn reopening_counts_the_records_it_recovers() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let committed = {
            let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
            svc.submit("train", &counts(&[(0, 10, 4), (1, 6, 6), (2, 9, 1)]))
                .unwrap();
            svc.submit("ref", &counts(&[(3, 7, 0)])).unwrap();
            let c = svc.counters().store;
            assert_eq!(c.salvaged_records, 0, "a fresh database recovers nothing");
            c.committed_appends
        };
        assert!(committed >= 2, "{committed}");
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.counters().store.salvaged_records, committed);

        // A second writer appends to every shard, so the next commit of
        // the first one rescans under its lock; that is not recovery.
        let other = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        let all_shards = counts(&[(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1)]);
        other.submit("ref", &all_shards).unwrap();
        svc.submit("ref", &all_shards).unwrap();
        assert_eq!(svc.counters().store.salvaged_records, committed);
    }

    #[test]
    fn manifest_wins_over_options() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        drop(ProfileService::open(Arc::clone(&mem), DIR, opts(16)).unwrap());
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.shard_count(), 16);
    }

    #[test]
    fn enqueue_flush_acks_every_submission() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(3)).unwrap();
        let a = svc.enqueue("a", &counts(&[(0, 1, 1), (5, 2, 0)])).unwrap();
        let b = svc.enqueue("b", &counts(&[(1, 3, 2)])).unwrap();
        let empty = svc.enqueue("marker", &counts(&[])).unwrap();
        let acks = svc.flush().unwrap();
        assert_eq!(acks.len(), 3);
        for sid in [a, b, empty] {
            assert_eq!(acks[&sid], Persistence::Committed);
        }
        assert_eq!(svc.flush().unwrap().len(), 0, "queue drained");
        let totals = svc.merged_totals().unwrap();
        assert_eq!(totals["marker"], vec![], "empty record keeps presence");
        // One group commit per touched shard, not per submission; the
        // append counter tallies per-shard record parts (submission `a`
        // splits across shards).
        assert!(svc.counters().group_commits <= 3);
        assert!(svc.counters().store.committed_appends >= 3);
    }

    /// Fingerprints per dataset label, as
    /// [`ProfileService::merged_fingerprints_by_dataset`] returns them.
    type FpsByDataset = BTreeMap<String, BTreeMap<u32, u64>>;

    fn fps_by_dataset(rows: &[(&str, &[(u32, u64)])]) -> FpsByDataset {
        rows.iter()
            .map(|&(ds, fps)| (ds.to_string(), fps.iter().copied().collect()))
            .collect()
    }

    /// The single-log database at `DIR`: a root-level segment log.
    fn root_log(mem: &Arc<dyn Vfs>) -> SegmentLog {
        SegmentLog::open(Arc::clone(mem), DIR, RetryPolicy::none()).unwrap()
    }

    fn run(dataset: &str, rows: &Rows, fps: &[(u32, u64)]) -> ProfileRecord {
        ProfileRecord {
            dataset: dataset.into(),
            entries: rows.to_vec(),
            fps: fps.to_vec(),
        }
    }

    /// What a segment log's committed batches hold: the folded totals and
    /// the fingerprints folded per dataset.
    fn read_back(log: &mut SegmentLog) -> (MergedTotals, FpsByDataset) {
        let (mut fold, mut fps) = (RawFold::new(), FpsByDataset::new());
        for r in log.read_batches().unwrap().iter().flatten() {
            fold_record(&mut fold, r);
            fold_fps(fps.entry(r.dataset.clone()).or_default(), r);
        }
        fps.retain(|_, f| !f.is_empty());
        let totals = fold
            .into_iter()
            .map(|(ds, m)| (ds, m.into_iter().map(|(id, (e, t))| (id, e, t)).collect()))
            .collect();
        (totals, fps)
    }

    /// Serves the single-log database at `DIR` in place and checks it
    /// reads `before` with `fps` at open; after a `submit` and an
    /// `enqueue`+`flush` of `train` branch 0 (one taken execution each),
    /// `after`; the same after a compaction and after a reopen; all as
    /// one shard, creating neither a manifest nor a shard directory, so
    /// a root-level segment log still reads it.
    fn serve_in_place(
        mem: &Arc<dyn Vfs>,
        before: &MergedTotals,
        after: &MergedTotals,
        fps: &FpsByDataset,
    ) {
        let svc = ProfileService::open(Arc::clone(mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.shard_count(), 1, "served in place as one shard");
        assert!(svc.is_persistent(), "{:?}", svc.warnings());
        assert_eq!(&svc.merged_totals().unwrap(), before);
        assert_eq!(&svc.merged_fingerprints_by_dataset().unwrap(), fps);

        let one = counts(&[(0, 1, 1)]);
        assert_eq!(svc.submit("train", &one).unwrap(), Persistence::Committed);
        let sid = svc.enqueue("train", &one).unwrap();
        assert_eq!(svc.flush().unwrap()[&sid], Persistence::Committed);
        assert_eq!(&svc.merged_totals().unwrap(), after);
        assert_eq!(&svc.merged_fingerprints_by_dataset().unwrap(), fps);

        svc.compact().unwrap();
        assert_eq!(svc.counters().store.compactions, 1);
        assert_eq!(svc.shard_batches(0).unwrap().len(), 1, "one folded batch");
        assert_eq!(&svc.merged_totals().unwrap(), after);
        assert_eq!(&svc.merged_fingerprints_by_dataset().unwrap(), fps);

        drop(svc);
        let svc = ProfileService::open(Arc::clone(mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.shard_count(), 1);
        assert_eq!(&svc.merged_totals().unwrap(), after);
        assert_eq!(&svc.merged_fingerprints_by_dataset().unwrap(), fps);
        drop(svc);

        for path in mem.read_dir(Path::new(DIR)).unwrap() {
            let name = path.file_name().unwrap().to_string_lossy();
            assert!(
                name != MANIFEST_FILE && !name.starts_with("shard-"),
                "serving in place created {name}"
            );
        }
        assert_eq!(read_back(&mut root_log(mem)), (after.clone(), fps.clone()));
    }

    type Rows = [(u32, u64, u64)];

    fn totals(datasets: &[(&str, &Rows)]) -> MergedTotals {
        datasets
            .iter()
            .map(|&(ds, rows)| (ds.to_string(), rows.to_vec()))
            .collect()
    }

    #[test]
    fn single_log_database_is_served_in_place() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let mut log = root_log(&mem);
        for record in [
            run("train", &[(0, 10, 4), (9, 3, 3)], &[]),
            run("ref", &[(2, 5, 0)], &[]),
        ] {
            let landed = log.commit_batch(&[record], &LockCfg::default());
            assert_eq!(landed.unwrap(), Persistence::Committed);
        }
        drop(log);
        serve_in_place(
            &mem,
            &totals(&[("ref", &[(2, 5, 0)]), ("train", &[(0, 10, 4), (9, 3, 3)])]),
            &totals(&[("ref", &[(2, 5, 0)]), ("train", &[(0, 12, 6), (9, 3, 3)])]),
            &FpsByDataset::new(),
        );
    }

    #[test]
    fn fingerprints_survive_serving_in_place() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let record = run("train", &[(1, 4, 2), (2, 9, 9)], &[(1, 11), (2, 22)]);
        let landed = root_log(&mem).commit_batch(&[record], &LockCfg::default());
        assert_eq!(landed.unwrap(), Persistence::Committed);
        serve_in_place(
            &mem,
            &totals(&[("train", &[(1, 4, 2), (2, 9, 9)])]),
            &totals(&[("train", &[(0, 2, 2), (1, 4, 2), (2, 9, 9)])]),
            &fps_by_dataset(&[("train", &[(1, 11), (2, 22)])]),
        );
    }

    #[test]
    fn a_live_store_keeps_its_single_log_database() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        // A live writer on the single-log database that keeps the root's
        // lock after each commit, as a burst does.
        let commit = |log: &mut SegmentLog, rows: &Rows| {
            let record = run("train", rows, &[]);
            log.commit_batch_keep(&[record], &LockCfg::default(), true)
        };
        let mut store = root_log(&mem);
        assert_eq!(
            commit(&mut store, &[(0, 10, 4)]).unwrap(),
            Persistence::Committed
        );
        let segment = store.active_segment().unwrap().to_path_buf();
        let bytes = mem.read(&segment).unwrap();

        // The writer holds the root's lock: the service keeps its write
        // in memory and leaves the writer's segment alone.
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.shard_count(), 1);
        assert_eq!(
            svc.submit("train", &counts(&[(0, 1, 1)])).unwrap(),
            Persistence::Degraded
        );
        assert_eq!(svc.merged_totals().unwrap()["train"], vec![(0, 11, 5)]);
        assert_eq!(
            mem.read(&segment).unwrap(),
            bytes,
            "writer's segment intact"
        );
        assert_eq!(
            commit(&mut store, &[(0, 3, 3)]).unwrap(),
            Persistence::Committed
        );
        drop(store);

        assert_eq!(
            svc.submit("train", &counts(&[(0, 2, 2)])).unwrap(),
            Persistence::Committed
        );
        assert_eq!(svc.merged_totals().unwrap()["train"], vec![(0, 16, 10)]);
        drop(svc);
        // Only the write acknowledged in memory is gone.
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.merged_totals().unwrap()["train"], vec![(0, 15, 9)]);
    }

    #[test]
    fn compaction_preserves_the_merge_and_shrinks_batches() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(2)).unwrap();
        for i in 0..6u64 {
            svc.submit(
                if i % 2 == 0 { "a" } else { "b" },
                &counts(&[(i as u32, i + 1, 1)]),
            )
            .unwrap();
        }
        let before = svc.merged_totals().unwrap();
        svc.compact().unwrap();
        assert_eq!(svc.merged_totals().unwrap(), before);
        assert_eq!(svc.counters().store.compactions, 2);
        for shard in 0..2 {
            let batches = svc.shard_batches(shard).unwrap();
            assert!(batches.len() <= 1, "one folded batch per shard");
        }
        drop(svc);
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(2)).unwrap();
        assert_eq!(svc.merged_totals().unwrap(), before);
    }

    #[test]
    fn fingerprints_shard_merge_and_survive_compaction() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let fps: BTreeMap<BranchId, u64> = (0..20u32)
            .map(|i| (BranchId(i), 1000 + u64::from(i)))
            .collect();
        {
            let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
            let rows: Vec<(u32, u64, u64)> = (0..20u32).map(|i| (i, 10, 3)).collect();
            assert_eq!(
                svc.submit_with_fps("train", &counts(&rows), &fps).unwrap(),
                Persistence::Committed
            );
            // Fingerprint-free traffic coexists.
            svc.submit("ref", &counts(&[(5, 7, 0)])).unwrap();
        }
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        let merged = svc.merged_fingerprints_by_dataset().unwrap();
        assert_eq!(merged.len(), 1, "fp-free datasets are omitted: {merged:?}");
        assert_eq!(merged["train"].len(), 20);
        for i in 0..20u32 {
            assert_eq!(
                merged["train"].get(&i),
                Some(&(1000 + u64::from(i))),
                "branch {i}"
            );
        }
        svc.compact().unwrap();
        assert_eq!(svc.merged_fingerprints_by_dataset().unwrap(), merged);
        drop(svc);
        let reopened = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(reopened.merged_fingerprints_by_dataset().unwrap(), merged);
    }

    #[test]
    fn fingerprints_by_dataset_keep_programs_apart() {
        // Two "programs" both number their branches from zero but with
        // different structure: the global fold would let one shadow the
        // other; the per-dataset view keeps them apart.
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(2)).unwrap();
        let fps_a: BTreeMap<BranchId, u64> = [(BranchId(0), 100)].into_iter().collect();
        let fps_b: BTreeMap<BranchId, u64> = [(BranchId(0), 200)].into_iter().collect();
        svc.submit_with_fps("alpha/train", &counts(&[(0, 8, 4)]), &fps_a)
            .unwrap();
        svc.submit_with_fps("beta/train", &counts(&[(0, 6, 6)]), &fps_b)
            .unwrap();
        svc.submit("gamma/train", &counts(&[(0, 1, 0)])).unwrap();
        let by_ds = svc.merged_fingerprints_by_dataset().unwrap();
        assert_eq!(by_ds.len(), 2, "fp-free datasets are omitted: {by_ds:?}");
        assert_eq!(by_ds["alpha/train"].get(&0), Some(&100));
        assert_eq!(by_ds["beta/train"].get(&0), Some(&200));
        svc.compact().unwrap();
        assert_eq!(svc.merged_fingerprints_by_dataset().unwrap(), by_ds);
    }

    /// A single-log database of single-run frames: v1 and v2 run frames,
    /// with and without fingerprints, plus an empty dataset-presence
    /// record. No writer appends single-run frames, so this builder is
    /// the only source of that layout.
    fn single_run_frame_layout(mem: &Arc<dyn Vfs>) -> Vec<ProfileRecord> {
        let record =
            |dataset: &str, entries: &[(u32, u64, u64)], fps: &[(u32, u64)]| ProfileRecord {
                dataset: dataset.into(),
                entries: entries.to_vec(),
                fps: fps.to_vec(),
            };
        let records = vec![
            record("train", &[(0, 10, 4), (3, 5, 5)], &[]),
            record("train", &[(0, 2, 1), (7, 1, 0)], &[(0, 0xA0), (7, 0xA7)]),
            record("ref", &[(3, 9, 0)], &[(3, 0xA3)]),
            record("ref", &[], &[]),
        ];
        let mut bytes = format::encode_header(&format::SegmentHeader {
            generation: 1,
            folds_through: 0,
            base_len: format::HEADER_LEN as u64,
        });
        for r in &records {
            bytes.extend_from_slice(&format::encode_frame(r));
        }
        mem.create_dir_all(Path::new(DIR)).unwrap();
        mem.write(&Path::new(DIR).join("seg-00000001.mfdb"), &bytes)
            .unwrap();
        records
    }

    #[test]
    fn single_run_frame_layout_opens_grows_and_is_served_in_place() {
        let totals: MergedTotals = [
            ("ref".to_string(), vec![(3, 9, 0)]),
            ("train".to_string(), vec![(0, 12, 5), (3, 5, 5), (7, 1, 0)]),
        ]
        .into_iter()
        .collect();
        let fps = fps_by_dataset(&[("ref", &[(3, 0xA3)]), ("train", &[(0, 0xA0), (7, 0xA7)])]);

        // A root-level segment log reads it, then grows and compacts it.
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let records = single_run_frame_layout(&mem);
        let mut log = root_log(&mem);
        assert!(log.is_persistent(), "{:?}", log.warnings());
        let batches: Vec<Vec<ProfileRecord>> = records.iter().map(|r| vec![r.clone()]).collect();
        assert_eq!(log.read_batches().unwrap(), batches, "one batch per frame");
        assert_eq!(read_back(&mut log), (totals.clone(), fps.clone()));
        let landed = log.commit_batch(&[run("train", &[(3, 1, 1)], &[])], &LockCfg::default());
        assert_eq!(landed.unwrap(), Persistence::Committed);
        let folded = log.compact(&LockCfg::default()).unwrap();
        assert_eq!(log.counters().compactions, 1);
        assert_eq!(
            folded.expect("compaction published").concat().len(),
            2,
            "one folded record per dataset"
        );
        let (grown, _) = read_back(&mut log);
        assert_eq!(grown["train"], vec![(0, 12, 5), (3, 6, 6), (7, 1, 0)]);
        drop(log);
        assert_eq!(read_back(&mut root_log(&mem)), (grown, fps.clone()));

        // The service serves it in place.
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        single_run_frame_layout(&mem);
        let mut after = totals.clone();
        after.insert("train".to_string(), vec![(0, 14, 7), (3, 5, 5), (7, 1, 0)]);
        serve_in_place(&mem, &totals, &after, &fps);
    }

    #[test]
    fn split_record_partitions_by_shard_hash() {
        let record = ProfileRecord {
            dataset: "d".into(),
            entries: (0..100u32).map(|i| (i, 1, 0)).collect(),
            ..Default::default()
        };
        let parts = split_record(&record, 8);
        let mut seen = 0usize;
        for (shard, part) in &parts {
            for &(id, _, _) in &part.entries {
                assert_eq!(shard_of(id, 8), *shard);
                seen += 1;
            }
        }
        assert_eq!(seen, 100, "no entry lost or duplicated");
    }
}
