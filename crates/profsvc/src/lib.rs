#![warn(missing_docs)]

//! # mfprofsvc — the sharded multi-writer profile service
//!
//! [`mfprofdb`] made one writer crash-safe; this crate makes *many*
//! writers fast without giving that up. The database is hash-partitioned
//! by branch id into N independent shard logs (`shard-000/ … shard-NNN/`,
//! each a plain `mfprofdb` segment directory driven by the same
//! [`mfprofdb::SegmentLog`] engine as the single-writer store), so
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
//! database root. A directory holding an old single-log database (no
//! manifest, root `seg-*.mfdb` files, as `mfprofdb::ProfileStore`
//! writes) opens read-only and migrates to the sharded layout on its
//! first write; the manifest write is the migration's commit point, so a
//! crash mid-migration leaves the legacy database untouched and the
//! migration simply retries.
//!
//! All I/O goes through [`mffault::Vfs`]; the crash battery extends
//! per-shard and across a crash mid-group-commit.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use mffault::{RetryPolicy, Vfs};
use mfprofdb::format;
use mfprofdb::{
    chunk_records, fold_fps, fold_fps_by_dataset, fold_record, fold_to_records, FpFold,
    FpFoldByDataset, RawFold, SegmentLog,
};
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
    /// Shard count for a fresh database (and the migration target for a
    /// legacy one). An existing manifest always wins.
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
    /// Summed per-shard (or legacy-log) store counters.
    pub store: StoreCounters,
    /// Group commits that reached the disk path (one sync each).
    pub group_commits: u64,
    /// Records carried over by a legacy → sharded migration.
    pub migrated_records: u64,
}

/// One shard's group-commit queue plus its log.
struct ShardCell {
    queue: Mutex<QueueState>,
    cv: Condvar,
    log: Mutex<SegmentLog>,
    dir: PathBuf,
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

struct LegacyInner {
    log: SegmentLog,
    /// Enqueued-but-unflushed submissions (only reachable once a
    /// migration has failed and the service is memory-bound).
    pending: Vec<(u64, ProfileRecord)>,
}

enum Mode {
    /// Old single-log database (or an unusable directory): read-only
    /// until the first write migrates it.
    Legacy(Box<Mutex<LegacyInner>>),
    /// Hash-partitioned shard logs per the manifest.
    Sharded(Vec<Arc<ShardCell>>),
}

/// The sharded multi-writer profile service. See the crate docs.
pub struct ProfileService {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    opts: ServiceOptions,
    mode: RwLock<Mode>,
    next_sid: AtomicU64,
    group_commits: AtomicU64,
    migrated_records: AtomicU64,
    svc_warnings: Mutex<Vec<String>>,
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

impl ProfileService {
    /// Opens (or creates) the service at `dir`. A fresh directory is
    /// initialized with `options.shards` shards; a manifest pins the
    /// count thereafter; a manifest-less directory with root segments
    /// opens as a read-only legacy database that migrates on first
    /// write. Returns `Err` only on an injected crash — every real
    /// failure degrades with a warning, like the base store.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
        options: ServiceOptions,
    ) -> Result<Self, DbError> {
        let dir = dir.into();
        let svc = ProfileService {
            vfs,
            dir,
            opts: options,
            mode: RwLock::new(Mode::Legacy(Box::new(Mutex::new(LegacyInner {
                log: SegmentLog::open(
                    Arc::new(mffault::MemVfs::new()),
                    "/placeholder",
                    RetryPolicy::none(),
                )?,
                pending: Vec::new(),
            })))),
            next_sid: AtomicU64::new(1),
            group_commits: AtomicU64::new(0),
            migrated_records: AtomicU64::new(0),
            svc_warnings: Mutex::new(Vec::new()),
        };

        let manifest_path = svc.dir.join(MANIFEST_FILE);
        let manifest = svc
            .io("read manifest", |vfs| vfs.read(&manifest_path))?
            .ok()
            .map(|bytes| decode_manifest(&bytes));

        let mode = match manifest {
            Some(Some(shards)) => {
                // Sharded database. Root segments can only be leftovers
                // of a migration that crashed after its commit point.
                let cells = svc.open_shards(shards)?;
                let probe =
                    SegmentLog::open(Arc::clone(&svc.vfs), svc.dir.clone(), svc.opts.retry)?;
                if probe.has_segments() {
                    svc.warn(format!(
                        "stale pre-migration segments present in {}; ignored",
                        svc.dir.display()
                    ));
                }
                Mode::Sharded(cells)
            }
            Some(None) => {
                // Manifest exists but does not decode: a torn manifest
                // write. With legacy segments present the migration
                // never committed — stay legacy; otherwise re-initialize.
                svc.warn(format!(
                    "corrupt manifest in {}; ignoring it",
                    svc.dir.display()
                ));
                svc.open_without_manifest()?
            }
            None => svc.open_without_manifest()?,
        };
        *svc.mode.write().expect("mode lock") = mode;
        Ok(svc)
    }

    fn open_without_manifest(&self) -> Result<Mode, DbError> {
        let mut log = SegmentLog::open(Arc::clone(&self.vfs), self.dir.clone(), self.opts.retry)?;
        if log.has_segments() || !log.is_persistent() {
            // Legacy data, or an unusable directory: either way the
            // write path decides later (migrate, or accumulate in
            // memory).
            return Ok(Mode::Legacy(Box::new(Mutex::new(LegacyInner {
                log,
                pending: Vec::new(),
            }))));
        }
        // Fresh database: commit the shard count first, then lay out
        // the shards.
        match self.write_manifest(self.opts.shards.max(1))? {
            Ok(()) => Ok(Mode::Sharded(self.open_shards(self.opts.shards.max(1))?)),
            Err(e) => {
                log.force_degrade(format!(
                    "could not write manifest in {} ({e}); accumulating in memory only",
                    self.dir.display()
                ));
                Ok(Mode::Legacy(Box::new(Mutex::new(LegacyInner {
                    log,
                    pending: Vec::new(),
                }))))
            }
        }
    }

    fn write_manifest(&self, shards: u32) -> Result<io::Result<()>, DbError> {
        let path = self.dir.join(MANIFEST_FILE);
        let bytes = encode_manifest(shards);
        let wrote = self.io("write manifest", |vfs| vfs.write(&path, &bytes))?;
        match wrote {
            Ok(()) => self.io("sync manifest", |vfs| vfs.sync(&path)),
            Err(e) => Ok(Err(e)),
        }
    }

    fn open_shards(&self, shards: u32) -> Result<Vec<Arc<ShardCell>>, DbError> {
        let mut cells = Vec::with_capacity(shards as usize);
        for i in 0..shards {
            let sdir = self.shard_dir(i);
            let log = SegmentLog::open(Arc::clone(&self.vfs), sdir.clone(), self.opts.retry)?;
            cells.push(Arc::new(ShardCell {
                queue: Mutex::new(QueueState::default()),
                cv: Condvar::new(),
                log: Mutex::new(log),
                dir: sdir,
            }));
        }
        Ok(cells)
    }

    fn shard_dir(&self, i: u32) -> PathBuf {
        self.dir.join(format!("shard-{i:03}"))
    }

    fn io<T>(
        &self,
        op: &'static str,
        mut f: impl FnMut(&dyn Vfs) -> io::Result<T>,
    ) -> Result<io::Result<T>, DbError> {
        let (result, _) = mffault::retry(self.opts.retry, || f(self.vfs.as_ref()));
        mfprofdb::crash_check(op, result)
    }

    fn warn(&self, w: String) {
        self.svc_warnings.lock().expect("warnings lock").push(w);
    }

    // -- accessors -------------------------------------------------------

    /// The database root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shard count per the manifest; 0 while still in (read-only)
    /// legacy mode.
    pub fn shard_count(&self) -> u32 {
        match &*self.mode.read().expect("mode lock") {
            Mode::Sharded(cells) => cells.len() as u32,
            Mode::Legacy(_) => 0,
        }
    }

    /// False once any shard (or the legacy log) fell back to in-memory
    /// accumulation.
    pub fn is_persistent(&self) -> bool {
        match &*self.mode.read().expect("mode lock") {
            Mode::Sharded(cells) => cells
                .iter()
                .all(|c| c.log.lock().expect("log lock").is_persistent()),
            Mode::Legacy(inner) => inner.lock().expect("legacy lock").log.is_persistent(),
        }
    }

    /// Everything that went wrong so far: service-level warnings first,
    /// then each shard's, in shard order.
    pub fn warnings(&self) -> Vec<String> {
        let mut out = self.svc_warnings.lock().expect("warnings lock").clone();
        match &*self.mode.read().expect("mode lock") {
            Mode::Sharded(cells) => {
                for c in cells {
                    out.extend(c.log.lock().expect("log lock").warnings().to_vec());
                }
            }
            Mode::Legacy(inner) => {
                out.extend(inner.lock().expect("legacy lock").log.warnings().to_vec());
            }
        }
        out
    }

    /// Aggregated lifetime counters.
    pub fn counters(&self) -> SvcCounters {
        let mut store = StoreCounters::default();
        let mut add = |c: StoreCounters| {
            store.committed_appends += c.committed_appends;
            store.degraded_appends += c.degraded_appends;
            store.salvaged_records += c.salvaged_records;
            store.truncated_bytes += c.truncated_bytes;
            store.io_retries += c.io_retries;
            store.compactions += c.compactions;
        };
        match &*self.mode.read().expect("mode lock") {
            Mode::Sharded(cells) => {
                for c in cells {
                    add(c.log.lock().expect("log lock").counters());
                }
            }
            Mode::Legacy(inner) => add(inner.lock().expect("legacy lock").log.counters()),
        }
        SvcCounters {
            store,
            group_commits: self.group_commits.load(Ordering::Relaxed),
            migrated_records: self.migrated_records.load(Ordering::Relaxed),
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
        let record = record_of(dataset, counts, fps);
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        self.ensure_sharded()?;
        let mode = self.mode.read().expect("mode lock");
        match &*mode {
            Mode::Sharded(cells) => {
                let parts = split_record(&record, cells.len() as u32);
                let mut overall = Persistence::Committed;
                for (shard, part) in parts {
                    let p = self.submit_part(&cells[shard as usize], sid, part)?;
                    overall = worst(overall, p);
                }
                Ok(overall)
            }
            Mode::Legacy(inner) => {
                // Migration failed: memory-bound accumulation.
                let mut li = inner.lock().expect("legacy lock");
                li.log.commit_batch(&[record], &self.opts.lock)
            }
        }
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
        let record = record_of(dataset, counts, fps);
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        self.ensure_sharded()?;
        let mode = self.mode.read().expect("mode lock");
        match &*mode {
            Mode::Sharded(cells) => {
                for (shard, part) in split_record(&record, cells.len() as u32) {
                    let mut q = cells[shard as usize].queue.lock().expect("queue lock");
                    q.pending.push((sid, part));
                }
            }
            Mode::Legacy(inner) => {
                let mut li = inner.lock().expect("legacy lock");
                li.pending.push((sid, record));
            }
        }
        Ok(sid)
    }

    /// Commits every queued submission, one group commit per shard (in
    /// shard order — deterministic under fault injection). Returns each
    /// flushed submission's worst persistence across its shard parts.
    pub fn flush(&self) -> Result<BTreeMap<u64, Persistence>, DbError> {
        self.ensure_sharded()?;
        let mode = self.mode.read().expect("mode lock");
        let mut acks: BTreeMap<u64, Persistence> = BTreeMap::new();
        match &*mode {
            Mode::Sharded(cells) => {
                for cell in cells {
                    let batch = {
                        let mut q = cell.queue.lock().expect("queue lock");
                        std::mem::take(&mut q.pending)
                    };
                    if batch.is_empty() {
                        continue;
                    }
                    let records: Vec<ProfileRecord> =
                        batch.iter().map(|(_, r)| r.clone()).collect();
                    let p = cell
                        .log
                        .lock()
                        .expect("log lock")
                        .commit_batch(&records, &self.opts.lock)?;
                    self.group_commits.fetch_add(1, Ordering::Relaxed);
                    for (sid, _) in batch {
                        let slot = acks.entry(sid).or_insert(Persistence::Committed);
                        *slot = worst(*slot, p);
                    }
                }
            }
            Mode::Legacy(inner) => {
                let mut li = inner.lock().expect("legacy lock");
                let batch = std::mem::take(&mut li.pending);
                if !batch.is_empty() {
                    let records: Vec<ProfileRecord> =
                        batch.iter().map(|(_, r)| r.clone()).collect();
                    let p = li.log.commit_batch(&records, &self.opts.lock)?;
                    for (sid, _) in batch {
                        acks.insert(sid, p);
                    }
                }
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
                let result = cell.log.lock().expect("log lock").commit_batch_keep(
                    &records,
                    &self.opts.lock,
                    true,
                );
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
    /// superseding segment). A no-op in legacy mode.
    pub fn compact(&self) -> Result<(), DbError> {
        let mode = self.mode.read().expect("mode lock");
        if let Mode::Sharded(cells) = &*mode {
            for cell in cells {
                cell.log
                    .lock()
                    .expect("log lock")
                    .compact(&self.opts.lock)?;
            }
        }
        Ok(())
    }

    // -- migration -------------------------------------------------------

    /// Upgrade to sharded mode if this is still an (intact) legacy
    /// database. Failed migrations leave the service in memory-bound
    /// legacy mode; a crash leaves the legacy database untouched.
    fn ensure_sharded(&self) -> Result<(), DbError> {
        {
            let mode = self.mode.read().expect("mode lock");
            match &*mode {
                Mode::Sharded(_) => return Ok(()),
                Mode::Legacy(inner) => {
                    if !inner.lock().expect("legacy lock").log.is_persistent() {
                        return Ok(()); // already broken: stay memory-bound
                    }
                }
            }
        }
        let mut mode = self.mode.write().expect("mode lock");
        let Mode::Legacy(inner) = &*mode else {
            return Ok(()); // raced: someone else migrated
        };
        let li = inner.lock().expect("legacy lock");
        if !li.log.is_persistent() {
            return Ok(());
        }
        drop(li);
        match self.migrate(mode.deref_legacy())? {
            Ok(cells) => {
                *mode = Mode::Sharded(cells);
                Ok(())
            }
            Err(reason) => {
                let Mode::Legacy(inner) = &*mode else {
                    unreachable!("mode still legacy under write lock");
                };
                inner
                    .lock()
                    .expect("legacy lock")
                    .log
                    .force_degrade(format!(
                        "legacy migration of {} failed ({reason}); \
                         accumulating in memory only",
                        self.dir.display()
                    ));
                Ok(())
            }
        }
    }

    /// The migration proper: wipe shard dirs, replay the legacy fold
    /// into the shards, commit the manifest, drop the legacy segments.
    /// `Ok(Err(reason))` on a real failure (caller degrades), `Err` on
    /// an injected crash.
    fn migrate(
        &self,
        legacy: &Mutex<LegacyInner>,
    ) -> Result<Result<Vec<Arc<ShardCell>>, String>, DbError> {
        let shards = self.opts.shards.max(1);
        let mut li = legacy.lock().expect("legacy lock");
        let mut fold = RawFold::new();
        let mut fps = FpFoldByDataset::new();
        li.log.visit_batches(|batch| {
            for r in batch {
                fold_record(&mut fold, &r);
                fold_fps_by_dataset(&mut fps, &r);
            }
        })?;
        let legacy_records = fold_to_records(&fold, &fps);
        drop(li);

        // A previous migration may have crashed after partially filling
        // shard dirs (but before the manifest commit): wipe them so the
        // replay cannot double-count.
        for i in 0..shards {
            let sdir = self.shard_dir(i);
            if !self.vfs.exists(&sdir) {
                continue;
            }
            let entries = match self.io("scan shard dir", |vfs| vfs.read_dir(&sdir))? {
                Ok(e) => e,
                Err(e) => return Ok(Err(format!("cannot scan {}: {e}", sdir.display()))),
            };
            for path in entries {
                if self
                    .io("wipe shard file", |vfs| vfs.remove_file(&path))?
                    .is_err()
                {
                    return Ok(Err(format!("cannot wipe {}", path.display())));
                }
            }
        }

        let cells = self.open_shards(shards)?;
        let mut migrated = 0u64;
        // Split the fold per shard and replay it as normal batch
        // commits; every record must land durably before the manifest
        // makes the migration visible.
        for (i, cell) in cells.iter().enumerate() {
            let mut per_shard: Vec<ProfileRecord> = Vec::new();
            for r in &legacy_records {
                let entries: Vec<(u32, u64, u64)> = r
                    .entries
                    .iter()
                    .copied()
                    .filter(|&(id, _, _)| shard_of(id, shards) == i as u32)
                    .collect();
                let fps: Vec<(u32, u64)> = r
                    .fps
                    .iter()
                    .copied()
                    .filter(|&(id, _)| shard_of(id, shards) == i as u32)
                    .collect();
                let goes_here = if r.entries.is_empty() {
                    i == 0 // dataset presence with no counters → shard 0
                } else {
                    !entries.is_empty() || !fps.is_empty()
                };
                if goes_here {
                    per_shard.push(ProfileRecord {
                        dataset: r.dataset.clone(),
                        entries,
                        fps,
                    });
                }
            }
            if per_shard.is_empty() {
                continue;
            }
            migrated += per_shard.len() as u64;
            for chunk in chunk_records(&per_shard) {
                let mut log = cell.log.lock().expect("log lock");
                match log.commit_batch(&chunk, &self.opts.lock)? {
                    Persistence::Committed => {}
                    Persistence::Degraded => {
                        return Ok(Err(format!(
                            "shard {} would not accept the replay",
                            cell.dir.display()
                        )));
                    }
                }
            }
        }

        // The commit point: once the manifest is durable the service is
        // sharded; a crash any earlier leaves a manifest-less legacy
        // database and the migration retries.
        if let Err(e) = self.write_manifest(shards)? {
            return Ok(Err(format!("manifest write failed: {e}")));
        }

        // Best-effort cleanup of the superseded legacy segments.
        let root = SegmentLog::open(Arc::clone(&self.vfs), self.dir.clone(), self.opts.retry)?;
        for path in root.segment_files() {
            let _ = self.io("remove legacy segment", |vfs| vfs.remove_file(&path))?;
        }
        self.migrated_records.fetch_add(migrated, Ordering::Relaxed);
        self.warn(format!(
            "migrated legacy database {} to {shards} shards ({migrated} folded records)",
            self.dir.display()
        ));
        Ok(Ok(cells))
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

    /// Structural site fingerprints merged across every shard (last
    /// record in log order wins per branch id). Empty for a database
    /// written entirely by fingerprint-free writers.
    pub fn merged_fingerprints(&self) -> Result<BTreeMap<u32, u64>, DbError> {
        let mut fps = FpFold::new();
        self.visit_all(|r| fold_fps(&mut fps, r))?;
        Ok(fps)
    }

    /// Like [`ProfileService::merged_fingerprints`] but keyed per dataset
    /// label. Stores that accumulate several distinct *programs* (the
    /// benchmark harness records `"workload/dataset"` labels, and every
    /// program numbers its branches from zero) must read fingerprints
    /// through this and union per program — the global fold would let one
    /// program's sites shadow another's.
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
        let mode = self.mode.read().expect("mode lock");
        match &*mode {
            Mode::Sharded(cells) => {
                for cell in cells {
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
            }
            Mode::Legacy(inner) => {
                let mut li = inner.lock().expect("legacy lock");
                li.log.visit_batches(|batch| {
                    for r in &batch {
                        visit(r);
                    }
                })?;
                for r in li.log.memory_records() {
                    visit(r);
                }
            }
        }
        Ok(())
    }

    /// Total committed batches on disk across every shard (or the legacy
    /// log). Compaction policy input: a compacted database is one batch
    /// per shard, so growth beyond the shard count measures accumulated,
    /// foldable history.
    pub fn total_batches(&self) -> Result<u64, DbError> {
        let mode = self.mode.read().expect("mode lock");
        let mut n = 0u64;
        match &*mode {
            Mode::Sharded(cells) => {
                for cell in cells {
                    cell.log
                        .lock()
                        .expect("log lock")
                        .visit_batches(|_| n += 1)?;
                }
            }
            Mode::Legacy(inner) => {
                inner
                    .lock()
                    .expect("legacy lock")
                    .log
                    .visit_batches(|_| n += 1)?;
            }
        }
        Ok(n)
    }

    /// The committed batches currently on disk in shard `i`, in log
    /// order — the granularity at which recovery may cut. Test/battery
    /// API.
    pub fn shard_batches(&self, i: u32) -> Result<Vec<Vec<ProfileRecord>>, DbError> {
        let mode = self.mode.read().expect("mode lock");
        match &*mode {
            Mode::Sharded(cells) => match cells.get(i as usize) {
                Some(cell) => cell.log.lock().expect("log lock").read_batches(),
                None => Ok(Vec::new()),
            },
            Mode::Legacy(_) => Ok(Vec::new()),
        }
    }
}

impl Mode {
    fn deref_legacy(&self) -> &Mutex<LegacyInner> {
        match self {
            Mode::Legacy(inner) => inner,
            Mode::Sharded(_) => unreachable!("caller checked legacy"),
        }
    }
}

fn record_of(dataset: &str, counts: &BranchCounts, fps: &BTreeMap<BranchId, u64>) -> ProfileRecord {
    ProfileRecord {
        dataset: dataset.to_string(),
        entries: counts.iter().map(|(id, e, t)| (id.0, e, t)).collect(),
        fps: fps.iter().map(|(&id, &fp)| (id.0, fp)).collect(),
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

    #[test]
    fn legacy_database_migrates_on_first_write() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        // Build an old single-log database with the base store.
        {
            let mut store = mfprofdb::ProfileStore::open(
                Arc::clone(&mem),
                DIR,
                mfprofdb::OpenOptions {
                    retry: RetryPolicy::none(),
                    ..mfprofdb::OpenOptions::default()
                },
            )
            .unwrap();
            store
                .append("train", &counts(&[(0, 10, 4), (9, 3, 3)]))
                .unwrap();
            store.append("ref", &counts(&[(2, 5, 0)])).unwrap();
        }
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.shard_count(), 0, "legacy opens read-only");
        let before = svc.merged_totals().unwrap();
        assert_eq!(before["train"], vec![(0, 10, 4), (9, 3, 3)]);

        // First write migrates, preserves the fold, and adds the new data.
        assert_eq!(
            svc.submit("train", &counts(&[(0, 1, 1)])).unwrap(),
            Persistence::Committed
        );
        assert_eq!(svc.shard_count(), 4);
        assert!(svc.counters().migrated_records > 0);
        let after = svc.merged_totals().unwrap();
        assert_eq!(after["train"], vec![(0, 11, 5), (9, 3, 3)]);
        assert_eq!(after["ref"], vec![(2, 5, 0)]);
        assert!(
            !mem.exists(Path::new("/svc/seg-00000001.mfdb")),
            "legacy segment cleaned up"
        );

        // Reopen sees the sharded database.
        drop(svc);
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.shard_count(), 4);
        assert_eq!(svc.merged_totals().unwrap(), after);
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
        let merged = svc.merged_fingerprints().unwrap();
        assert_eq!(merged.len(), 20);
        for i in 0..20u32 {
            assert_eq!(merged.get(&i), Some(&(1000 + u64::from(i))), "branch {i}");
        }
        svc.compact().unwrap();
        assert_eq!(svc.merged_fingerprints().unwrap(), merged);
        drop(svc);
        let reopened = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(reopened.merged_fingerprints().unwrap(), merged);
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

    #[test]
    fn fingerprints_survive_legacy_migration() {
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let fps: BTreeMap<BranchId, u64> =
            [(BranchId(1), 11), (BranchId(2), 22)].into_iter().collect();
        {
            // Write a fingerprinted single-log (legacy layout) database.
            let mut store = mfprofdb::ProfileStore::open(
                Arc::clone(&mem),
                DIR,
                mfprofdb::OpenOptions {
                    retry: RetryPolicy::none(),
                    ..mfprofdb::OpenOptions::default()
                },
            )
            .unwrap();
            store
                .append_with_fps("train", &counts(&[(1, 4, 2), (2, 9, 9)]), &fps)
                .unwrap();
        }
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        svc.submit("train", &counts(&[(1, 1, 1)])).unwrap(); // triggers migration
        assert_eq!(svc.shard_count(), 4);
        let merged = svc.merged_fingerprints().unwrap();
        assert_eq!(merged.get(&1), Some(&11));
        assert_eq!(merged.get(&2), Some(&22));
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
    fn single_run_frame_layout_opens_grows_and_migrates() {
        let totals: MergedTotals = [
            ("ref".to_string(), vec![(3, 9, 0)]),
            ("train".to_string(), vec![(0, 12, 5), (3, 5, 5), (7, 1, 0)]),
        ]
        .into_iter()
        .collect();
        let fps: BTreeMap<u32, u64> = [(0, 0xA0), (3, 0xA3), (7, 0xA7)].into_iter().collect();
        let store_opts = mfprofdb::OpenOptions {
            retry: RetryPolicy::none(),
            ..mfprofdb::OpenOptions::default()
        };

        // The store reads it, then grows and compacts it.
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let records = single_run_frame_layout(&mem);
        let mut store = mfprofdb::ProfileStore::open(Arc::clone(&mem), DIR, store_opts).unwrap();
        assert!(store.is_persistent(), "{:?}", store.warnings());
        assert_eq!(store.records(), &records[..]);
        assert_eq!(store.raw_totals(), totals);
        assert_eq!(store.fingerprints(), &fps);
        assert_eq!(
            store.append("train", &counts(&[(3, 1, 1)])).unwrap(),
            Persistence::Committed
        );
        store.compact().unwrap();
        assert_eq!(store.counters().compactions, 1);
        assert_eq!(store.records().len(), 2, "one folded record per dataset");
        let grown = store.raw_totals();
        assert_eq!(grown["train"], vec![(0, 12, 5), (3, 6, 6), (7, 1, 0)]);
        drop(store);
        let reopened = mfprofdb::ProfileStore::open(Arc::clone(&mem), DIR, store_opts).unwrap();
        assert_eq!(reopened.raw_totals(), grown);
        assert_eq!(reopened.fingerprints(), &fps);

        // The service reads it as a legacy database and migrates it on
        // its first flush without changing a count.
        let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        single_run_frame_layout(&mem);
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.shard_count(), 0, "legacy opens read-only");
        assert_eq!(svc.merged_totals().unwrap(), totals);
        assert!(svc.flush().unwrap().is_empty());
        assert_eq!(svc.shard_count(), 4, "migrated");
        assert_eq!(svc.merged_totals().unwrap(), totals);
        assert_eq!(svc.merged_fingerprints().unwrap(), fps);
        drop(svc);
        let svc = ProfileService::open(Arc::clone(&mem), DIR, opts(4)).unwrap();
        assert_eq!(svc.merged_totals().unwrap(), totals);
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
