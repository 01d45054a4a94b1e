//! The segment-log engine: the one implementation of the write protocol.
//!
//! A log directory holds segment files (`seg-<generation>.mfdb`) in the
//! [`format`] codec. Every commit appends a batch as one-or-more batch
//! frames and pays ONE sync; the sync acknowledgment is the commit point,
//! and a failed append or sync is cut back to the last acknowledged byte.
//! Compaction folds the active segment into one record per dataset in a
//! new segment whose header supersedes (`folds_through`) every older
//! generation — written to a temp name, synced, then renamed.
//!
//! Writers serialize on a pid-stamped `LOCK` file (bounded deterministic
//! backoff; a dead or torn holder's lock is stolen). A log takes it per
//! commit, or keeps it across a burst of commits and drops it once idle
//! ([`SegmentLog::commit_batch_keep`]), so two live writers interleave.
//!
//! Opening a log is a read-only scan: recovery repair (torn-tail
//! truncation, removal of superseded and torn segments, creating the
//! first segment) is deferred until the lock is held, so a pure reader
//! never mutates the directory a concurrent writer is streaming into.
//! Every failure that is not an injected crash degrades the log to
//! in-memory acknowledgment with a surfaced warning.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mffault::{RetryPolicy, Vfs};

use crate::format;
use crate::{crash_check, DbError, Persistence, ProfileRecord, StoreCounters};

/// Name of the writer lock file.
const LOCK_FILE: &str = "LOCK";

/// Target encoded size of one batch frame; commits larger than this are
/// split across several frames (still one sync). Well under the codec's
/// `MAX_PAYLOAD` so a frame is never rejected for size.
pub(crate) const MAX_FRAME_BYTES: usize = 4 << 20;

/// How a writer takes the `LOCK` file.
#[derive(Clone, Copy, Debug)]
pub struct LockCfg {
    /// Retries after the first attempt.
    pub attempts: u32,
    /// Deterministic backoff: the sleep before retry `i` is
    /// `base * (i + 1)`.
    pub base: Duration,
    /// Remove any existing lock before acquiring — for crash-recovery
    /// paths where the previous holder is known dead. Never set with
    /// live peers.
    pub steal: bool,
}

impl Default for LockCfg {
    fn default() -> Self {
        LockCfg {
            attempts: 40,
            base: Duration::from_micros(250),
            steal: false,
        }
    }
}

/// How a lock acquisition ended.
enum LockOutcome {
    /// We hold the lock.
    Acquired,
    /// A live peer holds it; retry next commit (non-sticky).
    Contended(String),
    /// The lock path itself failed with a real I/O error (sticky).
    Broken(String),
}

#[derive(Debug)]
struct Persist {
    segment: PathBuf,
    generation: u64,
    /// Acknowledged byte length of the active segment as of our last
    /// look; re-validated (cheaply, via `Vfs::len`) under the lock
    /// before every commit, because another process may have appended.
    committed_len: u64,
}

/// One segment log's writer/reader. See the module docs for the protocol.
#[derive(Debug)]
pub struct SegmentLog {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    retry: RetryPolicy,
    persist: Option<Persist>,
    /// True while this writer holds the on-disk LOCK file. The hot
    /// path keeps the lock across back-to-back group commits and drops
    /// it the moment the log goes idle, so a burst pays the
    /// create/remove churn once instead of per commit.
    holding: bool,
    /// True when `committed_len` is known to match the file. Only
    /// trustworthy while `holding` — nobody else may append under our
    /// lock — and cleared on every release.
    tail_valid: bool,
    /// Sticky degrade reason; once set, commits stop reaching disk.
    dead: Option<String>,
    /// Records acknowledged `Degraded` — kept so reads still see them.
    memory: Vec<ProfileRecord>,
    /// The active segment and its last acknowledged length, set when the
    /// log degraded with a failed batch left on disk (its sync failed and
    /// so did the truncate that should have cut it back). That batch
    /// lives in `memory`, so reads stop at the acknowledged length
    /// instead of counting it a second time from disk.
    unrepaired: Option<(PathBuf, u64)>,
    warnings: Vec<String>,
    counters: StoreCounters,
}

impl Drop for SegmentLog {
    /// Best-effort release of a lock still held at teardown: plain
    /// unlink, no retries, errors ignored — a leftover lock file is
    /// stolen by the next writer's liveness check anyway.
    fn drop(&mut self) {
        if self.holding {
            let _ = self.vfs.remove_file(&self.dir.join(LOCK_FILE));
        }
    }
}

/// Best-effort liveness check for a lock holder. Where `/proc` is absent
/// the holder is assumed alive (conservative: degrade rather than steal).
fn pid_alive(pid: u32) -> bool {
    if !Path::new("/proc").exists() {
        return true;
    }
    Path::new(&format!("/proc/{pid}")).exists()
}

/// A `(header, path, bytes)` segment read by the scan.
type Segment = (format::SegmentHeader, PathBuf, Vec<u8>);

impl SegmentLog {
    /// Opens the log at `dir` with a read-only scan, counting the records
    /// it recovers as `salvaged_records` (later rescans, by a commit that
    /// finds another writer's appends, do not count them again). Returns
    /// `Err` only on an injected crash; a directory that cannot be created
    /// yields a degraded log with a warning.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
        retry: RetryPolicy,
    ) -> Result<Self, DbError> {
        let mut log = SegmentLog {
            vfs,
            dir: dir.into(),
            retry,
            persist: None,
            holding: false,
            tail_valid: false,
            dead: None,
            memory: Vec::new(),
            unrepaired: None,
            warnings: Vec::new(),
            counters: StoreCounters::default(),
        };
        match log.io("create db directory", |vfs, dir| vfs.create_dir_all(dir))? {
            Ok(()) => {
                let mut salvaged = 0u64;
                log.rescan(false, |batch| salvaged += batch.len() as u64)?;
                log.counters.salvaged_records = salvaged;
            }
            Err(e) => log.degrade(format!(
                "profile db directory {} unavailable ({e}); accumulating in memory only",
                log.dir.display()
            )),
        }
        Ok(log)
    }

    // -- accessors -------------------------------------------------------

    /// False once this log fell back to in-memory accumulation.
    pub fn is_persistent(&self) -> bool {
        self.dead.is_none()
    }

    /// Everything that went wrong so far, in order.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Lifetime counters.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The segment commits append to, when known.
    pub fn active_segment(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.segment.as_path())
    }

    /// Records acknowledged `Degraded` (memory only), in commit order.
    pub fn memory_records(&self) -> &[ProfileRecord] {
        &self.memory
    }

    /// True when the open-time scan found at least one intact segment.
    pub fn has_segments(&self) -> bool {
        self.persist.is_some()
    }

    /// Pushes this log into sticky in-memory degradation (the service
    /// uses this when a fresh database's manifest cannot be written).
    pub fn force_degrade(&mut self, reason: String) {
        self.degrade(reason);
    }

    // -- the read path ---------------------------------------------------

    /// The committed batches currently on disk, one `Vec` per frame, in
    /// log order — the exact granularity at which a torn tail can cut.
    /// Reads a point-in-time copy of each segment and never mutates the
    /// directory, so it is safe alongside a live writer: a torn tail is
    /// salvaged away in memory, yielding always an exact committed
    /// prefix and never a partial batch. A log that degraded without
    /// cutting a failed batch back off its active segment reads that
    /// segment only up to its last acknowledged byte: the batch is in
    /// [`SegmentLog::memory_records`].
    pub fn read_batches(&mut self) -> Result<Vec<Vec<ProfileRecord>>, DbError> {
        let mut batches = Vec::new();
        self.visit_batches(|b| batches.push(b))?;
        Ok(batches)
    }

    /// Visitor form of [`SegmentLog::read_batches`] — folds a
    /// multi-gigabyte log without materializing every record at once.
    pub fn visit_batches(
        &mut self,
        mut visit: impl FnMut(Vec<ProfileRecord>),
    ) -> Result<(), DbError> {
        for (_, path, bytes) in self.scan_segments()?.0 {
            let end = match &self.unrepaired {
                Some((segment, acked)) if *segment == path => bytes
                    .len()
                    .min(usize::try_from(*acked).unwrap_or(usize::MAX)),
                _ => bytes.len(),
            };
            format::walk_batches(&bytes[format::HEADER_LEN..end], &mut visit);
        }
        Ok(())
    }

    // -- the write path --------------------------------------------------

    /// Commits `records` as one atomic batch: acquire the lock,
    /// validate (and if necessary repair) the tail, append the batch as
    /// one-or-more batch frames, sync ONCE, release the lock. The sync
    /// acknowledgment is the commit point for the whole batch. Returns
    /// where the batch landed; `Err` only on an injected crash.
    pub fn commit_batch(
        &mut self,
        records: &[ProfileRecord],
        lock: &LockCfg,
    ) -> Result<Persistence, DbError> {
        self.commit_batch_keep(records, lock, false)
    }

    /// [`SegmentLog::commit_batch`], but with `keep` the lock stays held
    /// after the commit: the next commit from this writer skips the
    /// lock-file churn and the tail re-validation (nobody else may
    /// append under our lock). The service's hot submit path uses this
    /// during bursts and calls [`SegmentLog::release_if_held`] once the
    /// shard goes idle, so a waiting peer is never starved for longer
    /// than one burst.
    pub fn commit_batch_keep(
        &mut self,
        records: &[ProfileRecord],
        lock: &LockCfg,
        keep: bool,
    ) -> Result<Persistence, DbError> {
        if records.is_empty() {
            return Ok(Persistence::Committed);
        }
        if self.dead.is_some() {
            return self.ack_degraded(records);
        }
        if !self.holding {
            match self.acquire_lock(lock)? {
                LockOutcome::Acquired => {
                    self.holding = true;
                    self.tail_valid = false;
                }
                LockOutcome::Contended(reason) => {
                    // Contention by a live peer is not a log failure:
                    // this batch stays in memory, the next one retries
                    // the lock.
                    self.warnings.push(format!(
                        "{} lock contended ({reason}); batch kept in memory",
                        self.dir.display()
                    ));
                    return self.ack_degraded(records);
                }
                LockOutcome::Broken(reason) => {
                    // A real I/O failure on the lock path: sticky, like
                    // any other I/O failure, so what reaches disk stays
                    // an exact prefix of what was acknowledged durable.
                    self.degrade(format!(
                        "{} lock unusable ({reason}); \
                         accumulating in memory from here on",
                        self.dir.display()
                    ));
                    return self.ack_degraded(records);
                }
            }
        }
        let result = self.commit_locked(records);
        if !keep {
            self.release_if_held()?;
        }
        result
    }

    /// Releases the lock if this writer still holds it (the end of a
    /// hot burst). A failed release is sticky degradation, exactly as on
    /// the per-commit path. `Err` only on an injected crash.
    pub fn release_if_held(&mut self) -> Result<(), DbError> {
        if !self.holding {
            return Ok(());
        }
        self.holding = false;
        self.tail_valid = false;
        let released = self.release_lock()?;
        if let Err(e) = released {
            self.degrade(format!(
                "could not release lock in {} ({e}); degrading",
                self.dir.display()
            ));
        }
        Ok(())
    }

    fn ack_degraded(&mut self, records: &[ProfileRecord]) -> Result<Persistence, DbError> {
        self.counters.degraded_appends += records.len() as u64;
        self.memory.extend(records.iter().cloned());
        Ok(Persistence::Degraded)
    }

    fn commit_locked(&mut self, records: &[ProfileRecord]) -> Result<Persistence, DbError> {
        self.ensure_tail()?;
        let Some(persist) = &self.persist else {
            return self.ack_degraded(records);
        };
        let segment = persist.segment.clone();
        let committed_len = persist.committed_len;

        // Pack the batch greedily into frames of ~MAX_FRAME_BYTES; one
        // submission's records never split across a frame boundary, so
        // salvage granularity stays at whole-chunk level.
        let mut payload = Vec::new();
        let mut chunk: Vec<ProfileRecord> = Vec::new();
        let mut chunk_bytes = 0usize;
        for r in records {
            let len = format::record_body_len(r);
            if !chunk.is_empty() && chunk_bytes + len > MAX_FRAME_BYTES {
                payload.extend_from_slice(&format::encode_batch_frame(&chunk));
                chunk.clear();
                chunk_bytes = 0;
            }
            chunk.push(r.clone());
            chunk_bytes += len;
        }
        if !chunk.is_empty() {
            payload.extend_from_slice(&format::encode_batch_frame(&chunk));
        }

        let appended = self.io("append batch", |vfs, _| vfs.append(&segment, &payload))?;

        // Seeded defect: acknowledge the batch as durable immediately
        // after the append, before the sync confirms it — the classic
        // group-commit bug the service's oracle exists to convict.
        #[cfg(feature = "seeded-defects")]
        let ack_early = mfdefect::active("profsvc-batch-ack-early") && appended.is_ok();
        #[cfg(not(feature = "seeded-defects"))]
        let ack_early = false;

        let synced = match appended {
            Ok(()) => self.io("sync batch", |vfs, _| vfs.sync(&segment))?,
            Err(e) => Err(e),
        };
        match synced {
            Ok(()) => {
                let persist = self.persist.as_mut().expect("still persistent");
                persist.committed_len += payload.len() as u64;
                self.counters.committed_appends += records.len() as u64;
                Ok(Persistence::Committed)
            }
            Err(e) => {
                // Repair: cut back to the last acknowledged byte so the
                // partial batch cannot linger ahead of future commits.
                let repaired = self.io("truncate torn batch", |vfs, _| {
                    vfs.truncate(&segment, committed_len)
                })?;
                if ack_early {
                    // (defect) the caller was already told "committed";
                    // the truncation above just destroyed that data.
                    self.counters.committed_appends += records.len() as u64;
                    return Ok(Persistence::Committed);
                }
                let detail = match repaired {
                    Ok(()) => String::new(),
                    Err(re) => {
                        self.unrepaired = Some((segment.clone(), committed_len));
                        format!(" (tail repair also failed: {re})")
                    }
                };
                self.degrade(format!(
                    "batch append to {} failed ({e}){detail}; \
                     accumulating in memory from here on",
                    segment.display()
                ));
                self.ack_degraded(records)
            }
        }
    }

    /// Folds the active segment into one record per dataset in a fresh
    /// superseding segment (tmp → sync → rename), under the lock — the
    /// held one, or one taken for the compaction. Returns the batches
    /// the new segment holds when it was published, `None` when the
    /// compaction was skipped or failed (the log keeps running on the
    /// current segment). `Err` only on an injected crash.
    pub fn compact(&mut self, lock: &LockCfg) -> Result<Option<Vec<Vec<ProfileRecord>>>, DbError> {
        if self.dead.is_some() {
            return Ok(None);
        }
        if self.holding {
            // Mid-burst compaction stays under the already-held lock.
            return self.compact_locked();
        }
        match self.acquire_lock(lock)? {
            LockOutcome::Acquired => {
                self.holding = true;
                self.tail_valid = false;
            }
            LockOutcome::Contended(reason) | LockOutcome::Broken(reason) => {
                // Compaction is optional work: never degrade for it.
                self.warnings.push(format!(
                    "{} lock unavailable ({reason}); compaction skipped",
                    self.dir.display()
                ));
                return Ok(None);
            }
        }
        let result = self.compact_locked();
        // Compaction is optional: a failed lock release is surfaced by
        // the next commit's acquire, not a degrade here.
        self.holding = false;
        self.tail_valid = false;
        let _ = self.release_lock()?;
        result
    }

    fn compact_locked(&mut self) -> Result<Option<Vec<Vec<ProfileRecord>>>, DbError> {
        self.ensure_tail()?;
        let Some(persist) = &self.persist else {
            return Ok(None);
        };
        let generation = persist.generation;
        let segment = persist.segment.clone();
        let new_gen = generation + 1;
        let final_path = segment_path(&self.dir, new_gen);
        let tmp = self.dir.join(format!("compact-{new_gen}.tmp"));

        let mut fold = crate::RawFold::new();
        let mut fps = crate::FpFoldByDataset::new();
        let bytes = match self.io("read segment", |vfs, _| vfs.read(&segment))? {
            Ok(b) => b,
            Err(e) => {
                self.warnings
                    .push(format!("compaction read failed ({e}); skipped"));
                return Ok(None);
            }
        };
        format::walk_batches(&bytes[format::HEADER_LEN..], |batch| {
            for r in batch {
                crate::fold_record(&mut fold, &r);
                crate::fold_fps_by_dataset(&mut fps, &r);
            }
        });
        let chunks = crate::chunk_records(&crate::fold_to_records(&fold, &fps));

        let mut buf = Vec::new();
        for chunk in &chunks {
            buf.extend_from_slice(&format::encode_batch_frame(chunk));
        }
        let header = format::encode_header(&format::SegmentHeader {
            generation: new_gen,
            folds_through: generation,
            base_len: (format::HEADER_LEN + buf.len()) as u64,
        });
        let mut segment_bytes = header;
        segment_bytes.extend_from_slice(&buf);
        let total_len = segment_bytes.len() as u64;

        let staged = self.io("write compaction", |vfs, _| vfs.write(&tmp, &segment_bytes))?;
        let staged = match staged {
            Ok(()) => self.io("sync compaction", |vfs, _| vfs.sync(&tmp))?,
            Err(e) => Err(e),
        };
        let renamed = match staged {
            Ok(()) => self.io("publish compaction", |vfs, _| vfs.rename(&tmp, &final_path))?,
            Err(e) => Err(e),
        };
        match renamed {
            Ok(()) => {
                // Best-effort: a survivor is superseded by
                // `folds_through` and removed at the next repair.
                let _ = self.io("remove superseded segment", |vfs, _| {
                    vfs.remove_file(&segment)
                })?;
                self.persist = Some(Persist {
                    segment: final_path,
                    generation: new_gen,
                    committed_len: total_len,
                });
                self.counters.compactions += 1;
                Ok(Some(chunks))
            }
            Err(e) => {
                // A torn publish may have left a partial destination; it
                // is self-invalidating (file shorter than its header's
                // base_len), but clean it up eagerly when we can. If a
                // complete copy landed despite the error, it *will* be
                // honored at the next open — so it must go, or future
                // appends (to the old segment) would be superseded
                // behind our back.
                let _ = self.io("remove staged compaction", |vfs, _| vfs.remove_file(&tmp))?;
                if self.vfs.exists(&final_path) {
                    let removed = self.io("remove torn compaction", |vfs, _| {
                        vfs.remove_file(&final_path)
                    })?;
                    if removed.is_err() {
                        self.degrade(format!(
                            "compaction to {} tore and could not be cleaned up; \
                             accumulating in memory from here on",
                            final_path.display()
                        ));
                        return Ok(None);
                    }
                }
                self.warnings.push(format!(
                    "compaction failed ({e}); continuing on the current segment"
                ));
                Ok(None)
            }
        }
    }

    // -- internals -------------------------------------------------------

    fn io<T>(
        &mut self,
        op: &'static str,
        f: impl FnMut(&dyn Vfs, &Path) -> io::Result<T>,
    ) -> Result<io::Result<T>, DbError> {
        let mut f = f;
        let vfs = Arc::clone(&self.vfs);
        let (result, used) = mffault::retry(self.retry, || f(vfs.as_ref(), &self.dir));
        self.counters.io_retries += u64::from(used);
        crash_check(op, result)
    }

    fn degrade(&mut self, warning: String) {
        self.persist = None;
        self.dead = Some(warning.clone());
        self.warnings.push(warning);
    }

    /// Acquires the lock. `Err` only on an injected crash.
    fn acquire_lock(&mut self, lock: &LockCfg) -> Result<LockOutcome, DbError> {
        let lock_path = self.dir.join(LOCK_FILE);
        let content = std::process::id().to_string().into_bytes();
        if lock.steal {
            let _ = self.io("steal lock", |vfs, _| vfs.remove_file(&lock_path))?;
        }
        for attempt in 0..=lock.attempts {
            let created = self.io("acquire lock", |vfs, _| {
                vfs.create_new(&lock_path, &content)
            })?;
            match created {
                Ok(()) => return Ok(LockOutcome::Acquired),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if attempt < lock.attempts && !lock.base.is_zero() {
                        std::thread::sleep(lock.base.saturating_mul(attempt + 1));
                    }
                }
                Err(e) => {
                    return Ok(LockOutcome::Broken(format!("lock create failed: {e}")));
                }
            }
        }
        // Backoff budget exhausted: a live holder wins this round; a
        // dead (or torn, unparseable) one forfeits its lock.
        let holder = self
            .io("read lock", |vfs, _| vfs.read(&lock_path))?
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|s| s.trim().parse::<u32>().ok());
        let stale = match holder {
            Some(pid) => pid != std::process::id() && !pid_alive(pid),
            None => true,
        };
        if !stale {
            return Ok(LockOutcome::Contended(format!(
                "locked by a live writer (pid {holder:?})"
            )));
        }
        self.warnings.push(format!(
            "lock {} was held by a dead writer; stealing it",
            lock_path.display()
        ));
        let _ = self.io("steal stale lock", |vfs, _| vfs.remove_file(&lock_path))?;
        let created = self.io("acquire stolen lock", |vfs, _| {
            vfs.create_new(&lock_path, &content)
        })?;
        Ok(match created {
            Ok(()) => LockOutcome::Acquired,
            // Someone else (re)took it between our steal and create: a
            // live race, not a broken disk.
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                LockOutcome::Contended(format!("steal raced: {e}"))
            }
            Err(e) => LockOutcome::Broken(format!("steal failed: {e}")),
        })
    }

    fn release_lock(&mut self) -> Result<io::Result<()>, DbError> {
        let lock_path = self.dir.join(LOCK_FILE);
        self.io("release lock", |vfs, _| vfs.remove_file(&lock_path))
    }

    /// Under the lock: make sure the active segment exists and our
    /// cached `committed_len` matches the file — the cheap `Vfs::len`
    /// path when nothing moved, a full rescan-with-repair otherwise
    /// (another writer appended, or a torn tail from a crashed one).
    fn ensure_tail(&mut self) -> Result<(), DbError> {
        if let Some(persist) = &self.persist {
            // Under a continuously-held lock nobody else may have
            // appended since the last commit validated the tail.
            if self.holding && self.tail_valid {
                return Ok(());
            }
            let segment = persist.segment.clone();
            let cached = persist.committed_len;
            if let Ok(actual) = self.io("stat segment", |vfs, _| vfs.len(&segment))? {
                if actual == cached {
                    self.tail_valid = true;
                    return Ok(());
                }
            }
        }
        self.rescan(true, |_| {})?;
        self.tail_valid = self.persist.is_some();
        Ok(())
    }

    /// Scans the log's segments, handing each valid batch to `visit`;
    /// with `repair`, sweeps compaction leftovers, removes superseded and
    /// torn segments, truncates torn tails, and creates the first segment
    /// of a fresh log. `repair` must only be used under the lock.
    fn rescan(
        &mut self,
        repair: bool,
        mut visit: impl FnMut(Vec<ProfileRecord>),
    ) -> Result<(), DbError> {
        let (parsed, skipped) = self.scan_segments()?;
        if repair {
            let leftovers = self.io("scan db directory", |vfs, dir| vfs.read_dir(dir))?;
            let tmps = leftovers.unwrap_or_default().into_iter().filter(|path| {
                path.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("compact-") && n.ends_with(".tmp"))
            });
            for path in tmps.chain(skipped) {
                let _ = self.io("remove stale file", |vfs, _| vfs.remove_file(&path))?;
            }
        }
        let max_gen = parsed.iter().map(|(h, _, _)| h.generation).max();
        let mut active: Option<Persist> = None;
        for (header, path, bytes) in &parsed {
            let valid_body = format::walk_batches(&bytes[format::HEADER_LEN..], &mut visit);
            let valid_len = (format::HEADER_LEN + valid_body) as u64;
            if valid_len < bytes.len() as u64 && repair {
                let dropped = bytes.len() as u64 - valid_len;
                self.counters.truncated_bytes += dropped;
                self.warnings.push(format!(
                    "salvaged {} of {} bytes from {} (torn tail of {dropped} bytes truncated)",
                    valid_len,
                    bytes.len(),
                    path.display()
                ));
                let truncated =
                    self.io("truncate torn tail", |vfs, _| vfs.truncate(path, valid_len))?;
                if truncated.is_err() {
                    // Appending after unremovable garbage would corrupt
                    // the log.
                    self.degrade(format!(
                        "could not truncate torn tail of {}; accumulating in memory only",
                        path.display()
                    ));
                    return Ok(());
                }
            }
            active = Some(Persist {
                segment: path.clone(),
                generation: header.generation,
                committed_len: valid_len,
            });
        }
        if active.is_none() && repair {
            let generation = max_gen.unwrap_or(0) + 1;
            let path = segment_path(&self.dir, generation);
            let header = format::encode_header(&format::SegmentHeader {
                generation,
                folds_through: 0,
                base_len: format::HEADER_LEN as u64,
            });
            let wrote = self.io("create segment", |vfs, _| vfs.write(&path, &header))?;
            let wrote = match wrote {
                Ok(()) => self.io("sync new segment", |vfs, _| vfs.sync(&path))?,
                Err(e) => Err(e),
            };
            match wrote {
                Ok(()) => {
                    active = Some(Persist {
                        segment: path,
                        generation,
                        committed_len: format::HEADER_LEN as u64,
                    });
                }
                Err(e) => {
                    self.degrade(format!(
                        "could not create segment {} ({e}); accumulating in memory only",
                        path.display()
                    ));
                    return Ok(());
                }
            }
        }
        self.persist = active;
        Ok(())
    }

    /// Reads every segment file: the parseable, non-superseded ones as
    /// `(header, path, bytes)` sorted by generation, and the paths of
    /// the rest — torn creations (file shorter than its own `base_len`,
    /// or no valid header) and superseded generations, which a repairing
    /// rescan removes. Never mutates the directory.
    fn scan_segments(&mut self) -> Result<(Vec<Segment>, Vec<PathBuf>), DbError> {
        let entries = self.io("scan segments", |vfs, dir| vfs.read_dir(dir))?;
        let entries = match entries {
            Ok(e) => e,
            Err(_) => return Ok((Vec::new(), Vec::new())),
        };
        let mut parsed = Vec::new();
        let mut skipped = Vec::new();
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name
                .strip_prefix("seg-")
                .and_then(|r| r.strip_suffix(".mfdb"))
                .and_then(|g| g.parse::<u64>().ok())
                .is_none()
            {
                continue;
            }
            let bytes = match self.io("read segment", |vfs, _| vfs.read(&path))? {
                Ok(b) => b,
                Err(_) => continue,
            };
            match format::decode_header(&bytes) {
                Some(h) if bytes.len() as u64 >= h.base_len => parsed.push((h, path, bytes)),
                _ => skipped.push(path),
            }
        }
        let folds_through = parsed.iter().map(|(h, _, _)| h.folds_through).max();
        if let Some(f) = folds_through {
            let (keep, superseded): (Vec<_>, Vec<_>) =
                parsed.into_iter().partition(|(h, _, _)| h.generation > f);
            parsed = keep;
            skipped.extend(superseded.into_iter().map(|(_, path, _)| path));
        }
        parsed.sort_by_key(|(h, _, _)| h.generation);
        Ok((parsed, skipped))
    }
}

fn segment_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("seg-{generation:08}.mfdb"))
}
