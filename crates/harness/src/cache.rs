//! The content-addressed result cache.
//!
//! Two tiers hold one kind of entry, a job's whole outcome: its [`Run`]
//! (output, result and stats) and what its observer measured
//! ([`Observed`]). The in-process memo table holds them as [`Arc`]s; the
//! optional on-disk tier persists each as `<cache-dir>/<runkey-hex>.bin` in
//! a small self-describing binary format. Keys cover the lowered IR,
//! inputs, VM configuration and observer (see [`crate::key`]), so
//! invalidation is automatic: changed work gets a new key and simply never
//! finds the old entry. Corrupted, truncated, or version-skewed files are
//! treated as misses, never errors.
//!
//! All file I/O goes through an [`mffault::Vfs`], so fault-injection
//! tests can exercise the failure paths deterministically: transient
//! errors are absorbed by a bounded retry, persistent store failures
//! degrade to recomputation, and torn or corrupt entries salvage to a
//! miss — the cache never takes a run (or the process) down with it.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mfdyn::{RunLengths, ZooCounts, ZooReport};
use mffault::{RealVfs, RetryPolicy, Vfs};
use trace_ir::{BranchId, FuncId};
use trace_vm::{BranchCounts, BreakEvents, GuestValue, PixieCounts, Run, RunStats};

use crate::job::{CacheSource, Observe, Observed, RunJob};
use crate::key::{fnv64, RunKey};

const MAGIC: &[u8; 4] = b"MFHC";

/// The entry layout's version. Version 2 stores a job's whole outcome —
/// output, result and observer product beside the stats that were all of
/// version 1. Bump it whenever the layout changes *or an observer's
/// semantics do* (what `mfdyn`'s zoo or run-length histogram counts): the
/// run key names an observer, not what it computes, so only this version
/// keeps an entry written under the old meaning from being served.
const FORMAT_VERSION: u8 = 2;

/// A stored outcome: the run and its observer's product, which always
/// answers the observer of the job stored under the same key.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    run: Arc<Run>,
    observed: Observed,
}

impl Entry {
    fn hit(&self, source: CacheSource) -> CacheHit {
        CacheHit {
            stats: Arc::new(self.run.stats.clone()),
            run: Arc::clone(&self.run),
            observed: self.observed.clone(),
            source,
        }
    }
}

/// A cache lookup result ready to become a [`crate::RunOutcome`].
#[derive(Clone, Debug)]
pub struct CacheHit {
    /// The cached statistics.
    pub stats: Arc<RunStats>,
    /// The cached run: output stream, result and stats.
    pub run: Arc<Run>,
    /// What the job's observer measured.
    pub observed: Observed,
    /// Memory or disk.
    pub source: CacheSource,
}

/// The two-tier run cache. Thread-safe; shared by all workers of a batch.
#[derive(Debug)]
pub struct RunCache {
    mem: Mutex<HashMap<RunKey, Entry>>,
    disk: Option<PathBuf>,
    vfs: Arc<dyn Vfs>,
    retry: RetryPolicy,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    io_retries: AtomicU64,
    store_failures: AtomicU64,
    corrupt_misses: AtomicU64,
}

/// Snapshot of the cache's hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served by the in-process memo table.
    pub mem_hits: u64,
    /// Lookups served by the persistent tier.
    pub disk_hits: u64,
    /// Lookups that fell through to execution.
    pub misses: u64,
}

/// Snapshot of the cache's fault-handling counters — how much I/O
/// weather it absorbed without surfacing an error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheRobustness {
    /// Transient I/O errors absorbed by retrying.
    pub io_retries: u64,
    /// Persist attempts that gave up (the result stayed in memory and
    /// will simply be recomputed by the next process).
    pub store_failures: u64,
    /// Entries that were read but failed validation (torn, corrupt, or
    /// version-skewed) and salvaged to a miss.
    pub corrupt_misses: u64,
}

impl RunCache {
    /// A purely in-process cache (no persistence).
    pub fn in_memory() -> Self {
        RunCache {
            mem: Mutex::new(HashMap::new()),
            disk: None,
            vfs: Arc::new(RealVfs),
            retry: RetryPolicy::none(),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            corrupt_misses: AtomicU64::new(0),
        }
    }

    /// A cache persisting outcomes under `dir` (created on first store).
    pub fn with_disk(dir: PathBuf) -> Self {
        RunCache {
            disk: Some(dir),
            ..RunCache::in_memory()
        }
    }

    /// A persisting cache over an explicit [`Vfs`] and retry policy —
    /// the injection point for fault plans and in-memory filesystems.
    pub fn with_disk_on(vfs: Arc<dyn Vfs>, dir: PathBuf, retry: RetryPolicy) -> Self {
        RunCache {
            disk: Some(dir),
            vfs,
            retry,
            ..RunCache::in_memory()
        }
    }

    /// The persistent tier's directory, if enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// Looks `job` up in memory, then on disk.
    pub fn lookup(&self, job: &RunJob) -> Option<CacheHit> {
        if let Some(entry) = self.mem.lock().expect("cache lock").get(&job.key) {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Some(entry.hit(CacheSource::Memory));
        }
        if let Some(dir) = &self.disk {
            let path = entry_path(dir, job.key);
            if let Some(entry) = self.load(&path, job.key, job.observe.as_ref()) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let hit = entry.hit(CacheSource::Disk);
                self.mem
                    .lock()
                    .expect("cache lock")
                    .entry(job.key)
                    .or_insert(entry);
                return Some(hit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records a freshly computed run of an unobserved job.
    pub fn insert(&self, job: &RunJob, run: &Arc<Run>) {
        self.insert_observed(job, run, Observed::Nothing);
    }

    /// Records a freshly computed run with its observer's product and,
    /// with a disk tier, persists both. A product that does not answer the
    /// job's observer (an executor that did not drive it) is not cached at
    /// all, so a hit on an observed job always carries its product.
    pub(crate) fn insert_observed(&self, job: &RunJob, run: &Arc<Run>, observed: Observed) {
        if !observed.answers(job.observe.as_ref()) {
            return;
        }
        let entry = Entry {
            run: Arc::clone(run),
            observed,
        };
        if let Some(dir) = &self.disk {
            // Persistence is best-effort: a read-only target dir must not
            // fail the run.
            let _ = self.store(dir, job.key, &entry);
        }
        self.mem.lock().expect("cache lock").insert(job.key, entry);
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Fault-handling counter snapshot.
    pub fn robustness(&self) -> CacheRobustness {
        CacheRobustness {
            io_retries: self.io_retries.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
            corrupt_misses: self.corrupt_misses.load(Ordering::Relaxed),
        }
    }

    /// Retries `op` under the cache's policy, accounting the retries.
    fn io<T>(&self, op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let (result, used) = mffault::retry(self.retry, op);
        self.io_retries
            .fetch_add(u64::from(used), Ordering::Relaxed);
        result
    }

    /// Persists one entry via write-then-rename. Failures are counted and
    /// reported but never escalate past the caller's best-effort intent.
    fn store(&self, dir: &Path, key: RunKey, entry: &Entry) -> io::Result<()> {
        let result = self.store_inner(dir, key, entry);
        if result.is_err() {
            self.store_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn store_inner(&self, dir: &Path, key: RunKey, entry: &Entry) -> io::Result<()> {
        self.io(|| self.vfs.create_dir_all(dir))?;
        let buf = encode(key, entry);

        // Unique temp names (pid + process-wide serial) so concurrent
        // writers — threads here, or two repro processes sharing one
        // cache directory — never collide on the staging file; the final
        // rename is atomic, so readers see old bytes or new, never torn.
        static TMP_SERIAL: AtomicU64 = AtomicU64::new(0);
        let tmp = dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            TMP_SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = self.io(|| self.vfs.write(&tmp, &buf)) {
            let _ = self.vfs.remove_file(&tmp);
            return Err(e);
        }
        let result = self.io(|| self.vfs.rename(&tmp, &entry_path(dir, key)));
        if result.is_err() {
            let _ = self.vfs.remove_file(&tmp);
        }
        result
    }

    /// Loads and validates the entry of the job keyed `key` and observed by
    /// `observe`; any defect (missing file, bad magic or version, key
    /// mismatch, truncation, checksum failure, a length the file cannot
    /// hold, inconsistent counters, a product of the wrong observer) yields
    /// `None` — a miss, never a panic.
    fn load(&self, path: &Path, key: RunKey, observe: Option<&Observe>) -> Option<Entry> {
        let bytes = self.io(|| self.vfs.read(path)).ok()?;
        let decoded = decode(&bytes, key, observe);
        if decoded.is_none() {
            self.corrupt_misses.fetch_add(1, Ordering::Relaxed);
        }
        decoded
    }
}

fn entry_path(dir: &Path, key: RunKey) -> PathBuf {
    dir.join(format!("{}.bin", key.hex()))
}

// ---------------------------------------------------------------------
// The on-disk codec: little-endian, length-prefixed, checksummed.
//
//   MFHC <version:u8> <key:16B> <payload> <fnv64-of-everything-before:8B>
//
// Payload: total_instrs, branch table, break events, pixie block counts,
// the output values, the result, then the observer's product — a tag and,
// for a zoo, each spec's (executed, mispredicted) in the job's spec order;
// for run lengths, the last misprediction's instruction count and the
// histogram buckets. Neither the specs nor the predictions are stored:
// they are the job's own, and its key fingerprints them.
// ---------------------------------------------------------------------

const NOTHING: u8 = 0;
const ZOO: u8 = 1;
const RUN_LENGTHS: u8 = 2;

fn encode(key: RunKey, entry: &Entry) -> Vec<u8> {
    let (run, stats) = (&entry.run, &entry.run.stats);
    let mut buf = Vec::with_capacity(256 + 9 * run.output.len());
    buf.extend_from_slice(MAGIC);
    buf.push(FORMAT_VERSION);
    buf.extend_from_slice(&key.0.to_le_bytes());
    put_u64(&mut buf, stats.total_instrs);
    put_u64(&mut buf, stats.branches.iter().count() as u64);
    for (id, executed, taken) in stats.branches.iter() {
        put_u64(&mut buf, u64::from(id.0));
        put_u64(&mut buf, executed);
        put_u64(&mut buf, taken);
    }
    let e = &stats.events;
    for v in [
        e.jumps,
        e.indirect_jumps,
        e.direct_calls,
        e.direct_returns,
        e.indirect_calls,
        e.indirect_returns,
        e.selects,
    ] {
        put_u64(&mut buf, v);
    }
    put_u64(&mut buf, stats.pixie.blocks.len() as u64);
    for func in &stats.pixie.blocks {
        put_u64(&mut buf, func.len() as u64);
        for &count in func {
            put_u64(&mut buf, count);
        }
    }
    put_u64(&mut buf, run.output.len() as u64);
    for &value in &run.output {
        put_value(&mut buf, Some(value));
    }
    put_value(&mut buf, run.result);
    match &entry.observed {
        Observed::Nothing => buf.push(NOTHING),
        Observed::Zoo(report) => {
            buf.push(ZOO);
            put_u64(&mut buf, report.entries.len() as u64);
            for (_, counts) in &report.entries {
                put_u64(&mut buf, counts.executed);
                put_u64(&mut buf, counts.mispredicted);
            }
        }
        Observed::RunLengths(lengths) => {
            buf.push(RUN_LENGTHS);
            let (last, histogram) = lengths.measured();
            put_u64(&mut buf, last);
            put_u64(&mut buf, histogram.len() as u64);
            for (&length, &runs) in histogram {
                put_u64(&mut buf, length);
                put_u64(&mut buf, runs);
            }
        }
    }
    let checksum = fnv64(&buf);
    put_u64(&mut buf, checksum);
    buf
}

fn decode(bytes: &[u8], key: RunKey, observe: Option<&Observe>) -> Option<Entry> {
    if bytes.len() < MAGIC.len() + 1 + 16 + 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored_sum = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv64(body) != stored_sum {
        return None;
    }
    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    if r.take(4)? != &MAGIC[..] || r.take(1)?[0] != FORMAT_VERSION {
        return None;
    }
    let stored_key = u128::from_le_bytes(r.take(16)?.try_into().ok()?);
    if stored_key != key.0 {
        return None;
    }
    let total_instrs = r.u64()?;
    let mut branches = BranchCounts::new();
    let mut last_id = None;
    for _ in 0..r.len(24)? {
        let id = u32::try_from(r.u64()?).ok()?;
        let executed = r.u64()?;
        let taken = r.u64()?;
        // Ids ascend strictly, as the encoder writes them.
        if taken > executed || last_id.is_some_and(|last| last >= id) {
            return None;
        }
        last_id = Some(id);
        branches.add(BranchId(id), executed, taken);
    }
    let events = BreakEvents {
        jumps: r.u64()?,
        indirect_jumps: r.u64()?,
        direct_calls: r.u64()?,
        direct_returns: r.u64()?,
        indirect_calls: r.u64()?,
        indirect_returns: r.u64()?,
        selects: r.u64()?,
    };
    let n_funcs = r.len(8)?;
    let mut blocks = Vec::with_capacity(n_funcs);
    for _ in 0..n_funcs {
        let n_blocks = r.len(8)?;
        let mut func = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            func.push(r.u64()?);
        }
        blocks.push(func);
    }
    let n_output = r.len(9)?;
    let mut output = Vec::with_capacity(n_output);
    for _ in 0..n_output {
        output.push(r.value()??);
    }
    let result = r.value()?;
    let observed = match (r.take(1)?[0], observe) {
        (NOTHING, None) => Observed::Nothing,
        (ZOO, Some(Observe::Zoo(specs))) => {
            if r.len(16)? != specs.len() {
                return None;
            }
            let mut entries = Vec::with_capacity(specs.len());
            for &spec in specs {
                let counts = ZooCounts {
                    executed: r.u64()?,
                    mispredicted: r.u64()?,
                };
                if counts.mispredicted > counts.executed {
                    return None;
                }
                entries.push((spec, counts));
            }
            Observed::Zoo(Arc::new(ZooReport { entries }))
        }
        (RUN_LENGTHS, Some(Observe::RunLengths(taken))) => {
            let last = r.u64()?;
            let mut histogram = BTreeMap::new();
            let mut last_length = None;
            for _ in 0..r.len(16)? {
                let (length, runs) = (r.u64()?, r.u64()?);
                // Lengths ascend strictly and every bucket holds a run.
                if runs == 0 || last_length.is_some_and(|l| l >= length) {
                    return None;
                }
                last_length = Some(length);
                histogram.insert(length, runs);
            }
            Observed::RunLengths(Arc::new(RunLengths::resume(taken, last, histogram)))
        }
        _ => return None, // a product of another observer, or an unknown tag
    };
    if r.pos != r.bytes.len() {
        return None; // trailing garbage
    }
    let stats = RunStats {
        total_instrs,
        branches,
        events,
        pixie: PixieCounts { blocks },
    };
    Some(Entry {
        run: Arc::new(Run {
            output,
            result,
            stats,
        }),
        observed,
    })
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A tag byte — 0 for `None`, one per [`GuestValue`] variant otherwise —
/// and, for a value, its eight payload bytes.
fn put_value(buf: &mut Vec<u8>, value: Option<GuestValue>) {
    let (tag, bits) = match value {
        None => return buf.push(0),
        Some(GuestValue::Zero) => (1, 0),
        Some(GuestValue::Int(i)) => (2, i as u64),
        Some(GuestValue::Float(f)) => (3, f.to_bits()),
        Some(GuestValue::Ref(r)) => (4, u64::from(r)),
        Some(GuestValue::Func(f)) => (5, u64::from(f.0)),
    };
    buf.push(tag);
    put_u64(buf, bits);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length prefix counting items of at least `item` bytes each,
    /// refused when the bytes left could not hold that many — so no forged
    /// count reaches an allocation.
    fn len(&mut self, item: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n <= (self.bytes.len() - self.pos) / item).then_some(n)
    }

    /// What [`put_value`] wrote.
    fn value(&mut self) -> Option<Option<GuestValue>> {
        let tag = self.take(1)?[0];
        if tag == 0 {
            return Some(None);
        }
        let bits = self.u64()?;
        Some(Some(match tag {
            1 if bits == 0 => GuestValue::Zero,
            2 => GuestValue::Int(bits as i64),
            3 => GuestValue::Float(f64::from_bits(bits)),
            4 => GuestValue::Ref(u32::try_from(bits).ok()?),
            5 => GuestValue::Func(FuncId(u32::try_from(bits).ok()?)),
            _ => return None,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfdyn::DynSpec;
    use mffault::{FaultPlan, FaultVfs, MemVfs};
    use trace_vm::{Observer, VmConfig};

    fn sample_stats() -> RunStats {
        let mut branches = BranchCounts::new();
        branches.add(BranchId(0), 100, 40);
        branches.add(BranchId(7), 5, 5);
        RunStats {
            total_instrs: 12_345,
            branches,
            events: BreakEvents {
                jumps: 1,
                indirect_jumps: 2,
                direct_calls: 3,
                direct_returns: 4,
                indirect_calls: 5,
                indirect_returns: 6,
                selects: 7,
            },
            pixie: PixieCounts {
                blocks: vec![vec![10, 20], vec![], vec![30]],
            },
        }
    }

    fn sample_run() -> Arc<Run> {
        Arc::new(Run {
            output: vec![
                GuestValue::Int(-3),
                GuestValue::Float(2.5),
                GuestValue::Zero,
                GuestValue::Ref(7),
                GuestValue::Func(FuncId(2)),
            ],
            result: Some(GuestValue::Int(42)),
            stats: sample_stats(),
        })
    }

    fn unobserved() -> Entry {
        Entry {
            run: sample_run(),
            observed: Observed::Nothing,
        }
    }

    fn zoo_specs() -> Vec<DynSpec> {
        vec![DynSpec::AlwaysTaken, DynSpec::TwoBit { table_bits: 4 }]
    }

    fn predictions() -> Arc<Vec<bool>> {
        Arc::new(vec![true, false])
    }

    /// One entry of each kind beside the observer of the job it answers:
    /// unobserved, zoo-observed and run-length-observed.
    fn samples() -> Vec<(Option<Observe>, Entry)> {
        let counts = |executed, mispredicted| ZooCounts {
            executed,
            mispredicted,
        };
        let [always, two_bit] = [zoo_specs()[0], zoo_specs()[1]];
        let report = ZooReport {
            entries: vec![(always, counts(105, 60)), (two_bit, counts(105, 9))],
        };
        let mut lengths = RunLengths::new(&predictions());
        for (i, taken) in [true, true, false, true, false, false]
            .into_iter()
            .enumerate()
        {
            lengths.branch(BranchId(i as u32 % 2), taken, 10 * (i as u64 + 1));
        }
        assert!(lengths.summary().count > 0);
        vec![
            (None, unobserved()),
            (
                Some(Observe::Zoo(zoo_specs())),
                Entry {
                    run: sample_run(),
                    observed: Observed::Zoo(Arc::new(report)),
                },
            ),
            (
                Some(Observe::RunLengths(predictions())),
                Entry {
                    run: sample_run(),
                    observed: Observed::RunLengths(Arc::new(lengths)),
                },
            ),
        ]
    }

    fn mem_cache() -> (Arc<MemVfs>, RunCache) {
        let mem = Arc::new(MemVfs::new());
        let cache = RunCache::with_disk_on(
            mem.clone() as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::none(),
        );
        (mem, cache)
    }

    /// Stores `entry` under `key` and returns the bytes written.
    fn stored(key: RunKey, entry: &Entry) -> Vec<u8> {
        let (mem, cache) = mem_cache();
        cache.store(Path::new("/cache"), key, entry).unwrap();
        mem.read(&entry_path(Path::new("/cache"), key)).unwrap()
    }

    #[test]
    fn codec_roundtrips_exactly() {
        let (_, cache) = mem_cache();
        for (k, (observe, entry)) in samples().into_iter().enumerate() {
            let key = RunKey(42 + k as u128);
            cache.store(Path::new("/cache"), key, &entry).unwrap();
            let loaded = cache
                .load(&entry_path(Path::new("/cache"), key), key, observe.as_ref())
                .unwrap();
            assert_eq!(loaded, entry);
        }
        assert_eq!(cache.robustness(), CacheRobustness::default());
    }

    #[test]
    fn every_truncation_is_a_miss() {
        for (observe, entry) in samples() {
            let key = RunKey(9);
            let full = stored(key, &entry);
            for len in 0..full.len() {
                assert!(
                    decode(&full[..len], key, observe.as_ref()).is_none(),
                    "len {len}"
                );
            }
            assert!(decode(&full, key, observe.as_ref()).is_some());
        }
    }

    #[test]
    fn flipped_bytes_and_wrong_keys_are_misses() {
        let samples = samples();
        for (i, (observe, entry)) in samples.iter().enumerate() {
            let key = RunKey(77);
            let full = stored(key, entry);
            for b in 0..full.len() {
                let mut bad = full.clone();
                bad[b] ^= 0x41;
                assert!(decode(&bad, key, observe.as_ref()).is_none(), "byte {b}");
            }
            assert!(
                decode(&full, RunKey(78), observe.as_ref()).is_none(),
                "wrong key"
            );
            // Another observer's job never reads this product as its own.
            for (j, (other, _)) in samples.iter().enumerate() {
                assert_eq!(
                    decode(&full, key, other.as_ref()).is_some(),
                    i == j,
                    "{i} as {j}"
                );
            }
        }
    }

    #[test]
    fn corrupt_entries_salvage_to_counted_misses() {
        let (mem, cache) = mem_cache();
        let key = RunKey(5);
        let path = entry_path(Path::new("/cache"), key);
        cache
            .store(Path::new("/cache"), key, &unobserved())
            .unwrap();
        let mut bytes = mem.read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        mem.write(&path, &bytes).unwrap();
        assert!(cache.load(&path, key, None).is_none());
        assert_eq!(cache.robustness().corrupt_misses, 1);
        // A missing file is a plain miss, not corruption.
        assert!(cache
            .load(Path::new("/cache/nope.bin"), key, None)
            .is_none());
        assert_eq!(cache.robustness().corrupt_misses, 1);
    }

    /// A checksum-valid entry claiming more items than it holds — 2^40
    /// functions once asked the allocator for 26 TB — reads as a counted
    /// miss at every length prefix of every entry kind.
    #[test]
    fn forged_lengths_are_counted_misses() {
        let program = Arc::new(mflang::compile("fn main() { emit(1); }").unwrap());
        let plain = RunJob::new("forged", "d0", program, Vec::new(), VmConfig::default());
        let zoo = plain.clone().observed_by(Observe::Zoo(zoo_specs()));
        let lengths = plain
            .clone()
            .observed_by(Observe::RunLengths(predictions()));
        let words = |ws: &[u64]| -> Vec<u8> { ws.iter().flat_map(|w| w.to_le_bytes()).collect() };
        // Empty stats (ten words) and output (one), no result, a product.
        let product = |tag: u8, rest: &[u64]| [words(&[0; 11]), vec![0, tag], words(rest)].concat();
        let (mem, cache) = mem_cache();
        mem.create_dir_all(Path::new("/cache")).unwrap();
        let mut forged = 0;
        for huge in [1u64 << 40, 1 << 62, u64::MAX] {
            let cases = [
                (&plain, words(&[0, huge])),                            // branches
                (&plain, words(&[0, 0, 0, 0, 0, 0, 0, 0, 0, huge])),    // functions
                (&plain, words(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 1, huge])), // blocks
                (&plain, words(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, huge])), // output
                (&zoo, product(ZOO, &[huge])),                          // zoo entries
                (&lengths, product(RUN_LENGTHS, &[0, huge])),           // buckets
            ];
            for (job, payload) in cases {
                let mut bytes = MAGIC.to_vec();
                bytes.push(FORMAT_VERSION);
                bytes.extend_from_slice(&job.key.0.to_le_bytes());
                bytes.extend_from_slice(&payload);
                let checksum = fnv64(&bytes);
                put_u64(&mut bytes, checksum);
                mem.write(&entry_path(Path::new("/cache"), job.key), &bytes)
                    .unwrap();
                assert!(cache.lookup(job).is_none(), "{huge} in case {forged}");
                forged += 1;
                assert_eq!(cache.counters().misses, forged);
                assert_eq!(cache.robustness().corrupt_misses, forged);
            }
        }
    }

    #[test]
    fn denied_writes_fail_the_store_but_only_the_store() {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(mem as Arc<dyn Vfs>, FaultPlan::deny_writes()));
        let cache = RunCache::with_disk_on(
            fv as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::none(),
        );
        assert!(cache
            .store(Path::new("/cache"), RunKey(1), &unobserved())
            .is_err());
        assert_eq!(cache.robustness().store_failures, 1);
    }

    #[test]
    fn transient_faults_are_retried_away() {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(
            mem.clone() as Arc<dyn Vfs>,
            FaultPlan::transient(3, 250),
        ));
        let cache = RunCache::with_disk_on(
            fv as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::immediate(6),
        );
        for k in 0..10u128 {
            cache
                .store(Path::new("/cache"), RunKey(k), &unobserved())
                .unwrap_or_else(|e| panic!("store {k} failed: {e}"));
            assert!(cache
                .load(&entry_path(Path::new("/cache"), RunKey(k)), RunKey(k), None)
                .is_some());
        }
        assert!(
            cache.robustness().io_retries > 0,
            "a 250 per-mille transient plan should have injected something"
        );
        assert_eq!(cache.robustness().store_failures, 0);
    }

    /// Regression guard for the tmp-file protocol: many concurrent
    /// writers — split across two caches sharing one directory, the
    /// moral equivalent of two processes — never collide on staging
    /// names, never leave droppings, and every surviving entry is valid.
    #[test]
    fn concurrent_writers_share_a_directory_without_tearing() {
        let mem = Arc::new(MemVfs::new());
        let a = Arc::new(RunCache::with_disk_on(
            mem.clone() as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::none(),
        ));
        let b = Arc::new(RunCache::with_disk_on(
            mem.clone() as Arc<dyn Vfs>,
            PathBuf::from("/cache"),
            RetryPolicy::none(),
        ));
        let entry = unobserved();
        std::thread::scope(|scope| {
            for t in 0..4u128 {
                let cache = if t % 2 == 0 {
                    Arc::clone(&a)
                } else {
                    Arc::clone(&b)
                };
                let entry = &entry;
                scope.spawn(move || {
                    for i in 0..25u128 {
                        // Overlapping key ranges force same-key races.
                        let key = RunKey((t % 2) * 1000 + i);
                        cache.store(Path::new("/cache"), key, entry).unwrap();
                    }
                });
            }
        });
        let listing = mem.read_dir(Path::new("/cache")).unwrap();
        assert!(
            listing
                .iter()
                .all(|p| !p.to_string_lossy().contains(".tmp.")),
            "staging files left behind: {listing:?}"
        );
        for i in 0..25u128 {
            for base in [0u128, 1000] {
                let key = RunKey(base + i);
                assert_eq!(
                    a.load(&entry_path(Path::new("/cache"), key), key, None),
                    Some(entry.clone()),
                    "entry {key:?} torn or lost"
                );
            }
        }
        assert_eq!(a.robustness().corrupt_misses, 0);
    }
}
