//! Cross-shard invariants: under seeded fault storms the merged
//! snapshot equals the union of per-shard committed prefixes; the
//! on-disk bytes are identical whether the driving harness ran at
//! `--jobs 1` or `--jobs 8`; and snapshot reads never mutate a shard a
//! writer may be streaming into.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use mffault::{FaultPlan, FaultVfs, MemVfs, RetryPolicy, Vfs};
use mfprofsvc::{shard_of, LockCfg, ProfileRecord, ProfileService, ServiceOptions};
use trace_ir::BranchId;
use trace_vm::BranchCounts;

const DIR: &str = "/svc";
const SHARDS: u32 = 4;

fn counts(rows: &[(u32, u64, u64)]) -> BranchCounts {
    rows.iter()
        .map(|&(id, e, t)| (BranchId(id), e, t))
        .collect()
}

fn opts(steal: bool) -> ServiceOptions {
    ServiceOptions {
        shards: SHARDS,
        lock: LockCfg {
            attempts: 2,
            base: Duration::ZERO,
            steal,
        },
        retry: RetryPolicy::none(),
    }
}

/// One scripted submission: dataset name plus its `(branch, executed,
/// taken)` rows.
type Submission = (String, Vec<(u32, u64, u64)>);

/// The scripted submissions: branch ids chosen to spread across shards.
fn script() -> Vec<Submission> {
    (0..12u32)
        .map(|i| {
            let ds = format!("ds{}", i % 3);
            let rows = vec![(i, 10 + u64::from(i), 3), (i + 100, 2, 1)];
            (ds, rows)
        })
        .collect()
}

type Fold = BTreeMap<String, Vec<(u32, u64, u64)>>;

fn fold_of(records: &[ProfileRecord]) -> Fold {
    let mut fold: BTreeMap<String, BTreeMap<u32, (u64, u64)>> = BTreeMap::new();
    for r in records {
        let per = fold.entry(r.dataset.clone()).or_default();
        for &(id, e, t) in &r.entries {
            let slot = per.entry(id).or_insert((0, 0));
            slot.0 += e;
            slot.1 += t;
        }
    }
    fold.into_iter()
        .map(|(ds, m)| (ds, m.into_iter().map(|(id, (e, t))| (id, e, t)).collect()))
        .collect()
}

fn full_expected() -> Fold {
    let records: Vec<ProfileRecord> = script()
        .into_iter()
        .map(|(ds, rows)| ProfileRecord {
            dataset: ds,
            entries: rows,
            ..Default::default()
        })
        .collect();
    fold_of(&records)
}

#[test]
fn merged_snapshot_is_union_of_shard_prefixes_under_32_seed_storm() {
    for seed in 0..32u64 {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(
            mem.clone() as Arc<dyn Vfs>,
            FaultPlan::from_seed(seed),
        ));
        let svc = ProfileService::open(
            fv.clone() as Arc<dyn Vfs>,
            DIR,
            ServiceOptions {
                retry: RetryPolicy::immediate(4),
                ..opts(false)
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: storm plan must not crash: {e}"));
        for (i, (ds, rows)) in script().iter().enumerate() {
            svc.enqueue(ds, &counts(rows)).unwrap();
            if i % 3 == 2 {
                svc.flush().unwrap();
            }
        }
        svc.flush().unwrap();
        // Degrade, never die: the live merged view is always complete.
        assert_eq!(
            svc.merged_totals().unwrap(),
            full_expected(),
            "seed {seed}: the in-memory view must survive any I/O weather"
        );
        if !svc.is_persistent() {
            assert!(
                !svc.warnings().is_empty(),
                "seed {seed}: degradation must be surfaced"
            );
        }
        drop(svc);

        // Reopen: whatever reached each shard is an exact prefix of its
        // batch sequence, and the merge is exactly their union.
        let recovered = ProfileService::open(mem as Arc<dyn Vfs>, DIR, opts(true)).unwrap();
        let mut union = Vec::new();
        for shard in 0..SHARDS {
            for batch in recovered.shard_batches(shard).unwrap() {
                for r in &batch {
                    for &(id, _, _) in &r.entries {
                        assert_eq!(
                            shard_of(id, SHARDS),
                            shard,
                            "seed {seed}: entry leaked into the wrong shard"
                        );
                    }
                }
                union.extend(batch);
            }
        }
        assert_eq!(
            recovered.merged_totals().unwrap(),
            fold_of(&union),
            "seed {seed}: merge is not the union of shard prefixes"
        );
    }
}

/// Replays the script as a harness would: run results computed at
/// `jobs` workers (positional determinism), then recorded in index
/// order. Returns every shard segment's bytes, keyed by path.
fn record_at_jobs(jobs: usize) -> BTreeMap<PathBuf, Vec<u8>> {
    let mem = Arc::new(MemVfs::new());
    let svc = ProfileService::open(mem.clone() as Arc<dyn Vfs>, DIR, opts(false)).unwrap();
    let script = script();
    let (results, _) = mfharness::run_indexed(jobs, script.len(), |i| script[i].clone());
    for (i, (ds, rows)) in results.iter().enumerate() {
        svc.enqueue(ds, &counts(rows)).unwrap();
        if i % 4 == 3 {
            svc.flush().unwrap();
        }
    }
    svc.flush().unwrap();
    svc.compact().unwrap();
    drop(svc);

    let mut bytes = BTreeMap::new();
    for shard in 0..SHARDS {
        let dir = PathBuf::from(DIR).join(format!("shard-{shard:03}"));
        for path in mem.read_dir(&dir).unwrap() {
            if path.extension().is_some_and(|e| e == "mfdb") {
                bytes.insert(path.clone(), mem.read(&path).unwrap());
            }
        }
    }
    bytes
}

#[test]
fn shard_bytes_are_identical_at_jobs_1_and_8() {
    let one = record_at_jobs(1);
    let eight = record_at_jobs(8);
    assert!(!one.is_empty());
    assert_eq!(
        one, eight,
        "worker count leaked into the on-disk shard bytes"
    );
}

#[test]
fn snapshot_reads_never_mutate_and_survive_a_streaming_writer() {
    let mem = Arc::new(MemVfs::new());
    let svc = ProfileService::open(mem.clone() as Arc<dyn Vfs>, DIR, opts(false)).unwrap();
    for (ds, rows) in script().iter().take(6) {
        svc.submit(ds, &counts(rows)).unwrap();
    }
    let committed = svc.merged_totals().unwrap();

    // Simulate a concurrent writer caught mid-append: a torn tail on
    // one shard, and a held LOCK on another.
    let shard0 = PathBuf::from(DIR).join("shard-000");
    let seg = mem
        .read_dir(&shard0)
        .unwrap()
        .into_iter()
        .find(|p| p.extension().is_some_and(|e| e == "mfdb"))
        .expect("shard 0 has a segment");
    mem.append(&seg, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    let torn_len = mem.read(&seg).unwrap().len();
    mem.create_new(&Path::new(DIR).join("shard-001/LOCK"), b"12345")
        .unwrap();

    // A snapshot reader sees exactly the committed prefix, does not
    // block on the writer's lock, and does not repair (mutate) the torn
    // tail — that is the writer's job, under the lock.
    let reader = ProfileService::open(mem.clone() as Arc<dyn Vfs>, DIR, opts(false)).unwrap();
    assert_eq!(reader.merged_totals().unwrap(), committed);
    assert_eq!(reader.merged_totals().unwrap(), committed, "stable reread");
    assert_eq!(
        mem.read(&seg).unwrap().len(),
        torn_len,
        "snapshot read mutated the shard"
    );

    // The writer's next commit to shard 0 repairs the torn tail first.
    mem.remove_file(&Path::new(DIR).join("shard-001/LOCK"))
        .unwrap();
    svc.submit("repair", &counts(&[(0, 1, 1)])).unwrap();
    let mut expected = committed.clone();
    let slot = expected.entry("repair".into()).or_default();
    slot.push((0, 1, 1));
    assert_eq!(svc.merged_totals().unwrap(), expected);
    assert!(
        mem.read(&seg).unwrap().len() < torn_len + 4,
        "torn garbage still ahead of the new commit"
    );
}
