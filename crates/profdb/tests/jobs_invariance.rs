//! Acceptance check: a fault-free segment log fed from harness outcomes
//! round-trips bit-identically to the in-memory accumulation path,
//! regardless of how many workers the harness used. Results come back in
//! submission order at any parallelism, so the commit order — and
//! therefore every byte of the log's compacted fold — must be invariant
//! under `--jobs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use mffault::{MemVfs, RetryPolicy, Vfs};
use mfharness::{DiskCache, Harness, HarnessOptions, RunJob};
use mfprofdb::{fold_record, LockCfg, Persistence, ProfileRecord, RawFold, SegmentLog};
use trace_ir::BranchId;
use trace_vm::{BranchCounts, Input, VmConfig};

const BRANCHY: &str = "fn main(n: int) { var i: int = 0; var acc: int = 0; \
    while (i < n) { if (i % 3 == 0) { acc = acc + i; } \
    if (i % 7 == 0) { acc = acc - 1; } i = i + 1; } emit(acc); }";

fn open(mem: &Arc<MemVfs>) -> SegmentLog {
    SegmentLog::open(Arc::clone(mem) as Arc<dyn Vfs>, "/db", RetryPolicy::none())
        .expect("fault-free open")
}

/// The log's committed records folded into the in-memory database every
/// downstream predictor consumes.
fn snapshot(log: &mut SegmentLog) -> ifprob::ProfileDb {
    let mut fold = RawFold::new();
    for r in log.read_batches().unwrap().iter().flatten() {
        fold_record(&mut fold, r);
    }
    let mut db = ifprob::ProfileDb::new();
    for (dataset, entries) in &fold {
        let counts: BranchCounts = entries
            .iter()
            .map(|(&id, &(e, t))| (BranchId(id), e, t))
            .collect();
        db.record(dataset, &counts);
    }
    db
}

#[test]
fn db_accumulation_is_invariant_under_harness_parallelism() {
    let program = Arc::new(mflang::compile(BRANCHY).unwrap());
    let batch: Vec<RunJob> = (0..6i64)
        .map(|i| {
            RunJob::new(
                "inv",
                format!("n{i}"),
                Arc::clone(&program),
                vec![Input::Int(50 + i * 37)],
                VmConfig::default(),
            )
        })
        .collect();

    let mut snapshots = Vec::new();
    let mut segment_bytes = Vec::new();
    for workers in [1usize, 8] {
        let harness = Harness::new(HarnessOptions {
            jobs: Some(workers),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let outcomes = harness.run(batch.clone()).unwrap();

        let mem = Arc::new(MemVfs::new());
        let mut log = open(&mem);
        let mut direct = ifprob::ProfileDb::new();
        for outcome in &outcomes {
            let record =
                ProfileRecord::from_run(&outcome.label, &outcome.stats.branches, &BTreeMap::new());
            assert_eq!(
                log.commit_batch(&[record], &LockCfg::default()).unwrap(),
                Persistence::Committed
            );
            direct.record(&outcome.label, &outcome.stats.branches);
        }
        log.compact(&LockCfg::default())
            .unwrap()
            .expect("compaction published");
        drop(log);

        // Through the disk and back: identical to never having left RAM.
        let mut recovered = open(&mem);
        assert!(
            recovered.warnings().is_empty(),
            "{:?}",
            recovered.warnings()
        );
        assert_eq!(snapshot(&mut recovered), direct, "jobs={workers}");
        snapshots.push(snapshot(&mut recovered));

        // And the segment bytes themselves are deterministic: the
        // compacted log must be byte-identical across parallelism.
        let seg = recovered.active_segment().unwrap().to_path_buf();
        segment_bytes.push(mem.read(&seg).unwrap());
    }
    assert_eq!(snapshots[0], snapshots[1], "snapshot differs across --jobs");
    assert_eq!(
        segment_bytes[0], segment_bytes[1],
        "segment bytes differ across --jobs"
    );
}
