//! Acceptance check: a fault-free profile database fed from harness
//! outcomes round-trips bit-identically to the in-memory accumulation
//! path, regardless of how many workers the harness used. Results come
//! back in submission order at any parallelism, so the database ingest
//! order — and therefore every byte of the segment log's fold — must be
//! invariant under `--jobs`.

use std::sync::Arc;

use mffault::{MemVfs, RetryPolicy, Vfs};
use mfharness::{DiskCache, Harness, HarnessOptions, RunJob};
use mfprofdb::{OpenOptions, Persistence, ProfileStore};
use trace_vm::{Input, VmConfig};

const BRANCHY: &str = "fn main(n: int) { var i: int = 0; var acc: int = 0; \
    while (i < n) { if (i % 3 == 0) { acc = acc + i; } \
    if (i % 7 == 0) { acc = acc - 1; } i = i + 1; } emit(acc); }";

fn open(mem: &Arc<MemVfs>) -> ProfileStore {
    ProfileStore::open(
        Arc::clone(mem) as Arc<dyn Vfs>,
        "/db",
        OpenOptions {
            retry: RetryPolicy::none(),
            ..OpenOptions::default()
        },
    )
    .expect("fault-free open")
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
    let mut raw = Vec::new();
    let mut segment_bytes = Vec::new();
    for workers in [1usize, 8] {
        let harness = Harness::new(HarnessOptions {
            jobs: Some(workers),
            disk_cache: DiskCache::Off,
            ..HarnessOptions::default()
        });
        let outcomes = harness.run(batch.clone()).unwrap();

        let mem = Arc::new(MemVfs::new());
        let mut store = open(&mem);
        let mut direct = ifprob::ProfileDb::new();
        for outcome in &outcomes {
            assert_eq!(
                store
                    .append(&outcome.label, &outcome.stats.branches)
                    .unwrap(),
                Persistence::Committed
            );
            direct.record(&outcome.label, &outcome.stats.branches);
        }
        store.compact().unwrap();
        drop(store);

        // Through the disk and back: identical to never having left RAM.
        let recovered = open(&mem);
        assert!(
            recovered.warnings().is_empty(),
            "{:?}",
            recovered.warnings()
        );
        assert_eq!(recovered.snapshot(), direct, "jobs={workers}");
        snapshots.push(recovered.snapshot());
        raw.push(recovered.raw_totals());

        // And the segment bytes themselves are deterministic: the
        // compacted log must be byte-identical across parallelism.
        let seg = recovered.active_segment().unwrap().to_path_buf();
        segment_bytes.push(mem.read(&seg).unwrap());
    }
    assert_eq!(snapshots[0], snapshots[1], "snapshot differs across --jobs");
    assert_eq!(raw[0], raw[1], "raw totals differ across --jobs");
    assert_eq!(
        segment_bytes[0], segment_bytes[1],
        "segment bytes differ across --jobs"
    );
}
