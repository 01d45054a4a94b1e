//! The persistent cache tier, end to end: hits survive a "process
//! restart" (a fresh `Harness` over the same directory) for every kind of
//! outcome, key changes invalidate, and damaged files degrade to misses.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mfharness::{CacheSource, DiskCache, Harness, HarnessOptions, Observe, RunJob};
use trace_ir::Program;
use trace_vm::{GuestValue, Input, VmConfig};

const LOOPY: &str = "fn main(n: int) { var i: int = 0; var acc: int = 0; \
    while (i < n) { if (i % 2 == 0) { acc = acc + i; } i = i + 1; } emit(acc); }";

/// Emits integers and floats and returns a count: an outcome with a
/// non-empty output stream and a result.
const CHATTY: &str = "fn main(n: int) -> int { var i: int = 0; var x: float = 0.5; \
    while (i < n) { if (i % 3 == 0) { emit(i); x = x * 1.5; emit(x); } i = i + 1; } return i; }";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mfharness-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_harness(dir: &Path) -> Harness {
    Harness::new(HarnessOptions {
        jobs: Some(2),
        disk_cache: DiskCache::Dir(dir.to_path_buf()),
        ..HarnessOptions::default()
    })
}

fn job(program: &Arc<Program>, n: i64) -> RunJob {
    RunJob::new(
        "it",
        format!("n{n}"),
        Arc::clone(program),
        vec![Input::Int(n)],
        VmConfig::default(),
    )
}

#[test]
fn warm_cache_survives_a_restart_with_identical_stats() {
    let dir = temp_dir("restart");
    let program = Arc::new(mflang::compile(LOOPY).unwrap());

    let cold = disk_harness(&dir);
    let first = cold.run_one(job(&program, 1000)).unwrap();
    assert_eq!(first.source, CacheSource::Computed);

    // A fresh harness simulates the next process: nothing memoized, so
    // the result must come from disk — and be bit-identical.
    let warm = disk_harness(&dir);
    let second = warm.run_one(job(&program, 1000)).unwrap();
    assert_eq!(second.source, CacheSource::Disk);
    assert_eq!(*first.stats, *second.stats);
    let report = warm.report();
    assert_eq!(report.cache.disk_hits, 1);
    assert!(report.hit_rate() > 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// An unobserved job, a zoo job and a run-length job of one run.
fn every_kind(program: &Arc<Program>, n: i64) -> Vec<RunJob> {
    let observed = |observe| {
        RunJob::with_observer(
            "it",
            format!("n{n}"),
            Arc::clone(program),
            vec![Input::Int(n)],
            VmConfig::default(),
            observe,
        )
    };
    let taken = Arc::new(vec![true; program.branch_info.len()]);
    vec![
        job(program, n),
        observed(Observe::Zoo(mfdyn::full_zoo())),
        observed(Observe::RunLengths(taken)),
    ]
}

#[test]
fn every_outcome_kind_survives_a_restart() {
    let dir = temp_dir("kinds");
    let program = Arc::new(mflang::compile(CHATTY).unwrap());
    let cold = disk_harness(&dir).run(every_kind(&program, 40)).unwrap();
    assert!(cold.iter().all(|o| o.source == CacheSource::Computed));
    assert!(!cold[0].run.output.is_empty() && cold[0].run.result.is_some());

    let warm = disk_harness(&dir);
    let served = warm.run(every_kind(&program, 40)).unwrap();
    for (then, now) in cold.iter().zip(&served) {
        assert_eq!(now.source, CacheSource::Disk, "{}", now.label);
        assert_eq!(now.run, then.run, "{}", now.label);
        assert_eq!(*now.stats, then.run.stats);
    }
    assert!(served[1].zoo().is_some() && served[2].run_lengths().is_some());
    assert_eq!(served[1].zoo(), cold[1].zoo());
    assert_eq!(served[2].run_lengths(), cold[2].run_lengths());
    let report = warm.report();
    assert_eq!((report.computed(), report.cache.disk_hits), (0, 3));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn observed_and_unobserved_twins_never_share_an_entry() {
    let dir = temp_dir("twins");
    let program = Arc::new(mflang::compile(CHATTY).unwrap());
    let [plain, zoo, _] = <[RunJob; 3]>::try_from(every_kind(&program, 50)).unwrap();
    let entry = |j: &RunJob| dir.join(format!("{}.bin", j.key.hex()));

    // The zoo job's entry copied onto its plain twin's path is refused ...
    disk_harness(&dir).run_one(zoo.clone()).unwrap();
    std::fs::copy(entry(&zoo), entry(&plain)).unwrap();
    let harness = disk_harness(&dir);
    assert_eq!(
        harness.run_one(plain.clone()).unwrap().source,
        CacheSource::Computed
    );
    assert_eq!(harness.report().robustness.cache_corrupt_misses, 1);

    // ... and so is the plain entry that recomputation wrote, copied back.
    std::fs::copy(entry(&plain), entry(&zoo)).unwrap();
    let harness = disk_harness(&dir);
    let outcome = harness.run_one(zoo).unwrap();
    assert_eq!(outcome.source, CacheSource::Computed);
    assert!(outcome.zoo().is_some());
    assert_eq!(harness.report().robustness.cache_corrupt_misses, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changed_inputs_and_relowered_ir_miss() {
    let dir = temp_dir("invalidate");
    let program = Arc::new(mflang::compile(LOOPY).unwrap());
    let cold = disk_harness(&dir);
    cold.run_one(job(&program, 500)).unwrap();

    let warm = disk_harness(&dir);
    // Different dataset seed: new key, recomputed.
    let other_input = warm.run_one(job(&program, 501)).unwrap();
    assert_eq!(other_input.source, CacheSource::Computed);

    // Re-lowered (edited) IR: new key even with identical inputs.
    let edited = Arc::new(mflang::compile(&LOOPY.replace("acc + i", "acc + i + 1")).unwrap());
    let other_ir = warm.run_one(job(&edited, 500)).unwrap();
    assert_eq!(other_ir.source, CacheSource::Computed);

    // The original is still served from disk.
    let same = warm.run_one(job(&program, 500)).unwrap();
    assert_eq!(same.source, CacheSource::Disk);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn programs_differing_only_in_a_string_literal_never_share_an_entry() {
    let dir = temp_dir("literal");
    let literal = |text: &str| {
        let source = format!("fn main(n: int) {{ var s: [int] = \"{text}\"; emit(s[n]); }}");
        Arc::new(mflang::compile(&source).unwrap())
    };
    let (abc, xbc) = (literal("abc"), literal("xbc"));
    assert_ne!(job(&abc, 0).key, job(&xbc, 0).key);

    let first = disk_harness(&dir).run_one(job(&abc, 0)).unwrap();
    assert_eq!(first.run.output, [GuestValue::Int(97)]);
    // The next process over the same directory asks for the other
    // literal: it must run it, not serve the first one's output.
    let second = disk_harness(&dir).run_one(job(&xbc, 0)).unwrap();
    assert_eq!(second.source, CacheSource::Computed);
    assert_eq!(second.run.output, [GuestValue::Int(120)]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_entries_degrade_to_recomputation() {
    let dir = temp_dir("corrupt");
    let program = Arc::new(mflang::compile(LOOPY).unwrap());
    let reference = disk_harness(&dir).run_one(job(&program, 800)).unwrap();

    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "one run, one cache file");
    let entry = &entries[0];
    let pristine = std::fs::read(entry).unwrap();

    // Truncated file: miss, recompute, same stats.
    std::fs::write(entry, &pristine[..pristine.len() / 2]).unwrap();
    let after_truncation = disk_harness(&dir).run_one(job(&program, 800)).unwrap();
    assert_eq!(after_truncation.source, CacheSource::Computed);
    assert_eq!(*after_truncation.stats, *reference.stats);

    // Bit-flipped payload: checksum rejects it.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(entry, &flipped).unwrap();
    let after_flip = disk_harness(&dir).run_one(job(&program, 800)).unwrap();
    assert_eq!(after_flip.source, CacheSource::Computed);
    assert_eq!(*after_flip.stats, *reference.stats);

    // Outright garbage.
    std::fs::write(entry, b"not a cache entry at all").unwrap();
    let after_garbage = disk_harness(&dir).run_one(job(&program, 800)).unwrap();
    assert_eq!(after_garbage.source, CacheSource::Computed);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_entry_is_a_miss() {
    let dir = temp_dir("zerolen");
    let program = Arc::new(mflang::compile(LOOPY).unwrap());
    let reference = disk_harness(&dir).run_one(job(&program, 600)).unwrap();

    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .next()
        .expect("one cache file");
    std::fs::write(&entry, b"").unwrap();
    assert_eq!(std::fs::metadata(&entry).unwrap().len(), 0);

    let after = disk_harness(&dir).run_one(job(&program, 600)).unwrap();
    assert_eq!(after.source, CacheSource::Computed);
    assert_eq!(*after.stats, *reference.stats);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_ir_with_different_vm_config_never_collides() {
    let dir = temp_dir("vmconfig");
    let program = Arc::new(mflang::compile(LOOPY).unwrap());

    // Same program, same inputs, different fuel limit: the key must
    // differ, so the second lookup may not be served by the first entry.
    let loose = job(&program, 700);
    let mut tight = job(&program, 700);
    tight.config = VmConfig {
        fuel: 1 << 20,
        ..VmConfig::default()
    };
    tight.key = RunJob::new(
        "it",
        "n700",
        Arc::clone(&program),
        vec![Input::Int(700)],
        tight.config,
    )
    .key;
    assert_ne!(loose.key, tight.key, "VmConfig must be part of the key");

    let first = disk_harness(&dir).run_one(loose).unwrap();
    assert_eq!(first.source, CacheSource::Computed);

    // Adversarially copy the first entry onto the second key's path: the
    // stored key is checksummed into the payload, so the forged file must
    // read as a miss, not a wrong-config hit.
    let loose_path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .next()
        .expect("one cache file");
    let forged_path = dir.join(format!("{}.bin", tight.key.hex()));
    std::fs::copy(&loose_path, &forged_path).unwrap();

    let harness = disk_harness(&dir);
    let second = harness.run_one(tight).unwrap();
    assert_eq!(
        second.source,
        CacheSource::Computed,
        "forged cross-config entry must not be served"
    );
    assert_eq!(*second.stats, *first.stats, "same program, same behaviour");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_cache_dir_degrades_to_recomputation() {
    // Point the disk tier at a path that can never be a directory (a file
    // stands where the directory should be): stores fail silently, every
    // lookup misses, and runs still succeed.
    let blocker = std::env::temp_dir().join(format!("mfharness-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"i am a file, not a directory").unwrap();
    let program = Arc::new(mflang::compile(LOOPY).unwrap());

    let harness = disk_harness(&blocker);
    let first = harness.run_one(job(&program, 900)).unwrap();
    assert_eq!(first.source, CacheSource::Computed);

    // A second harness over the same broken path: still a miss (nothing
    // was persisted), still a successful run.
    let again = disk_harness(&blocker);
    let second = again.run_one(job(&program, 900)).unwrap();
    assert_eq!(second.source, CacheSource::Computed);
    assert_eq!(*first.stats, *second.stats);
    assert_eq!(again.report().cache.disk_hits, 0);

    // The blocker is untouched: best-effort persistence must not clobber
    // whatever occupies the target path.
    assert_eq!(
        std::fs::read(&blocker).unwrap(),
        b"i am a file, not a directory"
    );
    let _ = std::fs::remove_file(&blocker);
}

/// What a warm batch yields that must not depend on the worker count:
/// each outcome, each record but its wall time, and every counter.
fn warm_batch(dir: &Path, jobs: usize, batch: Vec<RunJob>) -> impl PartialEq + std::fmt::Debug {
    let harness = Harness::new(HarnessOptions {
        jobs: Some(jobs),
        disk_cache: DiskCache::Dir(dir.to_path_buf()),
        ..HarnessOptions::default()
    });
    let outcomes: Vec<_> = harness
        .run(batch)
        .unwrap()
        .into_iter()
        .map(|o| (o.label, o.key, o.source, o.run, o.observed))
        .collect();
    let report = harness.report();
    // One miss runs on one worker, so only a cache pass on the pool puts
    // both workers to work.
    assert_eq!(report.workers, jobs);
    assert_eq!(report.computed(), 1);
    let records: Vec<_> = report
        .records
        .iter()
        .map(|r| (r.label.clone(), r.key, r.source, r.guest_instrs))
        .collect();
    let counters = (
        report.jobs_submitted,
        report.unique_jobs,
        report.cache,
        report.robustness.cache_corrupt_misses,
    );
    (outcomes, records, counters)
}

#[test]
fn a_warm_batch_is_the_same_at_one_and_two_workers() {
    let primed = temp_dir("warm-primed");
    let loopy = Arc::new(mflang::compile(LOOPY).unwrap());
    let chatty = Arc::new(mflang::compile(CHATTY).unwrap());
    let batch = || {
        let mut jobs: Vec<RunJob> = [10, 20, 30, 40]
            .into_iter()
            .flat_map(|n| every_kind(if n % 20 == 0 { &loopy } else { &chatty }, n))
            .collect();
        jobs.push(job(&loopy, 20)); // a repeat
        jobs
    };
    disk_harness(&primed).run(batch()).unwrap();
    // One damaged entry: a counted corrupt miss on either side, and the
    // batch's only execution.
    let torn = primed.join(format!("{}.bin", job(&chatty, 10).key.hex()));
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();

    let mut sides = Vec::new();
    for jobs in [1, 2] {
        // Each side reads its own copy, so neither sees what the other
        // stored.
        let dir = temp_dir(&format!("warm-{jobs}"));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&primed).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        sides.push(warm_batch(&dir, jobs, batch()));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(sides[0], sides[1]);
    let _ = std::fs::remove_dir_all(&primed);
}

#[test]
fn a_disk_hit_observed_run_answers_its_unobserved_job_in_memory_only() {
    let dir = temp_dir("unobserved");
    let program = Arc::new(mflang::compile(CHATTY).unwrap());
    let [plain, zoo, _] = <[RunJob; 3]>::try_from(every_kind(&program, 60)).unwrap();
    disk_harness(&dir).run_one(zoo.clone()).unwrap();

    let warm = disk_harness(&dir);
    assert_eq!(warm.run_one(zoo.clone()).unwrap().source, CacheSource::Disk);
    let hit = warm.run_one(plain.clone()).unwrap();
    assert_eq!(hit.source, CacheSource::Memory);
    assert!(hit.zoo().is_none());

    // Nothing was stored under the unobserved key: the next process
    // computes that job, and gets the same run.
    let plain_entry = dir.join(format!("{}.bin", plain.key.hex()));
    assert!(!plain_entry.exists());
    let fresh = disk_harness(&dir).run_one(plain.clone()).unwrap();
    assert_eq!(fresh.source, CacheSource::Computed);
    assert_eq!(fresh.run, hit.run);

    // In one batch with the disk hit, on either worker count, the
    // unobserved job is not answered: its lookup does not wait for the
    // observed one's.
    std::fs::remove_file(&plain_entry).unwrap();
    for jobs in [1, 2] {
        let harness = Harness::new(HarnessOptions {
            jobs: Some(jobs),
            disk_cache: DiskCache::Dir(dir.clone()),
            ..HarnessOptions::default()
        });
        let both = harness.run(vec![zoo.clone(), plain.clone()]).unwrap();
        assert_eq!(
            (both[0].source, both[1].source),
            (CacheSource::Disk, CacheSource::Computed)
        );
        std::fs::remove_file(&plain_entry).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
