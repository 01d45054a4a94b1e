//! The service crash battery: the profdb battery's contract, extended
//! per-shard and across crashes mid-group-commit.
//!
//! A fixed script of enqueue+flush batches runs once fault-free to
//! count mutating operations, then re-runs with a hard crash injected
//! at every operation index. After each crash the surviving filesystem
//! reopens with a clean accessor and every shard must hold an EXACT
//! prefix of its committed batch sequence — at batch granularity, so a
//! crash mid-group-commit can never surface a partial batch — bounded
//! below by the flushes whose acks were returned. A second script
//! starts from a single-log database, which the service serves in place
//! as one shard, so the crash points also land inside a compaction of a
//! root-level log another writer wrote.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use mffault::{FaultPlan, FaultVfs, MemVfs, RetryPolicy, Vfs};
use mfprofsvc::{shard_of, LockCfg, Persistence, ProfileRecord, ProfileService, ServiceOptions};
use trace_ir::BranchId;
use trace_vm::BranchCounts;

const DIR: &str = "/svc";
const SHARDS: u32 = 3;

/// One scripted submission: dataset plus raw rows.
type Submission = (&'static str, &'static [(u32, u64, u64)]);

/// The script: five flushes (group commits), several submissions each,
/// including an empty-entry dataset marker (lands in shard 0).
const FLUSHES: &[&[Submission]] = &[
    &[("train", &[(0, 10, 4), (1, 8, 8)]), ("ref", &[(2, 20, 5)])],
    &[("train", &[(0, 6, 1)])],
    &[
        ("train", &[(1, 3, 0), (4, 12, 11)]),
        ("ref", &[(2, 4, 4), (5, 9, 2)]),
        ("extra", &[(7, 1, 1)]),
    ],
    &[("marker", &[]), ("train", &[(0, 2, 2)])],
    &[("ref", &[(9, 5, 3)]), ("train", &[(3, 2, 0)])],
];

fn counts(rows: &[(u32, u64, u64)]) -> BranchCounts {
    rows.iter()
        .map(|&(id, e, t)| (BranchId(id), e, t))
        .collect()
}

fn opts(steal: bool, retry: RetryPolicy) -> ServiceOptions {
    ServiceOptions {
        shards: SHARDS,
        lock: LockCfg {
            attempts: 2,
            base: Duration::ZERO,
            steal,
        },
        retry,
    }
}

/// The per-shard part of one submission, mirroring the service's
/// splitter: entries hash-partitioned, empty-entry records to shard 0.
fn part_of(sub: &Submission, shard: u32) -> Option<ProfileRecord> {
    let (ds, rows) = *sub;
    if rows.is_empty() {
        return (shard == 0).then(|| ProfileRecord {
            dataset: ds.to_string(),
            entries: vec![],
            ..Default::default()
        });
    }
    let entries: Vec<(u32, u64, u64)> = rows
        .iter()
        .copied()
        .filter(|&(id, _, _)| shard_of(id, SHARDS) == shard)
        .collect();
    (!entries.is_empty()).then(|| ProfileRecord {
        dataset: ds.to_string(),
        entries,
        ..Default::default()
    })
}

/// Shard `shard`'s expected committed-batch sequence after the first
/// `m` flushes: one batch per flush that sent the shard anything.
fn expected_batches(shard: u32, m: usize) -> Vec<Vec<ProfileRecord>> {
    FLUSHES[..m]
        .iter()
        .map(|subs| subs.iter().filter_map(|s| part_of(s, shard)).collect())
        .filter(|b: &Vec<ProfileRecord>| !b.is_empty())
        .collect()
}

type Fold = BTreeMap<String, Vec<(u32, u64, u64)>>;

fn fold_of(batches: &[Vec<ProfileRecord>]) -> Fold {
    let mut fold: BTreeMap<String, BTreeMap<u32, (u64, u64)>> = BTreeMap::new();
    for b in batches {
        for r in b {
            let per = fold.entry(r.dataset.clone()).or_default();
            for &(id, e, t) in &r.entries {
                let slot = per.entry(id).or_insert((0, 0));
                slot.0 += e;
                slot.1 += t;
            }
        }
    }
    fold.into_iter()
        .map(|(ds, m)| (ds, m.into_iter().map(|(id, (e, t))| (id, e, t)).collect()))
        .collect()
}

/// The merged fold of the first `m` flushes (all shards).
fn expected_merged(m: usize) -> Fold {
    let all: Vec<Vec<ProfileRecord>> = (0..SHARDS).flat_map(|s| expected_batches(s, m)).collect();
    fold_of(&all)
}

struct ScriptRun {
    /// The live service, when the script completed without a crash.
    svc: Option<ProfileService>,
    /// Flushes that returned with every acknowledgment `Committed`.
    acked: usize,
    /// Flushes attempted (includes one possibly in flight at a crash).
    issued: usize,
}

fn run_script(vfs: Arc<dyn Vfs>, retry: RetryPolicy, compact_after: Option<usize>) -> ScriptRun {
    let mut acked = 0;
    let mut issued = 0;
    let dead = |acked, issued| ScriptRun {
        svc: None,
        acked,
        issued,
    };
    let Ok(svc) = ProfileService::open(vfs, DIR, opts(false, retry)) else {
        return dead(acked, issued);
    };
    for (f, subs) in FLUSHES.iter().enumerate() {
        if compact_after == Some(f) && svc.compact().is_err() {
            return dead(acked, issued);
        }
        for (ds, rows) in subs.iter() {
            if svc.enqueue(ds, &counts(rows)).is_err() {
                return dead(acked, issued);
            }
        }
        issued += 1;
        match svc.flush() {
            Ok(acks) => {
                if acks.values().all(|&p| p == Persistence::Committed) {
                    acked += 1;
                }
            }
            Err(_) => return dead(acked, issued),
        }
    }
    ScriptRun {
        svc: Some(svc),
        acked,
        issued,
    }
}

fn reopen(mem: Arc<MemVfs>) -> ProfileService {
    ProfileService::open(mem as Arc<dyn Vfs>, DIR, opts(true, RetryPolicy::none()))
        .expect("clean reopen must not crash")
}

#[test]
fn every_crash_point_recovers_exact_per_shard_batch_prefixes() {
    // Profiling pass: count the script's mutating operations.
    let mem = Arc::new(MemVfs::new());
    let fv = Arc::new(FaultVfs::new(
        mem.clone() as Arc<dyn Vfs>,
        FaultPlan::none(),
    ));
    let clean = run_script(fv.clone() as Arc<dyn Vfs>, RetryPolicy::none(), None);
    assert_eq!(clean.acked, FLUSHES.len());
    drop(clean.svc);
    let svc = reopen(mem);
    assert_eq!(svc.merged_totals().unwrap(), expected_merged(FLUSHES.len()));
    for shard in 0..SHARDS {
        assert_eq!(
            svc.shard_batches(shard).unwrap(),
            expected_batches(shard, FLUSHES.len()),
            "shard {shard}: fault-free batches mismatch"
        );
    }
    drop(svc);
    let total_ops = fv.op_count();
    assert!(
        total_ops >= 40,
        "script too small to be an interesting battery: {total_ops} ops"
    );

    for k in 0..total_ops {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(
            mem.clone() as Arc<dyn Vfs>,
            FaultPlan::crash_at(k),
        ));
        let crashed = run_script(fv.clone() as Arc<dyn Vfs>, RetryPolicy::none(), None);
        drop(crashed.svc);
        assert!(fv.crashed(), "op {k} of {total_ops} never fired");

        let recovered = reopen(mem);
        // Batch granularity: every shard holds an exact prefix of its
        // committed batch sequence — never a partial batch — and at
        // least everything from fully-acknowledged flushes.
        for shard in 0..SHARDS {
            let got = recovered.shard_batches(shard).unwrap();
            let full = expected_batches(shard, FLUSHES.len());
            assert!(
                got.len() <= full.len() && got[..] == full[..got.len()],
                "crash at op {k}: shard {shard} is not an exact batch prefix: {got:?}"
            );
            let floor = expected_batches(shard, crashed.acked).len();
            assert!(
                got.len() >= floor,
                "crash at op {k}: shard {shard} lost acknowledged batches \
                 ({} < {floor})",
                got.len()
            );
        }
        // And the merged snapshot is the union of those prefixes.
        let merged = recovered.merged_totals().unwrap();
        let unioned = fold_of(
            &(0..SHARDS)
                .flat_map(|s| recovered.shard_batches(s).unwrap())
                .collect::<Vec<_>>(),
        );
        assert_eq!(merged, unioned, "crash at op {k}: merge is not the union");
    }
}

/// Builds the single-log database the in-place script starts from (a
/// root-level segment log) and returns its batches (one per commit). Runs on the raw memory
/// filesystem, so its operations are not part of the crash-point
/// enumeration.
fn prepopulate_single_log(mem: &Arc<MemVfs>) -> Vec<Vec<ProfileRecord>> {
    let vfs = mem.clone() as Arc<dyn Vfs>;
    let mut log = mfprofdb::SegmentLog::open(vfs, DIR, RetryPolicy::none()).unwrap();
    let appends: [Submission; 2] = [
        ("train", &[(0, 100, 40), (6, 30, 30)]),
        ("prior", &[(8, 9, 9)]),
    ];
    let batches: Vec<Vec<ProfileRecord>> = appends.iter().map(|sub| vec![record_of(sub)]).collect();
    for batch in &batches {
        let landed = log.commit_batch(batch, &LockCfg::default()).unwrap();
        assert_eq!(landed, Persistence::Committed);
    }
    batches
}

fn record_of(&(ds, rows): &Submission) -> ProfileRecord {
    ProfileRecord {
        dataset: ds.to_string(),
        entries: rows.to_vec(),
        ..Default::default()
    }
}

/// The batches a single-log database holds after the first `m` flushes
/// on top of `stored`: one batch per flush, or, with `compacted =
/// Some(c)`, one folded batch of `stored` and the first `c` flushes (a
/// record per dataset, in dataset order) followed by flushes `c..m`.
fn single_log_batches(
    stored: &[Vec<ProfileRecord>],
    m: usize,
    compacted: Option<usize>,
) -> Vec<Vec<ProfileRecord>> {
    let flushes = FLUSHES
        .iter()
        .map(|subs| subs.iter().map(record_of).collect());
    let mut batches: Vec<Vec<ProfileRecord>> = stored.iter().cloned().chain(flushes).collect();
    batches.truncate(stored.len() + m);
    if let Some(c) = compacted {
        let later = batches.split_off(stored.len() + c);
        let folded = fold_of(&batches)
            .into_iter()
            .map(|(dataset, entries)| ProfileRecord {
                dataset,
                entries,
                ..Default::default()
            })
            .collect();
        batches = vec![folded];
        batches.extend(later);
    }
    batches
}

#[test]
fn every_crash_point_in_a_single_log_database_recovers_a_prefix() {
    const COMPACT_AFTER: usize = 3;
    // Profiling pass.
    let mem = Arc::new(MemVfs::new());
    let stored = prepopulate_single_log(&mem);
    let fv = Arc::new(FaultVfs::new(
        mem.clone() as Arc<dyn Vfs>,
        FaultPlan::none(),
    ));
    let clean = run_script(
        fv.clone() as Arc<dyn Vfs>,
        RetryPolicy::none(),
        Some(COMPACT_AFTER),
    );
    assert_eq!(clean.acked, FLUSHES.len());
    let svc = clean.svc.expect("fault-free script completes");
    assert_eq!(svc.shard_count(), 1, "served in place");
    assert_eq!(
        svc.shard_batches(0).unwrap(),
        single_log_batches(&stored, FLUSHES.len(), Some(COMPACT_AFTER))
    );
    drop(svc);
    let total_ops = fv.op_count();

    for k in 0..total_ops {
        let mem = Arc::new(MemVfs::new());
        let stored = prepopulate_single_log(&mem);
        let fv = Arc::new(FaultVfs::new(
            mem.clone() as Arc<dyn Vfs>,
            FaultPlan::crash_at(k),
        ));
        let crashed = run_script(
            fv.clone() as Arc<dyn Vfs>,
            RetryPolicy::none(),
            Some(COMPACT_AFTER),
        );
        drop(crashed.svc);
        assert!(fv.crashed(), "op {k} of {total_ops} never fired");
        assert!(
            !mem.exists(&std::path::Path::new(DIR).join("MANIFEST")),
            "crash at op {k}: a manifest appeared"
        );

        // The single log holds its stored batches plus an exact prefix
        // of the flushes, batch for batch: unfolded before the
        // compaction published, folded through it afterwards.
        let recovered = reopen(mem);
        assert_eq!(recovered.shard_count(), 1);
        let got = recovered.shard_batches(0).unwrap();
        let matched = (crashed.acked..=crashed.issued).any(|m| {
            (m <= COMPACT_AFTER && got == single_log_batches(&stored, m, None))
                || (m >= COMPACT_AFTER
                    && got == single_log_batches(&stored, m, Some(COMPACT_AFTER)))
        });
        assert!(
            matched,
            "crash at op {k}: not the stored batches plus a committed \
             prefix (acked {} / issued {}): {got:?}",
            crashed.acked, crashed.issued
        );
        assert_eq!(
            recovered.merged_totals().unwrap(),
            fold_of(&got),
            "crash at op {k}: merge ≠ the log's fold"
        );
    }
}

/// CI's fixed-seed subset: the same per-shard prefix contract under one
/// seeded mixed-fault storm plus a spread of crash points, small enough
/// for a smoke job. The storm seed is fixed so failures reproduce.
#[test]
fn fixed_fault_seed_subset_per_shard() {
    let seed = 0xC1;
    let mem = Arc::new(MemVfs::new());
    let fv = Arc::new(FaultVfs::new(
        mem.clone() as Arc<dyn Vfs>,
        FaultPlan::from_seed(seed),
    ));
    let run = run_script(fv.clone() as Arc<dyn Vfs>, RetryPolicy::immediate(4), None);
    let svc = run.svc.expect("no crash points in a storm plan");
    assert_eq!(run.issued, FLUSHES.len());
    assert_eq!(
        svc.merged_totals().unwrap(),
        expected_merged(FLUSHES.len()),
        "the in-memory view must survive any I/O weather"
    );
    drop(svc);
    let recovered = reopen(mem);
    for shard in 0..SHARDS {
        let got = recovered.shard_batches(shard).unwrap();
        let full = expected_batches(shard, FLUSHES.len());
        assert!(
            got.len() <= full.len() && got[..] == full[..got.len()],
            "storm seed {seed}: shard {shard} is not an exact batch prefix"
        );
    }
    for k in [3, 11, 19, 27, 35] {
        let mem = Arc::new(MemVfs::new());
        let fv = Arc::new(FaultVfs::new(
            mem.clone() as Arc<dyn Vfs>,
            FaultPlan::crash_at(k),
        ));
        let crashed = run_script(fv.clone() as Arc<dyn Vfs>, RetryPolicy::none(), None);
        drop(crashed.svc);
        let recovered = reopen(mem);
        for shard in 0..SHARDS {
            let got = recovered.shard_batches(shard).unwrap();
            let full = expected_batches(shard, FLUSHES.len());
            assert!(
                got.len() <= full.len() && got[..] == full[..got.len()],
                "crash at op {k}: shard {shard} is not an exact batch prefix"
            );
        }
    }
}
