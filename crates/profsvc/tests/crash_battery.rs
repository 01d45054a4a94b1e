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
//! starts from a legacy single-log database so the crash points also
//! land inside the migration protocol and a compaction.

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

/// Builds the legacy single-log database the migration script starts
/// from. Runs on the raw memory filesystem, so its operations are not
/// part of the crash-point enumeration.
fn prepopulate_legacy(mem: &Arc<MemVfs>) -> Fold {
    let mut store = mfprofdb::ProfileStore::open(
        mem.clone() as Arc<dyn Vfs>,
        DIR,
        mfprofdb::OpenOptions {
            retry: RetryPolicy::none(),
            ..mfprofdb::OpenOptions::default()
        },
    )
    .unwrap();
    store
        .append("train", &counts(&[(0, 100, 40), (6, 30, 30)]))
        .unwrap();
    store.append("legacy", &counts(&[(8, 9, 9)])).unwrap();
    drop(store);
    let mut fold = Fold::new();
    fold.insert("train".into(), vec![(0, 100, 40), (6, 30, 30)]);
    fold.insert("legacy".into(), vec![(8, 9, 9)]);
    fold
}

/// The slice of the legacy fold the migration sends to `shard`, as
/// batches (for folding).
fn legacy_shard_records(legacy: &Fold, shard: u32) -> Vec<Vec<ProfileRecord>> {
    let mut records = Vec::new();
    for (ds, rows) in legacy {
        let entries: Vec<(u32, u64, u64)> = rows
            .iter()
            .copied()
            .filter(|&(id, _, _)| shard_of(id, SHARDS) == shard)
            .collect();
        if !entries.is_empty() || (rows.is_empty() && shard == 0) {
            records.push(ProfileRecord {
                dataset: ds.clone(),
                entries,
                ..Default::default()
            });
        }
    }
    vec![records]
}

fn merge_folds(a: &Fold, b: &Fold) -> Fold {
    let mut merged: BTreeMap<String, BTreeMap<u32, (u64, u64)>> = BTreeMap::new();
    for f in [a, b] {
        for (ds, rows) in f {
            let per = merged.entry(ds.clone()).or_default();
            for &(id, e, t) in rows {
                let slot = per.entry(id).or_insert((0, 0));
                slot.0 += e;
                slot.1 += t;
            }
        }
    }
    merged
        .into_iter()
        .map(|(ds, m)| (ds, m.into_iter().map(|(id, (e, t))| (id, e, t)).collect()))
        .collect()
}

#[test]
fn every_crash_point_during_migration_and_compaction_recovers_a_prefix() {
    const COMPACT_AFTER: usize = 3;
    // Profiling pass.
    let mem = Arc::new(MemVfs::new());
    let legacy_fold = prepopulate_legacy(&mem);
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
    assert_eq!(svc.shard_count(), SHARDS, "migration happened");
    assert_eq!(
        svc.merged_totals().unwrap(),
        merge_folds(&legacy_fold, &expected_merged(FLUSHES.len()))
    );
    drop(svc);
    let total_ops = fv.op_count();

    for k in 0..total_ops {
        let mem = Arc::new(MemVfs::new());
        let legacy_fold = prepopulate_legacy(&mem);
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

        let recovered = reopen(mem);
        let got = recovered.merged_totals().unwrap();
        if recovered.shard_count() == 0 {
            // Crash before the migration's manifest commit: the legacy
            // database must be exactly intact.
            assert_eq!(
                got, legacy_fold,
                "crash at op {k}: legacy database damaged pre-commit"
            );
        } else {
            // Post-commit: each shard independently holds its slice of
            // the legacy fold plus an exact prefix of its flush parts
            // (fold granularity — a compaction may have folded
            // batches). A flush is atomic per shard, not across shards.
            let mut union = Vec::new();
            for shard in 0..SHARDS {
                let batches = recovered.shard_batches(shard).unwrap();
                union.extend(batches.iter().cloned());
                let shard_got = fold_of(&batches);
                let matched = (crashed.acked..=crashed.issued).find(|&m| {
                    let mut want = legacy_shard_records(&legacy_fold, shard);
                    want.extend(expected_batches(shard, m));
                    shard_got == fold_of(&want)
                });
                assert!(
                    matched.is_some(),
                    "crash at op {k}: shard {shard} is not legacy + a \
                     committed prefix (acked {} / issued {}): {shard_got:?}",
                    crashed.acked,
                    crashed.issued
                );
            }
            assert_eq!(got, fold_of(&union), "crash at op {k}: merge ≠ union");
        }
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
