//! Lock-file contention fairness: two live writers hammering the same
//! shard must interleave under the deterministic backoff schedule, and
//! neither may starve or silently lose a commit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mffault::{MemVfs, RetryPolicy, Vfs};
use mfprofsvc::{LockCfg, ProfileService, ServiceOptions};
use trace_ir::BranchId;
use trace_vm::BranchCounts;

const DIR: &str = "/svc";
const COMMITS_PER_WRITER: u64 = 24;

fn one(id: u32) -> BranchCounts {
    [(BranchId(id), 1u64, 1u64)].into_iter().collect()
}

fn opts() -> ServiceOptions {
    ServiceOptions {
        shards: 1, // force every commit onto the same shard lock
        lock: LockCfg {
            // Generous attempt budget: fairness means "eventually wins",
            // and the deterministic base*(attempt+1) schedule guarantees
            // the two writers' retry clocks drift apart instead of
            // colliding forever.
            attempts: 400,
            base: Duration::from_micros(50),
            steal: false,
        },
        retry: RetryPolicy::none(),
    }
}

#[test]
fn two_live_writers_on_one_shard_interleave_without_starvation() {
    let mem = Arc::new(MemVfs::new());
    // Two independent service handles over the same directory — the
    // same shape as two harness processes racing on one profile DB.
    let a = Arc::new(ProfileService::open(mem.clone() as Arc<dyn Vfs>, DIR, opts()).unwrap());
    let b = Arc::new(ProfileService::open(mem.clone() as Arc<dyn Vfs>, DIR, opts()).unwrap());

    // Progress clocks force genuine interleaving on a one-core box:
    // before commit i each writer waits (bounded) for its peer to have
    // finished commit i-1, so both threads are alive and racing for the
    // shard lock at every step instead of one draining its whole loop in
    // a single scheduler quantum.
    let progress = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);

    let spawn = |svc: Arc<ProfileService>, me: usize, ds: &'static str| {
        let progress = Arc::clone(&progress);
        thread::spawn(move || {
            let mut peer_seen = Vec::new();
            for i in 0..COMMITS_PER_WRITER {
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                while i > 0 && progress[1 - me].load(Ordering::SeqCst) < i {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "peer of {ds} starved: stuck below commit {i}"
                    );
                    thread::yield_now();
                }
                svc.submit(ds, &one(i as u32)).unwrap();
                progress[me].fetch_add(1, Ordering::SeqCst);
                peer_seen.push(progress[1 - me].load(Ordering::SeqCst));
            }
            peer_seen
        })
    };
    let ta = spawn(Arc::clone(&a), 0, "writer-a");
    let tb = spawn(Arc::clone(&b), 1, "writer-b");
    let seen_by_a = ta.join().expect("writer a panicked");
    let seen_by_b = tb.join().expect("writer b panicked");

    // Both writers finished all commits: no starvation, no lost updates.
    for (svc, ds) in [(&a, "writer-a"), (&b, "writer-b")] {
        let merged = svc.merged_totals().unwrap();
        let rows = merged.get(ds).unwrap_or_else(|| panic!("{ds} missing"));
        assert_eq!(rows.len() as u64, COMMITS_PER_WRITER, "{ds} lost commits");
        assert!(rows.iter().all(|&(_, e, t)| e == 1 && t == 1));
    }

    // Every commit must be durable: contention is retried under backoff,
    // never converted into a silent in-memory degrade.
    for (svc, ds) in [(&a, "a"), (&b, "b")] {
        assert!(svc.is_persistent(), "writer {ds} degraded under contention");
        let c = svc.counters();
        assert_eq!(c.store.degraded_appends, 0, "writer {ds} dropped to memory");
        assert_eq!(c.store.committed_appends, COMMITS_PER_WRITER);
    }

    // Interleaving: each writer observed the other make progress while it
    // was still running (not merely after it finished). On a one-core
    // box the backoff sleeps are what create these windows.
    let interleaved = |seen: &[u64]| {
        seen.iter()
            .take(seen.len() - 1) // ignore the final sample
            .any(|&p| p > 0 && p < COMMITS_PER_WRITER)
    };
    assert!(
        interleaved(&seen_by_a) || interleaved(&seen_by_b),
        "writers serialized completely: one finished before the other started"
    );

    // The merge agrees from both handles and from a fresh reader.
    let fresh = ProfileService::open(mem as Arc<dyn Vfs>, DIR, opts()).unwrap();
    assert_eq!(a.merged_totals().unwrap(), b.merged_totals().unwrap());
    assert_eq!(fresh.merged_totals().unwrap(), a.merged_totals().unwrap());
}

#[test]
fn contended_lock_with_tiny_budget_degrades_softly_and_recovers() {
    let mem = Arc::new(MemVfs::new());
    let svc = ProfileService::open(
        mem.clone() as Arc<dyn Vfs>,
        DIR,
        ServiceOptions {
            lock: LockCfg {
                attempts: 2,
                base: Duration::ZERO,
                steal: false,
            },
            shards: 1,
            ..opts()
        },
    )
    .unwrap();
    svc.submit("before", &one(1)).unwrap();

    // A live peer holds the shard lock for longer than our 2-attempt
    // budget tolerates. The commit must ack (in memory), not error, and
    // must NOT mark the store permanently degraded.
    let lock_path = std::path::Path::new(DIR).join("shard-000/LOCK");
    mem.create_new(&lock_path, std::process::id().to_string().as_bytes())
        .unwrap();
    svc.submit("during", &one(2)).unwrap();
    // Contention is NOT a shard failure: the service stays persistent
    // (non-sticky) and says why the batch was kept in memory.
    assert!(
        svc.is_persistent(),
        "live-peer contention must not be sticky"
    );
    assert!(
        svc.warnings().iter().any(|w| w.contains("contended")),
        "contention must be surfaced: {:?}",
        svc.warnings()
    );

    // Peer releases: the next commit goes straight back to disk and the
    // stranded record stays visible in the merged view.
    mem.remove_file(&lock_path).unwrap();
    svc.submit("after", &one(3)).unwrap();
    let merged = svc.merged_totals().unwrap();
    for ds in ["before", "during", "after"] {
        assert!(merged.contains_key(ds), "{ds} missing from merge");
    }
    let c = svc.counters();
    assert_eq!(c.store.degraded_appends, 1);
    assert!(c.store.committed_appends >= 2);
}
