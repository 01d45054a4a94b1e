//! Differential and invariant oracles.
//!
//! Every fuzz case is pushed through a battery of checks, each of which
//! knows how to tell a *bug* from a legitimate behavioural difference:
//!
//! * **compile-panic / vm-panic** — the compiler may reject input, and the
//!   VM may fault, but neither may ever panic.
//! * **pass-defect** — `Pipeline::run_checked` runs the semantic verifier
//!   after every optimization pass; any diagnostic is a finding.
//! * **diff-opt** — the unoptimized program and its `Pipeline::standard()`
//!   compilation must produce identical output, return value, and
//!   per-branch counts for every branch the optimized program still
//!   contains. Resource-limit faults (fuel, stack) are excluded: the
//!   optimizer legitimately changes instruction counts.
//! * **profile-invariant** — recorded counts must satisfy
//!   `taken ≤ executed` and other mfcheck profile rules.
//! * **trace-replay** — replaying the ordered branch trace must rebuild
//!   exactly the aggregate counts the VM recorded alongside it.
//! * **directive-roundtrip** — writing profile directives and parsing them
//!   back must reproduce the counts bit for bit.
//! * **combine-convexity** — a scaled combination of per-dataset profiles
//!   must stay inside the convex hull of the inputs' taken-fractions and
//!   never claim more taken weight than executed weight.
//! * **profdb-roundtrip** — persisting the per-dataset profiles through
//!   a segment log (on the in-memory VFS) and reopening must
//!   reproduce every raw count bit for bit, before and after compaction;
//!   a corrupted tail frame must be salvaged away, never accepted.
//! * **profsvc-groupcommit** — pushing the same profiles through the
//!   sharded group-commit service must round-trip losslessly on a clean
//!   VFS, salvage a torn shard tail back to the committed prefix, and —
//!   under a transient-fault storm with retries disabled — never
//!   acknowledge a submission as `Committed` whose records did not
//!   actually reach the disk (the ack-before-sync bug).
//! * **switch-diff** — compiling with `SwitchMode::JumpTable` instead of
//!   the default cascade must not change program output.
//! * **predict-soundness** — the `mfpredict` interval abstract
//!   interpreter's proofs are universally quantified: a branch proved
//!   always-taken (or never-taken) must never be observed going the
//!   other way in a completed run, and a block proved dead must show a
//!   zero Pixie count. Any observed contradiction means the abstract
//!   domain, a transfer function, or the widening is unsound.
//! * **dynpred-consistency** — driving the online `mfdyn` predictor zoo
//!   over the unoptimized program's branch stream (on both backends, fed
//!   inline on one and through a helper thread on the other) and
//!   replaying the recorded branch events through the independently written
//!   golden predictor models must produce identical per-predictor
//!   `(executed, mispredicted)` tallies; any divergence is predictor
//!   state-update drift, never a legitimate behavioural difference.
//! * **stale-remap** — the version-skew fingerprint scheme must notice a
//!   changed predicate: flipping one comparison operator between two
//!   otherwise identical program versions must change exactly that site's
//!   fingerprint, orphan its old counts, and degrade the edited site to
//!   the static tier — never silently salvage counts recorded for a
//!   different predicate onto it.
//! * **flat-diff** — running the unoptimized program on the *other* VM
//!   backend (flat when the primary is reference, and vice versa) must be
//!   observably identical: same output/result, same `RunStats` (branch and
//!   Pixie counters, break events, total instructions), the same recorded
//!   edge and branch streams, and — unlike diff-opt — the *same*
//!   `RuntimeError` on faulting runs, since both backends execute the
//!   identical program.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use ifprob::directives::{parse_directives, write_directives};
use ifprob::{combine, CombineRule};
use mfdyn::{golden, DynSpec, Zoo};
use mffault::{FaultPlan, FaultVfs, MemVfs, RetryPolicy, Vfs};
use mfopt::Pipeline;
use mfprofdb::{fold_record, LockCfg, Persistence, ProfileRecord, RawFold, SegmentLog};
use mfprofsvc::{ProfileService, ServiceOptions};
use trace_ir::{BranchId, Program};
use trace_vm::{
    Backend, BranchCounts, GuestValue, Input, Observer, Recorder, Run, RuntimeError, Vm, VmConfig,
};

use crate::cov::{Collector, Edge};
use mflang::{CompileOptions, SwitchMode};

static PRIMARY_BACKEND: AtomicU8 = AtomicU8::new(0);

/// Selects the VM backend the oracle battery's primary runs use
/// (`mffuzz --backend`). The flat-vs-reference differential always runs the
/// *other* backend, so either choice exercises both engines.
pub fn set_backend(backend: Backend) {
    PRIMARY_BACKEND.store(backend as u8, Ordering::Relaxed);
}

/// The currently selected primary backend (reference unless overridden).
pub fn backend() -> Backend {
    match PRIMARY_BACKEND.load(Ordering::Relaxed) {
        0 => Backend::Reference,
        _ => Backend::Flat,
    }
}

fn other_backend(b: Backend) -> Backend {
    match b {
        Backend::Reference => Backend::Flat,
        Backend::Flat => Backend::Reference,
    }
}

/// The VM limits every oracle run uses: small enough that runaway mutants
/// die fast, large enough that generated programs always finish.
pub fn fuzz_vm_config() -> VmConfig {
    VmConfig {
        fuel: 200_000,
        max_stack: 128,
        max_alloc: 1 << 12,
        backend: backend(),
    }
}

/// What the oracle battery concluded about one case.
#[derive(Clone, Debug, Default)]
pub struct OracleOutcome {
    /// `(oracle, detail)` pairs, one per violated oracle.
    pub findings: Vec<(&'static str, String)>,
    /// Coverage edges observed while running the unoptimized program.
    pub edges: Vec<Edge>,
    /// Whether the case compiled (only compiled cases seed the corpus).
    pub compiled: bool,
}

fn guest_eq(a: &GuestValue, b: &GuestValue) -> bool {
    let canon = |v: &GuestValue| match *v {
        GuestValue::Zero => GuestValue::Int(0),
        other => other,
    };
    match (canon(a), canon(b)) {
        (GuestValue::Float(x), GuestValue::Float(y)) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    }
}

fn runs_eq(a: &Run, b: &Run) -> Option<String> {
    if a.output.len() != b.output.len() {
        return Some(format!(
            "output length {} vs {}",
            a.output.len(),
            b.output.len()
        ));
    }
    for (i, (x, y)) in a.output.iter().zip(&b.output).enumerate() {
        if !guest_eq(x, y) {
            return Some(format!("output[{i}] {x:?} vs {y:?}"));
        }
    }
    match (&a.result, &b.result) {
        (None, None) => None,
        (Some(x), Some(y)) if guest_eq(x, y) => None,
        (x, y) => Some(format!("result {x:?} vs {y:?}")),
    }
}

fn is_resource_limit(e: &RuntimeError) -> bool {
    matches!(
        e,
        RuntimeError::OutOfFuel { .. } | RuntimeError::StackOverflow { .. }
    )
}

fn to_inputs(set: &[i64]) -> Vec<Input> {
    set.iter().map(|&v| Input::Int(v)).collect()
}

/// Runs the VM under `obs`, converting a panic into a finding via
/// `findings`.
fn run_guarded<O: Observer>(
    program: &Program,
    inputs: &[Input],
    obs: &mut O,
    findings: &mut Vec<(&'static str, String)>,
) -> Option<Result<Run, RuntimeError>> {
    let vm = Vm::with_config(program, fuzz_vm_config());
    let outcome = catch_unwind(AssertUnwindSafe(|| vm.run_observed(inputs, obs)));
    match outcome {
        Ok(r) => Some(r),
        Err(payload) => {
            findings.push(("vm-panic", panic_detail(&payload)));
            None
        }
    }
}

/// The predictor roster the consistency oracle drives: one member of each
/// predictor family, sized small so aliasing (and thus interesting state
/// evolution) shows up even on fuzz-sized programs. Gshare and the
/// perceptron are the history-bearing members — the ones whose online
/// state can silently drift from the golden replay's; the self-seeded
/// 2-bit table is the one whose tallies settle only at the end of the run.
const DYNPRED_SPECS: [DynSpec; 5] = [
    DynSpec::OneBit { table_bits: 8 },
    DynSpec::TwoBit { table_bits: 8 },
    DynSpec::SelfSeededTwoBit { table_bits: 8 },
    DynSpec::Gshare {
        history: 8,
        table_bits: 8,
    },
    DynSpec::Perceptron {
        history: 8,
        table_bits: 6,
    },
];

/// A fresh online zoo over [`DYNPRED_SPECS`].
fn dynpred_zoo() -> Zoo {
    Zoo::new(&DYNPRED_SPECS)
}

/// O13: the dynamic-predictor consistency oracle. `zoo` (a
/// [`dynpred_zoo`]) watched a completed run on `be` beside `recorded`;
/// replaying those branch events through the independently written golden
/// predictor models must reproduce every predictor's
/// `(executed, mispredicted)` tallies exactly. A divergence means online
/// predictor state drifted (e.g. a skipped global-history update), never a
/// legitimate behavioural difference. Each input set's primary run and
/// its flat-diff twin are checked, so both backends are, and both ways of
/// delivering events: the primary run's zoo observes inline, the twin's
/// through a helper thread ([`Zoo::observe_beside`]).
fn check_dynpred_consistency(
    be: Backend,
    recorded: &Recorder,
    zoo: &mut Zoo,
    findings: &mut Vec<(&'static str, String)>,
) {
    let replayed = golden::replay_zoo(&DYNPRED_SPECS, &recorded.branches);
    for ((spec, on), (_, gold)) in zoo.report().entries.iter().zip(&replayed.entries) {
        if on != gold {
            findings.push((
                "dynpred-consistency",
                format!(
                    "{} backend, {spec}: online {}/{} mispredicts vs golden replay {}/{}",
                    be.name(),
                    on.mispredicted,
                    on.executed,
                    gold.mispredicted,
                    gold.executed,
                ),
            ));
        }
    }
}

/// O9: the flat-vs-reference differential. Re-runs `program` on the backend
/// the primary runs did *not* use and demands bit-identical observations,
/// `recorded` being what the primary run's [`Recorder`] kept. The re-run
/// also carries O13's zoo, observing beside it on a helper thread.
fn check_flat_diff(
    program: &Program,
    inputs: &[Input],
    si: usize,
    primary: &Result<Run, RuntimeError>,
    recorded: &Recorder,
    findings: &mut Vec<(&'static str, String)>,
) {
    let mut config = fuzz_vm_config();
    config.backend = other_backend(config.backend);
    let vm = Vm::with_config(program, config);
    let (mut recorder, mut zoo) = (Recorder::default(), dynpred_zoo());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        zoo.observe_beside(|feed| vm.run_observed(inputs, &mut (&mut recorder, feed)))
    }));
    let secondary = match outcome {
        Ok(r) => r,
        Err(payload) => {
            findings.push(("vm-panic", panic_detail(&payload)));
            return;
        }
    };
    if secondary.is_ok() {
        check_dynpred_consistency(config.backend, &recorder, &mut zoo, findings);
    }
    match (primary, &secondary) {
        (Ok(p), Ok(s)) => {
            if let Some(diff) = runs_eq(p, s) {
                findings.push(("flat-diff", format!("input set {si}: {diff}")));
            } else if p.stats != s.stats {
                findings.push((
                    "flat-diff",
                    format!("input set {si}: {}", flat_stats_detail(p, s)),
                ));
            }
        }
        // Same program on both backends: even the error must match exactly,
        // including OutOfFuel at the same charge boundary.
        (Err(pe), Err(se)) if pe == se => {}
        (p, s) => findings.push((
            "flat-diff",
            format!(
                "input set {si}: primary {} vs secondary {}",
                flat_result_word(p),
                flat_result_word(s)
            ),
        )),
    }
    if *recorded != recorder {
        findings.push((
            "flat-diff",
            format!(
                "input set {si}: recorded streams diverge ({} vs {} branches, {} vs {} edges)",
                recorded.branches.len(),
                recorder.branches.len(),
                recorded.edges.len(),
                recorder.edges.len()
            ),
        ));
    }
}

fn flat_result_word(r: &Result<Run, RuntimeError>) -> String {
    match r {
        Ok(_) => "succeeded".to_string(),
        Err(e) => format!("faulted ({e})"),
    }
}

fn flat_stats_detail(p: &Run, s: &Run) -> String {
    if p.stats.total_instrs != s.stats.total_instrs {
        return format!(
            "total_instrs {} vs {}",
            p.stats.total_instrs, s.stats.total_instrs
        );
    }
    if p.stats.branches != s.stats.branches {
        return first_count_diff(&p.stats.branches, &s.stats.branches)
            .unwrap_or_else(|| "branch counts diverge".to_string());
    }
    if p.stats.events != s.stats.events {
        return format!("events {:?} vs {:?}", p.stats.events, s.stats.events);
    }
    "pixie block counts diverge".to_string()
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The trace-replay and profile-invariant checks shared by every oracle
/// entry point; `recorded` is what the run's [`Recorder`] kept.
fn check_run_invariants(
    run: &Run,
    recorded: &Recorder,
    findings: &mut Vec<(&'static str, String)>,
) {
    let entries: Vec<(BranchId, u64, u64)> = run.stats.branches.iter().collect();
    let issues = mfcheck::check_entries(&entries);
    if !issues.is_empty() {
        findings.push((
            "profile-invariant",
            issues
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        ));
    }
    let mut replayed = BranchCounts::new();
    for ev in &recorded.branches {
        replayed.record(ev.id, ev.taken);
    }
    if replayed != run.stats.branches {
        let detail = first_count_diff(&replayed, &run.stats.branches)
            .unwrap_or_else(|| "trace and aggregate counts disagree".to_string());
        findings.push(("trace-replay", detail));
    }
}

fn first_count_diff(a: &BranchCounts, b: &BranchCounts) -> Option<String> {
    let ids: std::collections::BTreeSet<BranchId> = a
        .iter()
        .map(|(id, _, _)| id)
        .chain(b.iter().map(|(id, _, _)| id))
        .collect();
    for id in ids {
        if a.get(id) != b.get(id) {
            return Some(format!("branch {id:?}: {:?} vs {:?}", a.get(id), b.get(id)));
        }
    }
    None
}

/// Writes directives from `counts` and parses them back; any discrepancy
/// is a `directive-roundtrip` finding.
fn check_directive_roundtrip(
    program: &Program,
    counts: &BranchCounts,
    findings: &mut Vec<(&'static str, String)>,
) {
    let text = write_directives(program, counts);
    match parse_directives(program, &text) {
        Ok(parsed) => {
            for id in (0..program.branch_info.len() as u32).map(BranchId) {
                if parsed.get(id) != counts.get(id) {
                    findings.push((
                        "directive-roundtrip",
                        format!(
                            "branch {id:?}: wrote {:?}, read back {:?}",
                            counts.get(id),
                            parsed.get(id)
                        ),
                    ));
                    return;
                }
            }
        }
        Err(e) => findings.push((
            "directive-roundtrip",
            format!("directives failed to re-parse: {e}"),
        )),
    }
}

/// O-predict: interval proofs held against a completed run's observed
/// counters. Proofs quantify over every execution that runs to
/// completion, so a single counter going the proved-impossible way — or
/// a single execution of a provably-dead block — convicts the static
/// analysis, not the program.
pub fn check_predict_soundness(
    proofs: &mfpredict::ProgramProofs,
    si: usize,
    run: &Run,
    findings: &mut Vec<(&'static str, String)>,
) {
    for c in proofs.contradictions(run.stats.branches.iter()) {
        findings.push(("predict-soundness", format!("input set {si}: {c}")));
    }
    for &(f, b) in &proofs.dead_blocks {
        let count = run.stats.pixie.block_count(f, b.index());
        if count > 0 {
            findings.push((
                "predict-soundness",
                format!(
                    "input set {si}: {b} of fn{} proved dead but executed {count} times",
                    f.index()
                ),
            ));
        }
    }
}

/// Scaled combination must stay in the convex hull of its inputs.
pub fn check_combine_convexity(
    profiles: &[&BranchCounts],
    findings: &mut Vec<(&'static str, String)>,
) {
    if profiles.len() < 2 {
        return;
    }
    const EPS: f64 = 1e-9;
    let combined = combine(profiles, CombineRule::Scaled);
    for (id, we, wt) in combined.iter() {
        if wt > we + EPS {
            findings.push((
                "combine-convexity",
                format!("branch {id:?}: taken weight {wt} exceeds executed weight {we}"),
            ));
            return;
        }
        let fractions: Vec<f64> = profiles
            .iter()
            .filter_map(|p| {
                let (e, t) = p.get(id);
                (e > 0).then(|| t as f64 / e as f64)
            })
            .collect();
        if fractions.is_empty() || we <= 0.0 {
            continue;
        }
        let f = wt / we;
        let lo = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = fractions.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if f < lo - EPS || f > hi + EPS {
            findings.push((
                "combine-convexity",
                format!("branch {id:?}: combined fraction {f} outside [{lo}, {hi}]"),
            ));
            return;
        }
    }
}

/// Persisting per-dataset profiles through a segment log and reading
/// them back must be lossless, before and after compaction; a corrupted
/// tail frame must be salvaged away, never folded in. Runs entirely on
/// the in-memory VFS, so it is deterministic and touches no real
/// filesystem.
pub fn check_profdb_roundtrip(
    profiles: &[BranchCounts],
    findings: &mut Vec<(&'static str, String)>,
) {
    if profiles.is_empty() {
        return;
    }
    let dataset = |i: usize| format!("ds{i:02}");
    let records: Vec<ProfileRecord> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| ProfileRecord::from_run(&dataset(i), p, &BTreeMap::new()))
        .collect();
    let mut expected = RawFold::new();
    records.iter().for_each(|r| fold_record(&mut expected, r));
    let open = |vfs: &Arc<dyn Vfs>| {
        SegmentLog::open(Arc::clone(vfs), "/oracle-db", RetryPolicy::default())
            .expect("no fault plan, so open cannot crash")
    };
    let totals = |log: &mut SegmentLog| {
        let mut fold = RawFold::new();
        let batches = log
            .read_batches()
            .expect("no fault plan, so reads cannot crash");
        batches
            .iter()
            .flatten()
            .for_each(|r| fold_record(&mut fold, r));
        fold
    };
    // One writer commits every dataset as its own batch, holding the
    // lock until the log drops; its warnings when a commit degraded.
    let fill = |vfs: &Arc<dyn Vfs>| -> Result<SegmentLog, Vec<String>> {
        let mut log = open(vfs);
        for record in &records {
            let landed = log
                .commit_batch_keep(std::slice::from_ref(record), &LockCfg::default(), true)
                .expect("no fault plan, so commits cannot crash");
            if landed != Persistence::Committed {
                return Err(log.warnings().to_vec());
            }
        }
        Ok(log)
    };

    // Round trip: commit every dataset, reopen, compact, reopen again.
    // Each view must reproduce the raw per-branch counts exactly.
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    if let Err(warnings) = fill(&vfs) {
        findings.push((
            "profdb-roundtrip",
            format!("append degraded on a fault-free vfs: {warnings:?}"),
        ));
        return;
    }
    for compacted in [false, true] {
        let mut reopened = open(&vfs);
        let recovered = totals(&mut reopened);
        if recovered != expected {
            findings.push((
                "profdb-roundtrip",
                format!(
                    "reopen {} altered the stored profiles: recovered datasets {:?}, expected {:?}",
                    if compacted {
                        "after compaction"
                    } else {
                        "after append"
                    },
                    recovered.keys().collect::<Vec<_>>(),
                    expected.keys().collect::<Vec<_>>()
                ),
            ));
            return;
        }
        if compacted {
            break;
        }
        reopened
            .compact(&LockCfg::default())
            .expect("no fault plan, so compaction cannot crash");
        if totals(&mut reopened) != expected {
            findings.push((
                "profdb-roundtrip",
                "compaction changed the folded profile".to_string(),
            ));
            return;
        }
    }

    // Tail salvage: flip the high byte of the final record's last taken
    // count, leaving the frame structurally intact. The checksum must
    // reject the frame, so recovery yields exactly the records before it.
    if profiles[profiles.len() - 1].iter().next().is_none() {
        return; // no trailing count word to corrupt
    }
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let Ok(log) = fill(&vfs) else {
        return; // already reported above on an identical log
    };
    let segment = log
        .active_segment()
        .expect("persistent log has a segment")
        .to_path_buf();
    drop(log);
    let mut bytes = vfs.read(&segment).expect("in-memory segment is readable");
    let flip = bytes.len() - 9; // MSB of the little-endian taken u64, just before the checksum
    bytes[flip] ^= 0x80;
    vfs.write(&segment, &bytes)
        .expect("in-memory segment is writable");

    let salvaged = totals(&mut open(&vfs));
    let mut pruned = expected;
    pruned.remove(&dataset(profiles.len() - 1));
    if salvaged != pruned {
        findings.push((
            "profdb-roundtrip",
            format!(
                "corrupted tail frame was not salvaged away: recovered datasets {:?}, \
                 expected the uncorrupted prefix {:?}",
                salvaged.keys().collect::<Vec<_>>(),
                pruned.keys().collect::<Vec<_>>()
            ),
        ));
    }
}

/// The sharded group-commit service must honor its acknowledgments.
/// Three legs, all on the in-memory VFS:
///
/// 1. a fault-free enqueue/flush of every dataset must ack `Committed`
///    everywhere and survive a reopen bit for bit;
/// 2. a torn shard tail (garbage appended past the last group commit)
///    must be salvaged back to exactly the committed prefix;
/// 3. under a transient-fault storm with retries disabled, every
///    submission acked `Committed` must actually be on disk after a
///    clean reopen — a service that acks before its sync confirms
///    (or that counts truncated-away data as durable) fails here.
pub fn check_profsvc_groupcommit(
    profiles: &[BranchCounts],
    findings: &mut Vec<(&'static str, String)>,
) {
    if profiles.is_empty() {
        return;
    }
    let opts = || ServiceOptions {
        shards: 4,
        retry: RetryPolicy::none(),
        ..ServiceOptions::default()
    };
    let dataset = |i: usize| format!("svc{i:02}");
    let expected: BTreeMap<String, Vec<(u32, u64, u64)>> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                dataset(i),
                p.iter().map(|(id, e, t)| (id.0, e, t)).collect(),
            )
        })
        .collect();

    // Leg 1: fault-free group commit round trip.
    let mem: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let svc = ProfileService::open(Arc::clone(&mem), "/oracle-svc", opts())
        .expect("no fault plan, so open cannot crash");
    let mut sids = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        sids.push(
            svc.enqueue(&dataset(i), p)
                .expect("no fault plan, so enqueue cannot crash"),
        );
    }
    let acks = svc
        .flush()
        .expect("no fault plan, so group commit cannot crash");
    if sids
        .iter()
        .any(|sid| acks.get(sid) != Some(&Persistence::Committed))
    {
        findings.push((
            "profsvc-groupcommit",
            format!(
                "group commit degraded on a fault-free vfs: {:?}",
                svc.warnings()
            ),
        ));
        return;
    }
    drop(svc);
    let reopened = ProfileService::open(Arc::clone(&mem), "/oracle-svc", opts())
        .expect("no fault plan, so open cannot crash");
    if reopened.merged_totals().expect("fault-free read") != expected {
        findings.push((
            "profsvc-groupcommit",
            "reopen after group commit altered the stored profiles".to_string(),
        ));
        return;
    }

    // Leg 2: torn shard tails must salvage to the committed prefix.
    for shard_dir in mem
        .read_dir(Path::new("/oracle-svc"))
        .expect("in-memory dir is readable")
    {
        for seg in mem.read_dir(&shard_dir).into_iter().flatten() {
            if seg.extension().is_some_and(|x| x == "mfdb") {
                mem.append(&seg, &[0xAB, 0xCD, 0xEF, 0x01])
                    .expect("in-memory segment is writable");
            }
        }
    }
    drop(reopened);
    let salvaged = ProfileService::open(Arc::clone(&mem), "/oracle-svc", opts())
        .expect("no fault plan, so open cannot crash");
    if salvaged.merged_totals().expect("fault-free read") != expected {
        findings.push((
            "profsvc-groupcommit",
            "torn shard tail was not salvaged back to the committed prefix".to_string(),
        ));
        return;
    }
    drop(salvaged);

    // Leg 3: the ack-discipline check, by surgical fault injection. Two
    // clean submits measure the steady-state mutating-op count of one
    // group commit; its second-to-last op is the batch sync (the last is
    // the shard-lock release), so a targeted transient there makes
    // exactly the sync fail for the victim submission. With retries off
    // a correct service must ack that submission `Degraded`; acking
    // `Committed` while the records never survive a reopen is the
    // ack-before-sync bug. One shard, so the victim's ack is the verdict
    // of that single commit.
    let storm_opts = || ServiceOptions {
        shards: 1,
        ..opts()
    };
    let mem = Arc::new(MemVfs::new());
    let storm = Arc::new(FaultVfs::new(
        Arc::clone(&mem) as Arc<dyn Vfs>,
        FaultPlan::none(),
    ));
    let svc = ProfileService::open(
        Arc::clone(&storm) as Arc<dyn Vfs>,
        "/oracle-svc",
        storm_opts(),
    )
    .expect("no fault plan, so open cannot crash");
    let probe = &profiles[0];
    for name in ["svc-base", "svc-probe"] {
        if svc
            .submit(name, probe)
            .expect("no fault plan, so submit cannot crash")
            != Persistence::Committed
        {
            findings.push((
                "profsvc-groupcommit",
                format!("fault-free submit degraded: {:?}", svc.warnings()),
            ));
            return;
        }
    }
    let before = storm.op_count();
    if svc
        .submit("svc-calib", probe)
        .expect("no fault plan, so submit cannot crash")
        != Persistence::Committed
    {
        return; // already reported shapes like this above
    }
    let per_submit = storm.op_count() - before;
    storm.set_plan(FaultPlan {
        transient_at: Some(storm.op_count() + per_submit.saturating_sub(2)),
        ..FaultPlan::none()
    });
    let victim_ack = svc
        .submit("svc-victim", probe)
        .expect("a single transient is not a crash");
    let injected = storm.counters().transients == 1;
    drop(svc);
    let reopened = ProfileService::open(
        Arc::clone(&mem) as Arc<dyn Vfs>,
        "/oracle-svc",
        storm_opts(),
    )
    .expect("no fault plan, so open cannot crash");
    let disk = reopened.merged_totals().expect("fault-free read");
    let want: Vec<(u32, u64, u64)> = probe.iter().map(|(id, e, t)| (id.0, e, t)).collect();
    if injected && victim_ack == Persistence::Committed && disk.get("svc-victim") != Some(&want) {
        findings.push((
            "profsvc-groupcommit",
            format!(
                "sync of the victim batch failed, yet it was acked Committed; after reopen \
                 the disk holds {:?} instead of {:?}",
                disk.get("svc-victim"),
                want
            ),
        ));
    }
}

/// Version-skew salvage must never cross a predicate edit. Two fixture
/// versions of one program differ in exactly one comparison operator
/// (`i < 3` vs `i <= 3`) at a real branch site; the site fingerprints
/// must differ at exactly that site, the old counts recorded for it must
/// orphan, and the edited site must degrade to the static tier. A
/// fingerprint scheme that ignores the operator (the seeded
/// `stale-fingerprint-ignores-operator` defect) instead reports an
/// identity remap and silently reuses counts that describe a different
/// predicate.
pub fn check_stale_remap(findings: &mut Vec<(&'static str, String)>) {
    const V1: &str = "fn main(n: int) {\n\
                      \x20 var t: int = 0;\n\
                      \x20 for (var i: int = 0; i < n; i = i + 1) {\n\
                      \x20   if (i < 3) { emit(i); t = t + 1; } else { emit(t); }\n\
                      \x20 }\n\
                      \x20 emit(t);\n\
                      }\n";
    let v2 = V1.replace("i < 3", "i <= 3");
    let p1 = mflang::compile(V1).expect("stale-remap fixture v1 compiles");
    let p2 = mflang::compile(&v2).expect("stale-remap fixture v2 compiles");
    let fps1 = mfstale::site_fingerprints(&p1);
    let fps2 = mfstale::site_fingerprints(&p2);

    // The versions are structurally identical, so branch ids line up and
    // exactly the edited site's fingerprint may differ.
    let flipped: Vec<BranchId> = fps1
        .iter()
        .filter(|&(id, fp)| fps2.get(id) != Some(fp))
        .map(|(&id, _)| id)
        .collect();
    if flipped.len() != 1 {
        findings.push((
            "stale-remap",
            format!(
                "flipping `<` to `<=` in one predicate must change exactly one of the {} \
                 site fingerprints, but {} changed",
                fps1.len(),
                flipped.len()
            ),
        ));
        return;
    }

    let entries: Vec<(BranchId, u64, u64)> = fps1.keys().map(|&id| (id, 12, 5)).collect();
    let out = mfstale::remap_counts(&entries, &fps1, &fps2);
    let r = &out.report;
    if r.orphaned != 1 || out.degraded != flipped {
        findings.push((
            "stale-remap",
            format!(
                "counts recorded for the old `i < 3` predicate must orphan and the edited \
                 site must degrade to the static tier: {r:?}, degraded {:?}, expected \
                 degraded {flipped:?}",
                out.degraded
            ),
        ));
        return;
    }
    if out.counts.iter().any(|&(id, _, _)| id == flipped[0]) {
        findings.push((
            "stale-remap",
            "stale counts were remapped onto the operator-edited site".to_string(),
        ));
    }
}

/// Runs the full oracle battery on one `.mf` source case.
///
/// `case_hash` qualifies coverage edges; pass `collect_edges = false` for
/// minimization re-runs where coverage is irrelevant.
pub fn check_source(source: &str, input_sets: &[Vec<i64>], case_hash: u64) -> OracleOutcome {
    let mut out = OracleOutcome::default();

    let compiled = catch_unwind(AssertUnwindSafe(|| mflang::compile(source)));
    let program = match compiled {
        Ok(Ok(p)) => p,
        Ok(Err(_)) => return out, // rejection is the parser doing its job
        Err(payload) => {
            out.findings.push(("compile-panic", panic_detail(&payload)));
            return out;
        }
    };
    out.compiled = true;

    // O2: the pass-by-pass semantic verifier.
    let mut optimized = program.clone();
    match Pipeline::standard().run_checked(&mut optimized) {
        Ok(_) => {}
        Err(defect) => {
            out.findings.push(("pass-defect", defect.to_string()));
            return out;
        }
    }

    // Interval proofs over the unoptimized program: checked against every
    // completed run's counters below.
    let proofs = mfpredict::analyze(&program);

    // Jump-table lowering for the switch differential (may legitimately
    // fail to differ from cascade when the program has no switch).
    let jt_options = CompileOptions {
        switch_mode: SwitchMode::JumpTable,
        ..Default::default()
    };
    let jt_program = mflang::compile_with(source, &jt_options).ok();

    let mut unopt_counts: Vec<BranchCounts> = Vec::new();
    for (si, set) in input_sets.iter().enumerate() {
        let inputs = to_inputs(set);
        let mut observers = (
            Collector::new(case_hash),
            (Recorder::default(), dynpred_zoo()),
        );
        let Some(unopt) = run_guarded(&program, &inputs, &mut observers, &mut out.findings) else {
            return out;
        };
        let (collector, (recorded, mut zoo)) = observers;
        if si == 0 {
            out.edges = collector.into_edges();
        }
        if unopt.is_ok() {
            check_dynpred_consistency(backend(), &recorded, &mut zoo, &mut out.findings);
        }
        check_flat_diff(&program, &inputs, si, &unopt, &recorded, &mut out.findings);
        let Some(opt) = run_guarded(&optimized, &inputs, &mut (), &mut out.findings) else {
            return out;
        };
        match (&unopt, &opt) {
            (Ok(u), Ok(o)) => {
                if let Some(diff) = runs_eq(u, o) {
                    out.findings
                        .push(("diff-opt", format!("input set {si}: {diff}")));
                }
                // Per-branch counts must agree for every branch the
                // optimized program still contains (the metamorphic
                // profile-preservation invariant).
                for (&id, _) in optimized.live_branches().iter() {
                    if u.stats.branches.get(id) != o.stats.branches.get(id) {
                        out.findings.push((
                            "branch-counts",
                            format!(
                                "input set {si}, branch {id:?}: unopt {:?} vs opt {:?}",
                                u.stats.branches.get(id),
                                o.stats.branches.get(id)
                            ),
                        ));
                        break;
                    }
                }
                check_run_invariants(u, &recorded, &mut out.findings);
                check_predict_soundness(&proofs, si, u, &mut out.findings);
                check_directive_roundtrip(&program, &u.stats.branches, &mut out.findings);
                unopt_counts.push(u.stats.branches.clone());
            }
            (Err(ue), Err(_oe)) => {
                // Both faulted: error kinds may differ (evaluation order
                // shifts under optimization), never a finding.
                let _ = ue;
            }
            (Ok(_), Err(e)) | (Err(e), Ok(_)) if is_resource_limit(e) => {}
            (Ok(_), Err(e)) => out.findings.push((
                "diff-opt",
                format!("input set {si}: optimized faulted ({e}) where unoptimized succeeded"),
            )),
            (Err(e), Ok(_)) => out.findings.push((
                "diff-opt",
                format!("input set {si}: unoptimized faulted ({e}) where optimized succeeded"),
            )),
        }

        // O6: switch lowering differential.
        if let Some(jt) = &jt_program {
            let Some(jt_run) = run_guarded(jt, &inputs, &mut (), &mut out.findings) else {
                return out;
            };
            match (&unopt, &jt_run) {
                (Ok(u), Ok(j)) => {
                    if let Some(diff) = runs_eq(u, j) {
                        out.findings
                            .push(("switch-diff", format!("input set {si}: {diff}")));
                    }
                }
                (Err(_), _) | (_, Err(_)) => {
                    // Lowering changes instruction counts; only compare
                    // clean runs.
                }
            }
        }
    }

    let refs: Vec<&BranchCounts> = unopt_counts.iter().collect();
    check_combine_convexity(&refs, &mut out.findings);
    check_profdb_roundtrip(&unopt_counts, &mut out.findings);
    check_profsvc_groupcommit(&unopt_counts, &mut out.findings);
    check_stale_remap(&mut out.findings);
    out
}

/// The reduced battery for IR-level mutants: the mutant must first pass
/// `validate()` and the mfcheck verifier (otherwise it is silently
/// discarded — `compiled` stays false), then the optimizer and VM must
/// digest it without disagreeing.
pub fn check_ir(program: &Program, input_sets: &[Vec<i64>]) -> OracleOutcome {
    let mut out = OracleOutcome::default();
    if program.validate().is_err() {
        return out;
    }
    if !mfcheck::is_clean(&mfcheck::verify_program(program)) {
        return out;
    }
    out.compiled = true;

    let mut optimized = program.clone();
    match Pipeline::standard().run_checked(&mut optimized) {
        Ok(_) => {}
        Err(defect) => {
            out.findings.push(("pass-defect", defect.to_string()));
            return out;
        }
    }

    for (si, set) in input_sets.iter().enumerate() {
        let inputs = to_inputs(set);
        let mut recorded = Recorder::default();
        let Some(unopt) = run_guarded(program, &inputs, &mut recorded, &mut out.findings) else {
            return out;
        };
        check_flat_diff(program, &inputs, si, &unopt, &recorded, &mut out.findings);
        let Some(opt) = run_guarded(&optimized, &inputs, &mut (), &mut out.findings) else {
            return out;
        };
        match (&unopt, &opt) {
            (Ok(u), Ok(o)) => {
                if let Some(diff) = runs_eq(u, o) {
                    out.findings
                        .push(("diff-opt", format!("input set {si}: {diff}")));
                }
                check_run_invariants(u, &recorded, &mut out.findings);
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) | (Err(e), Ok(_)) if is_resource_limit(e) => {}
            (Ok(_), Err(e)) => out.findings.push((
                "diff-opt",
                format!("input set {si}: optimized faulted ({e}) where unoptimized succeeded"),
            )),
            (Err(e), Ok(_)) => out.findings.push((
                "diff-opt",
                format!("input set {si}: unoptimized faulted ({e}) where optimized succeeded"),
            )),
        }
    }
    out
}

/// The profile-machinery battery for perturbed counts that the VM never
/// produced: directive round-trip against `program`, plus combine
/// convexity across the perturbed datasets.
pub fn check_profile(program: &Program, counts_sets: &[BranchCounts]) -> OracleOutcome {
    let mut out = OracleOutcome {
        compiled: true,
        ..Default::default()
    };
    for counts in counts_sets {
        check_directive_roundtrip(program, counts, &mut out.findings);
    }
    let refs: Vec<&BranchCounts> = counts_sets.iter().collect();
    check_combine_convexity(&refs, &mut out.findings);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::rng::Rng;

    #[test]
    fn generated_cases_are_clean() {
        for i in 0..60 {
            let case = generate(&mut Rng::for_iteration(0xFEED, i));
            let out = check_source(&case.source, &case.input_sets, 1);
            assert!(
                out.findings.is_empty(),
                "clean build produced findings {:?} for:\n{}",
                out.findings,
                case.source
            );
            assert!(out.compiled);
            assert!(!out.edges.is_empty(), "coverage hook reported no edges");
        }
    }

    #[test]
    fn rejection_is_not_a_finding() {
        let out = check_source("fn main( {", &[vec![0, 0]], 1);
        assert!(!out.compiled);
        assert!(out.findings.is_empty());
    }

    #[test]
    fn convexity_accepts_valid_profiles() {
        // Well-formed profiles can never violate convexity (the combine
        // rule is a convex mixture); the violating path is exercised by
        // the gauntlet via the `profile-combine-taken-inflate` defect.
        let a: BranchCounts = [(BranchId(0), 10u64, 9u64), (BranchId(1), 4u64, 0u64)]
            .into_iter()
            .collect();
        let b: BranchCounts = [(BranchId(0), 10u64, 2u64), (BranchId(1), 8u64, 8u64)]
            .into_iter()
            .collect();
        let mut findings = Vec::new();
        check_combine_convexity(&[&a, &b], &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
