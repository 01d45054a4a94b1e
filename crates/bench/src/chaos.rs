//! Full-pipeline chaos battery: profile collection → sharded profile
//! service under a seeded filesystem fault storm → version-skew remap →
//! profile-laid-out flat backend → dynamic-predictor zoo, with program edits
//! injected between accumulation rounds.
//!
//! Each seed gets a private in-memory filesystem wrapped in a
//! [`mffault::FaultVfs`] whose [`mffault::FaultPlan`] is derived entirely
//! from the seed (short writes, `ENOSPC`, transients, torn renames — no
//! hard crashes, so one accessor lives through the whole storm). Rounds
//! alternate running the guest program, remapping whatever profile
//! survived onto the *current* program text, steering flat block layout
//! with it, and recording the fresh run back through the service. Between
//! rounds the battery may edit the program (rename a function, delete
//! dead code, flip a comparison, append a function), which is exactly the
//! version skew `mfstale` exists to absorb.
//!
//! A violation of any invariant below is a **finding**; the battery (and
//! the `chaos` binary) reports it and exits non-zero:
//!
//! 1. **Science is fault-free.** Every round, the flat backend — blocks
//!    laid out along the storm-surviving profile, degraded sites carrying
//!    no counts — must be bit-identical (output, result, every counter) to the
//!    reference backend on the same program and inputs, and the online
//!    predictor zoo must tally identically over both backends.
//! 2. **Every degradation is attributed.** Each recorded dataset is
//!    acknowledged `Committed` or `Degraded` (or failed with a visible
//!    error). After the storm, a *clean* reopen of the underlying
//!    filesystem must succeed, and the durable totals must be bounded
//!    below by the committed sums and above by the sums of everything
//!    attempted, per `(dataset, branch)`. Durable data outside those
//!    bounds — lost committed counts, counts never written, datasets
//!    never recorded, internally inconsistent entries — is silent
//!    corruption.
//! 3. **Remaps conserve and identity-map.** For every per-dataset remap,
//!    `matched + salvaged + orphaned` equals the old entry count; and a
//!    committed dataset recorded at the *current* program version must
//!    remap as the identity.
//!
//! The JSON report carries no timings or host facts, so a battery at
//! `--jobs 8` is byte-identical to the same battery at `--jobs 1`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mffault::{FaultPlan, FaultVfs, MemVfs, RetryPolicy, Vfs};
use mfprofsvc::{Persistence, ProfileService, ServiceOptions};
use mfreport::json::Json;
use mfstale::{edit, remap_counts, site_fingerprints};
use trace_ir::BranchId;
use trace_vm::{FlatProgram, Input, Vm, VmConfig};

/// The guest program the battery runs and edits. Every `if` arm contains
/// a call or an `emit`, so each predicate lowers to a real conditional
/// branch (not a select) and shows up in profiles and fingerprints.
/// `dead_gadget` is never called — deleting it renumbers every later
/// branch id, which is the salvage-by-fingerprint scenario.
const BASE_SOURCE: &str = "\
fn dead_gadget(z: int) -> int {
    if (z > 100) { emit(z); return z - 1; }
    return z + 1;
}

fn helper2(k: int) -> int {
    if (k == 1) { emit(k); return 2; }
    return 1;
}

fn helper(x: int) -> int {
    var s: int = 0;
    for (var i: int = 0; i < x; i = i + 1) {
        if (i < 3) { s = s + helper2(i); } else { emit(s); }
    }
    return s;
}

fn main(n: int) {
    var t: int = 0;
    for (var j: int = 0; j < n; j = j + 1) {
        if (j > 2) { t = t + helper(j); } else { emit(j); }
    }
    emit(t);
}
";

/// The function the `append` edit adds (structurally new sites that must
/// degrade until a post-edit round records them with fingerprints).
const APPEND_SOURCE: &str = "\
fn extra_path(m: int) -> int {
    if (m > 7) { emit(m); return m - 7; }
    return m + 1;
}";

/// Battery shape. `Default` matches the acceptance run: 32 seeds, 4
/// rounds, edits on, one job.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Number of seeds (independent storms) to run.
    pub seeds: u64,
    /// First seed value; seed `i` runs storm `start_seed + i`.
    pub start_seed: u64,
    /// Accumulation rounds per seed (round 0 is always edit-free).
    pub rounds: u32,
    /// Worker threads over seeds. The report is `jobs`-invariant.
    pub jobs: usize,
    /// Inject program edits between rounds. Off = pure fault storm with
    /// an unchanging program (every remap must be the identity).
    pub edits: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seeds: 32,
            start_seed: 0,
            rounds: 4,
            jobs: 1,
            edits: true,
        }
    }
}

/// Skew and classification tallies for one round of one seed.
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: u32,
    /// The edit applied entering this round (`"none"` for edit-free).
    pub edit: String,
    /// Prior datasets the service served this round.
    pub prior_datasets: usize,
    /// Merged [`mfstale::SkewReport::matched`] across those datasets.
    pub matched: usize,
    /// Merged salvaged tally.
    pub salvaged: usize,
    /// Merged orphaned tally.
    pub orphaned: usize,
    /// Merged degraded tally.
    pub degraded: usize,
    /// Merged unverified tally.
    pub unverified: usize,
    /// Sites degraded in *every* prior dataset this round: no record feeds
    /// them, so they lay out as if unprofiled.
    pub low_confidence: usize,
}

/// Everything one seed's storm produced.
#[derive(Clone, Debug, Default)]
pub struct SeedOutcome {
    /// The storm seed ([`mffault::FaultPlan::from_seed`]).
    pub seed: u64,
    /// The service never opened under the storm (attributed, not a
    /// finding; the seed contributes nothing else).
    pub service_unavailable: bool,
    /// Edit applied entering each round, `rounds.len()` long.
    pub edits: Vec<String>,
    /// Per-round tallies.
    pub rounds: Vec<RoundStats>,
    /// Records acknowledged durable.
    pub committed: usize,
    /// Records acknowledged degraded (memory only).
    pub degraded_acks: usize,
    /// Merged-profile reads the storm defeated (attributed; the round
    /// ran profile-free).
    pub profile_read_failures: u64,
    /// Record submissions the storm defeated outright (attributed).
    pub record_failures: u64,
    /// Compactions the storm defeated (attributed).
    pub maintenance_failures: u64,
    /// Invariant violations. Empty on every clean build.
    pub findings: Vec<String>,
}

/// The whole battery's outcome.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Per-seed outcomes in seed order, regardless of `jobs`.
    pub outcomes: Vec<SeedOutcome>,
}

impl ChaosReport {
    /// Total findings across all seeds.
    pub fn findings(&self) -> usize {
        self.outcomes.iter().map(|o| o.findings.len()).sum()
    }

    /// Deterministic JSON (no timings, no host facts): equal configs give
    /// byte-identical reports at any `--jobs` level.
    pub fn to_json(&self) -> Json {
        let strings = |v: &[String]| Json::array(v.iter().map(String::as_str));
        let outcomes = self.outcomes.iter().map(|o| {
            let rounds = o.rounds.iter().map(|r| {
                Json::object([
                    ("round", r.round.into()),
                    ("edit", r.edit.as_str().into()),
                    ("prior_datasets", r.prior_datasets.into()),
                    ("matched", r.matched.into()),
                    ("salvaged", r.salvaged.into()),
                    ("orphaned", r.orphaned.into()),
                    ("degraded", r.degraded.into()),
                    ("unverified", r.unverified.into()),
                    ("low_confidence", r.low_confidence.into()),
                ])
            });
            Json::object([
                ("seed", o.seed.into()),
                ("service_unavailable", o.service_unavailable.into()),
                ("edits", strings(&o.edits)),
                ("rounds", Json::array(rounds)),
                ("committed", o.committed.into()),
                ("degraded_acks", o.degraded_acks.into()),
                ("profile_read_failures", o.profile_read_failures.into()),
                ("record_failures", o.record_failures.into()),
                ("maintenance_failures", o.maintenance_failures.into()),
                ("findings", strings(&o.findings)),
            ])
        });
        Json::object([
            ("outcomes", Json::array(outcomes)),
            ("findings", self.findings().into()),
        ])
    }
}

/// splitmix64 — the battery's only randomness, fully seed-determined.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Edit {
    Rename,
    DeleteDead,
    FlipCmp,
    Append,
}

impl Edit {
    fn name(self) -> &'static str {
        match self {
            Edit::Rename => "rename",
            Edit::DeleteDead => "delete-dead",
            Edit::FlipCmp => "flip-cmp",
            Edit::Append => "append",
        }
    }

    /// Applies the edit; `None` when its target is already gone.
    fn apply(self, source: &str) -> Option<String> {
        match self {
            Edit::Rename => Some(edit::rename_fn(source, "helper2", "worker2")),
            Edit::DeleteDead => edit::delete_fn(source, "dead_gadget"),
            Edit::FlipCmp => edit::replace_once(source, "i < 3", "i <= 3"),
            Edit::Append => Some(edit::append_fn(source, APPEND_SOURCE)),
        }
    }
}

/// What one seed tracks about every record it submits.
struct Ledger {
    /// Sums of counts acknowledged `Committed`, per `(dataset, branch)` —
    /// the durable lower bound.
    committed: BTreeMap<(String, u32), (u64, u64)>,
    /// Sums of *everything attempted* (committed, degraded, or failed) —
    /// the durable upper bound.
    attempted: BTreeMap<(String, u32), (u64, u64)>,
    /// Program version each dataset was recorded against, and whether its
    /// ack was `Committed` (a degraded record may be only partially
    /// durable, so only committed ones owe the identity invariant).
    versions: BTreeMap<String, (u32, bool)>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            committed: BTreeMap::new(),
            attempted: BTreeMap::new(),
            versions: BTreeMap::new(),
        }
    }

    fn add(map: &mut BTreeMap<(String, u32), (u64, u64)>, label: &str, id: u32, e: u64, t: u64) {
        let slot = map.entry((label.to_string(), id)).or_insert((0, 0));
        slot.0 = slot.0.saturating_add(e);
        slot.1 = slot.1.saturating_add(t);
    }
}

/// Runs one seed's storm. `rounds` ≥ 1; round 0 never edits.
pub fn run_seed(seed: u64, rounds: u32, edits: bool) -> SeedOutcome {
    let mut out = SeedOutcome {
        seed,
        ..SeedOutcome::default()
    };
    let mut rng = seed ^ 0xC4A0_5BA7_7E57_0001;

    let mem: Arc<MemVfs> = Arc::new(MemVfs::new());
    let dir = "chaos-db";
    let opts = || ServiceOptions {
        shards: 2,
        retry: RetryPolicy::immediate(3),
        ..ServiceOptions::default()
    };
    // Bootstrap the layout on the clean filesystem so the storm exercises
    // steady-state operation, not first-touch directory creation.
    match ProfileService::open(mem.clone(), dir, opts()) {
        Ok(svc) => drop(svc),
        Err(e) => {
            out.findings
                .push(format!("clean bootstrap open failed: {e}"));
            return out;
        }
    }
    let faulty: Arc<dyn Vfs> = Arc::new(FaultVfs::new(mem.clone(), FaultPlan::from_seed(seed)));
    let mut svc = None;
    for _ in 0..3 {
        match ProfileService::open(faulty.clone(), dir, opts()) {
            Ok(s) => {
                svc = Some(s);
                break;
            }
            Err(_) => continue,
        }
    }
    let Some(svc) = svc else {
        out.service_unavailable = true;
        return out;
    };

    let mut source = BASE_SOURCE.to_string();
    let mut version: u32 = 0;
    let mut available = vec![Edit::Rename, Edit::DeleteDead, Edit::FlipCmp, Edit::Append];
    let mut ledger = Ledger::new();

    for round in 0..rounds {
        // ----- edit (never on round 0) -----
        let mut applied = "none".to_string();
        if edits && round > 0 && !available.is_empty() {
            // Two extra slots bias toward editing while keeping some
            // edit-free rounds (which owe the identity invariant).
            let pick = (mix(&mut rng) as usize) % (available.len() + 2);
            if pick < available.len() {
                let e = available.remove(pick);
                if let Some(next) = e.apply(&source) {
                    source = next;
                    version += 1;
                    applied = e.name().to_string();
                }
            }
        }
        out.edits.push(applied.clone());

        let program = mflang::compile(&source).expect("chaos program compiles at every version");
        let new_fps = site_fingerprints(&program);

        // ----- remap whatever profile survived the storm so far -----
        let mut stats = RoundStats {
            round,
            edit: applied,
            ..RoundStats::default()
        };
        let prior = match (svc.merged_totals(), svc.merged_fingerprints_by_dataset()) {
            (Ok(t), Ok(f)) => Some((t, f)),
            _ => {
                out.profile_read_failures += 1;
                None
            }
        };
        let mut combined: BTreeMap<BranchId, (u64, u64)> = BTreeMap::new();
        let mut low: Option<BTreeSet<BranchId>> = None;
        if let Some((totals, fps_by_ds)) = &prior {
            stats.prior_datasets = totals.len();
            for (label, rows) in totals {
                let entries: Vec<(BranchId, u64, u64)> = rows
                    .iter()
                    .map(|&(id, e, t)| (BranchId(id), e, t))
                    .collect();
                let issues = mfcheck::check_entries(&entries);
                if !issues.is_empty() {
                    out.findings.push(format!(
                        "round {round}: dataset {label} served corrupt entries: {:?}",
                        issues[0]
                    ));
                    continue;
                }
                let old_fps: BTreeMap<BranchId, u64> = fps_by_ds
                    .get(label)
                    .map(|f| f.iter().map(|(&id, &fp)| (BranchId(id), fp)).collect())
                    .unwrap_or_default();
                let remapped = remap_counts(&entries, &old_fps, &new_fps);
                let r = &remapped.report;
                if r.matched + r.salvaged + r.orphaned != entries.len() {
                    out.findings.push(format!(
                        "round {round}: dataset {label} remap lost entries: \
                         {} + {} + {} != {}",
                        r.matched,
                        r.salvaged,
                        r.orphaned,
                        entries.len()
                    ));
                }
                if let Some(&(v, committed)) = ledger.versions.get(label) {
                    if committed && v == version && !r.is_identity() {
                        out.findings.push(format!(
                            "round {round}: dataset {label} recorded at the current \
                             program version did not remap as identity: {r:?}"
                        ));
                    }
                }
                stats.matched += r.matched;
                stats.salvaged += r.salvaged;
                stats.orphaned += r.orphaned;
                stats.degraded += r.degraded;
                stats.unverified += r.unverified;
                for &(id, e, t) in &remapped.counts {
                    let slot = combined.entry(id).or_insert((0, 0));
                    slot.0 = slot.0.saturating_add(e);
                    slot.1 = slot.1.saturating_add(t);
                }
                let dset: BTreeSet<BranchId> = remapped.degraded.iter().copied().collect();
                low = Some(match low.take() {
                    None => dset,
                    Some(prev) => prev.intersection(&dset).copied().collect(),
                });
            }
        }
        stats.low_confidence = low.map_or(0, |s| s.len());
        // An empty profile (nothing survived) lays out as `compile` does.
        let profile: trace_vm::BranchCounts = combined
            .into_iter()
            .map(|(id, (e, t))| (id, e, t))
            .collect();

        // ----- science: flat (profile-steered) vs reference, zoo'd -----
        let flat = FlatProgram::compile_with_profile(&program, &profile);
        let inputs = [Input::Int(4 + (mix(&mut rng) % 9) as i64)];
        let mut ref_zoo = mfdyn::Zoo::for_program(&mfdyn::full_zoo(), &program);
        let reference = Vm::with_config(&program, VmConfig::default())
            .run_observed(&inputs, &mut ref_zoo)
            .expect("reference run succeeds");
        let mut flat_zoo = mfdyn::Zoo::for_program(&mfdyn::full_zoo(), &program);
        let flat_run = flat
            .run_observed(VmConfig::default(), &inputs, &mut flat_zoo)
            .expect("flat run succeeds");
        if reference != flat_run {
            out.findings.push(format!(
                "round {round}: flat backend diverged from reference under reused \
                 profile (inputs {inputs:?})"
            ));
        }
        if ref_zoo.report() != flat_zoo.report() {
            out.findings.push(format!(
                "round {round}: dynamic-predictor zoo tallies differ across backends"
            ));
        }

        // ----- record this round through the storm -----
        let label = format!("r{round:02}");
        let counts = &reference.stats.branches;
        let mut recorded = false;
        let mut was_committed = false;
        match svc.enqueue_with_fps(&label, counts, &new_fps) {
            Ok(sid) => match svc.flush() {
                Ok(acks) => match acks.get(&sid) {
                    Some(Persistence::Committed) => {
                        recorded = true;
                        was_committed = true;
                        out.committed += 1;
                    }
                    Some(Persistence::Degraded) => {
                        recorded = true;
                        out.degraded_acks += 1;
                    }
                    None => out.record_failures += 1,
                },
                Err(_) => out.record_failures += 1,
            },
            Err(_) => out.record_failures += 1,
        }
        // Everything attempted bounds durable state from above; only
        // committed records bound it from below.
        for (id, e, t) in counts.iter() {
            Ledger::add(&mut ledger.attempted, &label, id.0, e, t);
            if was_committed {
                Ledger::add(&mut ledger.committed, &label, id.0, e, t);
            }
        }
        if recorded || was_committed {
            ledger
                .versions
                .insert(label.clone(), (version, was_committed));
        } else {
            // A failed submission may still have left durable bytes;
            // remember it so stray data stays attributable.
            ledger.versions.entry(label).or_insert((version, false));
        }

        // Occasional compaction mid-storm: rewriting segments under
        // faults must never lose committed data (checked at the end).
        if mix(&mut rng).is_multiple_of(4) && svc.compact().is_err() {
            out.maintenance_failures += 1;
        }
        out.rounds.push(stats);
    }
    drop(svc);

    // ----- the post-storm audit: clean reopen, bounded durability -----
    let clean = match ProfileService::open(
        mem.clone(),
        dir,
        ServiceOptions {
            shards: 2,
            retry: RetryPolicy::none(),
            ..ServiceOptions::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            out.findings
                .push(format!("clean reopen after the storm failed: {e}"));
            return out;
        }
    };
    let disk = match clean.merged_totals() {
        Ok(d) => d,
        Err(e) => {
            out.findings
                .push(format!("clean reopen cannot read totals: {e}"));
            return out;
        }
    };
    for (label, rows) in &disk {
        if !ledger.versions.contains_key(label) {
            out.findings
                .push(format!("durable dataset {label} was never recorded"));
            continue;
        }
        let entries: Vec<(BranchId, u64, u64)> = rows
            .iter()
            .map(|&(id, e, t)| (BranchId(id), e, t))
            .collect();
        let issues = mfcheck::check_entries(&entries);
        if !issues.is_empty() {
            out.findings.push(format!(
                "durable dataset {label} is internally inconsistent: {:?}",
                issues[0]
            ));
        }
        for &(id, e, t) in rows {
            match ledger.attempted.get(&(label.clone(), id)) {
                None => out.findings.push(format!(
                    "durable dataset {label} site {id} was never written"
                )),
                Some(&(ue, ut)) => {
                    if e > ue || t > ut {
                        out.findings.push(format!(
                            "durable dataset {label} site {id} exceeds everything \
                             attempted: ({e}, {t}) > ({ue}, {ut})"
                        ));
                    }
                }
            }
        }
    }
    for ((label, id), &(ce, ct)) in &ledger.committed {
        let (de, dt) = disk
            .get(label)
            .and_then(|rows| rows.iter().find(|r| r.0 == *id))
            .map(|r| (r.1, r.2))
            .unwrap_or((0, 0));
        if de < ce || dt < ct {
            out.findings.push(format!(
                "committed counts lost: dataset {label} site {id} durable \
                 ({de}, {dt}) < committed ({ce}, {ct})"
            ));
        }
    }
    out
}

/// Runs the whole battery. Outcomes are assembled in seed order whatever
/// `jobs` is, and each seed's storm is independent, so the report is a
/// pure function of the config.
pub fn run_battery(cfg: &ChaosConfig) -> ChaosReport {
    let seeds: Vec<u64> = (0..cfg.seeds).map(|i| cfg.start_seed + i).collect();
    let jobs = cfg.jobs.max(1).min(seeds.len().max(1));
    let outcomes: Vec<SeedOutcome> = if jobs <= 1 {
        seeds
            .iter()
            .map(|&s| run_seed(s, cfg.rounds, cfg.edits))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<SeedOutcome>>> = Mutex::new(vec![None; seeds.len()]);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= seeds.len() {
                        break;
                    }
                    let done = run_seed(seeds[i], cfg.rounds, cfg.edits);
                    slots.lock().expect("chaos slots lock")[i] = Some(done);
                });
            }
        });
        slots
            .into_inner()
            .expect("chaos slots lock")
            .into_iter()
            .map(|o| o.expect("every seed ran"))
            .collect()
    };
    ChaosReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seeds: u64, rounds: u32, jobs: usize, edits: bool) -> ChaosConfig {
        ChaosConfig {
            seeds,
            start_seed: 0,
            rounds,
            jobs,
            edits,
        }
    }

    #[test]
    fn battery_seeds_are_clean() {
        let report = run_battery(&cfg(3, 3, 1, true));
        for o in &report.outcomes {
            assert!(
                o.findings.is_empty(),
                "seed {} found: {:?}",
                o.seed,
                o.findings
            );
            if !o.service_unavailable {
                assert_eq!(o.rounds.len(), 3);
            }
        }
        assert_eq!(report.findings(), 0);
    }

    #[test]
    fn jobs_do_not_change_the_report() {
        let serial = run_battery(&cfg(4, 2, 1, true));
        let threaded = run_battery(&cfg(4, 2, 4, true));
        assert_eq!(serial.to_json(), threaded.to_json());
    }

    #[test]
    fn no_edit_rounds_remap_as_identity() {
        let report = run_battery(&cfg(2, 3, 1, false));
        assert_eq!(report.findings(), 0, "{:?}", report.outcomes);
        for o in &report.outcomes {
            for r in &o.rounds {
                assert_eq!(r.edit, "none");
                if r.prior_datasets > 0 {
                    assert_eq!(
                        (r.salvaged, r.orphaned, r.degraded, r.unverified),
                        (0, 0, 0, 0),
                        "seed {} round {} was not an identity remap",
                        o.seed,
                        r.round
                    );
                }
            }
        }
    }

    #[test]
    fn edits_eventually_fire_and_stay_clean() {
        // Across a handful of seeds the edit picker must exercise real
        // skew (this is the battery's whole point); all of it clean.
        let report = run_battery(&cfg(6, 4, 2, true));
        assert_eq!(report.findings(), 0);
        let edited: usize = report
            .outcomes
            .iter()
            .flat_map(|o| &o.edits)
            .filter(|e| *e != "none")
            .count();
        assert!(edited > 0, "no seed ever applied an edit");
        let skewed: usize = report
            .outcomes
            .iter()
            .flat_map(|o| &o.rounds)
            .map(|r| r.salvaged + r.orphaned + r.degraded)
            .sum();
        assert!(skewed > 0, "edits fired but no remap ever saw skew");
    }

    #[test]
    fn json_report_is_schema_stable() {
        let report = run_battery(&cfg(1, 2, 1, true));
        let json = report.to_json().render();
        for key in [
            "\"outcomes\"",
            "\"seed\"",
            "\"rounds\"",
            "\"matched\"",
            "\"salvaged\"",
            "\"orphaned\"",
            "\"degraded\"",
            "\"unverified\"",
            "\"low_confidence\"",
            "\"committed\"",
            "\"degraded_acks\"",
            "\"findings\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
