#![warn(missing_docs)]

//! # mfstale
//!
//! Version-skew-tolerant profile reuse.
//!
//! The paper's central claim — profiles from previous runs keep predicting
//! later runs — is only useful in deployment if "later run" may be a *later
//! build*: the program edited, functions renamed, dead code deleted. A
//! profile keyed by raw [`BranchId`]s breaks the moment lowering renumbers
//! anything. This crate gives every conditional branch a **structural
//! fingerprint** computed from the lowered IR — operator shape and CFG
//! context, never block indices or function ids — and uses fingerprint
//! equality to carry accumulated counts across program versions:
//!
//! * **exact match** — same branch id, same fingerprint: counts reused
//!   verbatim.
//! * **salvage** — the id moved (function renamed or re-numbered) but a
//!   structurally identical site exists: counts follow the fingerprint.
//! * **degrade** — a live site with no structural ancestor: no counts are
//!   invented; the caller falls back to the static prediction tier
//!   (interval proofs → ML model → BTFN).
//! * **orphan** — recorded counts whose site no longer exists: dropped,
//!   and *counted* as dropped.
//!
//! Every remap returns a typed [`SkewReport`] so a divergence from the
//! byte-identical case is always attributed, never silent.

use std::collections::BTreeMap;

use trace_ir::BranchId;

pub mod edit;
mod fingerprint;

pub use fingerprint::{function_fingerprint, site_fingerprints, SiteFp};

/// How a fingerprint-driven remap classified every site, old and new.
///
/// The counts partition the *old* profile entries (`matched + salvaged +
/// orphaned == old entries`) and separately tally the new program's sites
/// that came up empty (`degraded`). `unverified` is the subset of
/// `matched` that carried no stored fingerprint (legacy frames): the id
/// still exists, so the counts are reused, but structural identity could
/// not be checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkewReport {
    /// Old entries whose id is live in the new program with an equal
    /// fingerprint (or a legacy entry with no fingerprint — see
    /// `unverified`).
    pub matched: usize,
    /// Old entries whose id is gone (or structurally changed) but whose
    /// fingerprint matched an otherwise-unclaimed new site.
    pub salvaged: usize,
    /// Old entries with no structural counterpart: dropped.
    pub orphaned: usize,
    /// Live new sites with neither counts nor a structural ancestor in
    /// the old program — callers degrade these to the static prediction
    /// tier. (A never-executed site the old program also had is *not*
    /// degraded: the profile is silent about it in both versions.)
    pub degraded: usize,
    /// Matched entries that carried no stored fingerprint (legacy
    /// pre-fingerprint frames): reused by id, structurally unverified.
    pub unverified: usize,
}

impl SkewReport {
    /// Total old entries classified.
    pub fn old_entries(&self) -> usize {
        self.matched + self.salvaged + self.orphaned
    }

    /// Fraction of old entries whose counts were reused (matched or
    /// salvaged). 1.0 for an empty profile.
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.old_entries();
        if total == 0 {
            1.0
        } else {
            (self.matched + self.salvaged) as f64 / total as f64
        }
    }

    /// True when the remap was a pure identity: every old entry matched
    /// exactly (fingerprint verified) and no live site degraded.
    pub fn is_identity(&self) -> bool {
        self.salvaged == 0 && self.orphaned == 0 && self.degraded == 0 && self.unverified == 0
    }

    /// Accumulates another report into this one (per-dataset reports fold
    /// into a whole-database report).
    pub fn merge(&mut self, other: &SkewReport) {
        self.matched += other.matched;
        self.salvaged += other.salvaged;
        self.orphaned += other.orphaned;
        self.degraded += other.degraded;
        self.unverified += other.unverified;
    }
}

impl std::fmt::Display for SkewReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} matched, {} salvaged, {} degraded, {} orphaned",
            self.matched, self.salvaged, self.degraded, self.orphaned
        )?;
        if self.unverified > 0 {
            write!(f, " ({} unverified legacy)", self.unverified)?;
        }
        Ok(())
    }
}

/// The result of remapping one profile onto a (possibly edited) program.
#[derive(Clone, Debug, PartialEq)]
pub struct RemapOutcome {
    /// The reusable counts, keyed by the *new* program's branch ids,
    /// sorted by id.
    pub counts: Vec<(BranchId, u64, u64)>,
    /// How every site was classified.
    pub report: SkewReport,
    /// Live new sites with no reused counts, sorted — the per-site static
    /// fallback list (interval proofs → ML → BTFN).
    pub degraded: Vec<BranchId>,
}

/// Remaps recorded `(branch, executed, taken)` entries onto the site set
/// described by `new_fps` (from [`site_fingerprints`] of the current
/// program).
///
/// `old_fps` holds the fingerprints stored alongside the counts; entries
/// absent from it are legacy records remapped by id alone (tallied as
/// `unverified`). The remap never invents counts and never merges two old
/// entries into one new site: fingerprint groups are paired in ascending
/// id order, so an unedited program remaps to itself exactly.
pub fn remap_counts(
    old_entries: &[(BranchId, u64, u64)],
    old_fps: &BTreeMap<BranchId, SiteFp>,
    new_fps: &BTreeMap<BranchId, SiteFp>,
) -> RemapOutcome {
    let mut report = SkewReport::default();
    let mut counts: BTreeMap<BranchId, (u64, u64)> = BTreeMap::new();
    let mut claimed: BTreeMap<BranchId, ()> = BTreeMap::new();
    // Pass 1: exact matches (same id, fingerprint equal or unverifiable).
    let mut leftovers: Vec<(BranchId, u64, u64, SiteFp)> = Vec::new();
    for &(id, executed, taken) in old_entries {
        match (old_fps.get(&id), new_fps.get(&id)) {
            (Some(&old_fp), Some(&new_fp)) if old_fp == new_fp => {
                report.matched += 1;
                let e = counts.entry(id).or_insert((0, 0));
                e.0 += executed;
                e.1 += taken;
                claimed.insert(id, ());
            }
            (None, Some(_)) => {
                // Legacy entry: the id is live, reuse by id but flag it.
                report.matched += 1;
                report.unverified += 1;
                let e = counts.entry(id).or_insert((0, 0));
                e.0 += executed;
                e.1 += taken;
                claimed.insert(id, ());
            }
            (Some(&old_fp), _) => leftovers.push((id, executed, taken, old_fp)),
            (None, None) => {
                report.orphaned += 1;
            }
        }
    }
    // Pass 2: salvage by fingerprint equality. Unclaimed new sites are
    // grouped by fingerprint; leftovers pair with them in ascending id
    // order on both sides, so duplicated shapes resolve deterministically.
    let mut free: BTreeMap<SiteFp, Vec<BranchId>> = BTreeMap::new();
    for (&id, &fp) in new_fps {
        if !claimed.contains_key(&id) {
            free.entry(fp).or_default().push(id);
        }
    }
    for v in free.values_mut() {
        v.sort();
        v.reverse(); // pop() yields the smallest id first
    }
    leftovers.sort_by_key(|&(id, ..)| id);
    for (_, executed, taken, fp) in leftovers {
        match free.get_mut(&fp).and_then(Vec::pop) {
            Some(new_id) => {
                report.salvaged += 1;
                let e = counts.entry(new_id).or_insert((0, 0));
                e.0 += executed;
                e.1 += taken;
                claimed.insert(new_id, ());
            }
            None => report.orphaned += 1,
        }
    }
    // Pass 3: live sites that came up empty. A site whose fingerprint the
    // old program also carried — beyond the fingerprints consumed by
    // counted entries — is a structurally known, never-executed site: the
    // profile is silent about it in both versions, so it is not degraded.
    // Only sites with no structural ancestor at all fall to the static
    // tier.
    let counted: std::collections::BTreeSet<BranchId> =
        old_entries.iter().map(|&(id, ..)| id).collect();
    let mut spare: BTreeMap<SiteFp, usize> = BTreeMap::new();
    for (id, &fp) in old_fps {
        if !counted.contains(id) {
            *spare.entry(fp).or_default() += 1;
        }
    }
    let mut degraded: Vec<BranchId> = Vec::new();
    for (&id, fp) in new_fps {
        if claimed.contains_key(&id) {
            continue;
        }
        match spare.get_mut(fp) {
            Some(n) if *n > 0 => *n -= 1,
            _ => degraded.push(id),
        }
    }
    report.degraded = degraded.len();
    RemapOutcome {
        counts: counts.into_iter().map(|(id, (e, t))| (id, e, t)).collect(),
        report,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_ir::Program;

    fn compile(src: &str) -> Program {
        mflang::compile(src).expect("test source compiles")
    }

    const BASE: &str = "
fn helper(x: int) -> int {
    var s: int = 0;
    for (var i: int = 0; i < x; i = i + 1) {
        if (i > 3) { s = s + 2; } else { s = s + 1; }
    }
    return s;
}
fn main(n: int) {
    if (n < 10) { emit(helper(n)); } else { emit(0 - 1); }
}
";

    fn fake_counts(fps: &BTreeMap<BranchId, SiteFp>) -> Vec<(BranchId, u64, u64)> {
        fps.keys()
            .enumerate()
            .map(|(i, &id)| (id, 100 + i as u64, 40 + i as u64))
            .collect()
    }

    #[test]
    fn identity_remap_is_exact() {
        let p = compile(BASE);
        let fps = site_fingerprints(&p);
        assert!(!fps.is_empty());
        let old = fake_counts(&fps);
        let out = remap_counts(&old, &fps, &fps);
        assert!(out.report.is_identity(), "{}", out.report);
        assert_eq!(out.report.matched, old.len());
        assert_eq!(out.counts, old);
        assert!(out.degraded.is_empty());
    }

    #[test]
    fn rename_only_salvages_every_site() {
        let p = compile(BASE);
        let renamed = compile(&edit::rename_fn(BASE, "helper", "assistant"));
        let old_fps = site_fingerprints(&p);
        let new_fps = site_fingerprints(&renamed);
        let old = fake_counts(&old_fps);
        let out = remap_counts(&old, &old_fps, &new_fps);
        assert_eq!(out.report.orphaned, 0, "{}", out.report);
        assert_eq!(out.report.degraded, 0, "{}", out.report);
        assert_eq!(out.report.matched + out.report.salvaged, old.len());
        // The remapped totals are a permutation of the originals.
        let mut want: Vec<(u64, u64)> = old.iter().map(|&(_, e, t)| (e, t)).collect();
        let mut got: Vec<(u64, u64)> = out.counts.iter().map(|&(_, e, t)| (e, t)).collect();
        want.sort();
        got.sort();
        assert_eq!(want, got);
    }

    #[test]
    fn deleting_dead_code_salvages_survivors() {
        let with_dead = format!(
            "fn dead_gadget(z: int) -> int {{ if (z > 0) {{ return 1; }} return 0; }}\n{BASE}"
        );
        let p = compile(&with_dead);
        let edited = compile(&edit::delete_fn(&with_dead, "dead_gadget").expect("fn found"));
        let old_fps = site_fingerprints(&p);
        let new_fps = site_fingerprints(&edited);
        assert!(new_fps.len() < old_fps.len());
        let old = fake_counts(&old_fps);
        let out = remap_counts(&old, &old_fps, &new_fps);
        // Exactly the deleted function's sites orphan; every survivor is
        // matched or salvaged and no live site degrades.
        assert_eq!(out.report.orphaned, old_fps.len() - new_fps.len());
        assert_eq!(out.report.degraded, 0, "{}", out.report);
        assert_eq!(
            out.report.matched + out.report.salvaged,
            new_fps.len(),
            "{}",
            out.report
        );
    }

    #[test]
    fn appended_function_degrades_only_new_sites() {
        let p = compile(BASE);
        let extended = compile(&edit::append_fn(
            BASE,
            "fn extra(k: int) -> int { if (k == 7) { return 1; } return 0; }",
        ));
        let old_fps = site_fingerprints(&p);
        let new_fps = site_fingerprints(&extended);
        let added = new_fps.len() - old_fps.len();
        assert!(added >= 1);
        let old = fake_counts(&old_fps);
        let out = remap_counts(&old, &old_fps, &new_fps);
        assert_eq!(out.report.orphaned, 0, "{}", out.report);
        assert_eq!(out.report.matched + out.report.salvaged, old.len());
        assert_eq!(out.report.degraded, added, "{}", out.report);
        assert!((out.report.reuse_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn operator_change_degrades_the_site() {
        let p = compile(BASE);
        // Target a predicate that lowers to a real branch: main's `if` has
        // calls in its arms, so it cannot be converted to a select the way
        // helper's `if (i > 3)` is.
        let flipped = compile(&edit::replace_once(BASE, "(n < 10)", "(n <= 10)").expect("marker"));
        let old_fps = site_fingerprints(&p);
        let new_fps = site_fingerprints(&flipped);
        let old = fake_counts(&old_fps);
        let out = remap_counts(&old, &old_fps, &new_fps);
        // The operator-changed site must NOT inherit foreign counts: one
        // old entry orphans, one new site degrades.
        assert_eq!(out.report.orphaned, 1, "{}", out.report);
        assert_eq!(out.report.degraded, 1, "{}", out.report);
        assert_eq!(out.degraded.len(), 1);
    }

    #[test]
    fn never_executed_sites_do_not_degrade() {
        // Counts cover only some sites (the rest never executed), but the
        // stored fingerprints describe the whole old program: the
        // zero-count sites are structurally known, so an identity remap
        // stays an identity and nothing degrades.
        let p = compile(BASE);
        let fps = site_fingerprints(&p);
        assert!(fps.len() >= 2);
        let partial: Vec<(BranchId, u64, u64)> = fake_counts(&fps).into_iter().take(1).collect();
        let out = remap_counts(&partial, &fps, &fps);
        assert!(out.report.is_identity(), "{}", out.report);
        assert_eq!(out.report.matched, 1);
        assert_eq!(out.counts, partial);
        // Without the stored fingerprints (legacy database) the same
        // zero-count sites cannot be verified and do degrade.
        let legacy = remap_counts(&partial, &BTreeMap::new(), &fps);
        assert_eq!(legacy.report.degraded, fps.len() - 1, "{}", legacy.report);
    }

    #[test]
    fn legacy_entries_remap_by_id_as_unverified() {
        let p = compile(BASE);
        let fps = site_fingerprints(&p);
        let old = fake_counts(&fps);
        let out = remap_counts(&old, &BTreeMap::new(), &fps);
        assert_eq!(out.report.matched, old.len());
        assert_eq!(out.report.unverified, old.len());
        assert!(!out.report.is_identity());
        assert_eq!(out.counts, old);
    }

    #[test]
    fn skew_report_arithmetic() {
        let mut a = SkewReport {
            matched: 3,
            salvaged: 1,
            orphaned: 1,
            degraded: 2,
            unverified: 0,
        };
        assert_eq!(a.old_entries(), 5);
        assert!((a.reuse_fraction() - 0.8).abs() < 1e-12);
        let b = SkewReport {
            matched: 2,
            ..SkewReport::default()
        };
        a.merge(&b);
        assert_eq!(a.matched, 5);
        assert_eq!(SkewReport::default().reuse_fraction(), 1.0);
        assert!(SkewReport::default().is_identity());
    }
}
