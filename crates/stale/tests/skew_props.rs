//! Property tests for the version-skew remap over generated programs:
//!
//! 1. With identical old/new fingerprints (no edit), every dataset remaps
//!    to itself entry for entry, so combining the remapped datasets gives
//!    the same predictor as combining the originals under each of the
//!    paper's rules — skew tolerance costs nothing on the common path.
//! 2. A rename-only edit salvages 100% of surviving sites: nothing is
//!    orphaned, nothing degrades.
//! 3. Deleting a never-called function salvages 100% of the survivors:
//!    every counted site of a surviving function keeps its counts
//!    (matched or salvaged by fingerprint across the id shift), and only
//!    the deleted function's own sites orphan.
//!
//! Programs are generated with one structurally distinct comparison
//! constant per function, so fingerprints are unique by construction and
//! salvage is deterministic.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ifprob::{combine, CombineRule};
use mfstale::{edit, remap_counts, site_fingerprints, SiteFp};
use trace_ir::BranchId;
use trace_vm::BranchCounts;

/// A helper function whose branch shapes embed `c`, keeping its
/// fingerprints distinct from every other generated function's.
fn helper_src(i: usize, c: i64) -> String {
    format!(
        "fn h{i}(x: int) -> int {{\n\
         \x20 var s: int = 0;\n\
         \x20 for (var k: int = 0; k < x; k = k + 1) {{\n\
         \x20   if (k < {c}) {{ emit(k); s = s + 1; }} else {{ s = s + k; }}\n\
         \x20 }}\n\
         \x20 return s;\n\
         }}\n"
    )
}

/// A never-called function with its own distinct constant.
fn dead_src(c: i64) -> String {
    format!(
        "fn never_called(z: int) -> int {{\n\
         \x20 if (z > {c}) {{ emit(z); return 1; }}\n\
         \x20 return 0;\n\
         }}\n"
    )
}

/// A whole program: optionally a dead function first (so deleting it
/// shifts every later branch id), `helpers` helper functions, and a main
/// that calls them all under its own branch.
fn program_src(with_dead: bool, helpers: usize) -> String {
    let mut src = String::new();
    if with_dead {
        src.push_str(&dead_src(1000));
    }
    for i in 0..helpers {
        src.push_str(&helper_src(i, 100 + i as i64));
    }
    let calls: Vec<String> = (0..helpers).map(|i| format!("h{i}(j)")).collect();
    src.push_str(&format!(
        "fn main(n: int) {{\n\
         \x20 var t: int = 0;\n\
         \x20 for (var j: int = 0; j < n; j = j + 1) {{\n\
         \x20   if (j < 5) {{ t = t + {}; }} else {{ emit(j); }}\n\
         \x20 }}\n\
         \x20 emit(t);\n\
         }}\n",
        if calls.is_empty() {
            "1".to_string()
        } else {
            calls.join(" + ")
        }
    ));
    src
}

/// Synthetic well-formed counts over `sites`: one `(executed, taken)`
/// pair per site with `taken <= executed`, driven by the generated seed.
fn counts_for(sites: &[BranchId], seed: u64, allow_zero: bool) -> BranchCounts {
    let mut s = seed | 1;
    sites
        .iter()
        .map(|&id| {
            s = s
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            let executed = if allow_zero { s % 40 } else { 1 + s % 40 };
            let taken = if executed == 0 {
                0
            } else {
                (s >> 32) % (executed + 1)
            };
            (id, executed, taken)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identity skew: same fingerprints on both sides, any mix of
    /// datasets — each dataset remaps to itself entry for entry, all
    /// matched and none degraded, and the combined predictor is the
    /// originals' byte for byte under every rule.
    #[test]
    fn identity_remap_leaves_datasets_and_their_combination_unchanged(
        helpers in 1usize..4,
        datasets in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let src = program_src(false, helpers);
        let program = mflang::compile(&src).expect("generated source compiles");
        let fps = site_fingerprints(&program);
        let sites: Vec<BranchId> = fps.keys().copied().collect();
        prop_assert!(!sites.is_empty());

        let profiles: Vec<BranchCounts> = (0..datasets)
            .map(|d| counts_for(&sites, seed.wrapping_add(d as u64), false))
            .collect();
        let mut remapped: Vec<BranchCounts> = Vec::new();
        for p in &profiles {
            let entries: Vec<(BranchId, u64, u64)> = p.iter().collect();
            let out = remap_counts(&entries, &fps, &fps);
            prop_assert!(out.report.is_identity(), "{:?}", out.report);
            prop_assert_eq!(out.report.matched, entries.len());
            prop_assert!(out.degraded.is_empty(), "{:?}", out.degraded);
            prop_assert_eq!(&out.counts, &entries, "identity skew must cost nothing");
            remapped.push(out.counts.into_iter().collect());
        }
        let originals: Vec<&BranchCounts> = profiles.iter().collect();
        let remapped: Vec<&BranchCounts> = remapped.iter().collect();
        for rule in [CombineRule::Scaled, CombineRule::Unscaled, CombineRule::Polling] {
            prop_assert_eq!(combine(&remapped, rule), combine(&originals, rule), "{:?}", rule);
        }
    }

    /// Rename-only edits keep every site: ids are stable, fingerprints
    /// are rename-blind, so the remap is the identity.
    #[test]
    fn rename_only_edits_salvage_everything(
        helpers in 1usize..4,
        which in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let src = program_src(false, helpers);
        let renamed = edit::rename_fn(&src, &format!("h{}", which % helpers), "zz_renamed");
        prop_assert!(renamed != src, "the rename must hit a function");
        let old_p = mflang::compile(&src).expect("v1 compiles");
        let new_p = mflang::compile(&renamed).expect("v2 compiles");
        let old_fps = site_fingerprints(&old_p);
        let new_fps = site_fingerprints(&new_p);

        let sites: Vec<BranchId> = old_fps.keys().copied().collect();
        let entries: Vec<(BranchId, u64, u64)> =
            counts_for(&sites, seed, true).iter().collect();
        let out = remap_counts(&entries, &old_fps, &new_fps);
        let r = &out.report;
        prop_assert!(r.is_identity(), "rename-only must be identity: {r:?}");
        prop_assert_eq!(r.matched + r.salvaged, entries.len());
        prop_assert_eq!(r.orphaned, 0);
        prop_assert_eq!(out.degraded.len(), 0, "no site may degrade on a rename");
        prop_assert_eq!(out.counts, entries, "counts must survive byte-identical");
    }

    /// Deleting a never-called function shifts every later branch id;
    /// fingerprints must carry 100% of the survivors' counts across the
    /// shift, orphaning exactly the deleted function's own sites.
    #[test]
    fn dead_code_delete_salvages_all_survivors(
        helpers in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let src = program_src(true, helpers);
        let shrunk = edit::delete_fn(&src, "never_called").expect("dead fn exists");
        let old_p = mflang::compile(&src).expect("v1 compiles");
        let new_p = mflang::compile(&shrunk).expect("v2 compiles");
        let old_fps = site_fingerprints(&old_p);
        let new_fps = site_fingerprints(&new_p);
        prop_assert!(old_fps.len() > new_fps.len(), "deletion removes sites");

        // Which old sites belonged to the deleted function?
        let deleted: Vec<BranchId> = old_fps
            .keys()
            .copied()
            .filter(|id| {
                let f = old_p.branch_info[id.index()].func;
                old_p.functions[f.index()].name == "never_called"
            })
            .collect();
        prop_assert!(!deleted.is_empty());

        let sites: Vec<BranchId> = old_fps.keys().copied().collect();
        let entries: Vec<(BranchId, u64, u64)> =
            counts_for(&sites, seed, false).iter().collect();
        let out = remap_counts(&entries, &old_fps, &new_fps);
        let r = &out.report;
        let survivors = entries.len() - deleted.len();
        prop_assert_eq!(
            r.matched + r.salvaged,
            survivors,
            "every survivor must keep its counts: {r:?}"
        );
        prop_assert_eq!(r.orphaned, deleted.len(), "{r:?}");
        prop_assert_eq!(r.degraded, 0, "all new sites are fed: {r:?}");

        // And the carried counts are the survivors' own, re-keyed: the
        // multiset of (fingerprint, executed, taken) triples must be
        // preserved exactly.
        let tag = |fps: &BTreeMap<BranchId, SiteFp>,
                   rows: &[(BranchId, u64, u64)]| {
            let mut v: Vec<(SiteFp, u64, u64)> = rows
                .iter()
                .filter(|(id, ..)| fps.contains_key(id))
                .map(|&(id, e, t)| (fps[&id], e, t))
                .collect();
            v.sort_unstable();
            v
        };
        let old_surviving: Vec<(BranchId, u64, u64)> = entries
            .iter()
            .copied()
            .filter(|(id, ..)| !deleted.contains(id))
            .collect();
        prop_assert_eq!(
            tag(&new_fps, &out.counts),
            tag(&old_fps, &old_surviving),
            "salvage must preserve each survivor's exact counts"
        );
    }
}
