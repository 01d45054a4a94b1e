//! The static tier answers each site the same whether it is asked alone or
//! with every other site, and the same as a whole-program analysis would,
//! on every suite program and its inlined build. Inlining repeats a
//! callee's branch ids in each caller, so the inlined builds check that a
//! scoped call still finds every occurrence of a site.

use std::collections::BTreeMap;

use mfopt::Inliner;
use mfpredict::{analyze, extract, static_tier, Model, Proof, StaticTierSource};
use trace_ir::{BranchId, Program};

/// The tier's precedence over a whole-program `analyze` + `extract`, where
/// a repeated site keeps its last occurrence's features.
fn whole_program(program: &Program) -> Vec<(BranchId, bool, StaticTierSource)> {
    let proofs = analyze(program);
    let feats: BTreeMap<_, _> = extract(program, &proofs)
        .into_iter()
        .map(|f| (f.id, f.values))
        .collect();
    let model = Model::committed();
    feats
        .into_iter()
        .map(|(id, values)| match proofs.proof(id) {
            Proof::AlwaysTaken => (id, true, StaticTierSource::Proof),
            Proof::NeverTaken => (id, false, StaticTierSource::Proof),
            Proof::Unknown => match model.score(&values) {
                0.0 => (id, values[4] == 1.0, StaticTierSource::Btfn),
                score => (id, score > 0.0, StaticTierSource::Model),
            },
        })
        .collect()
}

fn check(name: &str, program: &Program) {
    assert!(static_tier(program, &[]).is_empty(), "{name}: no sites");
    let live: Vec<BranchId> = program.live_branches().into_keys().collect();
    let whole = static_tier(program, &live);
    assert_eq!(whole, whole_program(program), "{name}: all sites at once");
    let mut union: Vec<_> = live
        .iter()
        .flat_map(|&site| static_tier(program, &[site]))
        .collect();
    union.sort_by_key(|&(id, ..)| id);
    assert_eq!(whole, union, "{name}: one site at a time");
}

#[test]
fn scoped_calls_match_the_whole_program_tier() {
    let mut repeated = 0;
    for w in mfwork::suite() {
        let program = w.compile().expect("suite program compiles");
        check(w.name, &program);
        let mut inlined = program.clone();
        Inliner::default().run(&mut inlined);
        let occurrences: usize = inlined
            .functions
            .iter()
            .map(|f| f.static_branch_count())
            .sum();
        repeated += occurrences - inlined.live_branches().len();
        check(&format!("{} (inlined)", w.name), &inlined);
    }
    assert!(repeated > 0, "some inlined build repeats a branch id");
}
