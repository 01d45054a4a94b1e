//! Backend equivalence and counter invariants over the on-disk corpus.
//!
//! Every corpus entry runs on both VM backends with its recorded input
//! sets, asserting the backend invariants: identical [`Run`]s (output,
//! result, stats), identical recorded edge and branch streams,
//! `total_instrs` reconciling with the Pixie-weighted block counts, and
//! branch counter totals matching the recorded branches.

use std::path::Path;

use mffuzz::corpus;
use trace_ir::{BranchId, Program};
use trace_vm::{Backend, Input, Recorder, Run, Vm, VmConfig};

fn config(backend: Backend) -> VmConfig {
    VmConfig {
        backend,
        ..VmConfig::default()
    }
}

fn run_both(program: &Program, inputs: &[Input]) -> [(Run, Recorder); 2] {
    let runs = Backend::ALL.map(|backend| {
        let mut recorder = Recorder::default();
        let vm = Vm::with_config(program, config(backend));
        let run = vm
            .run_observed(inputs, &mut recorder)
            .expect("corpus entry runs");
        (run, recorder)
    });
    assert_eq!(runs[0].1, runs[1].1, "recorded event streams differ");
    runs
}

/// `stats.total_instrs` must equal the Pixie-weighted instruction count:
/// each execution of block `b` contributes its instruction count plus one
/// for the terminator.
fn assert_pixie_reconciles(program: &Program, run: &Run, what: &str) {
    let mut weighted = 0u64;
    for (fi, f) in program.functions.iter().enumerate() {
        let counts = &run.stats.pixie.blocks[fi];
        assert_eq!(counts.len(), f.blocks.len(), "{what}: pixie shape");
        for (bi, block) in f.blocks.iter().enumerate() {
            weighted += counts[bi] * (block.instrs.len() as u64 + 1);
        }
    }
    assert_eq!(
        run.stats.total_instrs, weighted,
        "{what}: total_instrs vs pixie-weighted block counts"
    );
}

/// The aggregate branch counters must be exactly the recorded branches,
/// folded by branch id.
fn assert_branches_match_trace(run: &Run, recorder: &Recorder, what: &str) {
    let mut by_id: std::collections::BTreeMap<BranchId, (u64, u64)> =
        std::collections::BTreeMap::new();
    for event in &recorder.branches {
        let slot = by_id.entry(event.id).or_insert((0, 0));
        slot.0 += 1;
        if event.taken {
            slot.1 += 1;
        }
    }
    let recorded: Vec<(BranchId, u64, u64)> = run.stats.branches.iter().collect();
    let traced: Vec<(BranchId, u64, u64)> = by_id
        .into_iter()
        .map(|(id, (executed, taken))| (id, executed, taken))
        .collect();
    assert_eq!(recorded, traced, "{what}: branch counters vs trace");
}

/// Every dynamic predictor must tally identical `(executed, mispredicted)`
/// counts on both backends: the predictors are pure functions of the branch
/// outcome stream, so this is the observable-equivalence invariant extended
/// to the observer hook. The golden trace replay is cross-checked too,
/// closing the triangle online-reference = online-flat = replayed-trace.
#[test]
fn predictor_zoo_agrees_on_both_backends_across_corpus() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let entries = corpus::load_dir(&dir).expect("corpus loads");
    assert!(!entries.is_empty(), "corpus directory is empty");
    let specs = mfdyn::full_zoo();
    for entry in &entries {
        let program =
            mflang::compile(&entry.source).unwrap_or_else(|e| panic!("{}: {e:?}", entry.name));
        for (si, set) in entry.input_sets.iter().enumerate() {
            let inputs: Vec<Input> = set.iter().map(|&v| Input::Int(v)).collect();
            let what = format!("{} input set {si}", entry.name);
            let reports = Backend::ALL.map(|backend| {
                let mut observers = (mfdyn::Zoo::new(&specs), Recorder::default());
                let vm = Vm::with_config(&program, config(backend));
                vm.run_observed(&inputs, &mut observers)
                    .expect("corpus entry runs");
                (observers.0.report(), observers.1)
            });
            let [(reference, recorded), (flat, _)] = reports;
            assert_eq!(
                reference, flat,
                "{what}: zoo reports differ between backends"
            );
            let replayed = mfdyn::golden::replay_zoo(&specs, &recorded.branches);
            assert_eq!(reference, replayed, "{what}: online zoo vs golden replay");
        }
    }
}

#[test]
fn corpus_entries_agree_and_reconcile_on_both_backends() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let entries = corpus::load_dir(&dir).expect("corpus loads");
    assert!(!entries.is_empty(), "corpus directory is empty");
    for entry in &entries {
        let program =
            mflang::compile(&entry.source).unwrap_or_else(|e| panic!("{}: {e:?}", entry.name));
        for (si, set) in entry.input_sets.iter().enumerate() {
            let inputs: Vec<Input> = set.iter().map(|&v| Input::Int(v)).collect();
            let what = format!("{} input set {si}", entry.name);
            let [reference, flat] = run_both(&program, &inputs);
            assert_eq!(reference.0, flat.0, "{what}: Run differs between backends");
            for (run, recorder) in [&reference, &flat] {
                assert_pixie_reconciles(&program, run, &what);
                assert_branches_match_trace(run, recorder, &what);
            }
        }
    }
}
