//! Backend equivalence and counter invariants over the bundled workloads.
//!
//! Each workload's first dataset runs on both backends under a reduced
//! fuel budget. Workloads that fit the budget must produce identical
//! [`Run`]s and recorded branch streams, and satisfy the counter
//! invariants (`total_instrs` equals the Pixie-weighted block counts;
//! branch counters fold exactly from the recorded branches). Workloads that exceed the budget must fault with the
//! *same* `OutOfFuel` on both backends — exercising the flat backend's
//! precise fuel replay on real programs, not just synthetic ones.

use trace_ir::{BranchId, Program};
use trace_vm::{Backend, BranchEvent, Run, RuntimeError, Vm, VmConfig};

/// Small enough to keep debug-build test time in check, large enough that
/// most of the suite completes (the rest pins the out-of-fuel path).
const TEST_FUEL: u64 = 3_000_000;

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

fn assert_branches_match_trace(run: &Run, branches: &[BranchEvent], what: &str) {
    let mut by_id: std::collections::BTreeMap<BranchId, (u64, u64)> =
        std::collections::BTreeMap::new();
    for event in branches {
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

#[test]
fn workloads_agree_and_reconcile_on_both_backends() {
    let mut completed = 0usize;
    let mut out_of_fuel = 0usize;
    for w in mfwork::suite() {
        let program = w.compile().expect("bundled workload compiles");
        let dataset = &w.datasets[0];
        let results = Backend::ALL.map(|backend| {
            let vm = Vm::with_config(
                &program,
                VmConfig {
                    backend,
                    fuel: TEST_FUEL,
                    ..w.vm_config()
                },
            );
            let mut recorder = trace_vm::Recorder::default();
            let run = vm.run_observed(&dataset.inputs, &mut recorder);
            run.map(|run| (run, recorder.branches))
        });
        let [reference, flat] = results;
        let what = format!("{} / {}", w.name, dataset.name);
        match (reference, flat) {
            (Ok(reference), Ok(flat)) => {
                assert_eq!(reference, flat, "{what}: Run differs between backends");
                for (run, branches) in [&reference, &flat] {
                    assert_pixie_reconciles(&program, run, &what);
                    assert_branches_match_trace(run, branches, &what);
                }
                completed += 1;
            }
            (Err(reference), Err(flat)) => {
                assert_eq!(reference, flat, "{what}: errors differ between backends");
                assert!(
                    matches!(reference, RuntimeError::OutOfFuel { .. }),
                    "{what}: unexpected fault {reference:?}"
                );
                out_of_fuel += 1;
            }
            (reference, flat) => {
                panic!("{what}: backends disagree on success: {reference:?} vs {flat:?}")
            }
        }
    }
    // The budget is chosen so both paths stay covered; if the workload
    // suite changes shape these counts flag it.
    assert!(completed >= 5, "too few workloads completed: {completed}");
    assert!(out_of_fuel >= 1, "no workload exercised OutOfFuel");
}
