//! Trace-formation boundary tests: tail-duplicated superblock code must be
//! observably identical to the reference backend at every fuel limit and
//! every tail-duplication budget, including runtime faults that fire inside
//! a *duplicated* copy of a merge block (mid-trace side-exit territory).
//!
//! The deterministic tests pin the interesting boundaries; the property
//! test sweeps generated diamond-loop programs across arbitrary budgets.

use proptest::prelude::*;

use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
use trace_ir::{BinOp, BranchKind, Program};
use trace_vm::{
    Backend, FlatProgram, Input, Recorder, Run, RuntimeError, TraceConfig, Vm, VmConfig,
};

fn config(backend: Backend, fuel: u64, trace: TraceConfig) -> VmConfig {
    VmConfig {
        backend,
        fuel,
        trace,
        ..VmConfig::default()
    }
}

/// The run, with the edge and branch streams it reported.
fn run_with(
    program: &Program,
    backend: Backend,
    fuel: u64,
    trace: TraceConfig,
    input: i64,
) -> (Result<Run, RuntimeError>, Recorder) {
    let mut recorder = Recorder::default();
    let run = Vm::with_config(program, config(backend, fuel, trace))
        .run_observed(&[Input::Int(input)], &mut recorder);
    (run, recorder)
}

/// A loop around a diamond whose merge block carries real work — the shape
/// trace formation tail-duplicates: both arm traces want the merge block,
/// so one gets the canonical copy and the other a duplicate (budget
/// permitting).
///
/// ```text
/// main(n):
///   i = 0; s = 0
///   head:  odd = i & 1; branch odd -> a | b
///   a:     t = s * 2;  jump join
///   b:     t = s + 3;  jump join
///   join:  <pads adds> s = t + i; q = 100 / (den_base - i); s = s + q
///          i = i + 1; branch (i < n) -> head | exit
///   exit:  emit s; return s
/// ```
///
/// The division faults when the loop reaches `i == den_base`, i.e. inside
/// the merge block's code — in whichever *copy* the faulting iteration's
/// arm routed through.
fn diamond_loop_program(pads: u32, den_base: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 1);
    let n = f.param(0);
    let zero = f.const_int(0);
    let i = f.mov(zero);
    let s = f.mov(zero);
    let head = f.new_block();
    let arm_a = f.new_block();
    let arm_b = f.new_block();
    let join = f.new_block();
    let exit = f.new_block();
    f.jump(head);

    f.switch_to(head);
    let one = f.const_int(1);
    let odd = f.binop(BinOp::And, i, one);
    f.branch(odd, arm_a, arm_b, 1, BranchKind::If);

    f.switch_to(arm_a);
    let two = f.const_int(2);
    let ta = f.binop(BinOp::Mul, s, two);
    let t = f.mov(ta);
    f.jump(join);

    f.switch_to(arm_b);
    let three = f.const_int(3);
    let tb = f.binop(BinOp::Add, s, three);
    f.mov_to(t, tb);
    f.jump(join);

    f.switch_to(join);
    let mut acc = t;
    for _ in 0..pads {
        acc = f.binop(BinOp::Add, acc, one);
    }
    let si = f.binop(BinOp::Add, acc, i);
    f.mov_to(s, si);
    let hundred = f.const_int(100);
    let base = f.const_int(den_base);
    let den = f.binop(BinOp::Sub, base, i);
    let q = f.binop(BinOp::Div, hundred, den);
    let sq = f.binop(BinOp::Add, s, q);
    f.mov_to(s, sq);
    let i2 = f.binop(BinOp::Add, i, one);
    f.mov_to(i, i2);
    let again = f.binop(BinOp::Lt, i, n);
    f.branch(again, head, exit, 2, BranchKind::LoopBack);

    f.switch_to(exit);
    f.emit_value(s);
    f.ret(Some(s));
    pb.add_function(f.finish());
    pb.finish("main").unwrap()
}

const BUDGETS: &[u32] = &[0, 1, 8, 192, 10_000];

fn trace_on(tail_dup_budget: u32) -> TraceConfig {
    TraceConfig {
        enabled: true,
        tail_dup_budget,
        ..TraceConfig::default()
    }
}

#[test]
fn diamond_merge_block_is_tail_duplicated() {
    // The merge block must actually be duplicated once the budget covers
    // it — otherwise the sweeps below exercise nothing. Budget 0 forbids
    // all duplication; an ample budget must grow the emitted code.
    let program = diamond_loop_program(3, 1_000);
    let no_dup = FlatProgram::compile_with(&program, None, trace_on(0));
    let dup = FlatProgram::compile_with(&program, None, trace_on(10_000));
    assert!(
        dup.op_count() > no_dup.op_count(),
        "tail duplication did not fire: {} ops with budget 0 vs {} ample",
        no_dup.op_count(),
        dup.op_count()
    );
}

/// Sweeps every fuel limit in `0..=upper` at every budget and asserts both
/// backends return the same `Result` and recorded streams — identical
/// `Run`s on success, identical errors on faults.
fn assert_sweep_identical(program: &Program, input: i64, upper: u64, what: &str) {
    for &budget in BUDGETS {
        let trace = trace_on(budget);
        for fuel in 0..=upper {
            let reference = run_with(program, Backend::Reference, fuel, trace, input);
            let flat = run_with(program, Backend::Flat, fuel, trace, input);
            assert_eq!(
                reference, flat,
                "{what}: results differ at fuel {fuel}, budget {budget}"
            );
        }
    }
}

#[test]
fn fuel_sweep_identical_through_tail_duplicated_merge() {
    // Denominator never hits zero: a clean run at every fuel boundary.
    let program = diamond_loop_program(2, 1_000);
    let full = run_with(&program, Backend::Reference, u64::MAX, trace_on(192), 6)
        .0
        .expect("completes with ample fuel")
        .stats
        .total_instrs;
    assert_sweep_identical(&program, 6, full + 1, "diamond_clean");
    assert!(run_with(&program, Backend::Flat, full, trace_on(192), 6)
        .0
        .is_ok());
    assert_eq!(
        run_with(&program, Backend::Flat, full - 1, trace_on(192), 6).0,
        Err(RuntimeError::OutOfFuel { limit: full - 1 })
    );
}

#[test]
fn divide_by_zero_mid_trace_outranks_nothing_and_races_fuel() {
    // The 4th iteration (i == 3, an odd iteration, so the *duplicated*
    // path through one arm) divides by zero inside the merge block. Low
    // fuel limits must fault OutOfFuel first; ample limits must surface
    // the division fault — identically on both backends, at every budget.
    let program = diamond_loop_program(2, 3);
    for &budget in BUDGETS {
        assert_eq!(
            run_with(&program, Backend::Flat, u64::MAX, trace_on(budget), 10).0,
            Err(RuntimeError::DivideByZero),
            "budget {budget}"
        );
    }
    assert_eq!(
        run_with(&program, Backend::Reference, u64::MAX, trace_on(0), 10).0,
        Err(RuntimeError::DivideByZero)
    );
    // The faulting run is short; 120 comfortably covers it, so the sweep
    // crosses the fuel-vs-division precedence boundary at every budget.
    assert_sweep_identical(&program, 10, 120, "diamond_div_fault");
}

#[test]
fn low_confidence_sites_predict_as_if_unprofiled() {
    use trace_ir::BranchId;
    let program = diamond_loop_program(3, 1_000);
    // A profile that contradicts BTFN on both sites: the forward diamond
    // branch always taken, the backward loop edge never taken.
    let mut profile = trace_vm::BranchCounts::new();
    profile.add(BranchId(0), 100, 100);
    profile.add(BranchId(1), 100, 0);
    let tcfg = trace_on(192);
    let trusted = FlatProgram::compile_with(&program, Some(&profile), tcfg);
    let unprofiled = FlatProgram::compile_with(&program, None, tcfg);
    let degraded = FlatProgram::compile_with_confidence(
        &program,
        Some(&profile),
        &[BranchId(0), BranchId(1)],
        tcfg,
    );
    // Degrading every profiled site reproduces the unprofiled compilation
    // exactly; trusting the contrarian profile does not.
    assert_eq!(format!("{degraded:?}"), format!("{unprofiled:?}"));
    assert_ne!(format!("{degraded:?}"), format!("{trusted:?}"));
    // An empty low-confidence set is the plain profiled compilation.
    let none = FlatProgram::compile_with_confidence(&program, Some(&profile), &[], tcfg);
    assert_eq!(format!("{none:?}"), format!("{trusted:?}"));
    // Layout choices never change observable behavior.
    let reference = run_with(&program, Backend::Reference, u64::MAX, tcfg, 9).0;
    for fp in [&trusted, &unprofiled, &degraded] {
        assert_eq!(
            fp.run(config(Backend::Flat, u64::MAX, tcfg), &[Input::Int(9)]),
            reference
        );
    }
}

#[test]
fn confidence_digest_is_canonical() {
    use trace_ir::BranchId;
    use trace_vm::confidence_digest;
    assert_eq!(confidence_digest(&[]), 0);
    let a = confidence_digest(&[BranchId(1), BranchId(2)]);
    let b = confidence_digest(&[BranchId(2), BranchId(1), BranchId(2)]);
    assert_eq!(a, b, "digest must be order- and duplicate-insensitive");
    assert_ne!(a, 0);
    assert_ne!(a, confidence_digest(&[BranchId(1)]));
}

#[test]
fn disabling_traces_is_observably_identical_too() {
    let program = diamond_loop_program(4, 1_000);
    let off = TraceConfig {
        enabled: false,
        tail_dup_budget: 192,
        ..TraceConfig::default()
    };
    let on = trace_on(192);
    let a = run_with(&program, Backend::Flat, u64::MAX, off, 9);
    let b = run_with(&program, Backend::Flat, u64::MAX, on, 9);
    let r = run_with(&program, Backend::Reference, u64::MAX, on, 9);
    assert_eq!(a, b);
    assert_eq!(a, r);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trace formation preserves the full observable `Run` — output,
    /// result, `RunStats`, the edge and branch streams — at *any*
    /// tail-duplication budget, for clean runs, mid-run division faults,
    /// and fuel faults alike.
    #[test]
    fn run_stats_preserved_at_any_budget(
        pads in 0u32..6,
        den_base in 2i64..40,
        input in 1i64..12,
        budget in 0u32..512,
        fuel_divisor in 1u64..4,
    ) {
        let program = diamond_loop_program(pads, den_base);
        let trace = trace_on(budget);
        let reference = run_with(&program, Backend::Reference, u64::MAX, trace, input);
        let flat = run_with(&program, Backend::Flat, u64::MAX, trace, input);
        prop_assert_eq!(&reference, &flat);

        // And again under a fuel limit that lands somewhere mid-run.
        let spent = match &reference.0 {
            Ok(run) => run.stats.total_instrs,
            Err(_) => 64,
        };
        let fuel = (spent / fuel_divisor).max(1);
        let reference = run_with(&program, Backend::Reference, fuel, trace, input);
        let flat = run_with(&program, Backend::Flat, fuel, trace, input);
        prop_assert_eq!(reference, flat);
    }
}
