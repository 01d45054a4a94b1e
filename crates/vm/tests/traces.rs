//! Layout boundary tests: flat code must be observably identical to the
//! reference backend at every fuel limit under either block layout,
//! including runtime faults that fire inside a loop's merge block.
//!
//! Every check runs against two compilations of the same program:
//! [`FlatProgram::compile`] (blocks in order, every branch falling through
//! to its not-taken arm) and [`FlatProgram::compile_with_profile`] with a
//! profile that reverses both branches' chain order. The deterministic
//! tests pin the interesting boundaries; the property test sweeps
//! generated diamond-loop programs across arbitrary fuel limits.

use proptest::prelude::*;

use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
use trace_ir::{BinOp, BranchId, BranchKind, Program};
use trace_vm::{
    Backend, BranchCounts, FlatProgram, Input, Recorder, Run, RuntimeError, Vm, VmConfig,
};

/// A run's result, with the edge and branch streams it reported.
type Observed = (Result<Run, RuntimeError>, Recorder);

fn config(backend: Backend, fuel: u64) -> VmConfig {
    VmConfig {
        backend,
        fuel,
        ..VmConfig::default()
    }
}

fn run_reference(program: &Program, fuel: u64, input: i64) -> Observed {
    let mut recorder = Recorder::default();
    let run = Vm::with_config(program, config(Backend::Reference, fuel))
        .run_observed(&[Input::Int(input)], &mut recorder);
    (run, recorder)
}

fn run_flat(flat: &FlatProgram, fuel: u64, input: i64) -> Observed {
    let mut recorder = Recorder::default();
    let run = flat.run_observed(
        config(Backend::Flat, fuel),
        &[Input::Int(input)],
        &mut recorder,
    );
    (run, recorder)
}

/// A loop around a diamond whose merge block carries real work.
///
/// ```text
/// main(n):
///   i = 0; s = 0
///   head:  odd = i & 1; branch odd -> a | b          (br0)
///   a:     t = s * 2;  jump join
///   b:     t = s + 3;  jump join
///   join:  <pads adds> s = t + i; q = 100 / (den_base - i); s = s + q
///          i = i + 1; branch (i < n) -> head | exit  (br1)
///   exit:  emit s; return s
/// ```
///
/// The division faults when the loop reaches `i == den_base`, i.e. inside
/// the merge block's code, which both arms reach.
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

/// The program under both layouts. Unprofiled, the chains are
/// `entry head b join exit` and `a`; the profile takes both branches
/// (the diamond to `a`, the loop back to `head`), which chains
/// `entry head a join`, then `b`, then `exit`.
fn layouts(program: &Program) -> [(&'static str, FlatProgram); 2] {
    let mut reversed = BranchCounts::new();
    reversed.add(BranchId(0), 100, 100);
    reversed.add(BranchId(1), 100, 99);
    [
        ("block order", FlatProgram::compile(program)),
        (
            "reversed profile",
            FlatProgram::compile_with_profile(program, &reversed),
        ),
    ]
}

/// Sweeps every fuel limit in `0..=upper` under both layouts and asserts
/// both backends return the same `Result` and recorded streams — identical
/// `Run`s on success, identical errors on faults.
fn assert_sweep_identical(program: &Program, input: i64, upper: u64, what: &str) {
    for (layout, flat) in layouts(program) {
        for fuel in 0..=upper {
            assert_eq!(
                run_reference(program, fuel, input),
                run_flat(&flat, fuel, input),
                "{what}: results differ at fuel {fuel}, {layout}"
            );
        }
    }
}

#[test]
fn fuel_sweep_identical_through_diamond_merge() {
    // Denominator never hits zero: a clean run at every fuel boundary.
    let program = diamond_loop_program(2, 1_000);
    let full = run_reference(&program, u64::MAX, 6)
        .0
        .expect("completes with ample fuel")
        .stats
        .total_instrs;
    assert_sweep_identical(&program, 6, full + 1, "diamond_clean");
    for (layout, flat) in layouts(&program) {
        assert!(run_flat(&flat, full, 6).0.is_ok(), "{layout}");
        assert_eq!(
            run_flat(&flat, full - 1, 6).0,
            Err(RuntimeError::OutOfFuel { limit: full - 1 }),
            "{layout}"
        );
    }
}

#[test]
fn divide_by_zero_mid_trace_outranks_nothing_and_races_fuel() {
    // The 4th iteration (i == 3, an odd iteration through arm `a`) divides
    // by zero inside the merge block. Low fuel limits must fault
    // OutOfFuel first; ample limits must surface the division fault —
    // identically on both backends, under both layouts.
    let program = diamond_loop_program(2, 3);
    assert_eq!(
        run_reference(&program, u64::MAX, 10).0,
        Err(RuntimeError::DivideByZero)
    );
    for (layout, flat) in layouts(&program) {
        assert_eq!(
            run_flat(&flat, u64::MAX, 10).0,
            Err(RuntimeError::DivideByZero),
            "{layout}"
        );
    }
    // The faulting run is short; 120 comfortably covers it, so the sweep
    // crosses the fuel-vs-division precedence boundary under both layouts.
    assert_sweep_identical(&program, 10, 120, "diamond_div_fault");
}

#[test]
fn near_max_profile_counts_lay_out_without_overflow() {
    // A profile database accepts counts up to u64::MAX; the layout's
    // majority test must not overflow on them (a debug build would panic)
    // and must still predict the majority arm.
    let program = diamond_loop_program(3, 1_000);
    let mut profile = BranchCounts::new();
    profile.add(BranchId(0), u64::MAX, u64::MAX - 1);
    profile.add(BranchId(1), u64::MAX, u64::MAX - 1);
    let flat = FlatProgram::compile_with_profile(&program, &profile);
    let [(_, unprofiled), (_, reversed)] = layouts(&program);
    assert_eq!(format!("{flat:?}"), format!("{reversed:?}"));
    assert_ne!(format!("{flat:?}"), format!("{unprofiled:?}"));
    assert_eq!(
        run_flat(&flat, u64::MAX, 9),
        run_reference(&program, u64::MAX, 9)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Either layout preserves the full observable `Run` — output, result,
    /// `RunStats`, the edge and branch streams — at *any* fuel budget, for
    /// clean runs, mid-run division faults, and fuel faults alike.
    #[test]
    fn run_stats_preserved_at_any_budget(
        pads in 0u32..6,
        den_base in 2i64..40,
        input in 1i64..12,
        fuel_divisor in 1u64..4,
    ) {
        let program = diamond_loop_program(pads, den_base);
        let reference = run_reference(&program, u64::MAX, input);
        // A fuel limit that lands somewhere mid-run.
        let spent = match &reference.0 {
            Ok(run) => run.stats.total_instrs,
            Err(_) => 64,
        };
        let fuel = (spent / fuel_divisor).max(1);
        let limited = run_reference(&program, fuel, input);
        for (_, flat) in layouts(&program) {
            prop_assert_eq!(&reference, &run_flat(&flat, u64::MAX, input));
            prop_assert_eq!(&limited, &run_flat(&flat, fuel, input));
        }
    }
}
