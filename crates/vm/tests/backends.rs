//! Cross-backend boundary tests: the flat backend must be observably
//! identical to the reference at *every* fuel limit, including limits that
//! land mid-block (forcing the flat backend's precise replay of a
//! bulk-charged segment), at calls and resumes, and at limits where a
//! runtime fault races the fuel fault.

use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
use trace_ir::{BinOp, BranchKind, Program};
use trace_vm::{Backend, Input, Recorder, Run, RuntimeError, Vm, VmConfig};

fn config(backend: Backend, fuel: u64) -> VmConfig {
    VmConfig {
        backend,
        fuel,
        ..VmConfig::default()
    }
}

/// The run, with the edge and branch streams it reported.
fn run_on(program: &Program, backend: Backend, fuel: u64) -> (Result<Run, RuntimeError>, Recorder) {
    let mut recorder = Recorder::default();
    let run = Vm::with_config(program, config(backend, fuel))
        .run_observed(&[Input::Int(4)], &mut recorder);
    (run, recorder)
}

/// `main(n) { s = 0; i = 0; do { s = s + helper(i); i = i + 1 } while
/// (i < n); emit s; return s }` with `helper(x) = x * 2 + 1` — loops,
/// branches, calls, and post-call resume segments, so a fuel sweep crosses
/// every segment kind the flat backend charges.
fn call_loop_program() -> Program {
    let mut pb = ProgramBuilder::new();

    let mut h = FunctionBuilder::new("helper", 1);
    let x = h.param(0);
    let two = h.const_int(2);
    let d = h.binop(BinOp::Mul, x, two);
    let one = h.const_int(1);
    let r = h.binop(BinOp::Add, d, one);
    h.ret(Some(r));
    let helper = pb.add_function(h.finish());

    let mut f = FunctionBuilder::new("main", 1);
    let n = f.param(0);
    let zero = f.const_int(0);
    let s = f.mov(zero);
    let i = f.mov(zero);
    let body = f.new_block();
    let exit = f.new_block();
    f.jump(body);

    f.switch_to(body);
    let hv = f.call(helper, vec![i]);
    let s2 = f.binop(BinOp::Add, s, hv);
    f.mov_to(s, s2);
    let one = f.const_int(1);
    let i2 = f.binop(BinOp::Add, i, one);
    f.mov_to(i, i2);
    let again = f.binop(BinOp::Lt, i, n);
    f.branch(again, body, exit, 1, BranchKind::LoopBack);

    f.switch_to(exit);
    f.emit_value(s);
    f.ret(Some(s));
    pb.add_function(f.finish());
    pb.finish("main").unwrap()
}

/// `main(n) { a = 10; b = n - n; pad...; emit a / b }` — the divide by
/// zero sits behind a few padding instructions, so some fuel limits fault
/// on fuel first and others reach the division inside a segment whose bulk
/// charge already overshot (fault precedence inside the precise replay).
fn div_fault_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 1);
    let n = f.param(0);
    let ten = f.const_int(10);
    let a = f.mov(ten);
    let b = f.binop(BinOp::Sub, n, n);
    let pad = f.binop(BinOp::Add, a, a);
    let pad2 = f.binop(BinOp::Mul, pad, pad);
    f.emit_value(pad2);
    let q = f.binop(BinOp::Div, a, b);
    f.emit_value(q);
    f.ret(Some(q));
    pb.add_function(f.finish());
    pb.finish("main").unwrap()
}

/// Sweeps every fuel limit in `0..=upper` and asserts both backends return
/// the *same* `Result` and recorded streams — identical `Run`s on success,
/// identical errors on faults.
fn assert_fuel_sweep_identical(program: &Program, upper: u64, what: &str) {
    for fuel in 0..=upper {
        let reference = run_on(program, Backend::Reference, fuel);
        let flat = run_on(program, Backend::Flat, fuel);
        assert_eq!(reference, flat, "{what}: results differ at fuel {fuel}");
    }
}

#[test]
fn fuel_sweep_identical_across_call_loop() {
    let program = call_loop_program();
    let full = run_on(&program, Backend::Reference, u64::MAX)
        .0
        .expect("completes with ample fuel")
        .stats
        .total_instrs;
    assert!(full > 10, "call_loop too small to sweep");
    assert_fuel_sweep_identical(&program, full + 1, "call_loop");
    // The sweep's top end must actually complete, and one below must not.
    assert!(run_on(&program, Backend::Flat, full).0.is_ok());
    assert_eq!(
        run_on(&program, Backend::Flat, full - 1).0,
        Err(RuntimeError::OutOfFuel { limit: full - 1 })
    );
}

#[test]
fn fuel_sweep_identical_with_mid_block_fault() {
    let program = div_fault_program();
    // The program is a single short block that always faults; 20 exceeds
    // its full cost, so the sweep covers every boundary including ample.
    assert_fuel_sweep_identical(&program, 20, "div_fault_sweep");
    // With ample fuel both backends must report the division fault itself.
    assert_eq!(
        run_on(&program, Backend::Flat, u64::MAX).0,
        Err(RuntimeError::DivideByZero)
    );
    assert_eq!(
        run_on(&program, Backend::Reference, u64::MAX).0,
        Err(RuntimeError::DivideByZero)
    );
}

#[test]
fn flat_backend_is_deterministic() {
    let program = call_loop_program();
    let a = run_on(&program, Backend::Flat, u64::MAX);
    let b = run_on(&program, Backend::Flat, u64::MAX);
    assert_eq!(a, b);
}
