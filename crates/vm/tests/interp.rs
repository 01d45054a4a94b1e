//! Integration tests for the interpreter: semantics, counters, and faults.

use trace_ir::builder::{FunctionBuilder, ProgramBuilder};
use trace_ir::{BinOp, BranchId, BranchKind, Program, UnOp};
use trace_vm::{Input, RuntimeError, Vm, VmConfig};

/// Builds: `main(n) { s = 0; for i in 0..n { s += i } ; emit s; return s }`
/// as a bottom-tested loop (the branch's taken direction stays in the loop).
fn sum_loop_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 1);
    let n = f.param(0);
    let zero = f.const_int(0);
    let s = f.mov(zero);
    let i = f.mov(zero);
    let body = f.new_block();
    let test = f.new_block();
    let exit = f.new_block();

    // Guard: skip the loop entirely when n <= 0.
    let enter = f.binop(BinOp::Lt, i, n);
    f.branch(enter, body, exit, 1, BranchKind::If);

    f.switch_to(body);
    let s2 = f.binop(BinOp::Add, s, i);
    f.mov_to(s, s2);
    let one = f.const_int(1);
    let i2 = f.binop(BinOp::Add, i, one);
    f.mov_to(i, i2);
    f.jump(test);

    f.switch_to(test);
    let again = f.binop(BinOp::Lt, i, n);
    f.branch(again, body, exit, 2, BranchKind::LoopBack);

    f.switch_to(exit);
    f.emit_value(s);
    f.ret(Some(s));

    pb.add_function(f.finish());
    pb.finish("main").unwrap()
}

#[test]
fn sum_loop_computes_and_counts() {
    let p = sum_loop_program();
    let run = Vm::new(&p).run(&[Input::Int(10)]).unwrap();
    assert_eq!(run.output_ints(), vec![45]);

    // Guard branch: executed once, taken once. Loop branch: 10 executions,
    // 9 taken (stays) + 1 not-taken (exits).
    assert_eq!(run.stats.branches.get(BranchId(0)), (1, 1));
    assert_eq!(run.stats.branches.get(BranchId(1)), (10, 9));
    // One jump per body iteration.
    assert_eq!(run.stats.events.jumps, 10);
    assert_eq!(run.stats.events.direct_calls, 0);
}

#[test]
fn zero_trip_loop() {
    let p = sum_loop_program();
    let run = Vm::new(&p).run(&[Input::Int(0)]).unwrap();
    assert_eq!(run.output_ints(), vec![0]);
    assert_eq!(run.stats.branches.get(BranchId(0)), (1, 0));
    assert_eq!(run.stats.branches.get(BranchId(1)), (0, 0));
}

#[test]
fn pixie_counts_reconcile_with_fuel() {
    let p = sum_loop_program();
    let run = Vm::new(&p).run(&[Input::Int(25)]).unwrap();
    assert_eq!(run.stats.pixie.total_instrs(&p), run.stats.total_instrs);
}

#[test]
fn determinism_bit_for_bit() {
    let p = sum_loop_program();
    let a = Vm::new(&p).run(&[Input::Int(17)]).unwrap();
    let b = Vm::new(&p).run(&[Input::Int(17)]).unwrap();
    assert_eq!(a, b);
}

fn call_program(indirect: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let double = pb.declare_function("double");
    {
        let mut f = FunctionBuilder::new("double", 1);
        let two = f.const_int(2);
        let r = f.binop(BinOp::Mul, f.param(0), two);
        f.ret(Some(r));
        pb.define_function(double, f.finish());
    }
    let mut m = FunctionBuilder::new("main", 1);
    let x = m.param(0);
    let y = if indirect {
        let fp = m.func_addr(double);
        m.call_indirect(fp, vec![x])
    } else {
        m.call(double, vec![x])
    };
    m.emit_value(y);
    m.ret(Some(y));
    pb.add_function(m.finish());
    pb.finish("main").unwrap()
}

#[test]
fn direct_call_events() {
    let p = call_program(false);
    let run = Vm::new(&p).run(&[Input::Int(21)]).unwrap();
    assert_eq!(run.output_ints(), vec![42]);
    assert_eq!(run.stats.events.direct_calls, 1);
    assert_eq!(run.stats.events.direct_returns, 1);
    assert_eq!(run.stats.events.indirect_calls, 0);
    assert_eq!(run.stats.events.indirect_returns, 0);
}

#[test]
fn indirect_call_events() {
    let p = call_program(true);
    let run = Vm::new(&p).run(&[Input::Int(21)]).unwrap();
    assert_eq!(run.output_ints(), vec![42]);
    assert_eq!(run.stats.events.indirect_calls, 1);
    assert_eq!(run.stats.events.indirect_returns, 1);
    assert_eq!(run.stats.events.direct_calls, 0);
    assert_eq!(run.stats.events.unavoidable(), 2);
}

#[test]
fn recursion_works() {
    // fact(n) = n <= 1 ? 1 : n * fact(n-1)
    let mut pb = ProgramBuilder::new();
    let fact = pb.declare_function("fact");
    {
        let mut f = FunctionBuilder::new("fact", 1);
        let n = f.param(0);
        let one = f.const_int(1);
        let base = f.new_block();
        let rec = f.new_block();
        let c = f.binop(BinOp::Le, n, one);
        f.branch(c, base, rec, 1, BranchKind::If);
        f.switch_to(base);
        f.ret(Some(one));
        f.switch_to(rec);
        let nm1 = f.binop(BinOp::Sub, n, one);
        let sub = f.call(fact, vec![nm1]);
        let r = f.binop(BinOp::Mul, n, sub);
        f.ret(Some(r));
        pb.define_function(fact, f.finish());
    }
    let mut m = FunctionBuilder::new("main", 1);
    let r = m.call(fact, vec![m.param(0)]);
    m.emit_value(r);
    m.ret(Some(r));
    pb.add_function(m.finish());
    let p = pb.finish("main").unwrap();

    let run = Vm::new(&p).run(&[Input::Int(10)]).unwrap();
    assert_eq!(run.output_ints(), vec![3628800]);
    assert_eq!(run.stats.events.direct_calls, 10);
    assert_eq!(run.stats.events.direct_returns, 10);
}

#[test]
fn arrays_and_globals() {
    let mut pb = ProgramBuilder::new();
    let g = pb.add_global("acc");
    let mut f = FunctionBuilder::new("main", 1);
    let input = f.param(0);
    let len = f.array_len(input);
    f.global_set(g, len);
    let ten = f.const_int(10);
    let arr = f.new_int_array(ten);
    let zero = f.const_int(0);
    let v = f.load(input, zero);
    f.store(arr, zero, v);
    let back = f.load(arr, zero);
    let acc = f.global_get(g);
    let sum = f.binop(BinOp::Add, back, acc);
    f.emit_value(sum);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();

    let run = Vm::new(&p).run(&[Input::Ints(vec![7, 8, 9])]).unwrap();
    // input[0] + len(input) = 7 + 3
    assert_eq!(run.output_ints(), vec![10]);
    assert_eq!(run.result, None);
}

#[test]
fn float_arrays_and_math() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 1);
    let input = f.param(0);
    let zero = f.const_int(0);
    let x = f.load(input, zero);
    let r = f.unop(UnOp::Sqrt, x);
    f.emit_value(r);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let run = Vm::new(&p).run(&[Input::Floats(vec![9.0])]).unwrap();
    assert_eq!(run.output_floats(), vec![3.0]);
}

#[test]
fn const_array_is_read_only() {
    let mut pb = ProgramBuilder::new();
    let lit = pb.intern_str("hi");
    let mut f = FunctionBuilder::new("main", 0);
    let arr = f.const_array(lit);
    let zero = f.const_int(0);
    let v = f.load(arr, zero);
    f.emit_value(v);
    f.store(arr, zero, zero);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let err = Vm::new(&p).run(&[]).unwrap_err();
    assert_eq!(err, RuntimeError::ReadOnlyStore);
}

#[test]
fn jump_table_counts_indirect_jump() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 1);
    let x = f.param(0);
    let b0 = f.new_block();
    let b1 = f.new_block();
    let dflt = f.new_block();
    let out = f.new_block();
    f.jump_table(x, vec![b0, b1], dflt);
    for (b, v) in [(b0, 100), (b1, 101), (dflt, 999)] {
        f.switch_to(b);
        let c = f.const_int(v);
        f.emit_value(c);
        f.jump(out);
    }
    f.switch_to(out);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();

    let run = Vm::new(&p).run(&[Input::Int(1)]).unwrap();
    assert_eq!(run.output_ints(), vec![101]);
    assert_eq!(run.stats.events.indirect_jumps, 1);
    let run = Vm::new(&p).run(&[Input::Int(7)]).unwrap();
    assert_eq!(run.output_ints(), vec![999]);
}

#[test]
fn select_is_counted() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 1);
    let a = f.const_int(10);
    let b = f.const_int(20);
    let r = f.select(f.param(0), a, b);
    f.emit_value(r);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let run = Vm::new(&p).run(&[Input::Int(0)]).unwrap();
    assert_eq!(run.output_ints(), vec![20]);
    assert_eq!(run.stats.events.selects, 1);
    assert!(run.stats.select_ratio() > 0.0);
}

#[test]
fn faults_are_reported() {
    // index out of bounds
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 1);
    let bad = f.const_int(99);
    let v = f.load(f.param(0), bad);
    f.emit_value(v);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let err = Vm::new(&p).run(&[Input::Ints(vec![1, 2])]).unwrap_err();
    assert_eq!(err, RuntimeError::IndexOutOfBounds { index: 99, len: 2 });
}

#[test]
fn divide_by_zero_faults() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 1);
    let zero = f.const_int(0);
    let r = f.binop(BinOp::Div, f.param(0), zero);
    f.emit_value(r);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let err = Vm::new(&p).run(&[Input::Int(1)]).unwrap_err();
    assert_eq!(err, RuntimeError::DivideByZero);
}

#[test]
fn fuel_limit_stops_infinite_loop() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 0);
    let spin = f.new_block();
    f.jump(spin);
    f.switch_to(spin);
    f.jump(spin);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let vm = Vm::with_config(
        &p,
        VmConfig {
            fuel: 1000,
            ..VmConfig::default()
        },
    );
    let err = vm.run(&[]).unwrap_err();
    assert_eq!(err, RuntimeError::OutOfFuel { limit: 1000 });
}

#[test]
fn stack_limit_stops_runaway_recursion() {
    let mut pb = ProgramBuilder::new();
    let f_id = pb.declare_function("f");
    let mut f = FunctionBuilder::new("f", 0);
    f.call_void(f_id, vec![]);
    f.ret(None);
    pb.define_function(f_id, f.finish());
    let mut m = FunctionBuilder::new("main", 0);
    m.call_void(f_id, vec![]);
    m.ret(None);
    pb.add_function(m.finish());
    let p = pb.finish("main").unwrap();
    let vm = Vm::with_config(
        &p,
        VmConfig {
            max_stack: 64,
            ..VmConfig::default()
        },
    );
    let err = vm.run(&[]).unwrap_err();
    assert_eq!(err, RuntimeError::StackOverflow { limit: 64 });
}

#[test]
fn entry_arity_checked() {
    let p = sum_loop_program();
    let err = Vm::new(&p).run(&[]).unwrap_err();
    assert_eq!(
        err,
        RuntimeError::BadEntryArity {
            got: 0,
            expected: 1
        }
    );
}

#[test]
fn type_mismatch_on_branch_condition() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 0);
    let c = f.const_float(1.0);
    let t = f.new_block();
    let e = f.new_block();
    f.branch(c, t, e, 1, BranchKind::If);
    f.switch_to(t);
    f.ret(None);
    f.switch_to(e);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let err = Vm::new(&p).run(&[]).unwrap_err();
    assert!(matches!(err, RuntimeError::TypeMismatch { .. }));
}

#[test]
fn wrapping_arithmetic_does_not_panic() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 0);
    let max = f.const_int(i64::MAX);
    let one = f.const_int(1);
    let wrapped = f.binop(BinOp::Add, max, one);
    f.emit_value(wrapped);
    let min = f.const_int(i64::MIN);
    let neg = f.unop(UnOp::Neg, min);
    f.emit_value(neg);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let run = Vm::new(&p).run(&[]).unwrap();
    assert_eq!(run.output_ints(), vec![i64::MIN, i64::MIN]);
}

#[test]
fn shift_amounts_are_masked() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 0);
    let one = f.const_int(1);
    let big = f.const_int(65);
    let r = f.binop(BinOp::Shl, one, big);
    f.emit_value(r);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let run = Vm::new(&p).run(&[]).unwrap();
    assert_eq!(run.output_ints(), vec![2]); // 65 & 63 == 1
}

#[test]
fn indirect_call_through_non_function_faults() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 0);
    let x = f.const_int(7);
    let r = f.call_indirect(x, vec![]);
    f.emit_value(r);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let err = Vm::new(&p).run(&[]).unwrap_err();
    assert_eq!(err, RuntimeError::BadIndirectTarget { found: "int" });
}

#[test]
fn indirect_call_arity_checked_at_runtime() {
    let mut pb = ProgramBuilder::new();
    let two_params = pb.declare_function("needs_two");
    {
        let mut f = FunctionBuilder::new("needs_two", 2);
        let s = f.binop(BinOp::Add, f.param(0), f.param(1));
        f.ret(Some(s));
        pb.define_function(two_params, f.finish());
    }
    let mut m = FunctionBuilder::new("main", 0);
    let fp = m.func_addr(two_params);
    let one = m.const_int(1);
    let r = m.call_indirect(fp, vec![one]);
    m.emit_value(r);
    m.ret(None);
    pb.add_function(m.finish());
    let p = pb.finish("main").unwrap();
    let err = Vm::new(&p).run(&[]).unwrap_err();
    assert_eq!(
        err,
        RuntimeError::IndirectArityMismatch {
            callee: "needs_two".to_string(),
            got: 1,
            expected: 2,
        }
    );
}

#[test]
fn negative_array_length_faults() {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main", 0);
    let n = f.const_int(-4);
    let arr = f.new_int_array(n);
    let z = f.const_int(0);
    let v = f.load(arr, z);
    f.emit_value(v);
    f.ret(None);
    pb.add_function(f.finish());
    let p = pb.finish("main").unwrap();
    let err = Vm::new(&p).run(&[]).unwrap_err();
    assert_eq!(err, RuntimeError::BadArrayLength { len: -4 });
}

#[test]
fn branch_instr_counts_rise_to_near_total() {
    let p = sum_loop_program();
    let mut recorder = trace_vm::Recorder::default();
    let run = Vm::new(&p)
        .run_observed(&[Input::Int(40)], &mut recorder)
        .unwrap();
    assert!(recorder
        .branches
        .windows(2)
        .all(|w| w[0].instrs < w[1].instrs));
    // The last branch's count covers everything but the post-loop tail
    // (emit + return).
    let last = recorder.branches.last().expect("the loop branches").instrs;
    assert!(last <= run.stats.total_instrs);
    assert!(last + 10 >= run.stats.total_instrs);
}
