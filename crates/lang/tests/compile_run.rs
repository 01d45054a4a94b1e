//! End-to-end tests: compile guest source and execute it on the VM.

use mflang::{compile, compile_with, CompileOptions, SwitchMode};
use trace_ir::{BranchKind, Terminator};
use trace_vm::{Input, Vm};

fn run_ints(src: &str, inputs: &[Input]) -> Vec<i64> {
    let program = compile(src).unwrap_or_else(|e| panic!("compile error: {e}"));
    Vm::new(&program)
        .run(inputs)
        .unwrap_or_else(|e| panic!("runtime error: {e}"))
        .output_ints()
}

fn run_floats(src: &str, inputs: &[Input]) -> Vec<f64> {
    let program = compile(src).unwrap_or_else(|e| panic!("compile error: {e}"));
    Vm::new(&program)
        .run(inputs)
        .unwrap_or_else(|e| panic!("runtime error: {e}"))
        .output_floats()
}

#[test]
fn arithmetic_and_precedence() {
    let out = run_ints(
        "fn main() { emit(1 + 2 * 3); emit((1 + 2) * 3); emit(10 % 4); emit(7 / 2); emit(-3); }",
        &[],
    );
    assert_eq!(out, vec![7, 9, 2, 3, -3]);
}

#[test]
fn float_arithmetic() {
    let out = run_floats(
        "fn main() { emit(1.5 + 2.25); emit(sqrt(16.0)); emit(fmax(1.0, 2.0)); emit(float(7)); }",
        &[],
    );
    assert_eq!(out, vec![3.75, 4.0, 2.0, 7.0]);
}

#[test]
fn conversions() {
    let out = run_ints("fn main() { emit(int(3.9)); emit(int(-3.9)); }", &[]);
    assert_eq!(out, vec![3, -3]);
}

#[test]
fn bitwise_ops() {
    let out = run_ints(
        "fn main() { emit(6 & 3); emit(6 | 3); emit(6 ^ 3); emit(1 << 4); emit(-16 >> 2); emit(~0); }",
        &[],
    );
    assert_eq!(out, vec![2, 7, 5, 16, -4, -1]);
}

#[test]
fn while_loop() {
    let out = run_ints(
        r#"
        fn main(n: int) {
            var i: int = 0;
            var s: int = 0;
            while (i < n) { s = s + i; i = i + 1; }
            emit(s);
        }
        "#,
        &[Input::Int(100)],
    );
    assert_eq!(out, vec![4950]);
}

#[test]
fn for_loop_with_break_continue() {
    let out = run_ints(
        r#"
        fn main() {
            var s: int = 0;
            for (var i: int = 0; i < 100; i = i + 1) {
                if (i % 2 == 1) { continue; }
                if (i >= 10) { break; }
                s = s + i;
            }
            emit(s);
        }
        "#,
        &[],
    );
    assert_eq!(out, vec![2 + 4 + 6 + 8]);
}

#[test]
fn do_while_runs_at_least_once() {
    let out = run_ints(
        r#"
        fn main() {
            var n: int = 0;
            do { n = n + 1; } while (0);
            emit(n);
        }
        "#,
        &[],
    );
    assert_eq!(out, vec![1]);
}

#[test]
fn nested_loops_break_inner_only() {
    let out = run_ints(
        r#"
        fn main() {
            var count: int = 0;
            for (var i: int = 0; i < 3; i = i + 1) {
                for (var j: int = 0; j < 10; j = j + 1) {
                    if (j == 2) { break; }
                    count = count + 1;
                }
            }
            emit(count);
        }
        "#,
        &[],
    );
    assert_eq!(out, vec![6]);
}

#[test]
fn short_circuit_evaluation() {
    // The second operand must not run when the first decides: the guard
    // would divide by zero.
    let out = run_ints(
        r#"
        fn main(d: int) {
            if (d != 0 && 10 / d > 1) { emit(1); } else { emit(0); }
            if (d == 0 || 10 / d > 1) { emit(1); } else { emit(0); }
            emit(d != 0 && d > 100);
            emit(d == 0 || d > 100);
        }
        "#,
        &[Input::Int(0)],
    );
    assert_eq!(out, vec![0, 1, 0, 1]);
}

#[test]
fn logical_not() {
    let out = run_ints(
        "fn main() { emit(!0); emit(!5); if (!(1 == 2)) { emit(7); } }",
        &[],
    );
    assert_eq!(out, vec![1, 0, 7]);
}

#[test]
fn switch_cascade_and_default() {
    let src = r#"
        fn classify(x: int) -> int {
            switch (x) {
                case 0: { return 100; }
                case 1: { return 101; }
                case 5: { return 105; }
                default: { return -1; }
            }
            return -2;
        }
        fn main() {
            emit(classify(0)); emit(classify(1)); emit(classify(5));
            emit(classify(3)); emit(classify(-9));
        }
    "#;
    assert_eq!(run_ints(src, &[]), vec![100, 101, 105, -1, -1]);
    // Same behaviour under jump-table lowering.
    let program = compile_with(
        src,
        &CompileOptions {
            switch_mode: SwitchMode::JumpTable,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let run = Vm::new(&program).run(&[]).unwrap();
    assert_eq!(run.output_ints(), vec![100, 101, 105, -1, -1]);
    // Jump-table mode really used an indirect jump.
    assert!(run.stats.events.indirect_jumps >= 5);
}

#[test]
fn jump_table_labels_further_apart_than_i64_max_fall_back_to_the_cascade() {
    let src = r#"
        fn main(x: int) {
            switch (x) {
                case -9223372036854775807: { emit(1); }
                case 9223372036854775807: { emit(2); }
                default: { emit(3); }
            }
        }
    "#;
    let cascade = compile(src).unwrap();
    let table = compile_with(
        src,
        &CompileOptions {
            switch_mode: SwitchMode::JumpTable,
            ..CompileOptions::default()
        },
    )
    .expect("a span past i64::MAX compiles");
    for (x, want) in [(-i64::MAX, 1), (i64::MAX, 2), (0, 3), (i64::MIN, 3)] {
        let inputs = [Input::Int(x)];
        let run = Vm::new(&table).run(&inputs).unwrap();
        assert_eq!(run.output_ints(), vec![want], "x = {x}");
        assert_eq!(run, Vm::new(&cascade).run(&inputs).unwrap(), "x = {x}");
        assert_eq!(run.stats.events.indirect_jumps, 0, "x = {x}");
    }
}

#[test]
fn switch_cascade_produces_switch_arm_branches() {
    let src = r#"
        fn main(x: int) {
            switch (x) {
                case 1: { emit(1); }
                case 2: { emit(2); }
            }
        }
    "#;
    let program = compile(src).unwrap();
    let arm_count = program
        .branch_info
        .iter()
        .filter(|b| b.kind == BranchKind::SwitchArm)
        .count();
    assert_eq!(arm_count, 2);
    let run = Vm::new(&program).run(&[Input::Int(2)]).unwrap();
    assert_eq!(run.output_ints(), vec![2]);
    assert_eq!(run.stats.events.indirect_jumps, 0);
}

#[test]
fn arrays_and_strings() {
    let out = run_ints(
        r#"
        fn main() {
            var a: [int] = new_int(5);
            for (var i: int = 0; i < len(a); i = i + 1) { a[i] = i * i; }
            emit(a[4]);
            var s: [int] = "AZ";
            emit(len(s)); emit(s[0]); emit(s[1]);
        }
        "#,
        &[],
    );
    assert_eq!(out, vec![16, 2, 65, 90]);
}

#[test]
fn float_arrays() {
    let out = run_floats(
        r#"
        fn main() {
            var a: [float] = new_float(3);
            a[0] = 1.5; a[1] = 2.5; a[2] = 4.0;
            var s: float = 0.0;
            for (var i: int = 0; i < 3; i = i + 1) { s = s + a[i]; }
            emit(s);
        }
        "#,
        &[],
    );
    assert_eq!(out, vec![8.0]);
}

#[test]
fn globals_persist_across_calls() {
    let out = run_ints(
        r#"
        global counter: int;
        global table: [int];
        fn bump() { counter = counter + 1; }
        fn main() {
            table = new_int(4);
            bump(); bump(); bump();
            table[0] = counter;
            emit(table[0]);
        }
        "#,
        &[],
    );
    assert_eq!(out, vec![3]);
}

#[test]
fn recursion_fibonacci() {
    let out = run_ints(
        r#"
        fn fib(n: int) -> int {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main() { emit(fib(15)); }
        "#,
        &[],
    );
    assert_eq!(out, vec![610]);
}

#[test]
fn indirect_calls_through_fn_values() {
    let src = r#"
        fn double(x: int) -> int { return x * 2; }
        fn square(x: int) -> int { return x * x; }
        fn apply(f: fn(int) -> int, x: int) -> int { return f(x); }
        global op: fn(int) -> int;
        fn main() {
            emit(apply(@double, 10));
            emit(apply(@square, 10));
            op = @double;
            emit(op(7));
        }
    "#;
    let program = compile(src).unwrap();
    let run = Vm::new(&program).run(&[]).unwrap();
    assert_eq!(run.output_ints(), vec![20, 100, 14]);
    assert_eq!(run.stats.events.indirect_calls, 3);
    assert_eq!(run.stats.events.indirect_returns, 3);
}

#[test]
fn select_builtin_uses_select_instruction() {
    let src = "fn main(c: int) { emit(select(c, 10, 20)); }";
    let program = compile(src).unwrap();
    let run = Vm::new(&program).run(&[Input::Int(1)]).unwrap();
    assert_eq!(run.output_ints(), vec![10]);
    assert_eq!(run.stats.events.selects, 1);
    // select produces no conditional branch
    assert_eq!(run.stats.branches.total_executed(), 0);
}

#[test]
fn loop_branches_are_backward_taken() {
    let src = r#"
        fn main(n: int) {
            var s: int = 0;
            for (var i: int = 0; i < n; i = i + 1) { s = s + 1; }
            emit(s);
        }
    "#;
    let program = compile(src).unwrap();
    // Find the LoopBack branch and check its layout is backward.
    let mut found = false;
    for (fi, func) in program.functions.iter().enumerate() {
        for (bi, block) in func.blocks.iter().enumerate() {
            if let Terminator::Branch { id, taken, .. } = block.term {
                if program.branch_info[id.index()].kind == BranchKind::LoopBack {
                    found = true;
                    assert!(
                        taken.index() <= bi,
                        "LoopBack branch must be backward-taken"
                    );
                    assert!(program.is_backward_branch(
                        trace_ir::FuncId::from_index(fi),
                        trace_ir::BlockId::from_index(bi)
                    ));
                }
            }
        }
    }
    assert!(found, "no LoopBack branch generated");
    // Dynamic check: backward branch taken n-1 of n times.
    let run = Vm::new(&program).run(&[Input::Int(50)]).unwrap();
    let back = program
        .branch_info
        .iter()
        .position(|b| b.kind == BranchKind::LoopBack)
        .unwrap();
    let (exec, taken) = run.stats.branches.get(trace_ir::BranchId::from_index(back));
    assert_eq!((exec, taken), (50, 49));
}

#[test]
fn else_if_chain() {
    let src = r#"
        fn grade(x: int) -> int {
            if (x >= 90) { return 4; }
            else if (x >= 80) { return 3; }
            else if (x >= 70) { return 2; }
            else { return 0; }
        }
        fn main() { emit(grade(95)); emit(grade(85)); emit(grade(71)); emit(grade(3)); }
    "#;
    assert_eq!(run_ints(src, &[]), vec![4, 3, 2, 0]);
}

#[test]
fn shadowing_in_inner_scopes() {
    let out = run_ints(
        r#"
        fn main() {
            var x: int = 1;
            if (1) { var x: int = 2; emit(x); }
            emit(x);
        }
        "#,
        &[],
    );
    assert_eq!(out, vec![2, 1]);
}

#[test]
fn void_function_calls() {
    let out = run_ints(
        r#"
        global journal: [int];
        global pos: int;
        fn push(v: int) { journal[pos] = v; pos = pos + 1; }
        fn main() {
            journal = new_int(8);
            push(5); push(6);
            emit(journal[0]); emit(journal[1]); emit(pos);
        }
        "#,
        &[],
    );
    assert_eq!(out, vec![5, 6, 2]);
}

#[test]
fn string_interning_dedupes() {
    let program =
        compile(r#"fn main() { var a: [int] = "xy"; var b: [int] = "xy"; emit(a[0] + b[1]); }"#)
            .unwrap();
    assert_eq!(program.const_arrays.len(), 1);
}

#[test]
fn compile_errors() {
    let cases: &[(&str, &str)] = &[
        ("fn f() { }", "no `main`"),
        ("fn main() { x = 1; }", "unknown name"),
        ("fn main() { var x: int = 1.0; }", "cannot initialize"),
        ("fn main() { var x: int = 1; x = 2.0; }", "cannot assign"),
        ("fn main() { emit(1 + 2.0); }", "type mismatch"),
        ("fn main() { emit(1.0 % 2.0); }", "not defined"),
        ("fn main() { if (1.5) { } }", "condition must be int"),
        ("fn main() { break; }", "outside of a loop"),
        ("fn main() { continue; }", "outside of a loop"),
        ("fn main() -> int { return; }", "must return a value"),
        ("fn main() { return 3; }", "void function returns"),
        (
            "fn f() -> int { return 1; } fn main() { emit(f(2)); }",
            "expects 0 arguments",
        ),
        ("fn main() { emit(nothere()); }", "unknown function"),
        ("fn main() { emit(len(3)); }", "must be an array"),
        ("fn main() { var x: int = 0; emit(x[0]); }", "not indexable"),
        ("fn emit() { } fn main() { }", "builtin"),
        ("global len: int; fn main() { }", "builtin"),
        ("fn f() { } fn f() { } fn main() { }", "duplicate function"),
        (
            "global g: int; global g: int; fn main() { }",
            "duplicate global",
        ),
        ("fn main(a: int, a: int) { }", "duplicate parameter"),
        ("fn v() { } fn main() { emit(v()); }", "void call"),
        (
            "fn main() { var f: fn(int) = @nosuch; }",
            "unknown function `nosuch` in",
        ),
        ("fn main() { var f: fn(int) = @main; }", "cannot initialize"),
        (
            "fn g(x: int) { } fn main() { var f: fn(float) = @g; }",
            "cannot initialize",
        ),
        ("fn main() { switch (1.0) { } }", "must be int"),
    ];
    for (src, want) in cases {
        let err = compile(src).expect_err(src).to_string();
        assert!(
            err.contains(want),
            "source {src:?}: error {err:?} does not contain {want:?}"
        );
    }
}

#[test]
fn branch_lines_recorded() {
    let src = "fn main(x: int) {\n  if (x > 0) { emit(1); }\n}";
    let program = compile(src).unwrap();
    assert_eq!(program.branch_info.len(), 1);
    assert_eq!(program.branch_info[0].line, 2);
    assert_eq!(program.branch_info[0].kind, BranchKind::If);
}

#[test]
fn and_or_as_values_normalize_to_bool() {
    let out = run_ints(
        "fn main() { emit(5 && 3); emit(0 && 3); emit(0 || 9); emit(0 || 0); }",
        &[],
    );
    assert_eq!(out, vec![1, 0, 1, 0]);
}

#[test]
fn simple_ifs_are_select_converted() {
    // `if (v > m) { m = v; }` is the Trace front ends' select pattern.
    let src = r#"
        fn main(data: [int], n: int) {
            var m: int = 0;
            for (var i: int = 0; i < n; i = i + 1) {
                var v: int = data[i];
                if (v > m) { m = v; }
            }
            emit(m);
        }
    "#;
    let converted = compile(src).unwrap();
    let run = Vm::new(&converted)
        .run(&[Input::Ints(vec![3, 9, 1, 7]), Input::Int(4)])
        .unwrap();
    assert_eq!(run.output_ints(), vec![9]);
    assert_eq!(run.stats.events.selects, 4, "one select per element");

    // With conversion off, the same source branches instead.
    let plain = compile_with(
        src,
        &CompileOptions {
            if_conversion: false,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let run2 = Vm::new(&plain)
        .run(&[Input::Ints(vec![3, 9, 1, 7]), Input::Int(4)])
        .unwrap();
    assert_eq!(run2.output_ints(), vec![9]);
    assert_eq!(run2.stats.events.selects, 0);
    assert!(run2.stats.branches.total_executed() > run.stats.branches.total_executed());
}

#[test]
fn if_else_assignments_select_convert() {
    let src = "fn main(x: int) { var r: int = 0; if (x > 5) { r = 1; } else { r = 2; } emit(r); }";
    let p = compile(src).unwrap();
    let run = Vm::new(&p).run(&[Input::Int(9)]).unwrap();
    assert_eq!(run.output_ints(), vec![1]);
    assert_eq!(run.stats.events.selects, 1);
    let run = Vm::new(&p).run(&[Input::Int(1)]).unwrap();
    assert_eq!(run.output_ints(), vec![2]);
}

#[test]
fn trapping_and_impure_ifs_are_not_converted() {
    // Division can trap: must stay a real branch.
    let src = "fn main(x: int) { var r: int = 9; if (x != 0) { r = 10 / x; } emit(r); }";
    let p = compile(src).unwrap();
    let run = Vm::new(&p).run(&[Input::Int(0)]).unwrap();
    assert_eq!(run.output_ints(), vec![9], "guarded divide must not run");
    assert_eq!(run.stats.events.selects, 0);

    // Calls have side effects: must stay a real branch.
    let src2 = r#"
        global hits: int;
        fn bump() -> int { hits = hits + 1; return hits; }
        fn main(x: int) { var r: int = 0; if (x > 0) { r = bump(); } emit(r); emit(hits); }
    "#;
    let p2 = compile(src2).unwrap();
    let run2 = Vm::new(&p2).run(&[Input::Int(-1)]).unwrap();
    assert_eq!(run2.output_ints(), vec![0, 0], "call must not execute");

    // Array loads can trap on bounds: not converted.
    let src3 =
        "fn main(a: [int], i: int) { var r: int = -1; if (i < len(a)) { r = a[i]; } emit(r); }";
    let p3 = compile(src3).unwrap();
    let run3 = Vm::new(&p3)
        .run(&[Input::Ints(vec![5]), Input::Int(3)])
        .unwrap();
    assert_eq!(run3.output_ints(), vec![-1]);
}

#[test]
fn entry_with_array_inputs() {
    let out = run_ints(
        r#"
        fn main(data: [int], n: int) {
            var s: int = 0;
            for (var i: int = 0; i < n; i = i + 1) { s = s + data[i]; }
            emit(s);
        }
        "#,
        &[Input::Ints(vec![10, 20, 30]), Input::Int(3)],
    );
    assert_eq!(out, vec![60]);
}

#[test]
fn fallthrough_returns_zero() {
    let out = run_ints(
        "fn f(x: int) -> int { if (x > 0) { return 9; } } fn main() { emit(f(1)); emit(f(-1)); }",
        &[],
    );
    assert_eq!(out, vec![9, 0]);
}
