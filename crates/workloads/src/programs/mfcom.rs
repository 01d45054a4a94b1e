//! `mfcom`: the Multiflow C & FORTRAN compiler (common optimizer and back
//! end over two front-end syntaxes).
//!
//! The paper profiled the Multiflow compiler itself compiling 5047 lines of
//! C-flavoured utilities (`c_metric`) and 5855 lines of scientific FORTRAN
//! (`fortran_metric`), measuring the code *common to both languages*. This
//! guest mirrors that structure: one program whose shared middle consists of
//! a shunting-yard expression translator, a peephole optimizer, and a
//! stack-machine back end that executes the generated code — processing
//! either C-style (`x = a*b + c;`) or FORTRAN-style (`X = A*B + C`,
//! column-ish, `**` exponent) assignment programs.

use std::fmt::Write as _;

use trace_vm::Input;

use crate::datagen::Lcg;
use crate::{DatasetRow, Group, Row};

const MFCOM: &str = r#"
// Stack-code ops: 1 PUSH_CONST v, 2 LOAD var, 3 STORE var, 4 ADD, 5 SUB,
// 6 MUL, 7 DIV, 8 POW (FORTRAN **), 9 NEG.
global src: [int];
global pos: int;
global lang: int;        // 0 = C syntax, 1 = FORTRAN syntax

global code_op: [int];
global code_arg: [int];
global code_len: int;

global op_stack: [int];
global op_top: int;

global vars: [int];      // 26 variable slots, a..z / A..Z
global stmts: int;
global peephole_hits: int;

fn is_digit(c: int) -> int {
    return c >= '0' && c <= '9';
}

fn is_var(c: int) -> int {
    if (lang == 0) { return c >= 'a' && c <= 'z'; }
    return c >= 'A' && c <= 'Z';
}

fn skip_ws() {
    while (pos < len(src)) {
        var c: int = src[pos];
        if (c == ' ' || c == '\t' || c == '\r') { pos = pos + 1; } else { return; }
    }
}

fn emit_op(op: int, arg: int) {
    code_op[code_len] = op;
    code_arg[code_len] = arg;
    code_len = code_len + 1;
}

fn prec(op: int) -> int {
    if (op == 0) { return 0; }              // '(' barrier: never pops
    if (op == 8) { return 3; }              // **
    if (op == 6 || op == 7) { return 2; }   // * /
    return 1;                               // + -
}

fn flush_ops(min_prec: int) {
    while (op_top > 0 && prec(op_stack[op_top - 1]) >= min_prec) {
        op_top = op_top - 1;
        emit_op(op_stack[op_top], 0);
    }
}

// Shunting-yard over one right-hand side, up to end-of-statement.
fn compile_expr() {
    var expect_operand: int = 1;
    while (pos < len(src)) {
        skip_ws();
        if (pos >= len(src)) { break; }
        var c: int = src[pos];
        if (lang == 0 && c == ';') { break; }
        if (c == '\n') { break; }
        if (expect_operand) {
            if (c == '-') {                  // unary minus: compile operand then NEG
                pos = pos + 1;
                skip_ws();
                c = src[pos];
                if (is_digit(c)) {
                    var v0: int = 0;
                    while (pos < len(src) && is_digit(src[pos])) {
                        v0 = v0 * 10 + (src[pos] - '0');
                        pos = pos + 1;
                    }
                    emit_op(1, v0);
                } else {
                    if (lang == 0) { emit_op(2, c - 'a'); } else { emit_op(2, c - 'A'); }
                    pos = pos + 1;
                }
                emit_op(9, 0);
                expect_operand = 0;
                continue;
            }
            if (c == '(') {
                // Parenthesized subexpression: push a barrier (op 0).
                op_stack[op_top] = 0;
                op_top = op_top + 1;
                pos = pos + 1;
                continue;
            }
            if (is_digit(c)) {
                var v: int = 0;
                while (pos < len(src) && is_digit(src[pos])) {
                    v = v * 10 + (src[pos] - '0');
                    pos = pos + 1;
                }
                emit_op(1, v);
                expect_operand = 0;
                continue;
            }
            if (is_var(c)) {
                if (lang == 0) { emit_op(2, c - 'a'); } else { emit_op(2, c - 'A'); }
                pos = pos + 1;
                expect_operand = 0;
                continue;
            }
            pos = pos + 1; // skip unexpected
        } else {
            if (c == ')') {
                // pop to barrier
                while (op_top > 0 && op_stack[op_top - 1] != 0) {
                    op_top = op_top - 1;
                    emit_op(op_stack[op_top], 0);
                }
                if (op_top > 0) { op_top = op_top - 1; }
                pos = pos + 1;
                continue;
            }
            var op: int = 0;
            if (c == '+') { op = 4; }
            if (c == '-') { op = 5; }
            if (c == '*') {
                if (lang == 1 && pos + 1 < len(src) && src[pos + 1] == '*') {
                    op = 8;
                    pos = pos + 1;
                } else {
                    op = 6;
                }
            }
            if (c == '/') { op = 7; }
            if (op == 0) { break; }
            pos = pos + 1;
            // Left-assoc: pop >= precedence; POW is right-assoc: pop >.
            if (op == 8) { flush_ops(prec(op) + 1); } else { flush_ops(prec(op)); }
            op_stack[op_top] = op;
            op_top = op_top + 1;
            expect_operand = 1;
        }
    }
    while (op_top > 0) {
        op_top = op_top - 1;
        if (op_stack[op_top] != 0) { emit_op(op_stack[op_top], 0); }
    }
}

// One statement: VAR = expr (terminated by ; or newline).
fn compile_stmt() -> int {
    skip_ws();
    while (pos < len(src) && (src[pos] == '\n' || src[pos] == ';')) {
        pos = pos + 1;
        skip_ws();
    }
    if (pos >= len(src)) { return 0; }
    var target: int = src[pos];
    if (!is_var(target)) { pos = pos + 1; return 1; }
    pos = pos + 1;
    skip_ws();
    if (pos >= len(src) || src[pos] != '=') { return 1; }
    pos = pos + 1;
    compile_expr();
    if (lang == 0) { emit_op(3, target - 'a'); } else { emit_op(3, target - 'A'); }
    stmts = stmts + 1;
    return 1;
}

// Peephole: PUSH k, PUSH m, op  ->  PUSH (k op m); LOAD x, STORE x -> nop.
fn peephole() {
    var out: int = 0;
    for (var i: int = 0; i < code_len; i = i + 1) {
        var op: int = code_op[i];
        if (out >= 2 && op >= 4 && op <= 7
            && code_op[out - 1] == 1 && code_op[out - 2] == 1) {
            var b: int = code_arg[out - 1];
            var a: int = code_arg[out - 2];
            var folded: int = 0;
            var ok: int = 1;
            if (op == 4) { folded = a + b; }
            if (op == 5) { folded = a - b; }
            if (op == 6) { folded = a * b; }
            if (op == 7) { if (b != 0) { folded = a / b; } else { ok = 0; } }
            if (ok) {
                out = out - 1;
                code_arg[out - 1] = folded;
                peephole_hits = peephole_hits + 1;
                continue;
            }
        }
        if (out >= 1 && op == 3 && code_op[out - 1] == 2
            && code_arg[out - 1] == code_arg[i]) {
            // LOAD x; STORE x — dead pair (value unchanged).
            out = out - 1;
            peephole_hits = peephole_hits + 1;
            continue;
        }
        code_op[out] = op;
        code_arg[out] = code_arg[i];
        out = out + 1;
    }
    code_len = out;
}

// Back end: execute the stack code (stands in for emitting machine code —
// and verifies the translation).
fn execute() {
    var stack: [int] = new_int(256);
    var sp: int = 0;
    for (var i: int = 0; i < code_len; i = i + 1) {
        var op: int = code_op[i];
        var arg: int = code_arg[i];
        if (op == 1) { stack[sp] = arg; sp = sp + 1; continue; }
        if (op == 2) { stack[sp] = vars[arg]; sp = sp + 1; continue; }
        if (op == 3) { sp = sp - 1; vars[arg] = stack[sp]; continue; }
        if (op == 9) { stack[sp - 1] = 0 - stack[sp - 1]; continue; }
        sp = sp - 1;
        var b: int = stack[sp];
        var a: int = stack[sp - 1];
        var r: int = 0;
        if (op == 4) { r = a + b; }
        if (op == 5) { r = a - b; }
        if (op == 6) { r = a * b; }
        if (op == 7) { if (b != 0) { r = a / b; } }
        if (op == 8) {
            r = 1;
            var e: int = b;
            if (e > 12) { e = 12; }
            while (e > 0) { r = r * a; e = e - 1; }
        }
        stack[sp - 1] = r;
    }
}

fn main(text: [int], language: int) {
    src = text;
    pos = 0;
    lang = language;
    code_op = new_int(len(text) + 64);
    code_arg = new_int(len(text) + 64);
    code_len = 0;
    op_stack = new_int(128);
    op_top = 0;
    vars = new_int(26);
    stmts = 0;
    peephole_hits = 0;

    while (compile_stmt()) { }
    var raw_len: int = code_len;
    peephole();
    execute();

    emit(stmts);
    emit(raw_len);
    emit(code_len);
    emit(peephole_hits);
    var h: int = 0;
    for (var v: int = 0; v < 26; v = v + 1) {
        h = (h * 31 + vars[v]) % 1000000007;
        emit(vars[v]);
    }
    emit(h);
}
"#;

/// Generates a C-flavoured assignment program (`c_metric`).
#[allow(clippy::explicit_auto_deref)] // pick returns &&str; the deref drives inference
pub fn gen_c_metric(seed: u64, lines: usize) -> String {
    let mut g = Lcg::new(seed);
    let mut out = String::from("a = 1; b = 2; c = 3; d = 4; e = 5;\n");
    for _ in 0..lines {
        let target = (b'a' + g.below(12) as u8) as char;
        let mut expr = String::new();
        let terms = g.range(2, 5);
        for t in 0..terms {
            if t > 0 {
                expr.push_str(*g.pick(&[" + ", " - ", " * ", " / "]));
            }
            if g.chance(40) {
                write!(expr, "{}", g.range(1, 99)).expect("write");
            } else if g.chance(30) {
                write!(
                    expr,
                    "({} + {})",
                    (b'a' + g.below(12) as u8) as char,
                    g.range(1, 9)
                )
                .expect("write");
            } else {
                expr.push((b'a' + g.below(12) as u8) as char);
            }
        }
        writeln!(out, "{target} = {expr};").expect("write");
    }
    out
}

/// Generates a FORTRAN-flavoured assignment program (`fortran_metric`).
#[allow(clippy::explicit_auto_deref)] // pick returns &&str; the deref drives inference
pub fn gen_fortran_metric(seed: u64, lines: usize) -> String {
    let mut g = Lcg::new(seed);
    let mut out = String::from("A = 2\nB = 3\nC = 4\nD = 5\nE = 6\n");
    for _ in 0..lines {
        let target = (b'A' + g.below(12) as u8) as char;
        let mut expr = String::new();
        let terms = g.range(2, 4);
        for t in 0..terms {
            if t > 0 {
                expr.push_str(*g.pick(&[" + ", " - ", " * "]));
            }
            if g.chance(25) {
                // The FORTRAN flavour: exponentiation.
                write!(
                    expr,
                    "{}**{}",
                    (b'A' + g.below(6) as u8) as char,
                    g.range(2, 3)
                )
                .expect("write");
            } else if g.chance(40) {
                write!(expr, "{}", g.range(1, 99)).expect("write");
            } else {
                expr.push((b'A' + g.below(12) as u8) as char);
            }
        }
        writeln!(out, "{target} = {expr}").expect("write");
    }
    out
}

/// The `mfcom` row.
pub const ROW: Row = Row {
    name: "mfcom",
    description: "The Multiflow C & FORTRAN compiler (common optimizer and backend)",
    group: Group::CInteger,
    source: || MFCOM.to_string(),
    datasets: &[
        DatasetRow {
            name: "c_metric",
            description: "C-flavoured source (cat, cpp, diff, make, maze, whetstone stand-in)",
            inputs: || vec![Input::from_text(&gen_c_metric(501, 900)), Input::Int(0)],
        },
        DatasetRow {
            name: "fortran_metric",
            description: "Scientific FORTRAN subroutine source stand-in",
            inputs: || {
                vec![
                    Input::from_text(&gen_fortran_metric(502, 1000)),
                    Input::Int(1),
                ]
            },
        },
    ],
};

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    fn compile_run(text: &str, lang: i64) -> Vec<i64> {
        let p = mflang::compile(MFCOM).unwrap();
        Vm::new(&p)
            .run(&[Input::from_text(text), Input::Int(lang)])
            .unwrap()
            .output_ints()
    }

    #[test]
    fn c_arithmetic_is_correct() {
        // a=6; b=7; c = a*b + 2*3 -> 48 ; precedence honoured.
        let out = compile_run("a = 6; b = 7; c = a * b + 2 * 3;", 0);
        let vars = &out[4..30];
        assert_eq!(vars[0], 6);
        assert_eq!(vars[1], 7);
        assert_eq!(vars[2], 48);
    }

    #[test]
    fn parentheses_and_unary_minus() {
        let out = compile_run("a = (2 + 3) * 4; b = -5 + 1; c = 10 - (1 + 2);", 0);
        let vars = &out[4..30];
        assert_eq!(vars[0], 20);
        assert_eq!(vars[1], -4);
        assert_eq!(vars[2], 7);
    }

    #[test]
    fn fortran_pow_is_right_assoc() {
        // B = 2; A = B**2**2 must be 2^(2^2) = 16, not (2^2)^2 = 16… use
        // 3: 3**2**2 = 3^4 = 81 vs (3^2)^2 = 81 — pick an asymmetric case:
        // 2**3**2 = 2^9 = 512 vs (2^3)^2 = 64.
        let out = compile_run("B = 2\nA = B**3**2\n", 1);
        let vars = &out[4..30];
        assert_eq!(vars[0], 512);
    }

    #[test]
    fn peephole_folds_constants() {
        let out = compile_run("a = 2 + 3; b = 4 * 5 + 1;", 0);
        assert!(out[3] >= 3, "peephole hits {}", out[3]);
        let vars = &out[4..30];
        assert_eq!(vars[0], 5);
        assert_eq!(vars[1], 21);
    }

    #[test]
    fn peephole_preserves_results() {
        // The generated datasets must compute the same values with and
        // without folding — execute() runs after peephole, and the checksum
        // is deterministic.
        let text = gen_c_metric(77, 60);
        let a = compile_run(&text, 0);
        let b = compile_run(&text, 0);
        assert_eq!(a, b);
        assert!(a[0] >= 60, "statement count");
    }

    #[test]
    fn both_datasets_run() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        for d in &w.datasets {
            let out = Vm::new(&p).run(&d.inputs).unwrap().output_ints();
            assert!(out[0] > 500, "{}: too few statements", d.name);
            assert!(out[2] < out[1], "{}: peephole did nothing", d.name);
        }
    }
}
