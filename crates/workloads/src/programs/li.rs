//! `li`: the XLISP interpreter.
//!
//! A genuine (small) Lisp: reader, symbol interning, cons heap, environments
//! as association lists, special forms (`quote`, `if`, `while`, `progn`,
//! `let`, `setq`, `define`, `lambda`, `and`, `or`), recursive `eval`/`apply`,
//! and numeric/list builtins. Its datasets mirror the paper's: the
//! n-queens search (`8queens`, `9queens`), a numeric relaxation program
//! rewritten in Lisp (`kittyv`, standing in for "SPEC tomcatv rewritten in
//! XLISP"), and a long flat machine-generated program computing primes
//! (`sieve1`, "output of machine lang to lisp simulator").
//!
//! Value encoding (3-bit tags in the low bits): 0 = nil, tag 1 = fixnum,
//! tag 2 = symbol, tag 3 = cons, tag 4 = builtin, tag 5 = lambda.

use std::fmt::Write as _;

use trace_vm::Input;

use crate::{DatasetRow, Group, Row};

const LI: &str = r#"
// ---- heap and values --------------------------------------------------
global car_arr: [int];
global cdr_arr: [int];
global free_cell: int;

global sym_chars: [int];
global sym_start: [int];
global sym_len: [int];
global sym_val: [int];     // global binding (0 = unbound; nil is encoded 0 too,
global sym_bound: [int];   // so a separate bound flag)
global sym_count: int;
global chars_used: int;

// interned special-form and constant symbol ids
global s_quote: int;
global s_if: int;
global s_define: int;
global s_setq: int;
global s_while: int;
global s_progn: int;
global s_let: int;
global s_lambda: int;
global s_and: int;
global s_or: int;
global s_t: int;

global NIL: int;

fn make_num(n: int) -> int { return n * 8 + 1; }
fn num_of(v: int) -> int { return v >> 3; }
fn make_sym(s: int) -> int { return s * 8 + 2; }
fn sym_of(v: int) -> int { return v >> 3; }
fn make_cons_v(c: int) -> int { return c * 8 + 3; }
fn cell_of(v: int) -> int { return v >> 3; }
fn tag_of(v: int) -> int { return v & 7; }

fn cons(a: int, d: int) -> int {
    car_arr[free_cell] = a;
    cdr_arr[free_cell] = d;
    free_cell = free_cell + 1;
    return make_cons_v(free_cell - 1);
}

fn car(v: int) -> int {
    if (tag_of(v) != 3) { return NIL; }
    return car_arr[cell_of(v)];
}

fn cdr(v: int) -> int {
    if (tag_of(v) != 3) { return NIL; }
    return cdr_arr[cell_of(v)];
}

// ---- reader ------------------------------------------------------------
global src: [int];
global pos: int;

fn intern_range(start: int, n: int) -> int {
    for (var i: int = 0; i < sym_count; i = i + 1) {
        if (sym_len[i] == n) {
            var same: int = 1;
            for (var j: int = 0; j < n; j = j + 1) {
                if (sym_chars[sym_start[i] + j] != src[start + j]) { same = 0; break; }
            }
            if (same) { return i; }
        }
    }
    sym_start[sym_count] = chars_used;
    sym_len[sym_count] = n;
    for (var j2: int = 0; j2 < n; j2 = j2 + 1) {
        sym_chars[chars_used] = src[start + j2];
        chars_used = chars_used + 1;
    }
    sym_val[sym_count] = 0;
    sym_bound[sym_count] = 0;
    sym_count = sym_count + 1;
    return sym_count - 1;
}

fn skip_space() {
    while (pos < len(src)) {
        var c: int = src[pos];
        if (c == ';') {
            while (pos < len(src) && src[pos] != '\n') { pos = pos + 1; }
        } else {
            if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
                pos = pos + 1;
            } else {
                return;
            }
        }
    }
}

fn is_delim(c: int) -> int {
    return c == '(' || c == ')' || c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == ';';
}

// Reads one expression; returns its value. -1 (impossible value: tag 7)
// signals end of input.
fn read_expr() -> int {
    skip_space();
    if (pos >= len(src)) { return 0 - 1; }
    var c: int = src[pos];
    if (c == '(') {
        pos = pos + 1;
        return read_list();
    }
    if (c == ')') {
        pos = pos + 1;  // stray close: treat as nil
        return NIL;
    }
    if (c == 39) {  // quote character '
        pos = pos + 1;
        var q: int = read_expr();
        return cons(make_sym(s_quote), cons(q, NIL));
    }
    // number?
    var neg: int = 0;
    var start: int = pos;
    if (c == '-' && pos + 1 < len(src) && src[pos + 1] >= '0' && src[pos + 1] <= '9') {
        neg = 1;
        pos = pos + 1;
    }
    if (src[pos] >= '0' && src[pos] <= '9') {
        var n: int = 0;
        while (pos < len(src) && src[pos] >= '0' && src[pos] <= '9') {
            n = n * 10 + (src[pos] - '0');
            pos = pos + 1;
        }
        if (neg) { n = 0 - n; }
        return make_num(n);
    }
    // symbol
    while (pos < len(src) && !is_delim(src[pos])) { pos = pos + 1; }
    return make_sym(intern_range(start, pos - start));
}

fn read_list() -> int {
    skip_space();
    if (pos >= len(src)) { return NIL; }
    if (src[pos] == ')') {
        pos = pos + 1;
        return NIL;
    }
    var head: int = read_expr();
    var rest: int = read_list();
    return cons(head, rest);
}

// ---- evaluator ----------------------------------------------------------
// env: assoc list ((sym . val) ...), symbols as raw ids in the pair car.
fn env_lookup(env: int, s: int) -> int {
    var e: int = env;
    while (tag_of(e) == 3) {
        var pair: int = car(e);
        if (num_of(car(pair)) == s) { return pair; }
        e = cdr(e);
    }
    return 0 - 1;
}

fn truthy(v: int) -> int {
    return v != NIL;
}

fn eval(x: int, env: int) -> int {
    var t: int = tag_of(x);
    if (t == 1) { return x; }            // number
    if (t == 0) { return NIL; }          // nil
    if (t == 2) {                         // symbol
        var s: int = sym_of(x);
        if (s == s_t) { return x; }
        var pair: int = env_lookup(env, s);
        if (pair != 0 - 1) { return cdr(pair); }
        if (sym_bound[s]) { return sym_val[s]; }
        return NIL;
    }
    // pair: special forms, then application
    var op: int = car(x);
    if (tag_of(op) == 2) {
        var s2: int = sym_of(op);
        if (s2 == s_quote) { return car(cdr(x)); }
        if (s2 == s_if) {
            var c: int = eval(car(cdr(x)), env);
            if (truthy(c)) { return eval(car(cdr(cdr(x))), env); }
            return eval(car(cdr(cdr(cdr(x)))), env);
        }
        if (s2 == s_progn) { return eval_seq(cdr(x), env); }
        if (s2 == s_while) {
            var result: int = NIL;
            while (truthy(eval(car(cdr(x)), env))) {
                result = eval_seq(cdr(cdr(x)), env);
            }
            return result;
        }
        if (s2 == s_setq) {
            var sym: int = sym_of(car(cdr(x)));
            var val: int = eval(car(cdr(cdr(x))), env);
            var pair2: int = env_lookup(env, sym);
            if (pair2 != 0 - 1) {
                cdr_arr[cell_of(pair2)] = val;
            } else {
                sym_val[sym] = val;
                sym_bound[sym] = 1;
            }
            return val;
        }
        if (s2 == s_define) {
            // (define (name args...) body...) or (define name expr)
            var spec: int = car(cdr(x));
            if (tag_of(spec) == 3) {
                var name: int = sym_of(car(spec));
                var lam: int = cons(cdr(spec), cons(cdr(cdr(x)), NIL));
                sym_val[name] = cell_of(lam) * 8 + 5;
                sym_bound[name] = 1;
                return car(spec);
            }
            var name2: int = sym_of(spec);
            sym_val[name2] = eval(car(cdr(cdr(x))), env);
            sym_bound[name2] = 1;
            return spec;
        }
        if (s2 == s_lambda) {
            // closure: (params bodylist env)
            var lam2: int = cons(car(cdr(x)), cons(cdr(cdr(x)), env));
            return cell_of(lam2) * 8 + 5;
        }
        if (s2 == s_let) {
            // (let ((a e) (b e2)) body...)
            var bindings: int = car(cdr(x));
            var newenv: int = env;
            var b: int = bindings;
            while (tag_of(b) == 3) {
                var bd: int = car(b);
                var v: int = eval(car(cdr(bd)), env);
                newenv = cons(cons(make_num(sym_of(car(bd))), v), newenv);
                b = cdr(b);
            }
            return eval_seq(cdr(cdr(x)), newenv);
        }
        if (s2 == s_and) {
            var a: int = cdr(x);
            var r: int = make_sym(s_t);
            while (tag_of(a) == 3) {
                r = eval(car(a), env);
                if (!truthy(r)) { return NIL; }
                a = cdr(a);
            }
            return r;
        }
        if (s2 == s_or) {
            var a2: int = cdr(x);
            while (tag_of(a2) == 3) {
                var r2: int = eval(car(a2), env);
                if (truthy(r2)) { return r2; }
                a2 = cdr(a2);
            }
            return NIL;
        }
    }
    // application
    var f: int = eval(op, env);
    if (tag_of(f) == 4) {
        // Builtin fast path: arguments evaluated in place, no argument
        // list is consed (XLISP similarly avoided consing for SUBRs).
        var id: int = f >> 3;
        if (id == 16) { return evlis(cdr(x), env); }  // list
        var arglist: int = cdr(x);
        var a: int = NIL;
        var b: int = NIL;
        if (tag_of(arglist) == 3) {
            a = eval(car(arglist), env);
            if (tag_of(cdr(arglist)) == 3) {
                b = eval(car(cdr(arglist)), env);
            }
        }
        return apply_builtin(id, a, b);
    }
    var args: int = evlis(cdr(x), env);
    return apply(f, args);
}

fn eval_seq(forms: int, env: int) -> int {
    var result: int = NIL;
    var f: int = forms;
    while (tag_of(f) == 3) {
        result = eval(car(f), env);
        f = cdr(f);
    }
    return result;
}

fn evlis(forms: int, env: int) -> int {
    if (tag_of(forms) != 3) { return NIL; }
    var head: int = eval(car(forms), env);
    return cons(head, evlis(cdr(forms), env));
}

// builtin ids: 1 + 2 - 3 * 4 / 5 rem 6 < 7 > 8 = 9 cons 10 car 11 cdr
// 12 null 13 atom 14 not 15 emit 16 list
fn apply_builtin(id: int, a: int, b: int) -> int {
    if (id == 1) { return make_num(num_of(a) + num_of(b)); }
    if (id == 2) { return make_num(num_of(a) - num_of(b)); }
    if (id == 3) { return make_num(num_of(a) * num_of(b)); }
    if (id == 4) {
        if (num_of(b) == 0) { return make_num(0); }
        return make_num(num_of(a) / num_of(b));
    }
    if (id == 5) {
        if (num_of(b) == 0) { return make_num(0); }
        return make_num(num_of(a) % num_of(b));
    }
    if (id == 6) { if (num_of(a) < num_of(b)) { return make_sym(s_t); } return NIL; }
    if (id == 7) { if (num_of(a) > num_of(b)) { return make_sym(s_t); } return NIL; }
    if (id == 8) { if (a == b) { return make_sym(s_t); } return NIL; }
    if (id == 9) { return cons(a, b); }
    if (id == 10) { return car(a); }
    if (id == 11) { return cdr(a); }
    if (id == 12) { if (a == NIL) { return make_sym(s_t); } return NIL; }
    if (id == 13) { if (tag_of(a) != 3) { return make_sym(s_t); } return NIL; }
    if (id == 14) { if (truthy(a)) { return NIL; } return make_sym(s_t); }
    if (id == 15) { emit(num_of(a)); return a; }
    return NIL;
}

fn apply(f: int, args: int) -> int {
    var t: int = tag_of(f);
    if (t == 4) {
        return apply_builtin(f >> 3, car(args), car(cdr(args)));
    }
    if (t == 5) {
        var cell: int = f >> 3;
        var params: int = car_arr[cell];
        var rest: int = cdr_arr[cell];
        var body: int = car(rest);
        var env: int = cdr(rest);
        var p: int = params;
        var a2: int = args;
        while (tag_of(p) == 3) {
            env = cons(cons(make_num(sym_of(car(p))), car(a2)), env);
            p = cdr(p);
            a2 = cdr(a2);
        }
        return eval_seq(body, env);
    }
    return NIL;
}

fn main(text: [int], heap_cells: int) {
    car_arr = new_int(heap_cells);
    cdr_arr = new_int(heap_cells);
    free_cell = 1;  // cell 0 reserved
    sym_chars = new_int(8192);
    sym_start = new_int(2048);
    sym_len = new_int(2048);
    sym_val = new_int(2048);
    sym_bound = new_int(2048);
    sym_count = 0;
    chars_used = 0;
    NIL = 0;

    // Stage builtin names through the source buffer trick: prepend them in
    // the driver-generated text instead. Here we intern from literals.
    src = "+ - * / rem < > = cons car cdr null atom not emit list quote if define setq while progn let lambda and or t";
    pos = 0;
    var names: [int] = new_int(32);
    var count: int = 0;
    while (pos < len(src)) {
        skip_space();
        if (pos >= len(src)) { break; }
        var start: int = pos;
        while (pos < len(src) && !is_delim(src[pos])) { pos = pos + 1; }
        names[count] = intern_range(start, pos - start);
        count = count + 1;
    }
    var bi: int = 1;
    while (bi <= 16) {
        sym_val[names[bi - 1]] = bi * 8 + 4;
        sym_bound[names[bi - 1]] = 1;
        bi = bi + 1;
    }
    s_quote = names[16];
    s_if = names[17];
    s_define = names[18];
    s_setq = names[19];
    s_while = names[20];
    s_progn = names[21];
    s_let = names[22];
    s_lambda = names[23];
    s_and = names[24];
    s_or = names[25];
    s_t = names[26];

    // Read and evaluate the program.
    src = text;
    pos = 0;
    while (1) {
        var form: int = read_expr();
        if (form == 0 - 1) { break; }
        eval(form, NIL);
    }
    emit(free_cell);  // heap usage marker (also a determinism check)
}
"#;

/// The n-queens program, parameterized by board size. Counts solutions and
/// emits the count.
fn queens_program(n: u32) -> String {
    // Bitmask formulation (columns/diagonals as integer sets, membership
    // via divide-and-parity since the Lisp has no bitwise primitives):
    // allocation stays bounded, which matters in a GC-less heap.
    let all = (1u64 << n) - 1;
    format!(
        r#"
; n-queens solution counter over integer bit-sets
; (bit-in set b) = 1 when bit b is present in set
(define (bit-free set b) (= (rem (/ set b) 2) 0))

(define (solve cols ld rd count)
  (if (= cols {all}) (+ count 1)
    (try 1 cols ld rd count)))

(define (try bit cols ld rd count)
  (if (> bit {all}) count
    (try (* bit 2) cols ld rd
      (if (and (bit-free cols bit)
               (and (bit-free ld bit) (bit-free rd bit)))
          (solve (+ cols bit)
                 (* (+ ld bit) 2)
                 (/ (+ rd bit) 2)
                 count)
          count))))

(emit (solve 0 0 0 0))
"#
    )
}

/// `kittyv`: tomcatv's relaxation loop rewritten in Lisp over a list-based
/// mesh with fixed-point (scaled integer) arithmetic.
fn kittyv_program(cells: u32, iters: u32) -> String {
    format!(
        r#"
; 1-D relaxation over a list mesh, fixed-point /1000
(define (build i n)
  (if (> i n) nil
    (cons (* (rem (* i 37) 100) 10) (build (+ i 1) n))))

; one smoothing sweep: new[i] = (prev + 2*cur + next)/4
(define (sweep prev rest)
  (if (null (cdr rest))
      (cons (car rest) nil)
      (cons (/ (+ (+ prev (* 2 (car rest))) (car (cdr rest))) 4)
            (sweep (car rest) (cdr rest)))))

(define (iterate mesh k)
  (if (= k 0) mesh
    (iterate (cons (car mesh) (sweep (car mesh) (cdr mesh))) (- k 1))))

(define (checksum lst acc)
  (if (null lst) acc
    (checksum (cdr lst) (rem (+ (* acc 31) (car lst)) 1000000007))))

(setq mesh (build 1 {cells}))
(setq mesh (iterate mesh {iters}))
(emit (checksum mesh 0))
"#
    )
}

/// `sieve1`: a long, flat, machine-generated program — "the output of a
/// machine language to lisp simulator" computing primes. Registers are
/// globals, each basic block of the pseudo-assembly is a tiny function, and
/// a driver steps through them.
fn sieve_program(limit: u32) -> String {
    let mut out = String::from("; machine-generated: pseudo-assembly blocks\n");
    // Register init block.
    out.push_str("(define (blk-init) (progn (setq r0 2) (setq r1 0) (setq r2 0) (setq r3 0)))\n");
    // Trial-division primality as unrolled blocks.
    out.push_str(
        "(define (blk-isprime) (progn (setq r2 2) (setq r3 1)\n  (while (and (< (* r2 r2) (+ r0 1)) (> r3 0))\n    (progn (if (= (rem r0 r2) 0) (setq r3 0) nil) (setq r2 (+ r2 1))))))\n",
    );
    out.push_str("(define (blk-count) (if (> r3 0) (setq r1 (+ r1 1)) nil))\n");
    out.push_str("(define (blk-sum) (if (> r3 0) (setq r4 (+ r4 r0)) nil))\n");
    // A spray of tiny generated "instruction" blocks, as a simulator would
    // emit: each updates a scratch register chain.
    for i in 0..40 {
        writeln!(
            out,
            "(define (op-{i}) (setq r5 (rem (+ (* r5 {}) {}) 65536)))",
            17 + (i % 7),
            i * 13 + 1
        )
        .expect("write");
    }
    out.push_str("(setq r4 0) (setq r5 1)\n(blk-init)\n");
    writeln!(
        out,
        "(while (< r0 {limit})\n  (progn (blk-isprime) (blk-count) (blk-sum)"
    )
    .expect("write");
    // Driver calls a rotating subset of the op blocks each iteration.
    for i in 0..8 {
        writeln!(out, "    (op-{})", i * 5).expect("write");
    }
    out.push_str("    (setq r0 (+ r0 1))))\n(emit r1) (emit r4) (emit r5)\n");
    out
}

/// A Lisp program and its cell budget as guest inputs.
fn pack(program: String, cells: i64) -> Vec<Input> {
    vec![Input::from_text(&program), Input::Int(cells)]
}

/// The `li` row.
pub const ROW: Row = Row {
    name: "li",
    description: "XLISP 1.6 public domain lisp interpreter",
    group: Group::CInteger,
    source: || LI.to_string(),
    datasets: &[
        DatasetRow {
            name: "8queens",
            description: "SPEC input, placing 8 queens on a chessboard",
            inputs: || pack(queens_program(8), 1_500_000),
        },
        DatasetRow {
            name: "9queens",
            description: "SPEC input, placing 9 queens on a chessboard",
            inputs: || pack(queens_program(9), 6_000_000),
        },
        DatasetRow {
            name: "kittyv",
            description: "SPEC tomcatv rewritten in XLISP",
            inputs: || pack(kittyv_program(60, 40), 2_000_000),
        },
        DatasetRow {
            name: "sieve1",
            description: "Prime number sieve, output of machine lang to lisp simulator",
            inputs: || pack(sieve_program(600), 1_000_000),
        },
    ],
};

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    fn lisp(program: &str, cells: i64) -> Vec<i64> {
        let p = mflang::compile(LI).unwrap();
        Vm::new(&p)
            .run(&[Input::from_text(program), Input::Int(cells)])
            .unwrap()
            .output_ints()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let out = lisp("(emit (+ 1 2)) (emit (* 6 7)) (emit (- 3 10)) (emit (/ 9 2)) (emit (rem 9 2)) (emit (if (< 1 2) 111 222))", 10_000);
        assert_eq!(&out[..6], &[3, 42, -7, 4, 1, 111]);
    }

    #[test]
    fn lists_and_recursion() {
        let out = lisp(
            "(define (length lst) (if (null lst) 0 (+ 1 (length (cdr lst)))))
             (emit (length (list 1 2 3 4 5)))
             (emit (car (cdr (cons 10 (cons 20 nil)))))",
            10_000,
        );
        assert_eq!(&out[..2], &[5, 20]);
    }

    #[test]
    fn quote_let_lambda_closures() {
        let out = lisp(
            "(define (compose2 x) (let ((k 100)) (lambda (y) (+ (* k x) y))))
             (setq f (compose2 3))
             (emit (f 7))
             (emit (car (quote (9 8 7))))
             (emit (if (atom (quote abc)) 1 0))",
            10_000,
        );
        assert_eq!(&out[..3], &[307, 9, 1]);
    }

    #[test]
    fn while_and_setq() {
        let out = lisp(
            "(setq i 0) (setq sum 0)
             (while (< i 10) (progn (setq sum (+ sum i)) (setq i (+ i 1))))
             (emit sum)",
            10_000,
        );
        assert_eq!(out[0], 45);
    }

    #[test]
    fn and_or_short_circuit() {
        let out = lisp(
            "(emit (if (and t (< 1 2)) 1 0))
             (emit (if (and nil (emit 999)) 1 0))
             (emit (if (or nil (< 1 2)) 1 0))",
            10_000,
        );
        assert_eq!(&out[..3], &[1, 0, 1]);
    }

    #[test]
    fn queens_counts_are_exact() {
        // Classic n-queens solution counts: 4->2, 5->10, 6->4.
        for (n, expected) in [(4, 2), (5, 10), (6, 4)] {
            let out = lisp(&queens_program(n), 400_000);
            assert_eq!(out[0], expected, "{n}-queens");
        }
    }

    #[test]
    fn kittyv_converges_deterministically() {
        let a = lisp(&kittyv_program(20, 10), 400_000);
        let b = lisp(&kittyv_program(20, 10), 400_000);
        assert_eq!(a, b);
        assert!(a[0] > 0);
    }

    #[test]
    fn sieve_counts_primes() {
        // pi(100) = 25, sum of primes < 100 = 1060.
        let out = lisp(&sieve_program(100), 400_000);
        assert_eq!(out[0], 25);
        assert_eq!(out[1], 1060);
    }

    #[test]
    fn datasets_are_registered() {
        let w = ROW.generate();
        assert_eq!(w.datasets.len(), 4);
        assert_eq!(w.datasets[0].name, "8queens");
    }

    #[test]
    fn eight_queens_has_ninety_two_solutions() {
        // The canonical answer for the actual SPEC-named dataset.
        let w = ROW.generate();
        let p = w.compile().unwrap();
        let run = Vm::new(&p)
            .run(&w.dataset("8queens").unwrap().inputs)
            .unwrap();
        assert_eq!(run.output_ints()[0], 92);
    }
}
