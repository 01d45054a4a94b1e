//! `eqntott`: boolean equation to truth-table conversion.
//!
//! The SPEC program parses boolean equations, builds product terms, and
//! spends most of its time in `cmppt`, a comparison routine driving a sort
//! of the truth table. This guest does the same: parse sum-of-products
//! equations from text, enumerate the full truth table, and quicksort the
//! rows with a multi-key comparison — the classic eqntott branch workload.

use std::fmt::Write as _;

use trace_vm::Input;

use crate::{Dataset, Group, Workload};

const EQNTOTT: &str = r#"
// Equation text syntax (one output per line):
//   z0 = a&b | !a&c ;
// Variables are single letters a..p (inputs) mapped to indices by first
// appearance; outputs are z0, z1, ….
global src: [int];
global pos: int;
global nvars: int;
global var_names: [int];

// Product terms: for each term, a mask (which variables matter) and a
// polarity word (required values), plus which output it belongs to.
global term_mask: [int];
global term_val: [int];
global term_out: [int];
global nterms: int;

global rows: [int];      // truth-table rows: packed (outputs << 20) | inputs
global cmp_count: int;

fn peek() -> int {
    if (pos >= len(src)) { return 0 - 1; }
    return src[pos];
}

fn skip_ws() {
    while (pos < len(src)) {
        var c: int = src[pos];
        if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
            pos = pos + 1;
        } else {
            return;
        }
    }
}

fn var_index(c: int) -> int {
    for (var i: int = 0; i < nvars; i = i + 1) {
        if (var_names[i] == c) { return i; }
    }
    var_names[nvars] = c;
    nvars = nvars + 1;
    return nvars - 1;
}

// Parses one product term: [!]var (& [!]var)*
fn parse_term(out_idx: int) {
    var mask: int = 0;
    var val: int = 0;
    while (1) {
        skip_ws();
        var neg: int = 0;
        if (peek() == '!') { neg = 1; pos = pos + 1; skip_ws(); }
        var c: int = peek();
        var v: int = var_index(c);
        pos = pos + 1;
        mask = mask | (1 << v);
        if (!neg) { val = val | (1 << v); }
        skip_ws();
        if (peek() == '&') { pos = pos + 1; } else { break; }
    }
    term_mask[nterms] = mask;
    term_val[nterms] = val;
    term_out[nterms] = out_idx;
    nterms = nterms + 1;
}

fn parse_equation(out_idx: int) {
    // z<digits> = term (| term)* ;
    skip_ws();
    while (peek() != '=') { pos = pos + 1; }
    pos = pos + 1;
    while (1) {
        parse_term(out_idx);
        skip_ws();
        if (peek() == '|') { pos = pos + 1; } else { break; }
    }
    skip_ws();
    if (peek() == ';') { pos = pos + 1; }
}

fn parse_all() -> int {
    var outputs: int = 0;
    while (1) {
        skip_ws();
        if (peek() == 0 - 1) { break; }
        parse_equation(outputs);
        outputs = outputs + 1;
    }
    return outputs;
}

// Evaluate all outputs on one input assignment.
fn eval_row(assign: int) -> int {
    var outs: int = 0;
    for (var t: int = 0; t < nterms; t = t + 1) {
        if ((assign & term_mask[t]) == term_val[t]) {
            outs = outs | (1 << term_out[t]);
        }
    }
    return outs;
}

// cmppt: compare rows by output pattern first, then input value.
fn cmppt(a: int, b: int) -> int {
    cmp_count = cmp_count + 1;
    var oa: int = a >> 20;
    var ob: int = b >> 20;
    if (oa < ob) { return 0 - 1; }
    if (oa > ob) { return 1; }
    var ia: int = a & 1048575;
    var ib: int = b & 1048575;
    if (ia < ib) { return 0 - 1; }
    if (ia > ib) { return 1; }
    return 0;
}

fn qsort_rows(lo: int, hi: int) {
    if (lo >= hi) { return; }
    var pivot: int = rows[(lo + hi) / 2];
    var i: int = lo;
    var j: int = hi;
    while (i <= j) {
        while (cmppt(rows[i], pivot) < 0) { i = i + 1; }
        while (cmppt(rows[j], pivot) > 0) { j = j - 1; }
        if (i <= j) {
            var t: int = rows[i];
            rows[i] = rows[j];
            rows[j] = t;
            i = i + 1;
            j = j - 1;
        }
    }
    qsort_rows(lo, j);
    qsort_rows(i, hi);
}

fn main(text: [int], unused: int) {
    src = text;
    pos = 0;
    nvars = 0;
    var_names = new_int(20);
    term_mask = new_int(4096);
    term_val = new_int(4096);
    term_out = new_int(4096);
    nterms = 0;
    cmp_count = 0;

    var outputs: int = parse_all();
    var n: int = 1 << nvars;
    rows = new_int(n);
    for (var a: int = 0; a < n; a = a + 1) {
        rows[a] = (eval_row(a) << 20) | a;
    }
    qsort_rows(0, n - 1);

    // Emit a verification summary: header, then a checksum over the sorted
    // table, then ON-set sizes per output.
    emit(nvars);
    emit(outputs);
    emit(nterms);
    var sum: int = 0;
    for (var i: int = 0; i < n; i = i + 1) {
        sum = (sum * 31 + rows[i]) % 1000000007;
    }
    emit(sum);
    for (var o: int = 0; o < outputs; o = o + 1) {
        var ones: int = 0;
        for (var a2: int = 0; a2 < n; a2 = a2 + 1) {
            if ((rows[a2] >> (20 + o)) & 1) { ones = ones + 1; }
        }
        emit(ones);
    }
    emit(cmp_count);
}
"#;

/// Generates the naive ripple-carry adder equations of the paper's
/// `add4`/`add5`/`add6` datasets: sum and carry as raw sum-of-products over
/// `2 bits + 1` variables per stage (exponential in term count — exactly why
/// the originals were "naive").
pub fn gen_adder(bits: usize) -> String {
    assert!(bits <= 6, "variable budget: 2*bits + 1 <= 13");
    // Variables: a0..an-1 -> letters a..; b0.. -> letters after; carry-in c.
    let a = |i: usize| (b'a' + i as u8) as char;
    let b = |i: usize| (b'a' + (bits + i) as u8) as char;
    let cin = (b'a' + 2 * bits as u8) as char;

    // Build each output as sum-of-products by full enumeration over the
    // variables it depends on (naive, like the original datasets).
    let mut out = String::new();
    for stage in 0..=bits {
        // Output `stage` is sum bit; the final extra output is carry-out.
        let deps: Vec<char> = {
            let mut d = Vec::new();
            for i in 0..bits.min(stage + 1) {
                if i <= stage {
                    d.push(a(i));
                    d.push(b(i));
                }
            }
            d.push(cin);
            d
        };
        let nd = deps.len();
        write!(out, "z{stage} = ").expect("write");
        let mut terms = 0;
        for assign in 0..(1u32 << nd) {
            // Compute the adder output for this assignment.
            let bit = |c: char, assign: u32| -> u64 {
                let idx = deps.iter().position(|&d| d == c);
                idx.map_or(0, |i| u64::from((assign >> i) & 1))
            };
            let mut carry = bit(cin, assign);
            let mut sum_bit = 0;
            let mut carry_out = 0;
            for i in 0..bits {
                let s = bit(a(i), assign) + bit(b(i), assign) + carry;
                if i == stage {
                    sum_bit = s & 1;
                }
                carry = s >> 1;
                if i == bits - 1 {
                    carry_out = carry;
                }
            }
            let value = if stage == bits { carry_out } else { sum_bit };
            if value == 1 {
                if terms > 0 {
                    out.push_str(" | ");
                }
                terms += 1;
                for (i, &d) in deps.iter().enumerate() {
                    if i > 0 {
                        out.push('&');
                    }
                    if (assign >> i) & 1 == 0 {
                        out.push('!');
                    }
                    out.push(d);
                }
            }
        }
        if terms == 0 {
            write!(out, "{cin}&!{cin}").expect("write"); // constant false
        }
        out.push_str(" ;\n");
    }
    out
}

/// Generates the `intpri` priority-encoder equations: output `k` is high
/// when input `k` is the highest-priority asserted line.
pub fn gen_priority(lines: usize) -> String {
    let mut out = String::new();
    for k in 0..lines {
        let mut term = String::new();
        for j in (k + 1..lines).rev() {
            write!(term, "!{}&", (b'a' + j as u8) as char).expect("write");
        }
        write!(term, "{}", (b'a' + k as u8) as char).expect("write");
        writeln!(out, "z{k} = {term} ;").expect("write");
    }
    out
}

/// The `eqntott` workload.
pub fn workload() -> Workload {
    let pack = |text: String| -> Vec<Input> { vec![Input::from_text(&text), Input::Int(0)] };
    Workload {
        name: "eqntott",
        description: "Converts boolean equations to truth tables",
        group: Group::CInteger,
        source: EQNTOTT.to_string(),
        // The naive sum-of-products expansion doubles in term count per
        // adder bit; widths are scaled one bit down from the paper's
        // add4/add5/add6 so the largest dataset stays tractable on the
        // interpreted substrate (same policy as matrix300's 60x60).
        datasets: vec![
            Dataset::new(
                "add4",
                "Naive adder equations (scaled: 3 bits)",
                pack(gen_adder(3)),
            ),
            Dataset::new(
                "add5",
                "Naive adder equations (scaled: 4 bits)",
                pack(gen_adder(4)),
            ),
            Dataset::new(
                "add6",
                "Naive adder equations (scaled: 5 bits)",
                pack(gen_adder(5)),
            ),
            Dataset::new(
                "intpri",
                "Priority circuit, from SPEC",
                pack(gen_priority(13)),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    fn run_text(text: &str) -> Vec<i64> {
        let p = mflang::compile(EQNTOTT).unwrap();
        Vm::new(&p)
            .run(&[Input::from_text(text), Input::Int(0)])
            .unwrap()
            .output_ints()
    }

    #[test]
    fn simple_equation_truth_table() {
        // z0 = a&b: 1 of 4 rows on.
        let out = run_text("z0 = a&b ;");
        assert_eq!(out[0], 2, "nvars");
        assert_eq!(out[1], 1, "outputs");
        assert_eq!(out[2], 1, "terms");
        assert_eq!(out[4], 1, "ON-set size of AND");
    }

    #[test]
    fn or_and_negation() {
        // z0 = a | !a&b  -> ON for a=1 (2 rows) plus a=0,b=1 (1 row) = 3.
        let out = run_text("z0 = a | !a&b ;");
        assert_eq!(out[4], 3);
    }

    #[test]
    fn adder_equations_are_correct() {
        // For the 2-bit adder, check ON-set sizes against arithmetic.
        let text = gen_adder(2);
        let out = run_text(&text);
        let nvars = out[0];
        assert_eq!(nvars, 5); // a0 a1 b0 b1 cin
        let outputs = out[1];
        assert_eq!(outputs, 3); // s0 s1 carry
                                // Brute-force the adder in Rust; variable order in the guest is by
                                // first appearance, which matches generation order… so instead of
                                // relying on bit positions, just validate total ON counts.
        let mut on = [0i64; 3];
        for a in 0..4u32 {
            for b in 0..4u32 {
                for c in 0..2u32 {
                    let s = a + b + c;
                    if s & 1 == 1 {
                        on[0] += 1;
                    }
                    if (s >> 1) & 1 == 1 {
                        on[1] += 1;
                    }
                    if (s >> 2) & 1 == 1 {
                        on[2] += 1;
                    }
                }
            }
        }
        assert_eq!(&out[4..7], &on[..], "ON-set sizes vs arithmetic");
    }

    #[test]
    fn priority_encoder_on_sets() {
        // Output k fires when line k is set and every higher-priority line
        // is clear, leaving the k lower lines free: 2^k assignments.
        let out = run_text(&gen_priority(5));
        assert_eq!(out[0], 5);
        assert_eq!(&out[4..9], &[1, 2, 4, 8, 16]);
    }

    #[test]
    fn sort_produces_many_comparisons() {
        let out = run_text(&gen_adder(4));
        let cmp_count = *out.last().unwrap();
        assert!(cmp_count > 1000, "cmppt barely ran: {cmp_count}");
    }

    #[test]
    fn smallest_dataset_runs() {
        // The larger datasets run in the release-mode harness; debug tests
        // exercise only add4 to stay fast.
        let w = workload();
        let p = w.compile().unwrap();
        let d = w.dataset("add4").unwrap();
        let run = Vm::new(&p).run(&d.inputs).unwrap();
        assert!(!run.output.is_empty());
    }
}
