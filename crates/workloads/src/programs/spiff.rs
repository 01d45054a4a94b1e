//! `spiff`: file comparison with floating-point tolerance.
//!
//! The original spiff (included with SPEC) diffs files while treating
//! numeric tokens as equal when they differ by less than a tolerance. This
//! guest implements the same pipeline: split both inputs into lines,
//! compare lines token-by-token (numbers parsed and compared with a scaled
//! tolerance, other tokens byte-compared), then run an LCS dynamic program
//! over the line-equality relation and emit the edit script summary.

use std::fmt::Write as _;

use trace_vm::Input;

use crate::datagen::Lcg;
use crate::{DatasetRow, Group, Row};

const SPIFF: &str = r#"
// Inputs: two files as byte arrays, plus a tolerance in millionths.
global fa: [int];
global fb: [int];
global la_start: [int];  // line start offsets, file a
global la_len: [int];
global lb_start: [int];
global lb_len: [int];
global na: int;          // line counts
global nb: int;
global tol: int;         // tolerance in millionths

fn split_lines(f: [int], starts: [int], lens: [int]) -> int {
    var count: int = 0;
    var start: int = 0;
    for (var i: int = 0; i < len(f); i = i + 1) {
        if (f[i] == '\n') {
            starts[count] = start;
            lens[count] = i - start;
            count = count + 1;
            start = i + 1;
        }
    }
    if (start < len(f)) {
        starts[count] = start;
        lens[count] = len(f) - start;
        count = count + 1;
    }
    return count;
}

fn is_digit(c: int) -> int {
    return c >= '0' && c <= '9';
}

// Parses a number starting at f[i] (returns value in millionths); advances
// via the global scratch cell.
global scan_end: int;

fn parse_number(f: [int], i: int, limit: int) -> int {
    var sign: int = 1;
    if (f[i] == '-') { sign = 0 - 1; i = i + 1; }
    var whole: int = 0;
    while (i < limit && is_digit(f[i])) {
        whole = whole * 10 + (f[i] - '0');
        i = i + 1;
    }
    var frac: int = 0;
    var scale: int = 1000000;
    if (i < limit && f[i] == '.') {
        i = i + 1;
        while (i < limit && is_digit(f[i])) {
            if (scale > 1) {
                scale = scale / 10;
                frac = frac + (f[i] - '0') * scale;
            }
            i = i + 1;
        }
    }
    scan_end = i;
    return sign * (whole * 1000000 + frac);
}

// Token-wise line comparison with numeric tolerance. Returns 1 if equal.
fn lines_equal(ai: int, bi: int) -> int {
    var pa: int = la_start[ai];
    var ea: int = pa + la_len[ai];
    var pb: int = lb_start[bi];
    var eb: int = pb + lb_len[bi];
    while (1) {
        while (pa < ea && fa[pa] == ' ') { pa = pa + 1; }
        while (pb < eb && fb[pb] == ' ') { pb = pb + 1; }
        if (pa >= ea && pb >= eb) { return 1; }
        if (pa >= ea || pb >= eb) { return 0; }
        var ca: int = fa[pa];
        var cb: int = fb[pb];
        var anum: int = is_digit(ca) || (ca == '-' && pa + 1 < ea && is_digit(fa[pa + 1]));
        var bnum: int = is_digit(cb) || (cb == '-' && pb + 1 < eb && is_digit(fb[pb + 1]));
        if (anum && bnum) {
            var va: int = parse_number(fa, pa, ea);
            pa = scan_end;
            var vb: int = parse_number(fb, pb, eb);
            pb = scan_end;
            var d: int = va - vb;
            if (iabs(d) > tol) { return 0; }
        } else {
            if (ca != cb) { return 0; }
            pa = pa + 1;
            pb = pb + 1;
        }
    }
    return 0;
}

fn main(a: [int], b: [int], tolerance: int) {
    fa = a;
    fb = b;
    tol = tolerance;
    la_start = new_int(len(a) + 1);
    la_len = new_int(len(a) + 1);
    lb_start = new_int(len(b) + 1);
    lb_len = new_int(len(b) + 1);
    na = split_lines(a, la_start, la_len);
    nb = split_lines(b, lb_start, lb_len);

    // LCS dynamic program over lines.
    var width: int = nb + 1;
    var dp: [int] = new_int((na + 1) * width);
    for (var i: int = 1; i <= na; i = i + 1) {
        for (var j: int = 1; j <= nb; j = j + 1) {
            if (lines_equal(i - 1, j - 1)) {
                dp[i * width + j] = dp[(i - 1) * width + j - 1] + 1;
            } else {
                var up: int = dp[(i - 1) * width + j];
                var left: int = dp[i * width + j - 1];
                if (up >= left) {
                    dp[i * width + j] = up;
                } else {
                    dp[i * width + j] = left;
                }
            }
        }
    }

    // Backtrack to count edits and checksum their positions.
    var dels: int = 0;
    var adds: int = 0;
    var poshash: int = 0;
    var i2: int = na;
    var j2: int = nb;
    while (i2 > 0 || j2 > 0) {
        if (i2 > 0 && j2 > 0 && lines_equal(i2 - 1, j2 - 1)
            && dp[i2 * width + j2] == dp[(i2 - 1) * width + j2 - 1] + 1) {
            i2 = i2 - 1;
            j2 = j2 - 1;
        } else {
            if (j2 > 0 && (i2 == 0 || dp[i2 * width + j2 - 1] >= dp[(i2 - 1) * width + j2])) {
                adds = adds + 1;
                poshash = (poshash * 131 + j2) % 1000000007;
                j2 = j2 - 1;
            } else {
                dels = dels + 1;
                poshash = (poshash * 137 + i2) % 1000000007;
                i2 = i2 - 1;
            }
        }
    }
    emit(na);
    emit(nb);
    emit(dp[na * width + nb]);  // LCS length
    emit(dels);
    emit(adds);
    emit(poshash);
}
"#;

/// Generates a file of floating-point numbers, `lines` lines of `cols`
/// numbers each.
fn gen_float_file(seed: u64, lines: usize, cols: usize) -> String {
    let mut g = Lcg::new(seed);
    let mut out = String::new();
    for _ in 0..lines {
        for c in 0..cols {
            let whole = g.range(0, 999);
            let frac = g.range(0, 999_999);
            write!(out, "{}{whole}.{frac:06}", if c > 0 { " " } else { "" }).expect("write");
        }
        out.push('\n');
    }
    out
}

/// Perturbs a float file: most lines unchanged, some numbers nudged within
/// tolerance, a few genuinely changed.
fn perturb(text: &str, seed: u64, within_tol: usize, real_changes: usize) -> String {
    let mut g = Lcg::new(seed);
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let n = lines.len();
    for _ in 0..within_tol {
        let i = g.below(n as u64) as usize;
        // Nudge the last digit: a change of 1e-6, inside any sane tolerance.
        let line = lines[i].clone();
        let mut bytes = line.into_bytes();
        if let Some(last) = bytes.iter().rposition(|b| b.is_ascii_digit()) {
            bytes[last] = if bytes[last] == b'9' {
                b'8'
            } else {
                bytes[last] + 1
            };
        }
        lines[i] = String::from_utf8(bytes).expect("ascii");
    }
    for _ in 0..real_changes {
        let i = g.below(n as u64) as usize;
        lines[i] = format!("{}.000000 changed", g.range(1000, 9999));
    }
    lines.join("\n") + "\n"
}

/// Generates a directory-listing-like file of `n` lines.
fn gen_listing(seed: u64, n: usize) -> String {
    let mut g = Lcg::new(seed);
    let names = [
        "Makefile", "README", "main.c", "util.c", "parse.y", "lex.l", "defs.h", "io.c", "test.sh",
        "data.txt",
    ];
    let mut out = String::new();
    for i in 0..n {
        writeln!(
            out,
            "-rw-r--r-- 1 user staff {:>8} Jan {:>2} 12:{:02} {}{}",
            g.range(100, 99999),
            g.range(1, 28),
            g.range(0, 59),
            g.pick(&names),
            i
        )
        .expect("write");
    }
    out
}

/// Two files and the numeric tolerance as guest inputs.
fn pack(a: String, b: String, tol: i64) -> Vec<Input> {
    vec![Input::from_text(&a), Input::from_text(&b), Input::Int(tol)]
}

/// A float file and its perturbed copy, compared under tolerance 10.
fn float_files(seed: u64, perturb_seed: u64, nudged: usize, changed: usize) -> Vec<Input> {
    let base = gen_float_file(seed, 60, 4);
    let case = perturb(&base, perturb_seed, nudged, changed);
    pack(base, case, 10)
}

/// A 28-line directory listing and a copy whose last two lines differ.
fn listings() -> Vec<Input> {
    let list_a = gen_listing(203, 28);
    let mut list_b_lines: Vec<String> = list_a.lines().map(String::from).collect();
    let n = list_b_lines.len();
    list_b_lines[n - 2] = "-rw-r--r-- 1 user staff    999 Feb  1 09:00 newfile".to_string();
    list_b_lines[n - 1] = "-rw-r--r-- 1 user staff   1234 Feb  2 09:30 another".to_string();
    let list_b = list_b_lines.join("\n") + "\n";
    pack(list_a, list_b, 10)
}

/// The `spiff` row.
pub const ROW: Row = Row {
    name: "spiff",
    description: "File comparison tool included in SPEC",
    group: Group::CInteger,
    source: || SPIFF.to_string(),
    datasets: &[
        DatasetRow {
            name: "case1",
            description: "Float files, some within-tolerance differences",
            inputs: || float_files(201, 211, 25, 3),
        },
        DatasetRow {
            name: "case2",
            description: "Float files, more differences",
            inputs: || float_files(202, 212, 40, 8),
        },
        DatasetRow {
            name: "case3",
            description: "26/28 line directory listings, last lines differ",
            inputs: listings,
        },
    ],
};

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    fn diff(a: &str, b: &str, tol: i64) -> Vec<i64> {
        let p = mflang::compile(SPIFF).unwrap();
        Vm::new(&p)
            .run(&[Input::from_text(a), Input::from_text(b), Input::Int(tol)])
            .unwrap()
            .output_ints()
    }

    #[test]
    fn identical_files_no_edits() {
        let out = diff("alpha\nbeta\ngamma\n", "alpha\nbeta\ngamma\n", 0);
        assert_eq!(out[..5], [3, 3, 3, 0, 0]);
    }

    #[test]
    fn one_line_changed() {
        let out = diff("a\nb\nc\n", "a\nX\nc\n", 0);
        assert_eq!(out[2], 2, "LCS length");
        assert_eq!(out[3], 1, "one deletion");
        assert_eq!(out[4], 1, "one addition");
    }

    #[test]
    fn insertion_detected() {
        let out = diff("a\nc\n", "a\nb\nc\n", 0);
        assert_eq!(out[..5], [2, 3, 2, 0, 1]);
    }

    #[test]
    fn tolerance_hides_small_numeric_drift() {
        // 1.000001 vs 1.000002 differs by 1 millionth.
        let a = "x 1.000001\n";
        let b = "x 1.000002\n";
        assert_eq!(diff(a, b, 10)[3], 0, "within tolerance");
        assert_eq!(diff(a, b, 0)[3], 1, "zero tolerance sees the change");
    }

    #[test]
    fn negative_numbers_compared_numerically() {
        assert_eq!(diff("-1.5\n", "-1.5\n", 0)[3], 0);
        assert_eq!(diff("-1.5\n", "1.5\n", 0)[3], 1);
    }

    #[test]
    fn case3_sees_exactly_the_tail_changes() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        let d = w.dataset("case3").unwrap();
        let out = Vm::new(&p).run(&d.inputs).unwrap().output_ints();
        assert_eq!(out[0], 28);
        assert_eq!(out[1], 28);
        assert_eq!(out[2], 26, "26 common lines");
        assert_eq!(out[3], 2);
        assert_eq!(out[4], 2);
    }

    #[test]
    fn case1_edit_counts_bounded() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        let d = w.dataset("case1").unwrap();
        let out = Vm::new(&p).run(&d.inputs).unwrap().output_ints();
        // 3 genuinely changed lines (possibly overlapping draws), the
        // within-tolerance nudges must not register.
        assert!(out[3] <= 3, "deletions {} exceed real changes", out[3]);
        assert!(out[3] >= 1);
    }
}
