//! `gcc`: a C front end processing source modules.
//!
//! SPEC's 001.gcc runs the GNU C compiler over 19 of its own source
//! modules; the paper reports on 6. This guest is a real (small) C front
//! end: a lexer with an interning identifier table, a recursive-descent
//! parser for a C subset (declarations, functions, statements, full
//! expression precedence), and a constant folder. Its datasets are six
//! generated C modules with deliberately different characters (loop-heavy,
//! expression-heavy, declaration-heavy, call-heavy, string-heavy, mixed),
//! standing in for the six compiler modules.

use std::fmt::Write as _;

use trace_vm::Input;

use crate::datagen::Lcg;
use crate::{DatasetRow, Group, Row};

const GCC: &str = r#"
// ---- lexer ----------------------------------------------------------
global src: [int];
global pos: int;
global tok_kind: int;   // 0 eof, 1 ident, 2 number, 3 string, 4 keyword, 5 punct
global tok_val: int;    // number value / ident id / keyword id / punct char
global tok_val2: int;   // second punct char or 0

// identifier interning table
global id_text: [int];   // packed characters
global id_start: [int];
global id_len: [int];
global id_count: int;
global id_text_used: int;

// statistics
global count_idents: int;
global count_numbers: int;
global count_strings: int;
global count_keywords: int;
global count_puncts: int;
global count_decls: int;
global count_funcs: int;
global count_stmts: int;
global count_folds: int;
global fold_sum: int;
global max_depth: int;

// keywords: 1 int, 2 char, 3 if, 4 else, 5 while, 6 for, 7 return
fn keyword_id(start: int, n: int) -> int {
    if (n == 3 && src[start] == 'i' && src[start+1] == 'n' && src[start+2] == 't') { return 1; }
    if (n == 4 && src[start] == 'c' && src[start+1] == 'h' && src[start+2] == 'a' && src[start+3] == 'r') { return 2; }
    if (n == 2 && src[start] == 'i' && src[start+1] == 'f') { return 3; }
    if (n == 4 && src[start] == 'e' && src[start+1] == 'l' && src[start+2] == 's' && src[start+3] == 'e') { return 4; }
    if (n == 5 && src[start] == 'w' && src[start+1] == 'h' && src[start+2] == 'i' && src[start+3] == 'l' && src[start+4] == 'e') { return 5; }
    if (n == 3 && src[start] == 'f' && src[start+1] == 'o' && src[start+2] == 'r') { return 6; }
    if (n == 6 && src[start] == 'r' && src[start+1] == 'e' && src[start+2] == 't' && src[start+3] == 'u' && src[start+4] == 'r' && src[start+5] == 'n') { return 7; }
    return 0;
}

fn intern(start: int, n: int) -> int {
    for (var i: int = 0; i < id_count; i = i + 1) {
        if (id_len[i] == n) {
            var same: int = 1;
            for (var j: int = 0; j < n; j = j + 1) {
                if (id_text[id_start[i] + j] != src[start + j]) { same = 0; break; }
            }
            if (same) { return i; }
        }
    }
    id_start[id_count] = id_text_used;
    id_len[id_count] = n;
    for (var j2: int = 0; j2 < n; j2 = j2 + 1) {
        id_text[id_text_used] = src[start + j2];
        id_text_used = id_text_used + 1;
    }
    id_count = id_count + 1;
    return id_count - 1;
}

fn is_alpha(c: int) -> int {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

fn is_digit(c: int) -> int {
    return c >= '0' && c <= '9';
}

fn next_token() {
    tok_val2 = 0;
    while (pos < len(src)) {
        var c: int = src[pos];
        if (c == ' ' || c == '\n' || c == '\t' || c == '\r') { pos = pos + 1; continue; }
        if (c == '/' && pos + 1 < len(src) && src[pos + 1] == '/') {
            while (pos < len(src) && src[pos] != '\n') { pos = pos + 1; }
            continue;
        }
        if (c == '/' && pos + 1 < len(src) && src[pos + 1] == '*') {
            pos = pos + 2;
            while (pos + 1 < len(src) && !(src[pos] == '*' && src[pos + 1] == '/')) { pos = pos + 1; }
            pos = pos + 2;
            continue;
        }
        break;
    }
    if (pos >= len(src)) { tok_kind = 0; return; }
    var c2: int = src[pos];
    if (is_alpha(c2)) {
        var start: int = pos;
        while (pos < len(src) && (is_alpha(src[pos]) || is_digit(src[pos]))) { pos = pos + 1; }
        var kw: int = keyword_id(start, pos - start);
        if (kw != 0) {
            tok_kind = 4; tok_val = kw;
            count_keywords = count_keywords + 1;
        } else {
            tok_kind = 1; tok_val = intern(start, pos - start);
            count_idents = count_idents + 1;
        }
        return;
    }
    if (is_digit(c2)) {
        var v: int = 0;
        while (pos < len(src) && is_digit(src[pos])) {
            v = v * 10 + (src[pos] - '0');
            pos = pos + 1;
        }
        tok_kind = 2; tok_val = v;
        count_numbers = count_numbers + 1;
        return;
    }
    if (c2 == '"') {
        pos = pos + 1;
        var chars: int = 0;
        while (pos < len(src) && src[pos] != '"') { chars = chars + 1; pos = pos + 1; }
        pos = pos + 1;
        tok_kind = 3; tok_val = chars;
        count_strings = count_strings + 1;
        return;
    }
    // punctuation, with two-char operators
    tok_kind = 5; tok_val = c2;
    count_puncts = count_puncts + 1;
    pos = pos + 1;
    if (pos < len(src)) {
        var d: int = src[pos];
        if ((c2 == '=' && d == '=') || (c2 == '!' && d == '=') ||
            (c2 == '<' && d == '=') || (c2 == '>' && d == '=') ||
            (c2 == '&' && d == '&') || (c2 == '|' && d == '|') ||
            (c2 == '<' && d == '<') || (c2 == '>' && d == '>') ||
            (c2 == '+' && d == '+') || (c2 == '-' && d == '-')) {
            tok_val2 = d;
            pos = pos + 1;
        }
    }
}

fn at_punct(c: int) -> int {
    return tok_kind == 5 && tok_val == c && tok_val2 == 0;
}

fn at_punct2(c: int, d: int) -> int {
    return tok_kind == 5 && tok_val == c && tok_val2 == d;
}

fn at_keyword(k: int) -> int {
    return tok_kind == 4 && tok_val == k;
}

fn expect_punct(c: int) {
    if (at_punct(c)) { next_token(); } else { emit(0 - 999); next_token(); }
}

// ---- expression parser with constant folding -------------------------
// Each parse_* returns a "value descriptor": if the expression folded to a
// compile-time constant, its value; otherwise the sentinel -1000000000.
global NOTCONST: int;

fn fold2(op: int, a: int, b: int) -> int {
    if (a == NOTCONST || b == NOTCONST) { return NOTCONST; }
    count_folds = count_folds + 1;
    var r: int = 0;
    if (op == '+') { r = a + b; }
    else { if (op == '-') { r = a - b; }
    else { if (op == '*') { r = a * b; }
    else { if (op == '/') { if (b != 0) { r = a / b; } }
    else { if (op == '%') { if (b != 0) { r = a % b; } }
    else { if (op == '<') { r = a < b; }
    else { if (op == '>') { r = a > b; }
    else { r = 0; } } } } } } }
    fold_sum = (fold_sum + r) % 1000000007;
    return r;
}

// Mutual recursion needs no forward declarations: mflang collects every
// function signature before lowering bodies.
fn parse_primary() -> int {
    if (tok_kind == 2) {
        var v: int = tok_val;
        next_token();
        return v;
    }
    if (tok_kind == 3) {
        next_token();
        return NOTCONST;
    }
    if (tok_kind == 1) {
        next_token();
        // call or index
        if (at_punct('(')) {
            next_token();
            if (!at_punct(')')) {
                parse_assign();
                while (at_punct(',')) { next_token(); parse_assign(); }
            }
            expect_punct(')');
        } else {
            while (at_punct('[')) {
                next_token();
                parse_assign();
                expect_punct(']');
            }
        }
        return NOTCONST;
    }
    if (at_punct('(')) {
        next_token();
        var v2: int = parse_assign();
        expect_punct(')');
        return v2;
    }
    if (at_punct('-')) {
        next_token();
        var v3: int = parse_primary();
        if (v3 != NOTCONST) { return 0 - v3; }
        return NOTCONST;
    }
    if (at_punct('!') || at_punct('~')) {
        next_token();
        parse_primary();
        return NOTCONST;
    }
    // stuck: skip a token
    next_token();
    return NOTCONST;
}

fn parse_mul() -> int {
    var v: int = parse_primary();
    while (at_punct('*') || at_punct('/') || at_punct('%')) {
        var op: int = tok_val;
        next_token();
        var r: int = parse_primary();
        v = fold2(op, v, r);
    }
    return v;
}

fn parse_add() -> int {
    var v: int = parse_mul();
    while (at_punct('+') || at_punct('-')) {
        var op: int = tok_val;
        next_token();
        var r: int = parse_mul();
        v = fold2(op, v, r);
    }
    return v;
}

fn parse_shift() -> int {
    var v: int = parse_add();
    while (at_punct2('<', '<') || at_punct2('>', '>')) {
        next_token();
        parse_add();
        v = NOTCONST;
    }
    return v;
}

fn parse_rel() -> int {
    var v: int = parse_shift();
    while (at_punct('<') || at_punct('>') || at_punct2('<', '=') || at_punct2('>', '=')) {
        var op: int = tok_val;
        var two: int = tok_val2;
        next_token();
        var r: int = parse_shift();
        if (two == 0) { v = fold2(op, v, r); } else { v = NOTCONST; }
    }
    return v;
}

fn parse_eq() -> int {
    var v: int = parse_rel();
    while (at_punct2('=', '=') || at_punct2('!', '=')) {
        next_token();
        parse_rel();
        v = NOTCONST;
    }
    return v;
}

fn parse_bits() -> int {
    var v: int = parse_eq();
    while (at_punct('&') || at_punct('|') || at_punct('^')) {
        next_token();
        parse_eq();
        v = NOTCONST;
    }
    return v;
}

fn parse_logic() -> int {
    var v: int = parse_bits();
    while (at_punct2('&', '&') || at_punct2('|', '|')) {
        next_token();
        parse_bits();
        v = NOTCONST;
    }
    return v;
}

fn parse_assign() -> int {
    var v: int = parse_logic();
    if (at_punct('=')) {
        next_token();
        parse_assign();
        return NOTCONST;
    }
    return v;
}

// ---- statements and declarations -------------------------------------
fn parse_stmt(depth: int) {
    count_stmts = count_stmts + 1;
    if (depth > max_depth) { max_depth = depth; }
    if (at_punct('{')) {
        next_token();
        while (!at_punct('}') && tok_kind != 0) { parse_stmt(depth + 1); }
        expect_punct('}');
        return;
    }
    if (at_keyword(3)) { // if
        next_token();
        expect_punct('(');
        parse_assign();
        expect_punct(')');
        parse_stmt(depth + 1);
        if (at_keyword(4)) {
            next_token();
            parse_stmt(depth + 1);
        }
        return;
    }
    if (at_keyword(5)) { // while
        next_token();
        expect_punct('(');
        parse_assign();
        expect_punct(')');
        parse_stmt(depth + 1);
        return;
    }
    if (at_keyword(6)) { // for
        next_token();
        expect_punct('(');
        if (!at_punct(';')) { parse_assign(); }
        expect_punct(';');
        if (!at_punct(';')) { parse_assign(); }
        expect_punct(';');
        if (!at_punct(')')) { parse_assign(); }
        expect_punct(')');
        parse_stmt(depth + 1);
        return;
    }
    if (at_keyword(7)) { // return
        next_token();
        if (!at_punct(';')) { parse_assign(); }
        expect_punct(';');
        return;
    }
    if (at_keyword(1) || at_keyword(2)) { // local declaration
        parse_decl_tail(0);
        return;
    }
    // expression statement
    parse_assign();
    expect_punct(';');
}

// Parses after the type keyword: declarators, or a function definition.
// at_top != 0 permits function bodies.
fn parse_decl_tail(at_top: int) {
    next_token(); // consume type keyword
    while (1) {
        if (tok_kind != 1) { emit(0 - 998); next_token(); return; }
        next_token(); // name
        if (at_top && at_punct('(')) {
            // function definition
            count_funcs = count_funcs + 1;
            next_token();
            if (!at_punct(')')) {
                while (1) {
                    if (at_keyword(1) || at_keyword(2)) { next_token(); }
                    if (tok_kind == 1) { next_token(); }
                    if (at_punct(',')) { next_token(); } else { break; }
                }
            }
            expect_punct(')');
            parse_stmt(1); // the body block
            return;
        }
        count_decls = count_decls + 1;
        if (at_punct('[')) {
            next_token();
            parse_assign();
            expect_punct(']');
        }
        if (at_punct('=')) {
            next_token();
            parse_assign();
        }
        if (at_punct(',')) { next_token(); } else { break; }
    }
    expect_punct(';');
}

fn main(text: [int], unused: int) {
    src = text;
    pos = 0;
    NOTCONST = 0 - 1000000000;
    id_text = new_int(len(text) + 64);
    id_start = new_int(4096);
    id_len = new_int(4096);
    id_count = 0;
    id_text_used = 0;
    count_idents = 0; count_numbers = 0; count_strings = 0;
    count_keywords = 0; count_puncts = 0;
    count_decls = 0; count_funcs = 0; count_stmts = 0;
    count_folds = 0; fold_sum = 0; max_depth = 0;

    next_token();
    while (tok_kind != 0) {
        if (at_keyword(1) || at_keyword(2)) {
            parse_decl_tail(1);
        } else {
            // skip stray token (should not happen on valid modules)
            emit(0 - 997);
            next_token();
        }
    }

    emit(count_idents);
    emit(count_numbers);
    emit(count_strings);
    emit(count_keywords);
    emit(count_puncts);
    emit(count_decls);
    emit(count_funcs);
    emit(count_stmts);
    emit(count_folds);
    emit(fold_sum);
    emit(max_depth);
    emit(id_count);
}
"#;

/// Statement-mix profile for module generation.
#[derive(Clone, Copy)]
struct Profile {
    loops: u64,
    exprs: u64,
    decls: u64,
    calls: u64,
    strings: u64,
}

fn gen_module(seed: u64, functions: usize, profile: Profile) -> String {
    let mut g = Lcg::new(seed);
    let names = [
        "tree", "node", "rtx", "insn", "reg", "mode", "expr", "decl", "tmp", "cost", "flag",
        "base", "index", "width",
    ];
    let mut out = String::new();
    writeln!(out, "int global_state;\nint table[256];\nchar names[64];\n").expect("write");
    for f in 0..functions {
        writeln!(out, "int pass_{f}(int {}, int {}) {{", names[0], names[1]).expect("write");
        let total = profile.loops + profile.exprs + profile.decls + profile.calls + profile.strings;
        let stmts = g.range(6, 16);
        for _ in 0..stmts {
            let roll = g.below(total);
            if roll < profile.loops {
                match g.below(3) {
                    0 => writeln!(
                        out,
                        "    while ({} < {}) {{ {} = {} + {}; }}",
                        names[g.below(14.min(names.len() as u64)) as usize],
                        g.range(1, 64),
                        names[2],
                        names[2],
                        g.range(1, 4)
                    )
                    .expect("write"),
                    1 => writeln!(
                        out,
                        "    for ({n} = 0; {n} < {}; {n} = {n} + 1) {{ table[{n}] = {n} * {}; }}",
                        g.range(4, 32),
                        g.range(2, 9),
                        n = g.pick(&names)
                    )
                    .expect("write"),
                    _ => writeln!(
                        out,
                        "    for ({n} = {}; {n} > 0; {n} = {n} - 1) {{ if ({n} % 2 == 0) {{ {} = {} + 1; }} }}",
                        g.range(4, 40),
                        names[3],
                        names[3],
                        n = g.pick(&names)
                    )
                    .expect("write"),
                }
            } else if roll < profile.loops + profile.exprs {
                writeln!(
                    out,
                    "    {} = ({} + {}) * {} - {} / {};",
                    g.pick(&names),
                    g.range(1, 99),
                    g.range(1, 99),
                    g.range(2, 9),
                    g.pick(&names),
                    g.range(1, 9)
                )
                .expect("write");
            } else if roll < profile.loops + profile.exprs + profile.decls {
                writeln!(
                    out,
                    "    int {}_{}; int {}_{} = {} * {};",
                    g.pick(&names),
                    g.range(0, 99),
                    g.pick(&names),
                    g.range(0, 99),
                    g.range(1, 50),
                    g.range(1, 50)
                )
                .expect("write");
            } else if roll < profile.loops + profile.exprs + profile.decls + profile.calls {
                let callee = g.below(functions.max(1) as u64);
                writeln!(
                    out,
                    "    {} = pass_{callee}({}, {} + {});",
                    g.pick(&names),
                    g.pick(&names),
                    g.pick(&names),
                    g.range(0, 9)
                )
                .expect("write");
            } else {
                writeln!(
                    out,
                    "    if (global_state) {{ {} = \"diagnostic message {}\"; }}",
                    g.pick(&names),
                    g.range(0, 999)
                )
                .expect("write");
            }
        }
        writeln!(
            out,
            "    return {} + {};\n}}\n",
            g.pick(&names),
            g.range(0, 9)
        )
        .expect("write");
    }
    out
}

/// A generated module of 26 functions as guest inputs.
fn module(seed: u64, profile: Profile) -> Vec<Input> {
    vec![
        Input::from_text(&gen_module(seed, 26, profile)),
        Input::Int(0),
    ]
}

/// The `gcc` row with six module datasets.
pub const ROW: Row = Row {
    name: "gcc",
    description: "GNU C compiler (front-end core over 6 modules)",
    group: Group::CInteger,
    source: || GCC.to_string(),
    datasets: &[
        DatasetRow {
            name: "loop_mod",
            description: "Loop-heavy module",
            inputs: || {
                module(
                    401,
                    Profile {
                        loops: 6,
                        exprs: 2,
                        decls: 1,
                        calls: 1,
                        strings: 0,
                    },
                )
            },
        },
        DatasetRow {
            name: "expr_mod",
            description: "Expression-heavy module",
            inputs: || {
                module(
                    402,
                    Profile {
                        loops: 1,
                        exprs: 7,
                        decls: 1,
                        calls: 1,
                        strings: 0,
                    },
                )
            },
        },
        DatasetRow {
            name: "decl_mod",
            description: "Declaration-heavy module",
            inputs: || {
                module(
                    403,
                    Profile {
                        loops: 1,
                        exprs: 1,
                        decls: 7,
                        calls: 0,
                        strings: 1,
                    },
                )
            },
        },
        DatasetRow {
            name: "call_mod",
            description: "Call-heavy module",
            inputs: || {
                module(
                    404,
                    Profile {
                        loops: 1,
                        exprs: 2,
                        decls: 1,
                        calls: 6,
                        strings: 0,
                    },
                )
            },
        },
        DatasetRow {
            name: "string_mod",
            description: "Diagnostic/string-heavy module",
            inputs: || {
                module(
                    405,
                    Profile {
                        loops: 1,
                        exprs: 2,
                        decls: 1,
                        calls: 1,
                        strings: 5,
                    },
                )
            },
        },
        DatasetRow {
            name: "mixed_mod",
            description: "Balanced module",
            inputs: || {
                module(
                    406,
                    Profile {
                        loops: 2,
                        exprs: 2,
                        decls: 2,
                        calls: 2,
                        strings: 2,
                    },
                )
            },
        },
    ],
};

#[cfg(test)]
mod tests {
    use trace_vm::Vm;

    use super::*;

    fn front_end(text: &str) -> Vec<i64> {
        let p = mflang::compile(GCC).unwrap();
        Vm::new(&p)
            .run(&[Input::from_text(text), Input::Int(0)])
            .unwrap()
            .output_ints()
    }

    #[test]
    fn counts_on_handwritten_module() {
        let out = front_end("int x;\nint f(int a) { return a + 2 * 3; }\n");
        let (idents, numbers, _strings, keywords) = (out[0], out[1], out[2], out[3]);
        // idents: x, f, a, a = 4; numbers: 2, 3; keywords: int,int,int,return.
        assert_eq!(idents, 4);
        assert_eq!(numbers, 2);
        assert_eq!(keywords, 4);
        assert_eq!(out[5], 1, "one variable declaration");
        assert_eq!(out[6], 1, "one function");
        assert_eq!(out[8], 1, "2 * 3 folds");
        assert_eq!(out[9], 6, "fold sum");
        // No parse-error sentinels.
        assert!(!out.contains(&-999) && !out.contains(&-998) && !out.contains(&-997));
    }

    #[test]
    fn comments_and_strings_lexed() {
        let out =
            front_end("// line comment\n/* block\ncomment */\nint f() { return \"msg\" ; }\n");
        assert_eq!(out[2], 1, "one string");
        assert!(!out.contains(&-999));
    }

    #[test]
    fn nesting_depth_tracked() {
        let out = front_end("int f() { if (1) { while (2) { return 3; } } return 0; }");
        assert!(out[10] >= 3, "depth {}", out[10]);
    }

    #[test]
    fn interning_dedupes_identifiers() {
        let out = front_end("int f(int abc) { return abc + abc + abc; }");
        // idents: f, abc x4 -> 5 occurrences, 2 distinct.
        assert_eq!(out[0], 5);
        assert_eq!(out[11], 2);
    }

    #[test]
    fn all_modules_parse_cleanly() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        for d in &w.datasets {
            let out = Vm::new(&p).run(&d.inputs).unwrap().output_ints();
            assert!(
                !out.contains(&-999) && !out.contains(&-998) && !out.contains(&-997),
                "{}: parse errors",
                d.name
            );
            assert!(out[7] > 50, "{}: too few statements", d.name);
        }
    }

    #[test]
    fn modules_have_distinct_characters() {
        let w = ROW.generate();
        let p = w.compile().unwrap();
        let runs: Vec<_> = w
            .datasets
            .iter()
            .map(|d| Vm::new(&p).run(&d.inputs).unwrap())
            .collect();
        // The string-heavy module lexes more strings than the loop-heavy one.
        let strings: Vec<i64> = runs.iter().map(|r| r.output_ints()[2]).collect();
        assert!(strings[4] > strings[0]);
    }
}
