//! Error-recovery coverage for the front end: every lexer and parser
//! diagnostic has a concrete input that produces it, diagnostics carry a
//! usable line number, and no input — however mangled — makes `compile`
//! panic instead of returning `Err`.
//!
//! Two lexer diagnostics are defensive and unreachable from `&str` input,
//! so they have no test here: "invalid float literal" (the lexer only
//! builds digit/`.`/exponent shapes, which `f64::from_str` always accepts)
//! and "non-UTF-8 string literal" (string bytes are copied from an already
//! valid UTF-8 source at char boundaries, and all escapes are ASCII).

use mflang::CompileError;

/// Compiles and returns the diagnostic, panicking (with the input) if the
/// front end unexpectedly accepted it.
fn diag(source: &str) -> CompileError {
    match mflang::compile(source) {
        Err(e) => e,
        Ok(_) => panic!("expected a compile error for {source:?}"),
    }
}

/// Asserts `source` fails with a message containing `needle`.
fn expect_msg(source: &str, needle: &str) {
    let e = diag(source);
    assert!(
        e.message.contains(needle),
        "for {source:?}: expected message containing {needle:?}, got {:?}",
        e.message
    );
}

// ---------------------------------------------------------------- lexer --

#[test]
fn lexer_unterminated_block_comment() {
    expect_msg("fn main() { } /* trails off", "unterminated block comment");
}

#[test]
fn lexer_invalid_hex_literal() {
    // `0x` with no digits, and a hex constant past i64::MAX.
    expect_msg("fn main() { emit(0x); }", "invalid hex literal");
    expect_msg(
        "fn main() { emit(0xFFFFFFFFFFFFFFFFF); }",
        "invalid hex literal",
    );
}

#[test]
fn lexer_integer_literal_out_of_range() {
    expect_msg(
        "fn main() { emit(99999999999999999999); }",
        "integer literal out of range",
    );
}

#[test]
fn lexer_invalid_escape_sequence() {
    expect_msg(
        "fn main() { trace(\"bad \\q escape\"); }",
        "invalid escape sequence",
    );
}

#[test]
fn lexer_unterminated_string_literal() {
    // Both at end of input and at a newline.
    expect_msg("fn main() { trace(\"open", "unterminated string literal");
    expect_msg(
        "fn main() { trace(\"open\n\"); }",
        "unterminated string literal",
    );
}

#[test]
fn lexer_empty_char_literal() {
    expect_msg("fn main() { emit(''); }", "empty char literal");
}

#[test]
fn lexer_unterminated_char_literal() {
    expect_msg("fn main() { emit('ab'); }", "unterminated char literal");
    expect_msg("fn main() { emit('a", "unterminated char literal");
}

#[test]
fn lexer_unexpected_character() {
    expect_msg("fn main() { emit($); }", "unexpected character");
    expect_msg("fn main() { emit(1 . 2); }", "unexpected character");
}

// --------------------------------------------------------------- parser --

#[test]
fn parser_expected_punct() {
    // Missing `;` after a statement, missing `)` in a condition.
    expect_msg("fn main() { var x: int = 1 }", "expected `;`");
    expect_msg("fn main() { if (1 { emit(1); } }", "expected `)`");
}

#[test]
fn parser_expected_keyword() {
    // A `do` body must be followed by `while`.
    expect_msg(
        "fn main() { do { emit(1); } until (0); }",
        "expected `while`",
    );
}

#[test]
fn parser_expected_identifier() {
    expect_msg("fn 1() { }", "expected identifier");
    expect_msg("fn main() { var 7: int = 0; }", "expected identifier");
}

#[test]
fn parser_top_level_expects_fn_or_global() {
    expect_msg("xyzzy", "expected `fn` or `global` at top level");
    expect_msg(
        "fn main() { } emit(1);",
        "expected `fn` or `global` at top level",
    );
}

#[test]
fn parser_arrays_of_unsupported_element() {
    expect_msg("fn main() { var x: [[int]] = 0; }", "arrays of");
    expect_msg("global g: [fn()];", "arrays of");
}

#[test]
fn parser_expected_a_type() {
    expect_msg("fn main(x: 5) { }", "expected a type");
    expect_msg("fn main() { var x: while = 0; }", "expected a type");
}

#[test]
fn parser_unexpected_end_of_input_inside_block() {
    expect_msg("fn main() {", "unexpected end of input inside block");
    expect_msg(
        "fn main() { while (1) { emit(1);",
        "unexpected end of input inside block",
    );
}

#[test]
fn parser_expected_integer_case_label() {
    expect_msg(
        "fn main(x: int) { switch (x) { case y: { } } }",
        "expected integer case label",
    );
    expect_msg(
        "fn main(x: int) { switch (x) { case -y: { } } }",
        "expected integer case label",
    );
}

#[test]
fn parser_duplicate_case_label() {
    expect_msg(
        "fn main(x: int) { switch (x) { case 1: { } case 1: { } } }",
        "duplicate case label 1",
    );
    // Negative labels normalize before the duplicate check.
    expect_msg(
        "fn main(x: int) { switch (x) { case -2: { } case -2: { } } }",
        "duplicate case label -2",
    );
}

#[test]
fn parser_duplicate_default_arm() {
    expect_msg(
        "fn main(x: int) { switch (x) { default: { } default: { } } }",
        "duplicate default arm",
    );
}

#[test]
fn parser_switch_body_expects_case_or_default() {
    expect_msg(
        "fn main(x: int) { switch (x) { what: { } } }",
        "expected `case` or `default`",
    );
}

#[test]
fn parser_bad_assignment_target() {
    expect_msg(
        "fn main() { (1 + 2) = 3; }",
        "assignment target must be a variable or element",
    );
}

#[test]
fn parser_expected_an_expression() {
    expect_msg("fn main() { emit(1 + ); }", "expected an expression");
    expect_msg("fn main() { emit(;); }", "expected an expression");
}

// ---------------------------------------------------------- every message --

/// One malformed source per distinct diagnostic the lexer, parser and
/// lowering raise, each with the exact `Display` it must print: the line
/// and the whole message, including any name, type or token it quotes.
/// Sites that print the same text from different code (the two
/// assignment-target checks, the three `cannot assign` checks of
/// if-conversion and assignment) each get their own entry, and a message
/// that quotes a token gets one entry per kind of token it can quote.
/// The two unreachable lexer diagnostics (see the module doc) and the
/// validator's "internal: generated invalid IR" have none.
const DIAGNOSTICS: &[(&str, &str)] = &[
    // Lexer.
    (
        "fn main() { }\n/* trails\n off",
        "line 2: unterminated block comment",
    ),
    ("fn main() { emit(0x); }", "line 1: invalid hex literal"),
    (
        "fn main() {\n emit(99999999999999999999); }",
        "line 2: integer literal out of range",
    ),
    (
        "fn main() { emit(\"a\\qb\"); }",
        "line 1: invalid escape sequence",
    ),
    (
        "fn main() {\n emit(\"open\n\"); }",
        "line 2: unterminated string literal",
    ),
    ("fn main() { emit(''); }", "line 1: empty char literal"),
    (
        "fn main() { emit('ab'); }",
        "line 1: unterminated char literal",
    ),
    ("fn main() { emit($); }", "line 1: unexpected character '$'"),
    (
        "fn main() { emit(1 . 2); }",
        "line 1: unexpected character '.'",
    ),
    (
        "fn main() { emit(\u{e9}); }",
        "line 1: unexpected character '\u{c3}'",
    ),
    // Parser: a missing punctuation mark, once per kind of token found.
    (
        "fn main() { var x: int = 1 }",
        "line 1: expected `;`, found `}`",
    ),
    (
        "fn main() { var x: int = 1 y = 2; }",
        "line 1: expected `;`, found `y`",
    ),
    (
        "fn main() {\n var x: int = 1\n return; }",
        "line 3: expected `;`, found `return`",
    ),
    (
        "fn main(x: int) { emit(x 7); }",
        "line 1: expected `,`, found integer literal 7",
    ),
    (
        "fn main(x: int) { emit(x 2.50); }",
        "line 1: expected `,`, found float literal 2.5",
    ),
    (
        "fn main(x: int) { emit(x \"s\\n\"); }",
        "line 1: expected `,`, found string literal \"s\\n\"",
    ),
    (
        "fn main() -> int",
        "line 1: expected `{`, found end of input",
    ),
    ("fn main() { if (1 { } }", "line 1: expected `)`, found `{`"),
    // Parser: keywords, identifiers, types and the top level.
    (
        "fn main() { do { } until (0); }",
        "line 1: expected `while`, found `until`",
    ),
    (
        "fn 1() { }",
        "line 1: expected identifier, found integer literal 1",
    ),
    (
        "fn main() { var if: int = 1; }",
        "line 1: expected identifier, found `if`",
    ),
    (
        "fn main(",
        "line 1: expected identifier, found end of input",
    ),
    (
        "fn main() { emit(@\"f\"); }",
        "line 1: expected identifier, found string literal \"f\"",
    ),
    (
        "xyzzy",
        "line 1: expected `fn` or `global` at top level, found `xyzzy`",
    ),
    (
        "fn main() { }\nvar x: int = 1;",
        "line 2: expected `fn` or `global` at top level, found `var`",
    ),
    (
        "global g: [[int]];",
        "line 1: arrays of [int] are not supported",
    ),
    (
        "global g: [fn(int, float) -> int];",
        "line 1: arrays of fn(int, float) -> int are not supported",
    ),
    (
        "fn main(x: 5) { }",
        "line 1: expected a type, found integer literal 5",
    ),
    (
        "fn main(x: while) { }",
        "line 1: expected a type, found `while`",
    ),
    (
        "fn main() {\n while (1) {\n emit(1);",
        "line 3: unexpected end of input inside block",
    ),
    // Parser: switch arms, assignment targets and expressions.
    (
        "fn main(x: int) {\n switch (x) {\n case y: { } } }",
        "line 2: expected integer case label, found `y`",
    ),
    (
        "fn main(x: int) {\n switch (x) {\n case -y: { } } }",
        "line 2: expected integer case label, found `y`",
    ),
    (
        "fn main(x: int) { switch (x) { case 1.5: { } } }",
        "line 1: expected integer case label, found float literal 1.5",
    ),
    (
        "fn main(x: int) { switch (x) {\n case 1: { }\n case 1\n : { } } }",
        "line 4: duplicate case label 1",
    ),
    (
        "fn main(x: int) { switch (x) { case -2: { } case -2: { } } }",
        "line 1: duplicate case label -2",
    ),
    (
        "fn main(x: int) { switch (x) {\n default: { }\n default: { } } }",
        "line 3: duplicate default arm",
    ),
    (
        "fn main(x: int) { switch (x) { what: { } } }",
        "line 1: expected `case` or `default`, found `what`",
    ),
    (
        "fn main() {\n (1 + 2) = 3; }",
        "line 2: assignment target must be a variable or element",
    ),
    (
        "fn main() { f()[\n 0] = 1; }",
        "line 2: assignment target must be a variable or element",
    ),
    (
        "fn main() { emit(1 + ); }",
        "line 1: expected an expression, found `)`",
    ),
    (
        "fn main() { emit(int); }",
        "line 1: expected an expression, found `int`",
    ),
    (
        "fn main() { emit(",
        "line 1: expected an expression, found end of input",
    ),
    // Lowering: items.
    (
        "global len: int;\nfn main() { }",
        "line 1: `len` is a builtin and cannot be redefined",
    ),
    (
        "global g: int;\nglobal g: float;\nfn main() { }",
        "line 2: duplicate global `g`",
    ),
    (
        "fn main() { }\nfn emit(x: int) { }",
        "line 2: `emit` is a builtin and cannot be redefined",
    ),
    (
        "fn f() { }\nfn main() { }\nfn f() { }",
        "line 3: duplicate function `f`",
    ),
    (
        "fn f() { }\nglobal main: int;",
        "no `main` function defined",
    ),
    (
        "fn main() { }\nfn f(a: int,\n a: float) { }",
        "line 2: duplicate parameter `a`",
    ),
    // Lowering: statements.
    (
        "fn main() { var x: fn(int) -> int = 1; }",
        "line 1: cannot initialize `x: fn(int) -> int` with a value of type int",
    ),
    (
        "fn main() { var x: int = 0;\n x = 1.5; }",
        "line 2: cannot assign float to `x: int`",
    ),
    (
        "global g: [int];\nfn main() { g = 1; }",
        "line 2: cannot assign int to global `g: [int]`",
    ),
    ("fn main() { y = 1; }", "line 1: unknown name `y`"),
    ("fn main() { zz[0] = 1; }", "line 1: unknown name `zz`"),
    (
        "fn main() { var x: int = 0; x[0] = 1; }",
        "line 1: `x` has type int, which is not indexable",
    ),
    (
        "fn main() { var a: [int] = new_int(2); a[1.5] = 1; }",
        "line 1: array index must be int",
    ),
    (
        "fn main() { var a: [float] = new_float(2); a[0] = 1; }",
        "line 1: cannot store int into [float]",
    ),
    (
        "fn main() {\n break; }",
        "line 2: `break` outside of a loop",
    ),
    (
        "fn main() { continue; }",
        "line 1: `continue` outside of a loop",
    ),
    (
        "fn main() { return 1; }",
        "line 1: void function returns a value",
    ),
    (
        "fn main() { }\nfn f() -> int { return 1.5; }",
        "line 2: return type mismatch: expected int, found float",
    ),
    (
        "fn main() { }\nfn f() -> [float] { return; }",
        "line 2: function must return a value of type [float]",
    ),
    (
        "fn main() { switch (1.5) { } }",
        "line 1: switch scrutinee must be int",
    ),
    // Lowering: if-conversion's checks, then the branching forms.
    (
        "fn main() { var x: int = 0;\n if (\n 1.5) { x = 1; } }",
        "line 3: condition must be int, found float",
    ),
    (
        "fn main() { var x: int = 0;\n if (1) {\n x = 1.5; } }",
        "line 2: cannot assign float to `x: int`",
    ),
    (
        "fn main() { var x: float = 0.0;\n if (1) { x = 1.0; }\n else { x = 2; } }",
        "line 2: cannot assign int to `x: float`",
    ),
    (
        "fn main() { if (1.5) { emit(1); } }",
        "line 1: condition must be int, found float",
    ),
    (
        "fn main(a: [int]) { while (a) { } }",
        "line 1: condition must be int, found [int]",
    ),
    // Lowering: expressions.
    (
        "fn main() { var f: int = 0; emit(f); }\nfn g() { emit(@nope); }",
        "line 2: unknown function `nope` in `@nope`",
    ),
    (
        "fn f() { }\nfn main() { var x: int = f; }",
        "line 2: unknown name `f`",
    ),
    (
        "fn main() { var x: int = 0; emit(x[0]); }",
        "line 1: type int is not indexable",
    ),
    (
        "fn main(a: [int]) { emit(a[1.5]); }",
        "line 1: array index must be int",
    ),
    (
        "fn main() { emit(-new_int(1)); }",
        "line 1: unary operator not defined for [int]",
    ),
    (
        "fn main() { emit(~1.5); }",
        "line 1: unary operator not defined for float",
    ),
    (
        "fn f() { }\nfn main() { emit(f()); }",
        "line 2: void call to `f` used as a value",
    ),
    (
        "fn main() { var x: int = emit(1); }",
        "line 1: void call to `emit` used as a value",
    ),
    (
        "fn main() { emit(1 +\n 1.5); }",
        "line 1: operand type mismatch: int vs float",
    ),
    (
        "fn main() { emit(1.5 % 2.5); }",
        "line 1: operator not defined for operands of type float",
    ),
    // Lowering: calls.
    (
        "fn main() { var x: int = 0; x(1); }",
        "line 1: `x` has non-function type int and cannot be called",
    ),
    (
        "global g: float;\nfn main() { g(); }",
        "line 2: `g` has non-function type float and cannot be called",
    ),
    (
        "fn f(a: int) { }\nfn main() { var h: fn(int) = @f; h(); }",
        "line 2: `h` expects 1 arguments, got 0",
    ),
    (
        "fn f(a: int) { }\nfn main() { var h: fn(int) = @f; h(\n 1.5); }",
        "line 3: argument type mismatch: expected int, found float",
    ),
    ("fn main() { nope(); }", "line 1: unknown function `nope`"),
    (
        "fn f(a: int, b: float) { }\nfn main() { f(1); }",
        "line 2: `f` expects 2 arguments, got 1",
    ),
    (
        "fn f(a: int, b: [float]) { }\nfn main() { f(1,\n 2.5); }",
        "line 3: argument type mismatch: expected [float], found float",
    ),
    // Lowering: builtins (each builtin's arity and argument checks).
    (
        "fn main() { emit(len()); }",
        "line 1: `len` expects 1 argument(s)",
    ),
    (
        "fn main() { emit(len(1)); }",
        "line 1: `len`: argument must be an array",
    ),
    (
        "fn main() { var a: [int] = new_int(1.5); }",
        "line 1: `new_int`: length must be int",
    ),
    (
        "fn main() { var a: [float] = new_float(1, 2); }",
        "line 1: `new_float` expects 1 argument(s)",
    ),
    (
        "fn main() { emit(); }",
        "line 1: `emit` expects 1 argument(s)",
    ),
    (
        "fn main() { emit(new_int(1)); }",
        "line 1: `emit`: argument must be a scalar",
    ),
    (
        "fn main() { emit(int(1)); }",
        "line 1: `int`: argument must be float",
    ),
    (
        "fn main() { emit(int(1.5, 2.5)); }",
        "line 1: `int` expects 1 argument(s)",
    ),
    (
        "fn main() { emit(float(1.5)); }",
        "line 1: `float`: argument must be int",
    ),
    (
        "fn main() { emit(float()); }",
        "line 1: `float` expects 1 argument(s)",
    ),
    (
        "fn main() { emit(sqrt(1)); }",
        "line 1: `sqrt`: argument must be float",
    ),
    (
        "fn main() { emit(cos()); }",
        "line 1: `cos` expects 1 argument(s)",
    ),
    (
        "fn main() { emit(iabs(1.5)); }",
        "line 1: `iabs`: argument must be int",
    ),
    (
        "fn main() { emit(iabs()); }",
        "line 1: `iabs` expects 1 argument(s)",
    ),
    (
        "fn main() { emit(fmin(1.5)); }",
        "line 1: `fmin` expects 2 argument(s)",
    ),
    (
        "fn main() { emit(fmax(1, 2.5)); }",
        "line 1: `fmax`: arguments must be float",
    ),
    (
        "fn main() { emit(select(1, 2)); }",
        "line 1: `select` expects 3 argument(s)",
    ),
    (
        "fn main() { emit(select(1.5, 1, 2)); }",
        "line 1: `select`: condition must be int",
    ),
    (
        "fn main() { emit(select(1, 1, 2.5)); }",
        "line 1: `select`: value operands must be scalars of one type",
    ),
    ("fn main() { emit(len(zz)); }", "line 1: unknown name `zz`"),
];

#[test]
fn every_diagnostic_prints_its_pinned_line_and_message() {
    let wrong: Vec<String> = DIAGNOSTICS
        .iter()
        .filter_map(|&(source, expected)| {
            let got = diag(source).to_string();
            (got != expected)
                .then(|| format!("{source:?}\n  expected {expected:?}\n       got {got:?}"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} diagnostics moved:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

// ----------------------------------------------------------- line numbers --

#[test]
fn diagnostics_carry_the_offending_line() {
    let e = diag("fn main() {\n    var x: int = 1;\n    var y: int = ;\n}");
    assert_eq!(e.line, 3, "error should point at line 3, got: {e}");
    assert!(e.to_string().starts_with("line 3:"));
}

// ------------------------------------------------------------- no panics --

/// Deterministic byte mangling over a set of valid seed programs: every
/// mutant must produce `Ok` or `Err`, never a panic. This is the cheap
/// in-tree cousin of the mffuzz compile-panic oracle.
#[test]
fn mangled_sources_never_panic_the_front_end() {
    const SEEDS: &[&str] = &[
        "fn main(a: int, b: int) { if (a < b) { emit(a); } else { emit(b); } }",
        "fn main(n: int) { var i: int = 0; while (i < n) { i = i + 1; } emit(i); }",
        "fn main(x: int) { switch (x % 3) { case 0: { emit(0); } case -1: { emit(1); } \
         default: { emit(2); } } }",
        "global g: int = 4; fn main() { for (var i: int = 0; i < g; i = i + 1) { emit(i); } }",
        "fn helper(v: float) -> float { return v * 2.5; } fn main() { emitf(helper(1.25e2)); }",
        "fn main() { var s: [int] = array(3); s[0] = 0x10; emit(s[0] >> 1); trace(\"t\\n\"); }",
    ];
    // SplitMix64: a fixed stream so failures replay exactly.
    let mut state: u64 = 0x5EED_CAFE;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    let mut checked = 0usize;
    for round in 0..400 {
        let seed = SEEDS[round % SEEDS.len()];
        let mut bytes = seed.as_bytes().to_vec();
        for _ in 0..(1 + next() % 4) {
            let at = (next() as usize) % bytes.len();
            match next() % 4 {
                0 => bytes[at] = (next() % 256) as u8,
                1 => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, b"(){};\"'$%0x."[(next() as usize) % 12]),
                3 => bytes.truncate(at.max(1)),
                _ => unreachable!(),
            }
            if bytes.is_empty() {
                bytes.push(b' ');
            }
        }
        let mangled = String::from_utf8_lossy(&bytes).into_owned();
        let outcome = std::panic::catch_unwind(|| mflang::compile(&mangled).map(drop));
        assert!(
            outcome.is_ok(),
            "front end panicked on mangled input (round {round}): {mangled:?}"
        );
        checked += 1;
    }
    assert_eq!(checked, 400);
}
