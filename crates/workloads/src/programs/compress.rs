//! `compress` / `uncompress`: LZW file compression, as in SPEC 3.0
//! compress.
//!
//! One guest program implements both directions behind a command-line-style
//! mode switch, exactly like the original — which is what let the paper
//! observe that compression runs are useless for predicting decompression
//! runs ("using the data from one to predict the other is a very bad
//! idea").
//!
//! The `uncompress` workload's datasets are the *actual compressed output*
//! of running the `compress` guest on the corresponding inputs, produced by
//! executing the guest once per dataset (cached process-wide).

use std::fmt::Write as _;
use std::sync::OnceLock;

use trace_vm::{Input, Vm};

use crate::datagen::Lcg;
use crate::{DatasetRow, Group, Row};

const COMPRESS: &str = r#"
// LZW with 12-bit codes. Codes 0..255 are literals, 256 is CLEAR, first
// assignable code is 257. mode: 0 = compress, 1 = decompress.
global ht_key: [int];
global ht_code: [int];
global next_code: int;

fn ht_reset() {
    for (var i: int = 0; i < len(ht_key); i = i + 1) {
        ht_key[i] = 0 - 1;
    }
    next_code = 257;
}

// Open-addressed lookup; returns code or -1.
fn ht_find(key: int) -> int {
    var h: int = (key * 2654435761) % 8192;
    if (h < 0) { h = h + 8192; }
    while (ht_key[h] != 0 - 1) {
        if (ht_key[h] == key) { return ht_code[h]; }
        h = h + 1;
        if (h == 8192) { h = 0; }
    }
    return 0 - 1;
}

fn ht_insert(key: int, code: int) {
    var h: int = (key * 2654435761) % 8192;
    if (h < 0) { h = h + 8192; }
    while (ht_key[h] != 0 - 1) {
        h = h + 1;
        if (h == 8192) { h = 0; }
    }
    ht_key[h] = key;
    ht_code[h] = code;
}

fn do_compress(data: [int], n: int) {
    ht_reset();
    var w: int = data[0];
    for (var i: int = 1; i < n; i = i + 1) {
        var c: int = data[i];
        var key: int = w * 256 + c;
        var found: int = ht_find(key);
        if (found != 0 - 1) {
            w = found;
        } else {
            emit(w);
            if (next_code >= 4096) {
                emit(256);
                ht_reset();
            } else {
                ht_insert(key, next_code);
                next_code = next_code + 1;
            }
            w = c;
        }
    }
    emit(w);
}

// Decoder string table: prefix chain + final byte per code.
global d_prefix: [int];
global d_last: [int];
global d_stack: [int];

fn emit_string(code: int) -> int {
    // Walk the prefix chain, then emit in order; returns the first byte.
    var depth: int = 0;
    var c: int = code;
    while (c >= 257) {
        d_stack[depth] = d_last[c];
        depth = depth + 1;
        c = d_prefix[c];
    }
    var first: int = c;
    emit(c);
    while (depth > 0) {
        depth = depth - 1;
        emit(d_stack[depth]);
    }
    return first;
}

fn string_first(code: int) -> int {
    var c: int = code;
    while (c >= 257) { c = d_prefix[c]; }
    return c;
}

fn do_decompress(codes: [int], n: int) {
    next_code = 257;
    var prev: int = codes[0];
    emit(prev);  // first code is always a literal
    for (var i: int = 1; i < n; i = i + 1) {
        var c: int = codes[i];
        if (c == 256) {
            next_code = 257;
            i = i + 1;
            prev = codes[i];
            emit(prev);  // code after CLEAR is a literal
        } else {
            if (c < next_code) {
                var first: int = emit_string(c);
                if (next_code < 4096) {
                    d_prefix[next_code] = prev;
                    d_last[next_code] = first;
                    next_code = next_code + 1;
                }
            } else {
                // The tricky KwKwK case: c == next_code.
                var first2: int = string_first(prev);
                if (next_code < 4096) {
                    d_prefix[next_code] = prev;
                    d_last[next_code] = first2;
                    next_code = next_code + 1;
                }
                emit_string(c);
            }
            prev = c;
        }
    }
}

fn main(data: [int], n: int, mode: int) {
    ht_key = new_int(8192);
    ht_code = new_int(8192);
    d_prefix = new_int(4096);
    d_last = new_int(4096);
    d_stack = new_int(4096);
    if (n == 0) { return; }
    if (mode == 0) {
        do_compress(data, n);
    } else {
        do_decompress(data, n);
    }
}
"#;

/// Generates C-like source text (the `cmprssc` dataset: "C source for SPEC
/// 3.0 compress").
pub fn gen_c_source(seed: u64, functions: usize) -> String {
    let mut g = Lcg::new(seed);
    let types = ["int", "char", "long", "unsigned", "short"];
    let names = [
        "buf", "ptr", "count", "state", "code", "hash", "entry", "next", "bits", "mask", "offset",
        "limit",
    ];
    let mut out = String::from(
        "#include <stdio.h>\n#include <stdlib.h>\n\n#define HSIZE 69001\n#define BITS 16\n\n",
    );
    for f in 0..functions {
        let t = g.pick(&types);
        writeln!(
            out,
            "static {t} fn_{f}({t} {}, {t} {}) {{",
            names[0], names[1]
        )
        .expect("write");
        let stmts = g.range(4, 12);
        for _ in 0..stmts {
            match g.below(5) {
                0 => writeln!(
                    out,
                    "    {} {} = {} + {};",
                    g.pick(&types),
                    g.pick(&names),
                    g.pick(&names),
                    g.range(0, 255)
                )
                .expect("write"),
                1 => writeln!(
                    out,
                    "    if ({} > {}) {{ {} = {}; }}",
                    g.pick(&names),
                    g.range(0, 100),
                    g.pick(&names),
                    g.pick(&names)
                )
                .expect("write"),
                2 => writeln!(
                    out,
                    "    for ({n} = 0; {n} < {}; {n}++) {{ {}[{n}] = {}; }}",
                    g.range(8, 64),
                    g.pick(&names),
                    g.range(0, 9),
                    n = g.pick(&names)
                )
                .expect("write"),
                3 => writeln!(
                    out,
                    "    while ({} & 0x{:x}) {{ {} >>= 1; }}",
                    g.pick(&names),
                    g.range(1, 255),
                    g.pick(&names)
                )
                .expect("write"),
                _ => writeln!(
                    out,
                    "    {} ^= {} << {};",
                    g.pick(&names),
                    g.pick(&names),
                    g.range(1, 7)
                )
                .expect("write"),
            }
        }
        writeln!(out, "    return {};\n}}\n", g.pick(&names)).expect("write");
    }
    out
}

/// Generates FORTRAN-like source text (the `spicef` dataset).
pub fn gen_fortran_source(seed: u64, routines: usize) -> String {
    let mut g = Lcg::new(seed);
    let vars = [
        "VOLT", "AMPS", "GMIN", "TEMP", "VCRIT", "XN", "DELTA", "TOL",
    ];
    let mut out = String::new();
    for r in 0..routines {
        writeln!(out, "      SUBROUTINE SUB{r:03}(N, A, B)").expect("write");
        out.push_str("      IMPLICIT DOUBLE PRECISION (A-H,O-Z)\n      DIMENSION A(N), B(N)\n");
        let stmts = g.range(6, 14);
        for s in 0..stmts {
            match g.below(4) {
                0 => writeln!(
                    out,
                    "      {} = {}*{}.{}D0 + {}",
                    g.pick(&vars),
                    g.pick(&vars),
                    g.range(1, 9),
                    g.range(0, 99),
                    g.pick(&vars)
                )
                .expect("write"),
                1 => writeln!(
                    out,
                    "      DO {} I = 1, N\n      A(I) = B(I)*{}.{}D0\n   {} CONTINUE",
                    s * 10 + 10,
                    g.range(0, 3),
                    g.range(0, 99),
                    s * 10 + 10
                )
                .expect("write"),
                2 => writeln!(
                    out,
                    "      IF ({} .GT. {}.D0) {} = {}.D0",
                    g.pick(&vars),
                    g.range(1, 50),
                    g.pick(&vars),
                    g.range(1, 50)
                )
                .expect("write"),
                _ => writeln!(
                    out,
                    "      CALL SUB{:03}(N, A, B)",
                    g.below(routines as u64)
                )
                .expect("write"),
            }
        }
        out.push_str("      RETURN\n      END\n\n");
    }
    out
}

/// Generates "compiled image"-like binary data: structured, repetitive
/// regions (instruction-stream-like) mixed with high-entropy spans.
pub fn gen_binary(seed: u64, len: usize) -> Vec<i64> {
    let mut g = Lcg::new(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        if g.chance(60) {
            // Instruction-like region: 4-byte records with few distinct
            // opcodes.
            let opcode = g.range(0x10, 0x1f);
            let records = g.range(8, 40);
            for _ in 0..records {
                out.push(opcode);
                out.push(g.range(0, 15));
                out.push(g.range(0, 3));
                out.push(0);
            }
        } else if g.chance(50) {
            // Zero padding.
            let pad = g.range(16, 96) as usize;
            out.extend(std::iter::repeat_n(0, pad));
        } else {
            // Data region: higher entropy.
            for _ in 0..g.range(16, 64) {
                out.push(g.range(0, 255));
            }
        }
    }
    out.truncate(len);
    out
}

/// Generates the `long` dataset: large, highly repetitive English-like text
/// (the SPEC 3.0 reference input is a big concatenated text file).
#[allow(clippy::explicit_auto_deref)] // pick returns &&str; the deref drives inference
pub fn gen_long_text(seed: u64, words: usize) -> String {
    let mut g = Lcg::new(seed);
    let vocab = [
        "the",
        "of",
        "a",
        "compression",
        "ratio",
        "table",
        "entry",
        "input",
        "output",
        "stream",
        "code",
        "when",
        "reset",
        "is",
        "full",
        "and",
        "bits",
        "per",
        "character",
        "algorithm",
    ];
    let mut out = String::new();
    for w in 0..words {
        out.push_str(*g.pick(&vocab));
        out.push(if w % 12 == 11 { '\n' } else { ' ' });
    }
    out
}

/// Text as guest inputs in compression mode.
fn pack(text: String) -> Vec<Input> {
    pack_bin(text.bytes().map(i64::from).collect())
}

/// Bytes as guest inputs in compression mode.
fn pack_bin(bytes: Vec<i64>) -> Vec<Input> {
    let n = bytes.len() as i64;
    vec![Input::Ints(bytes), Input::Int(n), Input::Int(0)]
}

/// The datasets compress reads, and uncompress reads compressed.
const COMPRESS_DATASETS: [DatasetRow; 5] = [
    DatasetRow {
        name: "cmprssc",
        description: "C source for SPEC 3.0 compress",
        inputs: || pack(gen_c_source(101, 40)),
    },
    DatasetRow {
        name: "cmprss",
        description: "Multiflow compiled image for SPEC 3.0 compress",
        inputs: || pack_bin(gen_binary(102, 14_000)),
    },
    DatasetRow {
        name: "long",
        description: "The SPEC 3.0 reference data",
        inputs: || pack(gen_long_text(103, 6_000)),
    },
    DatasetRow {
        name: "spicef",
        description: "FORTRAN source for spice",
        inputs: || pack(gen_fortran_source(104, 30)),
    },
    DatasetRow {
        name: "spice",
        description: "Compiled image for spice",
        inputs: || pack_bin(gen_binary(105, 18_000)),
    },
];

/// The `compress` row.
pub const COMPRESS_ROW: Row = Row {
    name: "compress",
    description: "UNIX file compression, SPEC 3.0",
    group: Group::CInteger,
    source: || COMPRESS.to_string(),
    datasets: &COMPRESS_DATASETS,
};

/// Runs the compress guest to produce a dataset's compressed codes.
fn compress_codes(inputs: &[Input]) -> Vec<i64> {
    static PROGRAM: OnceLock<trace_ir::Program> = OnceLock::new();
    let program =
        PROGRAM.get_or_init(|| mflang::compile(COMPRESS).expect("compress guest compiles"));
    Vm::new(program)
        .run(inputs)
        .expect("compress guest runs")
        .output_ints()
}

/// The inputs of uncompress's dataset `i`: the compressed image of
/// compress's dataset `i` in decompression mode. Compressing runs the
/// guest, so each image is made once per process.
fn compressed(i: usize) -> Vec<Input> {
    static IMAGES: [OnceLock<Vec<Input>>; COMPRESS_DATASETS.len()] =
        [const { OnceLock::new() }; COMPRESS_DATASETS.len()];
    IMAGES[i]
        .get_or_init(|| {
            let codes = compress_codes(&(COMPRESS_DATASETS[i].inputs)());
            let n = codes.len() as i64;
            vec![Input::Ints(codes), Input::Int(n), Input::Int(1)]
        })
        .clone()
}

/// The `uncompress` row: the same guest program with the mode switch set
/// for decompression, fed the compressed images of compress's datasets.
pub const UNCOMPRESS_ROW: Row = Row {
    name: "uncompress",
    description: "compress with switch set for decompression",
    group: Group::CInteger,
    source: || COMPRESS.to_string(),
    datasets: &[
        DatasetRow {
            name: "cmprssc",
            description: "Compressed image of the compress dataset",
            inputs: || compressed(0),
        },
        DatasetRow {
            name: "cmprss",
            description: "Compressed image of the compress dataset",
            inputs: || compressed(1),
        },
        DatasetRow {
            name: "long",
            description: "Compressed image of the compress dataset",
            inputs: || compressed(2),
        },
        DatasetRow {
            name: "spicef",
            description: "Compressed image of the compress dataset",
            inputs: || compressed(3),
        },
        DatasetRow {
            name: "spice",
            description: "Compressed image of the compress dataset",
            inputs: || compressed(4),
        },
    ],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(bytes: Vec<i64>) {
        let program = mflang::compile(COMPRESS).unwrap();
        let n = bytes.len() as i64;
        let codes = Vm::new(&program)
            .run(&[Input::Ints(bytes.clone()), Input::Int(n), Input::Int(0)])
            .unwrap()
            .output_ints();
        assert!(
            codes.len() < bytes.len() || bytes.len() < 50,
            "no compression achieved: {} codes for {} bytes",
            codes.len(),
            bytes.len()
        );
        let back = Vm::new(&program)
            .run(&[
                Input::Ints(codes.clone()),
                Input::Int(codes.len() as i64),
                Input::Int(1),
            ])
            .unwrap()
            .output_ints();
        assert_eq!(back, bytes, "roundtrip failed");
    }

    #[test]
    fn roundtrip_text() {
        roundtrip(gen_long_text(7, 400).bytes().map(i64::from).collect());
    }

    #[test]
    fn roundtrip_c_source() {
        roundtrip(gen_c_source(8, 6).bytes().map(i64::from).collect());
    }

    #[test]
    fn roundtrip_binary_with_dictionary_resets() {
        // Big enough to force the 4096-entry dictionary to reset.
        let data = gen_binary(9, 30_000);
        roundtrip(data);
    }

    #[test]
    fn roundtrip_kwkwk_case() {
        // "abababab…" exercises the c == next_code decoder path.
        let data: Vec<i64> = (0..400).map(|i| if i % 2 == 0 { 97 } else { 98 }).collect();
        roundtrip(data);
    }

    #[test]
    fn roundtrip_single_byte_and_empty() {
        roundtrip(vec![65]);
        let program = mflang::compile(COMPRESS).unwrap();
        let out = Vm::new(&program)
            .run(&[Input::Ints(vec![]), Input::Int(0), Input::Int(0)])
            .unwrap()
            .output_ints();
        assert!(out.is_empty());
    }

    #[test]
    fn uncompress_datasets_are_real_compressed_images() {
        let u = UNCOMPRESS_ROW.generate();
        assert_eq!(u.datasets.len(), 5);
        for d in &u.datasets {
            assert!(d.inputs[0].len() > 10, "{} too small", d.name);
        }
        // Decompressing the `long` dataset reproduces the original text.
        let orig = gen_long_text(103, 6_000);
        let program = mflang::compile(COMPRESS).unwrap();
        let d = u.dataset("long").unwrap();
        let back = Vm::new(&program).run(&d.inputs).unwrap().output_ints();
        let expect: Vec<i64> = orig.bytes().map(i64::from).collect();
        assert_eq!(back, expect);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(gen_c_source(1, 3), gen_c_source(1, 3));
        assert_eq!(gen_binary(2, 100), gen_binary(2, 100));
        assert_ne!(gen_binary(2, 100), gen_binary(3, 100));
    }
}
