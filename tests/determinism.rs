//! Determinism: the whole experiment regenerates bit-identically.

use std::path::Path;

use fisher92::lang::{compile_with, CompileOptions, SwitchMode};
use fisher92::opt::{Inliner, Pipeline};
use fisher92::vm::Input;
use fisher92::workloads::suite;

/// FNV-1a, 64-bit, fed one field at a time.
struct Fnv64(u64);

impl Fnv64 {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so adjacent fields cannot trade bytes.
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The digest of every workload's name and source and every dataset's
/// name and inputs, in suite order. Integers and floats enter as their
/// 64-bit little-endian patterns (floats by `to_bits`), each input behind
/// a kind tag and each array behind its length.
fn suite_digest() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    for w in suite() {
        h.str(w.name);
        h.str(&w.source);
        h.word(w.datasets.len() as u64);
        for d in &w.datasets {
            h.str(&d.name);
            h.word(d.inputs.len() as u64);
            for input in &d.inputs {
                match input {
                    Input::Int(v) => {
                        h.word(0);
                        h.word(*v as u64);
                    }
                    Input::Float(v) => {
                        h.word(1);
                        h.word(v.to_bits());
                    }
                    Input::Ints(vs) => {
                        h.word(2);
                        h.word(vs.len() as u64);
                        vs.iter().for_each(|v| h.word(*v as u64));
                    }
                    Input::Floats(vs) => {
                        h.word(3);
                        h.word(vs.len() as u64);
                        vs.iter().for_each(|v| h.word(v.to_bits()));
                    }
                }
            }
        }
    }
    h.0
}

/// The generated suite is pinned: a generator rewrite that changes one
/// program or one input fails here instead of surfacing later as golden
/// digest failures and run-cache misses. Update the constant only for a
/// deliberate change to the suite.
#[test]
fn generated_suite_matches_its_pinned_digest() {
    assert_eq!(
        suite_digest(),
        0x73c8_e6cf_a34a_ebd8,
        "the generated suite changed"
    );
}

/// The digest of what the optimizer makes of the suite: per workload, in
/// suite order, its `Pipeline::standard` build and its `Inliner` build.
/// Each program is rendered with `{:?}`, which covers every field (the
/// constant arrays and the branch table included); `Display` leaves some
/// out.
fn optimized_suite_digest() -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    for w in suite() {
        let program = w.compile().expect("compiles");
        let mut optimized = program.clone();
        Pipeline::standard().run(&mut optimized);
        let mut inlined = program;
        Inliner::default().run(&mut inlined);
        h.str(w.name);
        for build in [&optimized, &inlined] {
            h.str(&format!("{build:?}"));
        }
    }
    h.0
}

/// The optimizer's output is pinned: a change to any pass, or to the
/// analyses they consult, that moves one instruction of one build fails
/// here. Update the constant only for a deliberate change to what the
/// optimizer produces.
#[test]
fn optimized_suite_matches_its_pinned_digest() {
    let digest = optimized_suite_digest();
    assert_eq!(
        digest, 0xb143_3ace_a22d_9823,
        "the optimized suite changed: {digest:#018x}"
    );
}

/// The digest of what the front end alone makes of every source in the
/// repository: each suite workload in suite order, then each `corpus/*.mf`
/// and `examples/*.mf` file in path order, compiled under three option
/// sets (the default, jump-table switches, and if-conversion off). Each
/// result is rendered with `{:?}`, so a source that stops compiling
/// changes the digest too.
fn profiling_suite_digest() -> u64 {
    let options = [
        CompileOptions::default(),
        CompileOptions {
            switch_mode: SwitchMode::JumpTable,
            ..CompileOptions::default()
        },
        CompileOptions {
            if_conversion: false,
            ..CompileOptions::default()
        },
    ];
    let mut sources: Vec<(String, String)> = suite()
        .into_iter()
        .map(|w| (w.name.to_string(), w.source))
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in ["corpus", "examples"] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .expect("source directory readable")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "mf"))
            .collect();
        files.sort();
        for path in files {
            let source = std::fs::read_to_string(&path).expect("source readable");
            let name = path.strip_prefix(root).expect("under the root");
            sources.push((name.display().to_string(), source));
        }
    }
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    for (name, source) in &sources {
        h.str(name);
        for opts in &options {
            h.str(&format!("{:?}", compile_with(source, opts)));
        }
    }
    h.0
}

/// The front end's output is pinned: a change to the lexer, parser or
/// lowering that moves one instruction, register, block or name of one
/// profiling build fails here, even where a later pass would hide it.
/// Update the constant only for a deliberate change to what the front end
/// produces.
#[test]
fn profiling_suite_matches_its_pinned_digest() {
    let digest = profiling_suite_digest();
    assert_eq!(
        digest, 0x142d_97fe_e1c6_16fc,
        "the profiling builds changed: {digest:#018x}"
    );
}

#[test]
fn dataset_generation_is_stable() {
    let a = suite();
    let b = suite();
    assert_eq!(a.len(), b.len());
    for (wa, wb) in a.iter().zip(&b) {
        assert_eq!(wa.name, wb.name);
        assert_eq!(wa.source, wb.source, "{}: source differs", wa.name);
        assert_eq!(wa.datasets.len(), wb.datasets.len());
        for (da, db) in wa.datasets.iter().zip(&wb.datasets) {
            assert_eq!(da.inputs, db.inputs, "{}/{}", wa.name, da.name);
        }
    }
}

#[test]
fn compilation_is_deterministic() {
    let all = suite();
    let w = all.iter().find(|w| w.name == "gcc").expect("gcc");
    let a = w.compile().expect("compiles");
    let b = w.compile().expect("compiles");
    assert_eq!(a, b);
    let oa = w.compile_optimized().expect("optimizes");
    let ob = w.compile_optimized().expect("optimizes");
    assert_eq!(oa, ob);
}

#[test]
fn runs_are_bit_identical() {
    let all = suite();
    for name in ["doduc", "spiff"] {
        let w = all.iter().find(|w| w.name == name).expect("workload");
        let program = w.compile().expect("compiles");
        let d = &w.datasets[0];
        let a = w.run(&program, d).expect("runs");
        let b = w.run(&program, d).expect("runs");
        assert_eq!(a, b, "{name}: run not deterministic");
    }
}

#[test]
fn pixie_counts_reconcile_for_real_workloads() {
    let all = suite();
    for name in ["mfcom", "eqntott"] {
        let w = all.iter().find(|w| w.name == name).expect("workload");
        let program = w.compile().expect("compiles");
        let run = w.run(&program, &w.datasets[0]).expect("runs");
        assert_eq!(
            run.stats.pixie.total_instrs(&program),
            run.stats.total_instrs,
            "{name}: MFPixie and fuel disagree"
        );
    }
}
