//! Determinism: the whole experiment regenerates bit-identically.

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
