//! Content-addressed run keys.
//!
//! A [`RunKey`] is a 128-bit fingerprint of everything that determines a
//! run's statistics: the [`Program`] value, the dataset inputs, and the
//! semantics-relevant [`VmConfig`] fields. The program enters through its
//! derived `Hash`, so every field counts — instructions, constants, the
//! contents of the constant arrays (string literals), names and branch
//! lines — where its `Display` form leaves the constant arrays out. Two
//! jobs with equal keys are the same unit of work and may share one
//! execution; a changed program, dataset, or VM configuration changes the
//! key and thereby invalidates every cached artifact for the old one.
//!
//! std does not promise a stable `Hash` stream across toolchains, so a
//! toolchain update may change keys, which costs one recomputation.

use std::fmt;
use std::hash::{Hash, Hasher};

use trace_ir::Program;
use trace_vm::{Input, VmConfig};

/// Bump when the fingerprint composition changes, so stale on-disk cache
/// entries from older layouts can never be mistaken for current ones.
/// Version 2 added the VM backend to the fingerprint; version 3 added the
/// observation tags (the dynamic-predictor zoo attached to a job);
/// version 4 added the flat backend's trace-formation configuration;
/// version 5 added the trace config's low-confidence (version-skew
/// degraded) site digest; version 6 dropped the branch-trace flag, which
/// left the VM when recording became an observer; version 7 dropped the
/// trace configuration, which left the VM with trace formation; version 8
/// hashes the `Program` value word by word instead of FNV over its text
/// rendering, which also brings the constant arrays into the key.
const KEY_FORMAT_VERSION: u64 = 8;

/// A 128-bit content fingerprint identifying one unit of run work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey(pub u128);

impl RunKey {
    /// Fingerprints `(program, inputs, config)` with no observation tags.
    pub fn of(program: &Program, inputs: &[Input], config: &VmConfig) -> Self {
        RunKey::of_tagged(program, inputs, config, &[])
    }

    /// Fingerprints `(program, inputs, config)` plus an ordered list of
    /// observation tags — the canonical names of whatever observers (e.g.
    /// the `mfdyn` predictor zoo) ride along on the run. The run's stats
    /// are identical with or without observers, but the *artifacts* a job
    /// produces are not, so two jobs whose zoos differ must never share a
    /// cache entry.
    pub fn of_tagged(
        program: &Program,
        inputs: &[Input],
        config: &VmConfig,
        tags: &[String],
    ) -> Self {
        RunKey::finish(RunKey::content(program, inputs, config), tags)
    }

    /// [`RunKey::of_tagged`] together with [`RunKey::of`] for the same run:
    /// the fingerprint of `(program, inputs, config)` is taken once and
    /// forked before the tags, so an observed job also knows the key of
    /// its run with no observer.
    pub(crate) fn of_tagged_and_plain(
        program: &Program,
        inputs: &[Input],
        config: &VmConfig,
        tags: &[String],
    ) -> (Self, Self) {
        let content = RunKey::content(program, inputs, config);
        (
            RunKey::finish(content.clone(), tags),
            RunKey::finish(content, &[]),
        )
    }

    /// The fingerprint of everything but the observation tags.
    fn content(program: &Program, inputs: &[Input], config: &VmConfig) -> Fingerprint {
        let mut fp = Fingerprint::new();
        fp.write_u64(KEY_FORMAT_VERSION);
        program.hash(&mut fp);
        fp.write_u64(inputs.len() as u64);
        for input in inputs {
            match input {
                Input::Int(v) => {
                    fp.write_u64(1);
                    fp.write_u64(*v as u64);
                }
                Input::Float(v) => {
                    fp.write_u64(2);
                    fp.write_u64(v.to_bits());
                }
                Input::Ints(vs) => {
                    fp.write_u64(3);
                    fp.write_u64(vs.len() as u64);
                    for v in vs {
                        fp.write_u64(*v as u64);
                    }
                }
                Input::Floats(vs) => {
                    fp.write_u64(4);
                    fp.write_u64(vs.len() as u64);
                    for v in vs {
                        fp.write_u64(v.to_bits());
                    }
                }
            }
        }
        fp.write_u64(config.fuel);
        fp.write_u64(config.max_stack as u64);
        fp.write_u64(config.max_alloc as u64);
        // Both backends are observably identical, but cached results should
        // still record which engine produced them — a backend-semantics bug
        // must not be able to hide behind a stale cache entry.
        config.backend.name().hash(&mut fp);
        fp
    }

    fn finish(mut fp: Fingerprint, tags: &[String]) -> Self {
        tags.hash(&mut fp);
        RunKey(fp.finish128())
    }

    /// The key as a fixed-width hex string (cache file stem).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Two 64-bit lanes over a stream of 64-bit words, concatenated into 128
/// bits. Each lane takes one multiply–xorshift step per word, with its own
/// multiplier (lane b sees the word rotated by 32 bits), and ends with the
/// murmur3 64-bit finalizer.
///
/// As a [`Hasher`], an integer of any width is one word, and a byte slice
/// is taken eight bytes per word, zero-padded, followed by its length.
/// Without the length `"abc"` and `"abc\0"` would collide, because std
/// hashes a `str` as its bytes plus `0xff`. Dependency-free and plenty for
/// content addressing a few hundred cache entries and checksumming them;
/// it is no defence against crafted collisions.
#[derive(Clone)]
pub struct Fingerprint {
    a: u64,
    b: u64,
}

const LANE_A: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

impl Fingerprint {
    /// Starts a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprint {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(LANE_A);
        self.a ^= self.a >> 31;
        self.b = (self.b ^ w.rotate_left(32)).wrapping_mul(LANE_B);
        self.b ^= self.b >> 31;
    }

    /// The combined 128-bit digest.
    pub fn finish128(&self) -> u128 {
        (u128::from(fmix64(self.a)) << 64) | u128::from(fmix64(self.b))
    }
}

/// The murmur3 64-bit finalizer: every input bit reaches every output bit.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

impl Hasher for Fingerprint {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(w));
        }
        self.word(bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    /// The first lane of [`Fingerprint::finish128`].
    fn finish(&self) -> u64 {
        (self.finish128() >> 64) as u64
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trace_ir::{Instr, Value};

    /// A string literal (a constant array) and a float constant.
    const LITERAL: &str = "fn main(n: int) { var s: [int] = \"abc\"; var x: float = 0.0; \
        emit(s[n]); emit(x); }";

    /// `value`'s fingerprint, through its `Hash` impl.
    fn digest(value: impl Hash) -> u128 {
        let mut fp = Fingerprint::new();
        value.hash(&mut fp);
        fp.finish128()
    }

    #[test]
    fn byte_slices_carry_their_length() {
        // std hashes a str as its bytes plus 0xff, and zero padding makes
        // both byte strings one word: only the length tells them apart.
        assert_ne!(digest("abc"), digest("abc\0"));
        let raw = |bytes: &[u8]| {
            let mut fp = Fingerprint::new();
            fp.write(bytes);
            fp.finish128()
        };
        assert_ne!(raw(b"abc"), raw(b"abc\0"));
    }

    #[test]
    fn the_key_follows_every_field_of_the_program() {
        let program = mflang::compile(LITERAL).unwrap();
        let key = |p: &Program| RunKey::of(p, &[Input::Int(0)], &VmConfig::default());
        let base = key(&program);
        let again = mflang::compile(LITERAL).unwrap();
        assert_eq!(base, key(&again), "two compiles of one source");

        let mut literal = program.clone();
        Arc::make_mut(&mut literal.const_arrays[0])[0] = i64::from(b'x');
        assert_ne!(base, key(&literal), "one const-array element");

        let mut negative_zero = program.clone();
        let zero = negative_zero
            .functions
            .iter_mut()
            .flat_map(|f| &mut f.blocks)
            .flat_map(|b| &mut b.instrs)
            .find_map(|i| match i {
                Instr::Const {
                    value: value @ Value::Float(_),
                    ..
                } => Some(value),
                _ => None,
            })
            .expect("a float constant");
        *zero = Value::Float(-0.0);
        assert_eq!(negative_zero, program, "PartialEq equates 0.0 and -0.0");
        assert_ne!(base, key(&negative_zero), "the bits of one float constant");

        let mut renamed = program.clone();
        renamed.functions[0].name.push('2');
        assert_ne!(base, key(&renamed), "one function name");
    }

    #[test]
    fn distinct_inputs_distinct_keys() {
        let program = mflang::compile("fn main(n: int) { emit(n); }").unwrap();
        let cfg = VmConfig::default();
        let a = RunKey::of(&program, &[Input::Int(1)], &cfg);
        let b = RunKey::of(&program, &[Input::Int(2)], &cfg);
        let a2 = RunKey::of(&program, &[Input::Int(1)], &cfg);
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn config_and_program_perturb_the_key() {
        let p1 = mflang::compile("fn main(n: int) { emit(n); }").unwrap();
        let p2 = mflang::compile("fn main(n: int) { emit(n + 1); }").unwrap();
        let cfg = VmConfig::default();
        let less_fuel = VmConfig {
            fuel: 1000,
            ..VmConfig::default()
        };
        let base = RunKey::of(&p1, &[Input::Int(1)], &cfg);
        assert_ne!(base, RunKey::of(&p2, &[Input::Int(1)], &cfg));
        assert_ne!(base, RunKey::of(&p1, &[Input::Int(1)], &less_fuel));
    }

    #[test]
    fn backend_perturbs_the_key() {
        let program = mflang::compile("fn main(n: int) { emit(n); }").unwrap();
        let reference = VmConfig::default();
        let flat = VmConfig {
            backend: trace_vm::Backend::Flat,
            ..VmConfig::default()
        };
        assert_ne!(
            RunKey::of(&program, &[Input::Int(1)], &reference),
            RunKey::of(&program, &[Input::Int(1)], &flat)
        );
    }

    #[test]
    fn input_encoding_is_injective_across_variants() {
        let program = mflang::compile("fn main(n: int) { emit(n); }").unwrap();
        let cfg = VmConfig::default();
        let int = RunKey::of(&program, &[Input::Int(7)], &cfg);
        let ints = RunKey::of(&program, &[Input::Ints(vec![7])], &cfg);
        let float = RunKey::of(&program, &[Input::Float(7.0)], &cfg);
        assert_ne!(int, ints);
        assert_ne!(int, float);
    }

    #[test]
    fn observation_tags_perturb_the_key() {
        // Satellite: different predictor configurations must never share a
        // cache entry — each distinct tag list is its own key, and the
        // empty tag list is exactly the untagged key.
        let program = mflang::compile("fn main(n: int) { emit(n); }").unwrap();
        let cfg = VmConfig::default();
        let tag = |names: &[&str]| {
            RunKey::of_tagged(
                &program,
                &[Input::Int(1)],
                &cfg,
                &names.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            )
        };
        let untagged = RunKey::of(&program, &[Input::Int(1)], &cfg);
        assert_eq!(untagged, tag(&[]));
        let keys = [
            tag(&["2bit/t12"]),
            tag(&["2bit/t10"]),
            tag(&["gshare/h8/t12"]),
            tag(&["gshare/h12/t12"]),
            tag(&["gshare/h8/t12", "2bit/t12"]),
            tag(&["2bit/t12", "gshare/h8/t12"]),
            untagged,
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "tag lists collided");
            }
        }
        // Tag splitting is unambiguous: two tags never hash like one
        // concatenated tag (length-prefixed strings).
        assert_ne!(tag(&["ab", "c"]), tag(&["a", "bc"]));
        assert_ne!(tag(&["abc"]), tag(&["ab", "c"]));
    }

    #[test]
    fn a_forked_fingerprint_gives_the_tagged_and_the_plain_key() {
        let program = mflang::compile("fn main(n: int) { emit(n); }").unwrap();
        let (cfg, inputs) = (VmConfig::default(), [Input::Int(3)]);
        let tags = vec!["2bit/t12".to_string()];
        let (tagged, plain) = RunKey::of_tagged_and_plain(&program, &inputs, &cfg, &tags);
        assert_eq!(tagged, RunKey::of_tagged(&program, &inputs, &cfg, &tags));
        assert_eq!(plain, RunKey::of(&program, &inputs, &cfg));
        assert_eq!(
            RunKey::of_tagged_and_plain(&program, &inputs, &cfg, &[]),
            (plain, plain)
        );
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(RunKey(1).hex().len(), 32);
        assert_eq!(RunKey(u128::MAX).hex().len(), 32);
    }
}
