//! Content-addressed run keys.
//!
//! A [`RunKey`] is a 128-bit fingerprint of everything that determines a
//! run's statistics: the lowered IR (its canonical text rendering), the
//! dataset inputs, and the semantics-relevant [`VmConfig`] fields. Two jobs
//! with equal keys are the same unit of work and may share one execution;
//! a changed program (re-lowered IR), dataset, or VM configuration changes
//! the key and thereby invalidates every cached artifact for the old one.

use std::fmt;

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
/// trace configuration, which left the VM with trace formation.
const KEY_FORMAT_VERSION: u64 = 7;

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
        let mut fp = Fingerprint::new();
        fp.write_u64(KEY_FORMAT_VERSION);
        // The IR's Display form is canonical and covers every instruction,
        // terminator, and branch id — a re-lowered or re-optimized program
        // renders differently and gets a fresh key.
        fp.write_str(&program.to_string());
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
        fp.write_str(config.backend.name());
        fp.write_u64(tags.len() as u64);
        for tag in tags {
            fp.write_str(tag);
        }
        RunKey(fp.finish())
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

/// Two independent FNV-1a 64-bit streams over the same bytes, concatenated
/// into 128 bits. Dependency-free and plenty for content addressing a few
/// hundred cache entries.
pub struct Fingerprint {
    a: u64,
    b: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// Starts a fresh fingerprint.
    pub fn new() -> Self {
        Fingerprint {
            a: FNV_OFFSET,
            // A distinct offset basis decorrelates the second stream.
            b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME.rotate_left(1));
        }
    }

    /// Feeds one little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The combined 128-bit digest.
    pub fn finish(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// FNV-1a 64 over a byte slice — used as the cache file checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn hex_is_fixed_width() {
        assert_eq!(RunKey(1).hex().len(), 32);
        assert_eq!(RunKey(u128::MAX).hex().len(), 32);
    }
}
