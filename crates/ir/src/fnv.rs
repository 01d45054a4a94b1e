//! 64-bit FNV-1a, the workspace's one byte hash: golden section and fuzz
//! corpus digests, the committed model's checksum, profile-database frame
//! and `MANIFEST` checksums, verifier digests and site fingerprints.

/// A running 64-bit FNV-1a hash, for callers that hash as they go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The hash of no bytes: the FNV offset basis.
    pub const fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes `bytes` in, one byte at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_in_pieces_equals_one_pass() {
        let bytes = b"predicting conditional branch directions";
        for cut in 0..=bytes.len() {
            let mut h = Fnv64::new();
            h.write(&bytes[..cut]);
            h.write(&bytes[cut..]);
            assert_eq!(h.finish(), fnv64(bytes), "cut at {cut}");
        }
    }
}
