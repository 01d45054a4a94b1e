//! The segment-file codec.
//!
//! A segment is a checksummed header followed by length-prefixed,
//! individually checksummed frames. Every writer appends *batch* frames
//! (one per committed chunk of run profiles; a `ProfileStore` append is
//! a one-record batch). Single-run frames come from older single-log
//! databases: they stay readable, and no writer produces them:
//!
//! ```text
//! header  = "MFPD" version:u8 generation:u64 folds_through:u64
//!           base_len:u64 fnv64(previous 29 bytes):u64        (37 bytes)
//! frame   = payload_len:u32 payload fnv64(payload):u64
//! payload = kind:u8(=1) record                        (single run)
//!         | kind:u8(=2) n:u32 record * n              (batch)
//!         | kind:u8(=3) record_v2                     (single run + fps)
//!         | kind:u8(=4) n:u32 record_v2 * n           (batch + fps)
//! record  = name_len:u32 name:bytes
//!           n:u32 { branch_id:u32 executed:u64 taken:u64 } * n
//! record_v2 = record f:u32 { branch_id:u32 fingerprint:u64 } * f
//! ```
//!
//! The v2 kinds (3/4) extend each record with the structural site
//! fingerprints (`mfstale`) of the branches it profiled, enabling
//! version-skew-tolerant reuse. Records without fingerprints keep
//! encoding as the v1 kinds byte-for-byte, and v1 frames stay readable
//! forever (they decode with an empty fingerprint list).
//!
//! All integers little-endian. `generation` orders segments;
//! `folds_through` marks a compacted segment as superseding every
//! generation `<=` it; `base_len` is the byte length the file had when
//! its creation was committed — a file shorter than its own `base_len`
//! was torn mid-creation and never contained acknowledged data, so it can
//! be discarded whole. Frames past `base_len` (the appends) are governed
//! by salvage: the longest prefix of structurally complete, checksum-
//! valid frames wins, and everything after it is a torn tail. Because a
//! batch is one frame under one checksum, salvage is all-or-nothing at
//! batch granularity — a torn group commit can never resurface as a
//! partial batch.
//!
//! The codec is public. Every log, the single-writer store's and each
//! `mfprofsvc` shard's, is written by the one [`crate::SegmentLog`]
//! engine, so any shard directory is also a readable `mfprofdb`
//! database.

/// Segment-header magic.
pub const MAGIC: &[u8; 4] = b"MFPD";
/// On-disk format version.
pub const VERSION: u8 = 1;
/// Encoded header size.
pub const HEADER_LEN: usize = 37;
/// Sanity bound on a single frame payload (a run profile is at most a
/// few thousand branch entries and group commits are chunked well below
/// this; 16 MiB is absurdly generous).
pub const MAX_PAYLOAD: u32 = 16 << 20;
const KIND_RUN: u8 = 1;
const KIND_BATCH: u8 = 2;
const KIND_RUN_V2: u8 = 3;
const KIND_BATCH_V2: u8 = 4;

/// 64-bit FNV-1a — same checksum the harness cache uses.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One appended run profile: a dataset name plus raw
/// `(branch, executed, taken)` entries. Kept raw (not `BranchCounts`) so
/// reading a corrupted-but-accepted frame can never trip a counter
/// invariant — semantic judgment belongs to the consumer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileRecord {
    /// Dataset the counts belong to.
    pub dataset: String,
    /// `(branch id, executed, taken)` in id order.
    pub entries: Vec<(u32, u64, u64)>,
    /// `(branch id, structural fingerprint)` in id order — the `mfstale`
    /// site fingerprints of the program the counts were gathered on.
    /// Empty for legacy records (and for writers that do not fingerprint);
    /// such records encode as v1 frames byte-for-byte.
    pub fps: Vec<(u32, u64)>,
}

/// A decoded segment header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Ordering rank among the segments of one database directory.
    pub generation: u64,
    /// Highest generation this (compacted) segment supersedes; 0 for a
    /// plain append segment.
    pub folds_through: u64,
    /// File length at creation-commit time; a shorter file was torn
    /// mid-creation and is discarded whole.
    pub base_len: u64,
}

/// Encodes a segment header, checksum included.
pub fn encode_header(h: &SegmentHeader) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&h.generation.to_le_bytes());
    buf.extend_from_slice(&h.folds_through.to_le_bytes());
    buf.extend_from_slice(&h.base_len.to_le_bytes());
    let sum = fnv64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Decodes and validates the first [`HEADER_LEN`] bytes of a segment.
pub fn decode_header(bytes: &[u8]) -> Option<SegmentHeader> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let (body, sum) = bytes[..HEADER_LEN].split_at(HEADER_LEN - 8);
    if u64::from_le_bytes(sum.try_into().ok()?) != fnv64(body) {
        return None;
    }
    if &body[..4] != MAGIC || body[4] != VERSION {
        return None;
    }
    let u64_at = |off: usize| u64::from_le_bytes(body[off..off + 8].try_into().expect("8 bytes"));
    Some(SegmentHeader {
        generation: u64_at(5),
        folds_through: u64_at(13),
        base_len: u64_at(21),
    })
}

/// Encoded size of one record body, for pre-sizing and for chunking
/// batches below [`MAX_PAYLOAD`]. Slightly overestimates fingerprint-free
/// records (they omit the v2 fingerprint count), which keeps chunking
/// safe regardless of which frame kind a mixed batch ends up using.
pub fn record_body_len(record: &ProfileRecord) -> usize {
    12 + record.dataset.len() + record.entries.len() * 20 + record.fps.len() * 12
}

fn encode_record_body(record: &ProfileRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&(record.dataset.len() as u32).to_le_bytes());
    out.extend_from_slice(record.dataset.as_bytes());
    out.extend_from_slice(&(record.entries.len() as u32).to_le_bytes());
    for &(id, executed, taken) in &record.entries {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&executed.to_le_bytes());
        out.extend_from_slice(&taken.to_le_bytes());
    }
}

fn encode_record_body_v2(record: &ProfileRecord, out: &mut Vec<u8>) {
    encode_record_body(record, out);
    out.extend_from_slice(&(record.fps.len() as u32).to_le_bytes());
    for &(id, fp) in &record.fps {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&fp.to_le_bytes());
    }
}

fn seal_frame(payload: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let sum = fnv64(&payload);
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// Encodes one record as a single-run frame. Fingerprint-free records
/// produce v1 frames byte-for-byte; records carrying fingerprints produce
/// v2 frames. No log appends these; the encoder rebuilds the older
/// single-log layout, whose reading must keep working, for tests.
pub fn encode_frame(record: &ProfileRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + record_body_len(record));
    if record.fps.is_empty() {
        payload.push(KIND_RUN);
        encode_record_body(record, &mut payload);
    } else {
        payload.push(KIND_RUN_V2);
        encode_record_body_v2(record, &mut payload);
    }
    seal_frame(payload)
}

/// Encodes a group-committed batch as ONE frame under ONE checksum, so
/// the salvage walk keeps or drops the whole batch — a torn group commit
/// can never recover to a partial batch. The caller keeps the encoded
/// payload under [`MAX_PAYLOAD`] by chunking submissions across frames.
pub fn encode_batch_frame(records: &[ProfileRecord]) -> Vec<u8> {
    let body: usize = records.iter().map(record_body_len).sum();
    let mut payload = Vec::with_capacity(5 + body);
    // A batch is v2 as soon as ANY member carries fingerprints (members
    // without them encode a zero fingerprint count); an all-legacy batch
    // stays a v1 frame byte-for-byte.
    let v2 = records.iter().any(|r| !r.fps.is_empty());
    payload.push(if v2 { KIND_BATCH_V2 } else { KIND_BATCH });
    payload.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        if v2 {
            encode_record_body_v2(r, &mut payload);
        } else {
            encode_record_body(r, &mut payload);
        }
    }
    seal_frame(payload)
}

fn checksum_ok(payload: &[u8], stored: u64) -> bool {
    #[cfg(feature = "seeded-defects")]
    if mfdefect::active("profdb-checksum-skipped") {
        return true;
    }
    fnv64(payload) == stored
}

fn take<'a>(payload: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let end = pos.checked_add(n)?;
    if end > payload.len() {
        return None;
    }
    let s = &payload[*pos..end];
    *pos = end;
    Some(s)
}

fn decode_record_body(payload: &[u8], pos: &mut usize, v2: bool) -> Option<ProfileRecord> {
    let name_len = u32::from_le_bytes(take(payload, pos, 4)?.try_into().ok()?) as usize;
    let dataset = String::from_utf8(take(payload, pos, name_len)?.to_vec()).ok()?;
    let n = u32::from_le_bytes(take(payload, pos, 4)?.try_into().ok()?) as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = u32::from_le_bytes(take(payload, pos, 4)?.try_into().ok()?);
        let executed = u64::from_le_bytes(take(payload, pos, 8)?.try_into().ok()?);
        let taken = u64::from_le_bytes(take(payload, pos, 8)?.try_into().ok()?);
        entries.push((id, executed, taken));
    }
    let mut fps = Vec::new();
    if v2 {
        let f = u32::from_le_bytes(take(payload, pos, 4)?.try_into().ok()?) as usize;
        fps.reserve(f.min(1 << 16));
        for _ in 0..f {
            let id = u32::from_le_bytes(take(payload, pos, 4)?.try_into().ok()?);
            let fp = u64::from_le_bytes(take(payload, pos, 8)?.try_into().ok()?);
            fps.push((id, fp));
        }
    }
    Some(ProfileRecord {
        dataset,
        entries,
        fps,
    })
}

/// A frame payload decodes to the batch of records it committed
/// atomically: one for a run frame, any number for a batch frame.
fn decode_payload(payload: &[u8]) -> Option<Vec<ProfileRecord>> {
    let mut pos = 0usize;
    let records = match take(payload, &mut pos, 1)?[0] {
        kind @ (KIND_RUN | KIND_RUN_V2) => {
            vec![decode_record_body(payload, &mut pos, kind == KIND_RUN_V2)?]
        }
        kind @ (KIND_BATCH | KIND_BATCH_V2) => {
            let n = u32::from_le_bytes(take(payload, &mut pos, 4)?.try_into().ok()?) as usize;
            let mut records = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                records.push(decode_record_body(
                    payload,
                    &mut pos,
                    kind == KIND_BATCH_V2,
                )?);
            }
            records
        }
        _ => return None,
    };
    if pos != payload.len() {
        return None; // trailing garbage inside the frame
    }
    Some(records)
}

/// Walks the frames of a segment body (everything after the header),
/// calling `visit` once per valid frame with the records that frame
/// committed atomically. Returns the number of body bytes covered by the
/// longest valid prefix; anything beyond that is a torn tail. Visitor
/// form so a multi-gigabyte shard can be folded without materializing
/// every record at once.
pub fn walk_batches(body: &[u8], mut visit: impl FnMut(Vec<ProfileRecord>)) -> usize {
    let mut pos = 0usize;
    while let Some(len_bytes) = body.get(pos..pos + 4) {
        let payload_len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes"));
        if payload_len > MAX_PAYLOAD {
            break;
        }
        let payload_len = payload_len as usize;
        let Some(payload) = body.get(pos + 4..pos + 4 + payload_len) else {
            break;
        };
        let Some(sum_bytes) = body.get(pos + 4 + payload_len..pos + 12 + payload_len) else {
            break;
        };
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if !checksum_ok(payload, stored) {
            break;
        }
        let Some(records) = decode_payload(payload) else {
            break;
        };
        visit(records);
        pos += 12 + payload_len;
    }
    pos
}

/// [`walk_batches`] flattened: the salvaged records in append order plus
/// the valid-prefix length.
pub fn walk_frames(body: &[u8]) -> (Vec<ProfileRecord>, usize) {
    let mut records = Vec::new();
    let valid = walk_batches(body, |batch| records.extend(batch));
    (records, valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileRecord {
        ProfileRecord {
            dataset: "train".into(),
            entries: vec![(0, 100, 40), (7, 5, 5), (9, 1, 0)],
            ..Default::default()
        }
    }

    fn sample_v2() -> ProfileRecord {
        ProfileRecord {
            dataset: "train".into(),
            entries: vec![(0, 100, 40), (7, 5, 5), (9, 1, 0)],
            fps: vec![(0, 0xDEAD_BEEF), (7, 42), (9, u64::MAX)],
        }
    }

    #[test]
    fn fingerprinted_frames_roundtrip() {
        let records = vec![sample_v2(), sample(), sample_v2()];
        let mut body = Vec::new();
        for r in &records {
            body.extend_from_slice(&encode_frame(r));
        }
        let (got, valid) = walk_frames(&body);
        assert_eq!(got, records);
        assert_eq!(valid, body.len());
    }

    #[test]
    fn fingerprint_free_records_encode_as_legacy_frames() {
        // The compatibility contract: a writer that never fingerprints
        // produces bytes indistinguishable from the pre-v2 codec, so old
        // readers (and old databases) are unaffected.
        let frame = encode_frame(&sample());
        assert_eq!(frame[4], KIND_RUN, "kind byte must stay v1");
        let batch = encode_batch_frame(&[sample(), sample()]);
        assert_eq!(batch[4], KIND_BATCH, "batch kind byte must stay v1");
        let v2 = encode_frame(&sample_v2());
        assert_eq!(v2[4], KIND_RUN_V2);
    }

    #[test]
    fn mixed_batch_promotes_to_v2_and_roundtrips() {
        let records = vec![sample(), sample_v2(), sample()];
        let frame = encode_batch_frame(&records);
        assert_eq!(frame[4], KIND_BATCH_V2);
        let (got, valid) = walk_frames(&frame);
        assert_eq!(got, records);
        assert_eq!(valid, frame.len());
    }

    #[test]
    fn damaged_v2_frame_is_rejected() {
        let good = encode_frame(&sample());
        let mut body = good.clone();
        body.extend_from_slice(&encode_frame(&sample_v2()));
        for i in good.len()..body.len() {
            let mut bad = body.clone();
            bad[i] ^= 0x41;
            let (got, valid) = walk_frames(&bad);
            assert_eq!(got, vec![sample()], "byte {i}");
            assert_eq!(valid, good.len(), "byte {i}");
        }
    }

    #[test]
    fn header_roundtrips_and_rejects_damage() {
        let h = SegmentHeader {
            generation: 3,
            folds_through: 2,
            base_len: 1234,
        };
        let buf = encode_header(&h);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(decode_header(&buf), Some(h));
        for len in 0..buf.len() {
            assert_eq!(decode_header(&buf[..len]), None, "truncated to {len}");
        }
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            assert_eq!(decode_header(&bad), None, "flipped byte {i}");
        }
    }

    #[test]
    fn frames_roundtrip() {
        let records = vec![
            sample(),
            ProfileRecord {
                dataset: "ref".into(),
                entries: vec![],
                ..Default::default()
            },
        ];
        let mut body = Vec::new();
        for r in &records {
            body.extend_from_slice(&encode_frame(r));
        }
        let (got, valid) = walk_frames(&body);
        assert_eq!(got, records);
        assert_eq!(valid, body.len());
    }

    #[test]
    fn every_truncation_salvages_a_frame_prefix() {
        let records: Vec<ProfileRecord> = (0..4)
            .map(|i| ProfileRecord {
                dataset: format!("ds{i}"),
                entries: vec![(i, 10 + u64::from(i), 3)],
                ..Default::default()
            })
            .collect();
        let frames: Vec<Vec<u8>> = records.iter().map(encode_frame).collect();
        let body: Vec<u8> = frames.concat();
        let boundaries: Vec<usize> = frames
            .iter()
            .scan(0, |acc, f| {
                *acc += f.len();
                Some(*acc)
            })
            .collect();
        for len in 0..=body.len() {
            let (got, valid) = walk_frames(&body[..len]);
            // Salvage stops exactly at the last complete frame boundary.
            let complete = boundaries.iter().filter(|&&b| b <= len).count();
            assert_eq!(got.len(), complete, "len {len}");
            assert_eq!(got[..], records[..complete], "len {len}");
            assert_eq!(
                valid,
                boundaries
                    .get(complete.wrapping_sub(1))
                    .copied()
                    .unwrap_or(0)
            );
        }
    }

    #[test]
    fn any_flipped_byte_drops_that_frame_and_its_suffix() {
        let records: Vec<ProfileRecord> = (0..3)
            .map(|i| ProfileRecord {
                dataset: format!("ds{i}"),
                entries: vec![(i, 100, 40)],
                ..Default::default()
            })
            .collect();
        let frames: Vec<Vec<u8>> = records.iter().map(encode_frame).collect();
        let body: Vec<u8> = frames.concat();
        for i in 0..body.len() {
            let mut bad = body.clone();
            bad[i] ^= 0x41;
            let (got, _) = walk_frames(&bad);
            // The records before the damaged frame must survive intact;
            // the damaged frame and everything after must be dropped
            // (a flipped length prefix may also desynchronize earlier).
            let frame_of_i = frames
                .iter()
                .scan(0usize, |acc, f| {
                    *acc += f.len();
                    Some(*acc)
                })
                .position(|end| i < end)
                .expect("byte inside some frame");
            assert!(got.len() <= frame_of_i, "byte {i}");
            assert_eq!(got[..], records[..got.len()], "byte {i}");
        }
    }

    #[test]
    fn batch_frames_roundtrip_and_interleave_with_run_frames() {
        let batch: Vec<ProfileRecord> = (0..3)
            .map(|i| ProfileRecord {
                dataset: format!("b{i}"),
                entries: vec![(i, 2 * u64::from(i) + 1, u64::from(i))],
                ..Default::default()
            })
            .collect();
        let mut body = encode_frame(&sample());
        body.extend_from_slice(&encode_batch_frame(&batch));
        body.extend_from_slice(&encode_batch_frame(&[]));
        body.extend_from_slice(&encode_frame(&sample()));
        let mut batches = Vec::new();
        let valid = walk_batches(&body, |b| batches.push(b));
        assert_eq!(valid, body.len());
        assert_eq!(
            batches,
            vec![vec![sample()], batch.clone(), vec![], vec![sample()]]
        );
        let (flat, flat_valid) = walk_frames(&body);
        assert_eq!(flat_valid, body.len());
        let mut expected = vec![sample()];
        expected.extend(batch);
        expected.push(sample());
        assert_eq!(flat, expected);
    }

    #[test]
    fn damaged_batch_frame_drops_the_whole_batch() {
        let batch: Vec<ProfileRecord> = (0..4)
            .map(|i| ProfileRecord {
                dataset: format!("b{i}"),
                entries: vec![(i, 10, 5)],
                ..Default::default()
            })
            .collect();
        let first = encode_frame(&sample());
        let mut body = first.clone();
        body.extend_from_slice(&encode_batch_frame(&batch));
        // Flip any single byte inside the batch frame: the whole batch
        // must vanish — never a partial batch — and the run frame before
        // it must survive.
        for i in first.len()..body.len() {
            let mut bad = body.clone();
            bad[i] ^= 0x41;
            let (got, valid) = walk_frames(&bad);
            assert_eq!(got, vec![sample()], "byte {i}");
            assert_eq!(valid, first.len(), "byte {i}");
        }
    }

    #[test]
    fn insane_length_prefix_is_a_torn_tail() {
        let mut body = encode_frame(&sample());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0xAB; 100]);
        let (got, valid) = walk_frames(&body);
        assert_eq!(got.len(), 1);
        assert_eq!(valid, encode_frame(&sample()).len());
    }
}
