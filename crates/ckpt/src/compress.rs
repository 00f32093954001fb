//! Criticality-tiered compression: the `SCRUTCZB` at-rest container and
//! the lossy lo-tier element codec.
//!
//! The paper's analysis splits state into critical/uncritical (§IV), but
//! until this module the uncritical verdict only ever *dropped* bytes
//! (prune, delta). Compression turns the verdict into smaller stored
//! bytes two independent ways:
//!
//! 1. **At-rest containers** ([`AtRest`]): any stored object (monolithic
//!    data file, shard, delta file) may be wrapped in a `SCRUTCZB`
//!    container holding a byte-exact encoding of the raw object. Two
//!    self-written codecs — run-length ([`AtRest::Rle`]) and bit-plane
//!    transpose + RLE ([`AtRest::BitPlane`], effective on f64 payloads
//!    whose exponent bytes are near-constant) — plus a stored fallback so
//!    the container never expands pathologically under [`AtRest::Auto`].
//!    Decoding is *sniffed*: readers call [`maybe_decompress`] on fetched
//!    bytes, so compressed and uncompressed objects coexist in one store
//!    and old uncompressed files remain readable unchanged.
//! 2. **Lossy lo tiers** ([`LoCodec`]): `VarPlan::Tiered` lo elements are
//!    stored as f32 in format version 1; [`LoCodec::Trunc`] keeps only
//!    the top `keep` bytes of the little-endian f64 instead (sign +
//!    exponent + leading mantissa bits), emitted as format version 2 —
//!    the §IV.C garbage-fill restart-verification is the correctness
//!    gate for every such tier.
//!
//! Container layout (little-endian, like every `scrutiny-ckpt` format):
//!
//! ```text
//! "SCRUTCZB" | version u32 (= 1) | method u8 | raw_len u64 | raw_crc u32
//!            | payload … | crc32 u32
//! ```
//!
//! The trailing CRC-32 is over the **stored** bytes (everything before
//! the trailer): a flipped byte anywhere in the container is detected
//! before any decoding runs and surfaces as the same typed
//! [`CkptError::ChecksumMismatch`] every other format uses. `raw_crc`
//! additionally pins the decoded bytes, so a codec bug cannot silently
//! hand back a wrong image.

use crate::format::{check_envelope, crc32, CkptError};

/// Magic prefix of an at-rest compression container.
pub const CONTAINER_MAGIC: &[u8; 8] = b"SCRUTCZB";
const CONTAINER_VERSION: u32 = 1;
/// magic 8 + version 4 + method 1 + raw_len 8 + raw_crc 4.
const CONTAINER_HEADER: usize = 8 + 4 + 1 + 8 + 4;

const METHOD_STORED: u8 = 0;
const METHOD_RLE: u8 = 1;
const METHOD_BITPLANE: u8 = 2;

/// At-rest byte-exact compression applied to stored objects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AtRest {
    /// No container: objects are stored raw, bit-identical to every
    /// release before compression existed. The default.
    #[default]
    None,
    /// Run-length encode the object.
    Rle,
    /// Transpose the object's 8-byte words into byte planes, then
    /// run-length encode — exponent and sign bytes of f64 arrays
    /// compress far better contiguously.
    BitPlane,
    /// Try every codec (including stored) and keep the smallest payload.
    Auto,
}

/// How `VarPlan::Tiered` lo-tier elements are encoded on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoCodec {
    /// 4-byte IEEE f32 — format version 1, bit-identical to every
    /// release before tier codecs existed. The default.
    #[default]
    F32,
    /// Keep only the top `keep` bytes of the little-endian f64 (sign,
    /// exponent, leading mantissa); the dropped low bytes read back as
    /// zero. Valid `keep` is 2..=7. Emitted as format version 2.
    Trunc {
        /// Stored bytes per lo element (2..=7).
        keep: u8,
    },
}

impl LoCodec {
    /// Stored bytes per lo-tier element.
    pub fn width(self) -> usize {
        match self {
            LoCodec::F32 => 4,
            LoCodec::Trunc { keep } => keep as usize,
        }
    }

    /// Reject unusable truncation widths. `keep = 8` would be a slower
    /// `Full`; `keep < 2` cannot even hold the exponent.
    pub fn validate(self) -> Result<(), CkptError> {
        match self {
            LoCodec::F32 => Ok(()),
            LoCodec::Trunc { keep } if (2..=7).contains(&keep) => Ok(()),
            LoCodec::Trunc { keep } => Err(CkptError::InvalidConfig(format!(
                "lo-tier truncation must keep 2..=7 bytes, not {keep}"
            ))),
        }
    }

    /// The on-disk tag byte (format version 2 header).
    pub(crate) fn tag(self) -> u8 {
        match self {
            LoCodec::F32 => 0,
            LoCodec::Trunc { keep } => keep,
        }
    }

    /// Parse a tag byte back into a codec.
    pub(crate) fn from_tag(tag: u8) -> Result<Self, CkptError> {
        match tag {
            0 => Ok(LoCodec::F32),
            2..=7 => Ok(LoCodec::Trunc { keep: tag }),
            _ => Err(CkptError::Corrupt(format!(
                "unknown lo-tier codec tag {tag}"
            ))),
        }
    }

    /// Append one lo-tier element's stored bytes.
    pub(crate) fn encode_into(self, out: &mut Vec<u8>, v: f64) {
        match self {
            LoCodec::F32 => out.extend_from_slice(&(v as f32).to_le_bytes()),
            LoCodec::Trunc { keep } => {
                let b = v.to_le_bytes();
                out.extend_from_slice(&b[8 - keep as usize..]);
            }
        }
    }

    /// Decode one lo-tier element from exactly [`LoCodec::width`] bytes.
    pub(crate) fn decode(self, bytes: &[u8]) -> f64 {
        match self {
            LoCodec::F32 => f32::from_le_bytes(bytes.try_into().expect("4 bytes")) as f64,
            LoCodec::Trunc { keep } => {
                let mut b = [0u8; 8];
                b[8 - keep as usize..].copy_from_slice(bytes);
                f64::from_le_bytes(b)
            }
        }
    }

    /// The value an element reads back as after an encode/decode round
    /// trip — what restart-verification tolerances are measured against.
    pub fn apply(self, v: f64) -> f64 {
        let mut buf = Vec::with_capacity(8);
        self.encode_into(&mut buf, v);
        self.decode(&buf)
    }
}

/// The full codec selection for one checkpoint stream: at-rest container
/// compression plus the lo-tier element encoding. The default is a
/// passthrough — every byte stream is bit-identical to a build without
/// this module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecConfig {
    /// Container compression for stored objects (data, shards, deltas;
    /// never aux or manifests — they are tiny commit-path metadata).
    pub at_rest: AtRest,
    /// Lo-tier element encoding (format version 2 when not `F32`).
    pub lo: LoCodec,
}

impl CodecConfig {
    /// Reject invalid tier widths.
    pub fn validate(&self) -> Result<(), CkptError> {
        self.lo.validate()
    }

    /// True when this config changes no stored byte.
    pub fn is_passthrough(&self) -> bool {
        self.at_rest == AtRest::None && self.lo == LoCodec::F32
    }
}

/// Does `bytes` start with the `SCRUTCZB` container magic?
///
/// Readers use this to sniff compressed objects; every other
/// `scrutiny-ckpt` file starts with its own distinct magic, so the only
/// theoretical collision is a *mid-file* shard whose first eight payload
/// bytes happen to spell the magic — such a shard would be rejected as
/// corrupt by the container CRC and recovery falls back, never silently
/// misread.
pub fn is_container(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..8] == CONTAINER_MAGIC
}

/// Wrap `raw` in a `SCRUTCZB` container using `method`. Every method,
/// [`AtRest::None`] included, yields a container: `None` a stored one
/// (callers that want no container at all gate on `at_rest != None`), and
/// [`AtRest::Auto`] the smallest of the three encodings — bit-plane if it
/// is strictly smaller than both RLE and the raw bytes, else RLE if it is
/// smaller than the raw bytes, else stored. The bytes are the canonical
/// encoding of `docs/FORMATS.md` §9.
pub fn compress(raw: &[u8], method: AtRest) -> Vec<u8> {
    compress_known_crc(raw, method, crc32(raw))
}

/// [`compress`] for a caller that already holds `raw`'s CRC-32 (the
/// sharded publisher, from the manifest it just sealed), so the raw bytes
/// are not hashed a second time.
pub(crate) fn compress_known_crc(raw: &[u8], method: AtRest, raw_crc: u32) -> Vec<u8> {
    // Room for the worst case, one control byte per 128 literals, so no
    // encoding reallocates.
    let mut out = Vec::with_capacity(CONTAINER_HEADER + raw.len() + raw.len() / MAX_LIT + 8 + 4);
    out.extend_from_slice(CONTAINER_MAGIC);
    out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    out.push(METHOD_STORED); // patched below, once the method is known
    out.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    out.extend_from_slice(&raw_crc.to_le_bytes());
    let tag = match method {
        AtRest::None => {
            out.extend_from_slice(raw);
            METHOD_STORED
        }
        AtRest::Rle => {
            rle_encode(raw, &mut out);
            METHOD_RLE
        }
        AtRest::BitPlane => {
            bitplane_encode(raw, &mut out);
            METHOD_BITPLANE
        }
        AtRest::Auto => {
            // The bit-plane payload goes straight into place; RLE is only
            // counted, and encoded over it if it wins.
            let rle = rle_len(raw);
            bitplane_encode(raw, &mut out);
            let bitplane = out.len() - CONTAINER_HEADER;
            if bitplane < rle && bitplane < raw.len() {
                METHOD_BITPLANE
            } else {
                out.truncate(CONTAINER_HEADER);
                if rle < raw.len() {
                    rle_encode(raw, &mut out);
                    METHOD_RLE
                } else {
                    out.extend_from_slice(raw);
                    METHOD_STORED
                }
            }
        }
    };
    out[12] = tag;
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Unwrap a `SCRUTCZB` container back to the raw object bytes. The
/// trailer CRC (over the stored bytes) is checked before any decoding,
/// and the decoded bytes are checked against the recorded raw CRC — a
/// corrupted container always surfaces as a typed error, never as wrong
/// data.
pub fn decompress(stored: &[u8]) -> Result<Vec<u8>, CkptError> {
    decode(stored).map(|(raw, _)| raw)
}

/// [`decompress`], also returning the CRC-32 of the decoded bytes it
/// verified — so the reader checks a shard against its manifest entry
/// without hashing the shard again.
pub(crate) fn decode(stored: &[u8]) -> Result<(Vec<u8>, u32), CkptError> {
    let what = "compression container";
    let mut c = check_envelope(stored, CONTAINER_MAGIC, CONTAINER_HEADER + 4, what)?;
    c.version(&[CONTAINER_VERSION], what)?;
    let method = c.u8()?;
    let raw_len = c.u64()? as usize;
    let raw_crc = c.u32()?;
    let payload = c.take(c.remaining())?;
    // A run of `MAX_RUN` bytes costs two, so nothing decodes to more than
    // that ratio of its payload; a longer claim must not size a buffer.
    if raw_len > payload.len().saturating_mul(MAX_RUN / 2) {
        return Err(CkptError::Corrupt(format!(
            "container declares {raw_len} raw bytes, more than its {}-byte payload can decode to",
            payload.len()
        )));
    }
    let raw = match method {
        METHOD_STORED => {
            if payload.len() != raw_len {
                return Err(CkptError::Corrupt(
                    "stored container payload length mismatch".into(),
                ));
            }
            payload.to_vec()
        }
        METHOD_RLE => {
            let mut raw = vec![0u8; raw_len];
            if rle_decode(payload, &mut raw)? != payload.len() {
                return Err(CkptError::Corrupt(
                    "rle container has trailing bytes".into(),
                ));
            }
            raw
        }
        METHOD_BITPLANE => bitplane_decode(payload, raw_len)?,
        other => {
            return Err(CkptError::Corrupt(format!(
                "unknown compression method {other}"
            )))
        }
    };
    let actual = crc32(&raw);
    if raw_crc != actual {
        return Err(CkptError::ChecksumMismatch {
            expected: raw_crc,
            actual,
        });
    }
    Ok((raw, actual))
}

/// Decode `bytes` if (and only if) they are a `SCRUTCZB` container;
/// non-container bytes pass through untouched.
pub fn maybe_decompress(bytes: Vec<u8>) -> Result<Vec<u8>, CkptError> {
    if is_container(&bytes) {
        decompress(&bytes)
    } else {
        Ok(bytes)
    }
}

// ---------------------------------------------------------------------
// Run-length codec.
//
// Control byte `c < 128`: the next `c + 1` bytes are literals.
// Control byte `c ≥ 128`: the next byte repeats `c - 125` times
// (runs of 3..=130). Runs shorter than 3 are folded into literals, so
// worst-case expansion is 1 byte per 128 (incompressible input).
//
// The writer is greedy (FORMATS §9): where three equal bytes begin, a run
// group takes as many as there are, up to 130; anywhere else a literal
// group runs to the next place three equal bytes begin, up to 128 bytes.
// Both scans read 8 bytes at a time.
// ---------------------------------------------------------------------

const MAX_RUN: usize = 130;
const MAX_LIT: usize = 128;

/// The low seven bits of every byte.
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// The 8 bytes at `at`, the first in the low byte.
fn load(src: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(src[at..at + 8].try_into().expect("an 8-byte slice"))
}

/// Do three equal bytes begin at `i`?
fn triple_at(src: &[u8], i: usize) -> bool {
    i + 2 < src.len() && src[i] == src[i + 1] && src[i] == src[i + 2]
}

/// How many bytes equal to `src[i]` begin at `i`, up to `cap`: the first
/// non-zero byte of each word XOR the byte broadcast ends the run.
fn run_len(src: &[u8], i: usize, cap: usize) -> usize {
    let end = (i + cap).min(src.len());
    let b = src[i];
    let splat = u64::from_le_bytes([b; 8]);
    let mut j = i + 1;
    while j + 8 <= end {
        let diff = load(src, j) ^ splat;
        if diff != 0 {
            return j + (diff.trailing_zeros() / 8) as usize - i;
        }
        j += 8;
    }
    while j < end && src[j] == b {
        j += 1;
    }
    j - i
}

/// The first `p ≥ from` where three equal bytes begin, else `src.len()`.
/// Per word `w` at `p`, byte `k` of `(w ^ w₊₁) | (w ^ w₊₂)` is zero
/// exactly when a triple begins at `p + k`; the exact zero-byte mask (no
/// borrow between bytes) finds the lowest.
fn next_triple(src: &[u8], from: usize) -> usize {
    let mut p = from;
    while p + 10 <= src.len() {
        let w = load(src, p);
        let v = (w ^ load(src, p + 1)) | (w ^ load(src, p + 2));
        let zero = !(((v & LOW7) + LOW7) | v | LOW7);
        if zero != 0 {
            return p + (zero.trailing_zeros() / 8) as usize;
        }
        p += 8;
    }
    while p < src.len() && !triple_at(src, p) {
        p += 1;
    }
    p
}

/// Walk `src` under the greedy rule, calling `group(start, len, is_run)`
/// for each run group and for each literal *stretch* — the bytes up to
/// the next triple, of any length, which are the literal groups cut
/// every 128 bytes.
fn rle_groups(src: &[u8], mut group: impl FnMut(usize, usize, bool)) {
    let mut i = 0;
    while i < src.len() {
        if triple_at(src, i) {
            let n = run_len(src, i, MAX_RUN);
            group(i, n, true);
            i += n;
        } else {
            let end = next_triple(src, i + 1);
            group(i, end - i, false);
            i = end;
        }
    }
}

/// The length of `src`'s RLE encoding, without writing it.
fn rle_len(src: &[u8]) -> usize {
    let mut len = 0;
    rle_groups(src, |_, n, run| {
        len += if run { 2 } else { n + n.div_ceil(MAX_LIT) }
    });
    len
}

/// Append `src`'s RLE encoding to `out`.
fn rle_encode(src: &[u8], out: &mut Vec<u8>) {
    rle_groups(src, |at, n, run| {
        if run {
            out.extend_from_slice(&[(125 + n) as u8, src[at]]);
        } else {
            for lit in src[at..at + n].chunks(MAX_LIT) {
                out.push((lit.len() - 1) as u8);
                out.extend_from_slice(lit);
            }
        }
    });
}

/// Decode exactly `out.len()` bytes into `out`, returning how many input
/// bytes were consumed. Malformed streams (truncation, overshoot) are
/// typed corruption, not panics.
fn rle_decode(src: &[u8], out: &mut [u8]) -> Result<usize, CkptError> {
    let (mut pos, mut o) = (0, 0);
    while o < out.len() {
        let Some(&c) = src.get(pos) else {
            return Err(CkptError::Corrupt("rle stream truncated".into()));
        };
        pos += 1;
        if c < 128 {
            let n = c as usize + 1;
            let (Some(lit), Some(dst)) = (src.get(pos..pos + n), out.get_mut(o..o + n)) else {
                return Err(CkptError::Corrupt("rle literal overruns".into()));
            };
            dst.copy_from_slice(lit);
            pos += n;
            o += n;
        } else {
            let n = c as usize - 125;
            let Some(&b) = src.get(pos) else {
                return Err(CkptError::Corrupt("rle run truncated".into()));
            };
            pos += 1;
            let Some(dst) = out.get_mut(o..o + n) else {
                return Err(CkptError::Corrupt("rle run overruns".into()));
            };
            dst.fill(b);
            o += n;
        }
    }
    Ok(pos)
}

// ---------------------------------------------------------------------
// Bit-plane transpose: regroup the k-th byte of every 8-byte word into
// contiguous planes (plane 7 holds f64 sign+exponent bytes, which are
// near-constant across an array), then RLE the planes. Bytes past the
// last full word are appended raw after the RLE stream. Eight words at
// a time are one 8×8 byte block, transposed in registers.
// ---------------------------------------------------------------------

/// Transpose the 8×8 byte matrix whose row `i` is `r[i]` (byte `k` of
/// row `i` in bits `8k..8k + 8`): swap the off-diagonal 4×4 blocks, then
/// the 2×2 blocks inside each, then the single bytes — three masked
/// swap rounds. Its own inverse.
fn transpose8(r: &mut [u64; 8]) {
    for (step, shift, mask) in [
        (4, 32, 0x0000_0000_FFFF_FFFF_u64),
        (2, 16, 0x0000_FFFF_0000_FFFF),
        (1, 8, 0x00FF_00FF_00FF_00FF),
    ] {
        for i in (0..8).filter(|i| i & step == 0) {
            let t = ((r[i] >> shift) ^ r[i + step]) & mask;
            r[i] ^= t << shift;
            r[i + step] ^= t;
        }
    }
}

/// Append the bit-plane payload of `src` to `out`.
fn bitplane_encode(src: &[u8], out: &mut Vec<u8>) {
    let words = src.len() / 8;
    let mut planes = vec![0u8; words * 8];
    let blocks = src.chunks_exact(64);
    let done = blocks.len() * 8;
    for (b, block) in blocks.enumerate() {
        let mut r = [0u64; 8];
        for (i, row) in r.iter_mut().enumerate() {
            *row = load(block, 8 * i);
        }
        transpose8(&mut r);
        for (k, plane) in r.iter().enumerate() {
            planes[k * words + 8 * b..][..8].copy_from_slice(&plane.to_le_bytes());
        }
    }
    for j in done..words {
        for k in 0..8 {
            planes[k * words + j] = src[8 * j + k];
        }
    }
    rle_encode(&planes, out);
    out.extend_from_slice(&src[words * 8..]);
}

/// Decode a bit-plane payload back to its `raw_len` raw bytes.
fn bitplane_decode(payload: &[u8], raw_len: usize) -> Result<Vec<u8>, CkptError> {
    let words = raw_len / 8;
    let mut planes = vec![0u8; words * 8];
    let consumed = rle_decode(payload, &mut planes)?;
    let tail = &payload[consumed..];
    if tail.len() != raw_len % 8 {
        return Err(CkptError::Corrupt(
            "bit-plane container tail length mismatch".into(),
        ));
    }
    let mut out = vec![0u8; raw_len];
    let blocks = out.chunks_exact_mut(64);
    let done = blocks.len() * 8;
    for (b, block) in blocks.enumerate() {
        let mut r = [0u64; 8];
        for (k, row) in r.iter_mut().enumerate() {
            *row = load(&planes, k * words + 8 * b);
        }
        transpose8(&mut r);
        for (word, row) in block.chunks_exact_mut(8).zip(r) {
            word.copy_from_slice(&row.to_le_bytes());
        }
    }
    for j in done..words {
        for k in 0..8 {
            out[8 * j + k] = planes[k * words + j];
        }
    }
    out[words * 8..].copy_from_slice(tail);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_bytes(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn rle_roundtrips_edge_cases() {
        for src in [
            Vec::new(),
            vec![7u8],
            vec![0u8; 5000],                 // one long run, many chunks
            (0..=255u8).collect::<Vec<_>>(), // pure literals
            lcg_bytes(4097, 42),             // incompressible
            [vec![1u8; 2], vec![2u8; 300], vec![3u8, 4, 3, 4]].concat(),
        ] {
            let mut enc = Vec::new();
            rle_encode(&src, &mut enc);
            assert_eq!(rle_len(&src), enc.len());
            let mut dec = vec![0u8; src.len()];
            assert_eq!(rle_decode(&enc, &mut dec).unwrap(), enc.len());
            assert_eq!(dec, src);
        }
    }

    #[test]
    fn transpose8_is_the_byte_matrix_transpose_and_its_own_inverse() {
        let rows: [u64; 8] = std::array::from_fn(|i| {
            u64::from_le_bytes(std::array::from_fn(|k| (16 * i + k) as u8))
        });
        let mut t = rows;
        transpose8(&mut t);
        for (k, col) in t.iter().enumerate() {
            assert_eq!(
                col.to_le_bytes(),
                std::array::from_fn(|i| (16 * i + k) as u8)
            );
        }
        transpose8(&mut t);
        assert_eq!(t, rows);
    }

    #[test]
    fn bitplane_roundtrips_and_beats_rle_on_smooth_f64() {
        let mut raw = Vec::new();
        for i in 0..2000 {
            raw.extend_from_slice(&(1.0 + (i as f64) * 1e-9).to_le_bytes());
        }
        raw.extend_from_slice(&[9, 9, 9]); // non-word tail
        let mut bp = Vec::new();
        bitplane_encode(&raw, &mut bp);
        assert_eq!(bitplane_decode(&bp, raw.len()).unwrap(), raw);
        let rle = rle_len(&raw);
        assert!(
            bp.len() < rle && bp.len() < raw.len() / 2,
            "bitplane {} vs rle {} vs raw {}",
            bp.len(),
            rle,
            raw.len()
        );
    }

    #[test]
    fn container_roundtrips_every_method() {
        let raw = {
            let mut v = vec![0u8; 1000];
            v.extend(lcg_bytes(777, 9));
            v
        };
        for method in [AtRest::Rle, AtRest::BitPlane, AtRest::Auto] {
            let stored = compress(&raw, method);
            assert!(is_container(&stored));
            assert_eq!(decompress(&stored).unwrap(), raw, "{method:?}");
            assert_eq!(maybe_decompress(stored).unwrap(), raw);
        }
        // Auto never expands beyond the fixed container overhead.
        let hard = lcg_bytes(512, 3);
        let stored = compress(&hard, AtRest::Auto);
        assert!(stored.len() <= hard.len() + CONTAINER_HEADER + 4);
        assert_eq!(decompress(&stored).unwrap(), hard);
    }

    #[test]
    fn non_container_bytes_pass_through() {
        let raw = b"SCRUTCKP pretend data file".to_vec();
        assert!(!is_container(&raw));
        assert_eq!(maybe_decompress(raw.clone()).unwrap(), raw);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let raw = lcg_bytes(300, 11);
        let stored = compress(&raw, AtRest::Auto);
        for i in 0..stored.len() {
            let mut bad = stored.clone();
            bad[i] ^= 0x40;
            match decompress(&bad) {
                Err(_) => {}
                Ok(got) => panic!("flip at {i} went undetected (len {})", got.len()),
            }
        }
        // Truncation too.
        assert!(decompress(&stored[..stored.len() - 3]).is_err());
        assert!(decompress(&stored[..10]).is_err());
    }

    #[test]
    fn lo_codec_widths_and_roundtrip_error_bounds() {
        assert_eq!(LoCodec::F32.width(), 4);
        assert_eq!(LoCodec::Trunc { keep: 3 }.width(), 3);
        assert!(LoCodec::Trunc { keep: 1 }.validate().is_err());
        assert!(LoCodec::Trunc { keep: 8 }.validate().is_err());
        for keep in 2..=7u8 {
            let lo = LoCodec::Trunc { keep };
            lo.validate().unwrap();
            // Truncation drops the low 8*(8-keep) of the 52 mantissa
            // bits, so the relative error is below 2^(8*(8-keep) - 52).
            let tol = 2f64.powi(8 * (8 - keep as i32) - 52);
            for v in [1.0, -3.5, 1234.5678, 1e-12, -2.7e30] {
                let got = lo.apply(v);
                assert!(
                    (got - v).abs() < tol * v.abs(),
                    "keep={keep} v={v} got={got}"
                );
                // Truncation moves the value toward zero, never past it.
                assert!(got.abs() <= v.abs() && got.signum() == v.signum());
            }
            assert_eq!(lo.apply(0.0), 0.0);
            assert_eq!(LoCodec::from_tag(lo.tag()).unwrap(), lo);
        }
        assert_eq!(LoCodec::from_tag(0).unwrap(), LoCodec::F32);
        assert!(LoCodec::from_tag(1).is_err());
        assert!(LoCodec::from_tag(9).is_err());
        // F32 round trip matches a plain cast.
        assert_eq!(LoCodec::F32.apply(0.1), 0.1f32 as f64);
    }

    #[test]
    fn codec_config_default_is_passthrough() {
        let cfg = CodecConfig::default();
        assert!(cfg.is_passthrough());
        cfg.validate().unwrap();
        let on = CodecConfig {
            at_rest: AtRest::Auto,
            lo: LoCodec::Trunc { keep: 3 },
        };
        assert!(!on.is_passthrough());
        on.validate().unwrap();
    }
}
