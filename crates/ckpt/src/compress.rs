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

/// Wrap `raw` in a `SCRUTCZB` container using `method`.
/// [`AtRest::None`] is rejected by returning the bytes unmodified is
/// *not* done here — callers gate on `at_rest != None` and this function
/// always produces a container (with [`AtRest::Auto`] falling back to a
/// stored payload when neither codec helps).
pub fn compress(raw: &[u8], method: AtRest) -> Vec<u8> {
    let (tag, payload) = match method {
        AtRest::None => (METHOD_STORED, raw.to_vec()),
        AtRest::Rle => (METHOD_RLE, rle_compress(raw)),
        AtRest::BitPlane => (METHOD_BITPLANE, bitplane_compress(raw)),
        AtRest::Auto => {
            let rle = rle_compress(raw);
            let bp = bitplane_compress(raw);
            if bp.len() < rle.len() && bp.len() < raw.len() {
                (METHOD_BITPLANE, bp)
            } else if rle.len() < raw.len() {
                (METHOD_RLE, rle)
            } else {
                (METHOD_STORED, raw.to_vec())
            }
        }
    };
    let mut out = Vec::with_capacity(CONTAINER_HEADER + payload.len() + 4);
    out.extend_from_slice(CONTAINER_MAGIC);
    out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(raw).to_le_bytes());
    out.extend_from_slice(&payload);
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
    let body = check_envelope(
        stored,
        CONTAINER_MAGIC,
        CONTAINER_HEADER + 4,
        "compression container",
    )?;
    let version = u32::from_le_bytes(stored[8..12].try_into().unwrap());
    if version != CONTAINER_VERSION {
        return Err(CkptError::Corrupt(format!(
            "unsupported compression container version {version}"
        )));
    }
    let method = stored[12];
    let raw_len = u64::from_le_bytes(stored[13..21].try_into().unwrap()) as usize;
    let raw_crc = u32::from_le_bytes(stored[21..25].try_into().unwrap());
    let payload = &body[CONTAINER_HEADER..];
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
            let (raw, consumed) = rle_decompress(payload, raw_len)?;
            if consumed != payload.len() {
                return Err(CkptError::Corrupt(
                    "rle container has trailing bytes".into(),
                ));
            }
            raw
        }
        METHOD_BITPLANE => bitplane_decompress(payload, raw_len)?,
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
    Ok(raw)
}

/// Decode `bytes` if (and only if) they are a `SCRUTCZB` container;
/// non-container bytes pass through untouched. The one call every
/// read path makes on fetched objects.
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
// ---------------------------------------------------------------------

const MAX_RUN: usize = 130;
const MAX_LIT: usize = 128;

fn run_len_at(src: &[u8], i: usize, cap: usize) -> usize {
    let b = src[i];
    let mut n = 1;
    while n < cap && i + n < src.len() && src[i + n] == b {
        n += 1;
    }
    n
}

fn rle_compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 4 + 16);
    let mut i = 0;
    while i < src.len() {
        let run = run_len_at(src, i, MAX_RUN);
        if run >= 3 {
            out.push((125 + run) as u8);
            out.push(src[i]);
            i += run;
            continue;
        }
        // Literal block: advance until a run of ≥ 3 starts or the block
        // fills.
        let start = i;
        i += run;
        while i < src.len() && i - start < MAX_LIT {
            let r = run_len_at(src, i, 3);
            if r >= 3 {
                break;
            }
            i += r;
        }
        let lit = (i - start).min(MAX_LIT);
        i = start + lit;
        out.push((lit - 1) as u8);
        out.extend_from_slice(&src[start..start + lit]);
    }
    out
}

/// Decode exactly `expected_len` bytes, returning them plus how many
/// input bytes were consumed. Malformed streams (truncation, overshoot)
/// are typed corruption, not panics.
fn rle_decompress(src: &[u8], expected_len: usize) -> Result<(Vec<u8>, usize), CkptError> {
    let mut out = Vec::with_capacity(expected_len);
    let mut pos = 0;
    while out.len() < expected_len {
        let Some(&c) = src.get(pos) else {
            return Err(CkptError::Corrupt("rle stream truncated".into()));
        };
        pos += 1;
        if c < 128 {
            let n = c as usize + 1;
            if pos + n > src.len() || out.len() + n > expected_len {
                return Err(CkptError::Corrupt("rle literal overruns".into()));
            }
            out.extend_from_slice(&src[pos..pos + n]);
            pos += n;
        } else {
            let n = c as usize - 125;
            let Some(&b) = src.get(pos) else {
                return Err(CkptError::Corrupt("rle run truncated".into()));
            };
            pos += 1;
            if out.len() + n > expected_len {
                return Err(CkptError::Corrupt("rle run overruns".into()));
            }
            out.resize(out.len() + n, b);
        }
    }
    Ok((out, pos))
}

// ---------------------------------------------------------------------
// Bit-plane transpose: regroup the k-th byte of every 8-byte word into
// contiguous planes (plane 7 holds f64 sign+exponent bytes, which are
// near-constant across an array), then RLE the planes. Bytes past the
// last full word are appended raw after the RLE stream.
// ---------------------------------------------------------------------

fn bitplane_compress(src: &[u8]) -> Vec<u8> {
    let words = src.len() / 8;
    let mut planes = vec![0u8; words * 8];
    for (j, w) in src.chunks_exact(8).enumerate() {
        for k in 0..8 {
            planes[k * words + j] = w[k];
        }
    }
    let mut out = rle_compress(&planes);
    out.extend_from_slice(&src[words * 8..]);
    out
}

fn bitplane_decompress(payload: &[u8], raw_len: usize) -> Result<Vec<u8>, CkptError> {
    let words = raw_len / 8;
    let tail = raw_len % 8;
    let (planes, consumed) = rle_decompress(payload, words * 8)?;
    if payload.len() - consumed != tail {
        return Err(CkptError::Corrupt(
            "bit-plane container tail length mismatch".into(),
        ));
    }
    let mut out = vec![0u8; raw_len];
    for j in 0..words {
        for k in 0..8 {
            out[j * 8 + k] = planes[k * words + j];
        }
    }
    out[words * 8..].copy_from_slice(&payload[consumed..]);
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
            let enc = rle_compress(&src);
            let (dec, consumed) = rle_decompress(&enc, src.len()).unwrap();
            assert_eq!(dec, src);
            assert_eq!(consumed, enc.len());
        }
    }

    #[test]
    fn bitplane_roundtrips_and_beats_rle_on_smooth_f64() {
        let mut raw = Vec::new();
        for i in 0..2000 {
            raw.extend_from_slice(&(1.0 + (i as f64) * 1e-9).to_le_bytes());
        }
        raw.extend_from_slice(&[9, 9, 9]); // non-word tail
        let bp = bitplane_compress(&raw);
        assert_eq!(bitplane_decompress(&bp, raw.len()).unwrap(), raw);
        let rle = rle_compress(&raw);
        assert!(
            bp.len() < rle.len() && bp.len() < raw.len() / 2,
            "bitplane {} vs rle {} vs raw {}",
            bp.len(),
            rle.len(),
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
