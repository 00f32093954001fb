//! Checkpoint format primitives: typed payloads, plans, errors, CRC32,
//! the checked field decoder every reader shares ([`Cursor`]), storage
//! accounting and restore fill policies.

use crate::compress::LoCodec;
use crate::Regions;
use std::fmt;
use std::slice::ChunksExact;

/// Element type of a checkpoint variable (Table I's data structures).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DType {
    /// IEEE-754 double — NPB's `double` arrays and scalars.
    F64,
    /// NPB's custom `dcomplex` (two doubles). One *element* = one complex.
    C128,
    /// Integer control state (loop indices, sort keys).
    I64,
}

impl DType {
    /// Stored size of one element in bytes.
    pub fn elem_bytes(self) -> usize {
        match self {
            DType::F64 => 8,
            DType::C128 => 16,
            DType::I64 => 8,
        }
    }

    /// Wire tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            DType::F64 => 0,
            DType::C128 => 1,
            DType::I64 => 2,
        }
    }

    pub(crate) fn from_tag(t: u8) -> Result<Self, CkptError> {
        match t {
            0 => Ok(DType::F64),
            1 => Ok(DType::C128),
            2 => Ok(DType::I64),
            _ => Err(CkptError::Corrupt(format!("unknown dtype tag {t}"))),
        }
    }
}

/// Typed payload of one checkpoint variable.
#[derive(Clone, Debug, PartialEq)]
pub enum VarData {
    /// Double-precision array (or scalar of length 1).
    F64(Vec<f64>),
    /// Complex array: `(re, im)` pairs.
    C128(Vec<(f64, f64)>),
    /// Integer array/scalar.
    I64(Vec<i64>),
}

impl VarData {
    /// Element count (complex counts as one element, as in the paper).
    pub fn len(&self) -> usize {
        match self {
            VarData::F64(v) => v.len(),
            VarData::C128(v) => v.len(),
            VarData::I64(v) => v.len(),
        }
    }

    /// True for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type.
    pub fn dtype(&self) -> DType {
        match self {
            VarData::F64(_) => DType::F64,
            VarData::C128(_) => DType::C128,
            VarData::I64(_) => DType::I64,
        }
    }

    /// Full (unpruned) payload size in bytes.
    pub fn full_bytes(&self) -> usize {
        self.len() * self.dtype().elem_bytes()
    }
}

/// One named checkpoint variable.
#[derive(Clone, Debug, PartialEq)]
pub struct VarRecord {
    /// Variable name (matching the application's checkpoint spec).
    pub name: String,
    /// Payload.
    pub data: VarData,
}

impl VarRecord {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, data: VarData) -> Self {
        VarRecord {
            name: name.into(),
            data,
        }
    }
}

/// Per-variable storage decision produced by the planner.
#[derive(Clone, Debug, PartialEq)]
pub enum VarPlan {
    /// Store every element (the baseline the paper compares against).
    Full,
    /// Store only the critical regions; the auxiliary file records them.
    Pruned(Regions),
    /// Precision-tiered storage (§VII future work): `hi` regions keep f64,
    /// `lo` regions are downcast to f32, everything else is dropped.
    /// Only valid for [`DType::F64`] variables.
    Tiered {
        /// Full-precision regions (large gradient magnitude).
        hi: Regions,
        /// Reduced-precision regions (small but non-zero gradient).
        lo: Regions,
    },
}

impl VarPlan {
    /// Number of elements this plan persists.
    pub fn stored_elems(&self, total: u64) -> u64 {
        match self {
            VarPlan::Full => total,
            VarPlan::Pruned(r) => r.covered(),
            VarPlan::Tiered { hi, lo } => hi.covered() + lo.covered(),
        }
    }
}

/// Byte-exact storage accounting for one written checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageBreakdown {
    /// Element payload bytes in the data file.
    pub payload_bytes: usize,
    /// Encoded run bytes of the auxiliary (region table) file: each
    /// critical run's LEB128 gap and length. Its names, modes and run
    /// counts are header.
    pub aux_bytes: usize,
    /// Headers, names, lengths, CRCs in both files.
    pub header_bytes: usize,
}

impl StorageBreakdown {
    /// Everything on disk for this checkpoint.
    pub fn total(&self) -> usize {
        self.payload_bytes + self.aux_bytes + self.header_bytes
    }

    /// Payload-only kilobytes (KiB), the unit Table III reports.
    pub fn payload_kib(&self) -> f64 {
        self.payload_bytes as f64 / 1024.0
    }

    /// Total kilobytes including the auxiliary file.
    pub fn total_kib(&self) -> f64 {
        self.total() as f64 / 1024.0
    }
}

/// How restore fills elements the checkpoint did not store.
///
/// The paper's §IV.C argument: uncritical elements "should not impact the
/// computation correctness even if their values are altered by system
/// failures" — so tests fill them with garbage and require the run to
/// still verify.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FillPolicy {
    /// Zero-fill (what a fresh allocation would give).
    Zero,
    /// A recognizable poison value; makes accidental reads obvious.
    Sentinel(f64),
    /// Deterministic pseudo-random garbage from a seed.
    Garbage(u64),
}

impl FillPolicy {
    /// Fill value for element `i`.
    pub fn value(self, i: usize) -> f64 {
        match self {
            FillPolicy::Zero => 0.0,
            FillPolicy::Sentinel(v) => v,
            FillPolicy::Garbage(seed) => {
                // splitmix64 → uniform in [-1e6, 1e6): garbage that stays
                // finite so IEEE traps don't mask a criticality error.
                let mut z = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z as f64 / u64::MAX as f64 - 0.5) * 2e6
            }
        }
    }
}

/// Errors from the checkpoint reader/writer.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid or truncated file.
    Corrupt(String),
    /// CRC mismatch — the file was damaged after being written.
    ChecksumMismatch {
        /// CRC recorded in the file.
        expected: u32,
        /// CRC of the bytes actually read.
        actual: u32,
    },
    /// A requested variable is not in the checkpoint.
    MissingVar(String),
    /// Plan/payload disagreement (e.g. tiered plan on a complex variable).
    PlanMismatch(String),
    /// The caller's configuration is unusable (e.g. a store asked to
    /// retain zero checkpoints).
    InvalidConfig(String),
    /// A storage service refused the operation by policy — quota,
    /// backpressure, or drain — rather than failure. The string starts
    /// with a stable lower-snake reason code (e.g. `version_quota: ...`;
    /// see `docs/PROTOCOL.md`). The stored bytes are *not* suspect:
    /// recovery treats this as environmental, never as corruption.
    Rejected(String),
    /// A recovery walk ([`crate::recovery::recover_latest`]) examined
    /// every candidate checkpoint and none fully verified; the report
    /// names each rejected version and why.
    Unrecoverable(Box<crate::recovery::RecoveryReport>),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CkptError::ChecksumMismatch { expected, actual } => {
                write!(f, "checkpoint CRC mismatch: file says {expected:#010x}, data hashes to {actual:#010x}")
            }
            CkptError::MissingVar(n) => write!(f, "variable {n:?} not present in checkpoint"),
            CkptError::PlanMismatch(m) => write!(f, "plan mismatch: {m}"),
            CkptError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            CkptError::Rejected(m) => write!(f, "rejected by storage service: {m}"),
            CkptError::Unrecoverable(report) => write!(
                f,
                "no recoverable checkpoint: scanned {} version(s), rejected [{}]",
                report.scanned,
                report
                    .rejected
                    .iter()
                    .map(|r| format!("{}: {}", r.version, r.error))
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// The reflected CRC-32/ISO-HDLC polynomial. In the reflected form a `u32`
/// is a polynomial of degree < 32 with bit 31 the coefficient of x⁰.
const POLY: u32 = 0xEDB88320;

/// The 8 slicing tables. `t[0]` is the classic byte-at-a-time table;
/// `t[j][b]` is the CRC of byte `b` followed by `j` zero bytes, so eight
/// input bytes can be folded per iteration with independent lookups.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xFF) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// `a·b mod P` over GF(2), both operands and the result reflected.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 == 1 { POLY ^ (b >> 1) } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `t[k]` = x^(8·2^k) mod P, by repeated squaring of x⁸ (reflected, x⁸ is
/// bit 23).
const fn zero_run_powers() -> [u32; 64] {
    let mut t = [0u32; 64];
    let mut p = 1u32 << 23;
    let mut k = 0;
    while k < 64 {
        t[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    t
}

const ZERO_RUN_POWERS: [u32; 64] = zero_run_powers();

/// x^(8·n) mod P: multiplying a CRC register by it is feeding it `n` zero
/// bytes, since a register's update is GF(2)-linear in the register.
const fn zero_run_op(mut n: u64) -> u32 {
    let mut op = 1u32 << 31;
    let mut k = 0;
    while n != 0 {
        if n & 1 == 1 {
            op = mul_mod_p(ZERO_RUN_POWERS[k], op);
        }
        n >>= 1;
        k += 1;
    }
    op
}

/// Bytes per lane of [`Crc32::update`]'s block.
const LANE: usize = 4096;
/// Independent slice-by-8 chains per block. Measured on one core of a
/// shared x86-64 Xeon over 559–620 KB buffers (best of 7 × 200 passes
/// per run, runs alternated): one chain 1.1–1.4 GB/s, three 4 KiB lanes
/// 2.5–3.7 GB/s, four 3.1–4.3 GB/s. Three keep most of the gain while the
/// lane path starts at 12 KiB rather than 16.
const LANES: usize = 3;
/// The shortest input that takes the lane path.
const BLOCK: usize = LANES * LANE;

/// The register operator "feed [`LANE`] zero bytes", split by input byte:
/// `t[j][b]` is `b << 8j` advanced over one lane of zeros. Built from
/// x^(8·LANE) mod P by one multiplication per entry — stepping each entry
/// through the zeros would overrun the const-eval budget.
const fn lane_fold_tables() -> [[u32; 256]; 4] {
    let op = zero_run_op(LANE as u64);
    let mut t = [[0u32; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut b = 0;
        while b < 256 {
            t[j][b] = mul_mod_p(op, (b as u32) << (8 * j));
            b += 1;
        }
        j += 1;
    }
    t
}

const LANE_FOLD: [[u32; 256]; 4] = lane_fold_tables();

/// Advance register `c` over [`LANE`] zero bytes.
fn skip_lane(c: u32) -> u32 {
    LANE_FOLD[0][(c & 0xFF) as usize]
        ^ LANE_FOLD[1][((c >> 8) & 0xFF) as usize]
        ^ LANE_FOLD[2][((c >> 16) & 0xFF) as usize]
        ^ LANE_FOLD[3][(c >> 24) as usize]
}

/// One slice-by-8 step: fold eight input bytes into register `c` with
/// eight independent table lookups.
#[inline(always)]
fn step8(c: u32, chunk: &[u8; 8]) -> u32 {
    let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
    let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    CRC_TABLES[7][(lo & 0xFF) as usize]
        ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[4][(lo >> 24) as usize]
        ^ CRC_TABLES[3][(hi & 0xFF) as usize]
        ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(hi >> 24) as usize]
}

/// Slice-by-8 over `bytes`, then byte at a time over the last `len % 8`.
fn slice8(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        c = step8(c, chunk.try_into().expect("chunks_exact(8) yields 8 bytes"));
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Streaming IEEE CRC-32 (reflected, poly 0xEDB88320 — same polynomial as
/// zip/png). Lets the sharded writer checksum a data file that exists only
/// as separately produced segments, without concatenating them first.
///
/// [`Crc32::update`] hashes every whole 12 KiB block of its input as three
/// 4 KiB lanes, three independent slice-by-8 chains the CPU runs side by
/// side, and folds them with the operator "advance over 4 096 zero bytes";
/// a shorter input, and the tail of any input, is plain slice-by-8. A
/// byte-at-a-time loop is the oracle of this module's tests, which prove
/// the two paths identical to it at every length and split, on and off
/// block boundaries. Every CRC in the workspace — writer trailers, shard
/// seals, delta envelopes, restore verification, the compression
/// container — streams through this one implementation.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed `bytes` into the running checksum: three-lane blocks, then
    /// slice-by-8 over what is left.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            // Lane 0 continues the register; the others start from zero
            // and are shifted into place by the fold, since feeding `a‖b`
            // to `c` is feeding `a` to `c`, advanced over |b| zeros, XOR
            // `b` fed to zero.
            let mut lanes = [0u32; LANES];
            lanes[0] = c;
            let block: &[u8; BLOCK] = block.try_into().expect("a whole block");
            for i in 0..LANE / 8 {
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let at = l * LANE + 8 * i;
                    let chunk = block[at..at + 8].try_into().expect("an 8-byte range");
                    *lane = step8(*lane, chunk);
                }
            }
            c = lanes[1..].iter().fold(lanes[0], |c, &l| skip_lane(c) ^ l);
        }
        self.state = slice8(c, blocks.remainder());
    }

    /// Final CRC value.
    pub fn finish(self) -> u32 {
        !self.state
    }

    /// The CRC of `a‖b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
    /// `len_b = b.len()`, without touching a byte of either: `crc_a`
    /// advanced over `len_b` zero bytes, XOR `crc_b` (the init and final
    /// complements cancel).
    pub(crate) fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
        mul_mod_p(zero_run_op(len_b), crc_a) ^ crc_b
    }
}

/// IEEE CRC-32 of a complete buffer (one-shot form of [`Crc32`]).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The one decoder of little-endian fields: every checkpoint format and
/// every `scrutinyd` frame is read through it. Each read is checked
/// against the bytes left, and a declared length or count is admitted
/// ([`Cursor::take`], [`Cursor::count`]) before it sizes a buffer or a
/// loop, so hostile bytes are a [`CkptError::Corrupt`] — the cursor's
/// one error — and never a panic or an allocation they do not back.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// `b`, exactly `N` bytes long, as an array.
fn word<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut w = [0; N];
    w.copy_from_slice(b);
    w
}

impl<'a> Cursor<'a> {
    /// A cursor at the first byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }
    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// The next `n` bytes. `n` is compared with what is left, never added
    /// to the position first, so no `n` can overflow.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if n > self.remaining() {
            return Err(CkptError::Corrupt(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..][..n];
        self.pos += n;
        Ok(s)
    }
    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }
    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(word(self.take(2)?)))
    }
    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(word(self.take(4)?)))
    }
    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(word(self.take(8)?)))
    }
    /// An unsigned LEB128 integer in its one canonical form: seven bits
    /// per byte, low group first, the high bit set on every byte but the
    /// last. At most ten bytes, no value past `u64::MAX` (a tenth byte
    /// above 1), and no trailing zero group (`0x80 0x00` for 0) — so each
    /// value has exactly one spelling.
    pub(crate) fn leb128(&mut self) -> Result<u64, CkptError> {
        let at = self.pos;
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                let why = match (i, b) {
                    (9, 2..) => "overflows 64 bits",
                    (1.., 0) => "ends in a zero group",
                    _ => return Ok(v),
                };
                return Err(CkptError::Corrupt(format!("LEB128 at offset {at} {why}")));
            }
        }
        Err(CkptError::Corrupt(format!(
            "LEB128 at offset {at} is longer than 10 bytes"
        )))
    }
    /// A format version (`u32`), refused unless it is one of `known`:
    /// FORMATS §1, "readers must reject versions they do not know".
    pub(crate) fn version(&mut self, known: &[u32], what: &str) -> Result<u32, CkptError> {
        let v = self.u32()?;
        if !known.contains(&v) {
            return Err(CkptError::Corrupt(format!(
                "unsupported {what} version {v}"
            )));
        }
        Ok(v)
    }
    /// A string: `u16` byte length, then that many bytes of UTF-8.
    pub fn str(&mut self) -> Result<&'a str, CkptError> {
        let len = self.u16()?.into();
        let at = self.pos;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| CkptError::Corrupt(format!("string at offset {at} is not UTF-8")))
    }
    /// Admit a declared count of items at least `item_bytes` wide: never
    /// more than the bytes left could hold, so a CRC-consistent but
    /// hostile count cannot size an allocation or a loop.
    pub fn count(&self, n: u64, item_bytes: usize) -> Result<usize, CkptError> {
        let room = self.remaining() / item_bytes;
        if n > room as u64 {
            return Err(CkptError::Corrupt(format!(
                "count {n} at offset {} exceeds the {room} items the bytes left have room for",
                self.pos
            )));
        }
        Ok(n as usize)
    }
    /// The object must end where its last field does.
    pub fn finish(&self, what: &str) -> Result<(), CkptError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CkptError::Corrupt(format!(
                "{n} trailing bytes after the last field of the {what}"
            ))),
        }
    }
    /// A section of `n` items exactly `width` bytes wide: the count
    /// admitted, then the section taken as one slice.
    pub(crate) fn items(&mut self, n: u64, width: usize) -> Result<ChunksExact<'a, u8>, CkptError> {
        let n = self.count(n, width)?;
        Ok(self.take(n * width)?.chunks_exact(width))
    }
    pub(crate) fn f64s(&mut self, n: u64) -> Result<Vec<f64>, CkptError> {
        let items = self.items(n, 8)?;
        Ok(items.map(|b| f64::from_le_bytes(word(b))).collect())
    }
    pub(crate) fn i64s(&mut self, n: u64) -> Result<Vec<i64>, CkptError> {
        let items = self.items(n, 8)?;
        Ok(items.map(|b| i64::from_le_bytes(word(b))).collect())
    }
    /// A complex element is two doubles, re then im.
    pub(crate) fn c128s(&mut self, n: u64) -> Result<Vec<(f64, f64)>, CkptError> {
        let (le, items) = (|b: &[u8]| f64::from_le_bytes(word(b)), self.items(n, 16)?);
        Ok(items.map(|b| (le(&b[..8]), le(&b[8..]))).collect())
    }
    /// Append a tiered `lo` section of `n` elements in `lo`'s encoding.
    pub(crate) fn los(&mut self, n: u64, lo: LoCodec, out: &mut Vec<f64>) -> Result<(), CkptError> {
        out.extend(self.items(n, lo.width())?.map(|b| lo.decode(b)));
        Ok(())
    }
}

/// The envelope every `scrutiny-ckpt` file shares: at least `min_len`
/// bytes, an 8-byte magic, and a CRC-32 trailer over everything before
/// it. Returns a cursor over the body (the file minus its trailer), past
/// the magic.
pub(crate) fn check_envelope<'a>(
    buf: &'a [u8],
    magic: &[u8; 8],
    min_len: usize,
    what: &str,
) -> Result<Cursor<'a>, CkptError> {
    if buf.len() < min_len {
        return Err(CkptError::Corrupt(format!("{what} too short")));
    }
    if &buf[..8] != magic {
        return Err(CkptError::Corrupt(format!("{what} has wrong magic")));
    }
    let (body, trailer) = buf.split_at(buf.len() - 4);
    let expected = Cursor::new(trailer).u32()?;
    let actual = crc32(body);
    if expected != actual {
        return Err(CkptError::ChecksumMismatch { expected, actual });
    }
    Ok(Cursor { buf: body, pos: 8 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrupt<T: fmt::Debug>(r: Result<T, CkptError>) -> String {
        match r {
            Err(CkptError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn every_read_past_the_end_is_corrupt_not_a_panic() {
        let bytes = [1u8, 0, 0, 0, 0, 0, 0, 0, 0];
        for len in 0..bytes.len() {
            let short = &bytes[..len];
            let at = |k: usize| {
                let mut c = Cursor::new(short);
                c.take(k.min(len)).unwrap();
                c
            };
            if len < 1 {
                corrupt(at(0).u8());
            }
            if len < 2 {
                corrupt(at(0).u16());
                corrupt(at(0).str());
            }
            if len < 4 {
                corrupt(at(0).u32());
                corrupt(at(0).version(&[1], "file"));
            }
            if len < 8 {
                corrupt(at(0).u64());
                corrupt(at(0).f64s(1));
                corrupt(at(0).i64s(1));
            }
            corrupt(at(0).take(len + 1));
            corrupt(at(1).take(len.max(1)));
            corrupt(at(0).c128s(1));
        }
        // A string whose declared length runs past the end, or not UTF-8.
        corrupt(Cursor::new(&[5, 0, b'a']).str());
        corrupt(Cursor::new(&[2, 0, 0xFF, 0xFE]).str());
        let m = corrupt(Cursor::new(&[2, 0, 0, 0]).version(&[1], "shard manifest"));
        assert!(m.contains("unsupported shard manifest version 2"), "{m}");
    }

    #[test]
    fn take_of_any_length_never_overflows_the_position() {
        let mut c = Cursor::new(&[0; 16]);
        c.take(3).unwrap();
        corrupt(c.take(usize::MAX));
        corrupt(c.take(usize::MAX - 2));
        assert_eq!(c.remaining(), 13, "a refused read consumes nothing");
    }

    #[test]
    fn count_admits_exactly_what_the_bytes_left_can_hold() {
        let mut c = Cursor::new(&[0; 27]);
        c.take(2).unwrap();
        // 25 bytes left: room for 3 items of 8, 25 of 1.
        assert_eq!(c.count(3, 8).unwrap(), 3);
        corrupt(c.count(4, 8));
        assert_eq!(c.count(25, 1).unwrap(), 25);
        corrupt(c.count(26, 1));
        corrupt(c.count(u64::MAX, 1));
        assert_eq!(c.count(0, 16).unwrap(), 0);
        corrupt(c.count(2, 16));
        corrupt(c.items(4, 8).map(|_| ()));
    }

    #[test]
    fn finish_names_the_trailing_byte_count() {
        let mut c = Cursor::new(&[7, 1, 2, 3]);
        assert_eq!(c.u8().unwrap(), 7);
        let m = corrupt(c.finish("data file"));
        assert!(
            m.contains("3 trailing bytes") && m.contains("data file"),
            "{m}"
        );
        c.take(3).unwrap();
        c.finish("data file").unwrap();
    }

    #[test]
    fn leb128_reads_only_the_canonical_spelling() {
        let read = |b: &[u8]| {
            let mut c = Cursor::new(b);
            c.leb128().and_then(|v| c.finish("varint").map(|()| v))
        };
        for (bytes, want) in [
            (&[0x00][..], 0u64),
            (&[0x7F], 127),
            (&[0x80, 0x01], 128),
            (&[0xE5, 0x8E, 0x26], 624_485),
            (
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
                u64::MAX,
            ),
            (
                &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
                1 << 63,
            ),
        ] {
            assert_eq!(read(bytes).unwrap(), want, "{bytes:02X?}");
        }
        let m = corrupt(read(&[0x80, 0x00]));
        assert!(m.contains("zero group"), "{m}");
        let m = corrupt(read(
            &[0xFF; 9].iter().chain(&[0x02]).copied().collect::<Vec<_>>(),
        ));
        assert!(m.contains("overflows 64 bits"), "{m}");
        let m = corrupt(read(
            &[0x80; 10]
                .iter()
                .chain(&[0x00])
                .copied()
                .collect::<Vec<_>>(),
        ));
        assert!(m.contains("longer than 10 bytes"), "{m}");
        // Every strict prefix of a varint is truncated, not a panic.
        let long = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        for len in 0..long.len() {
            corrupt(Cursor::new(&long[..len]).leb128());
        }
    }

    #[test]
    fn fields_decode_little_endian() {
        let mut bytes = vec![0xAB];
        bytes.extend(0x0102u16.to_le_bytes());
        bytes.extend(0x0304_0506u32.to_le_bytes());
        bytes.extend(0x0708_090A_0B0C_0D0Eu64.to_le_bytes());
        bytes.extend([2, 0, b'h', b'i']);
        bytes.extend((-1.5f64).to_le_bytes());
        bytes.extend((-9i64).to_le_bytes());
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.u8().unwrap(), 0xAB);
        assert_eq!(c.u16().unwrap(), 0x0102);
        assert_eq!(c.u32().unwrap(), 0x0304_0506);
        assert_eq!(c.u64().unwrap(), 0x0708_090A_0B0C_0D0E);
        assert_eq!(c.str().unwrap(), "hi");
        assert_eq!(c.f64s(1).unwrap(), [-1.5]);
        assert_eq!(c.i64s(1).unwrap(), [-9]);
        c.finish("test").unwrap();
    }

    /// The byte-at-a-time loop: the reference [`Crc32::update`]'s lane and
    /// slice-by-8 paths are checked against.
    fn update_scalar(c: &mut Crc32, bytes: &[u8]) {
        for &b in bytes {
            c.state = CRC_TABLES[0][((c.state ^ b as u32) & 0xFF) as usize] ^ (c.state >> 8);
        }
    }

    fn crc32_scalar(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        update_scalar(&mut c, bytes);
        c.finish()
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_scalar(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn sliced_crc_matches_scalar_at_every_length_and_split() {
        // Deterministic pseudo-random buffer of four lane blocks; exercise
        // every length around the 8-byte fold and every remainder around
        // each block multiple, streamed whole, across a random split, and
        // combined from the two halves' CRCs (empty halves included).
        let mut z = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (z >> 33) as usize
        };
        let buf: Vec<u8> = (0..4 * BLOCK + 8).map(|_| next() as u8).collect();
        let lens = (0..257).chain((1..=4).flat_map(|k| k * BLOCK - 8..=k * BLOCK + 8));
        for len in lens {
            let whole = &buf[..len];
            let want = crc32_scalar(whole);
            assert_eq!(crc32(whole), want, "len {len}");
            for split in [0, next() % (len + 1), len] {
                let (a, b) = whole.split_at(split);
                let mut streamed = Crc32::new();
                streamed.update(a);
                streamed.update(b);
                assert_eq!(streamed.finish(), want, "split at {split} of {len}");
                let combined = Crc32::combine(crc32(a), crc32(b), b.len() as u64);
                assert_eq!(combined, want, "combine at {split} of {len}");
            }
        }
    }

    #[test]
    fn dtype_roundtrip() {
        for d in [DType::F64, DType::C128, DType::I64] {
            assert_eq!(DType::from_tag(d.tag()).unwrap(), d);
        }
        assert!(DType::from_tag(9).is_err());
    }

    #[test]
    fn var_data_sizes() {
        assert_eq!(VarData::F64(vec![0.0; 10]).full_bytes(), 80);
        assert_eq!(VarData::C128(vec![(0.0, 0.0); 10]).full_bytes(), 160);
        assert_eq!(VarData::I64(vec![0; 3]).full_bytes(), 24);
    }

    #[test]
    fn fill_policies_are_deterministic() {
        assert_eq!(FillPolicy::Zero.value(42), 0.0);
        assert_eq!(FillPolicy::Sentinel(9.5).value(0), 9.5);
        let a = FillPolicy::Garbage(7).value(3);
        let b = FillPolicy::Garbage(7).value(3);
        assert_eq!(a, b);
        assert!(a.is_finite());
        assert_ne!(
            FillPolicy::Garbage(7).value(3),
            FillPolicy::Garbage(7).value(4)
        );
    }

    #[test]
    fn storage_breakdown_totals() {
        let s = StorageBreakdown {
            payload_bytes: 1024,
            aux_bytes: 512,
            header_bytes: 64,
        };
        assert_eq!(s.total(), 1600);
        assert!((s.payload_kib() - 1.0).abs() < 1e-12);
    }
}
