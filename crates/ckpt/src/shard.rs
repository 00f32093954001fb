//! The `SCRUTCKP` data-file encoder, and its shard-aware metadata.
//!
//! Serializing every stored element of a large variable on one thread *is*
//! the checkpoint stall the paper's storage reduction is meant to shrink,
//! so the data file is encoded as a plan of independently serializable
//! byte segments ("shards") that worker threads can produce concurrently:
//!
//! * [`plan_shards`] — deterministically partition the data file into
//!   roughly equal payload segments, splitting *inside* large variables at
//!   stored-element granularity (via [`crate::Regions::covered_range`]) so one
//!   big array does not serialize on a single core.
//! * [`serialize_shard`] — produce the bytes of one segment. This is the
//!   **only** code that emits a file header, a variable header or an
//!   element section: the blocking [`crate::writer::serialize_data`] is its
//!   one-shard plan, so "sharded ≡ monolithic" is a property of one
//!   routine's chunking, whatever the shard count.
//! * [`seal_image`] — append the whole-file CRC trailer and hand back one
//!   data-file image (a lone shard moves, several are joined): what every
//!   one-image layout publishes.
//! * [`seal_shards`] — append the same trailer but keep the segments apart,
//!   described by a [`ShardManifest`]: the shard-aware format metadata
//!   (per-shard length and CRC) that lets a reader reassemble and verify
//!   them.
//!
//! A checkpoint may be *stored* sharded too (`ckpt_v.data.sNNN` files plus
//! a `ckpt_v.smf` manifest); the one reader
//! ([`crate::restore::read_data_image_parallel`]) — and so every loader
//! above it — accepts both layouts.

use crate::compress::LoCodec;
use crate::format::{check_envelope, crc32, CkptError, Crc32, VarData, VarPlan, VarRecord};
use crate::writer::{
    plan_mode, put_u16, put_u32, put_u64, validate, DATA_MAGIC, FORMAT_VERSION,
    FORMAT_VERSION_TIERED,
};
use crate::Regions;

const MANIFEST_MAGIC: &[u8; 8] = b"SCRUTSHM";
const MANIFEST_VERSION: u32 = 1;

/// Which payload section of a variable an element range draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Section {
    /// The single section of a Full/Pruned variable.
    Main,
    /// Tiered full-precision (f64) section.
    Hi,
    /// Tiered reduced-precision (f32) section.
    Lo,
}

/// One serialization instruction; a shard is a sequence of these.
#[derive(Clone, Debug)]
enum Op {
    /// File magic + format version + variable count.
    FileHeader,
    /// Variable name, dtype, mode, total, and the first section's count.
    VarHeader(usize),
    /// The `lo` section count of a tiered variable (sits between the hi
    /// and lo payloads in the wire format).
    LoCount(usize),
    /// Stored-order elements `k0..k1` of one section of one variable.
    Elems {
        var: usize,
        section: Section,
        k0: u64,
        k1: u64,
    },
}

/// A deterministic split of one checkpoint's data file into independently
/// serializable segments. Produced by [`plan_shards`]; consumed shard by
/// shard via [`serialize_shard`].
#[derive(Clone, Debug)]
pub struct ShardPlan {
    chunks: Vec<Vec<Op>>,
    /// Lo-tier element codec the shards serialize with; carried in the
    /// plan so every worker emits the same format version and widths.
    lo_codec: LoCodec,
}

impl ShardPlan {
    /// Number of shards in the plan (≥ 1; close to the requested target —
    /// the greedy split may exceed it by a few when element widths don't
    /// divide the per-shard byte budget evenly).
    pub fn shard_count(&self) -> usize {
        self.chunks.len()
    }
}

fn section_elem_bytes(dtype: crate::DType, section: Section, lo_codec: LoCodec) -> u64 {
    match section {
        Section::Main => dtype.elem_bytes() as u64,
        Section::Hi => 8,
        Section::Lo => lo_codec.width() as u64,
    }
}

/// The regions whose elements a section stores, ascending; `None` for a
/// `Full` variable, which stores every index.
fn section_regions(plan: &VarPlan, section: Section) -> Option<&Regions> {
    match (plan, section) {
        (VarPlan::Full, Section::Main) => None,
        (VarPlan::Pruned(r), Section::Main) => Some(r),
        (VarPlan::Tiered { hi, .. }, Section::Hi) => Some(hi),
        (VarPlan::Tiered { lo, .. }, Section::Lo) => Some(lo),
        _ => unreachable!("section does not exist for this plan"),
    }
}

/// Stored element count of a section — the `count` field in front of it.
fn section_covered(plan: &VarPlan, section: Section, total: u64) -> u64 {
    section_regions(plan, section).map_or(total, Regions::covered)
}

/// Partition the data file for `vars`/`plans` into roughly
/// `target_shards` segments of roughly equal payload size (rounding at
/// element boundaries can produce a few more than the target — see
/// [`ShardPlan::shard_count`]). Validates the plans — the one check every
/// writer passes through.
pub fn plan_shards(
    vars: &[VarRecord],
    plans: &[VarPlan],
    target_shards: usize,
) -> Result<ShardPlan, CkptError> {
    plan_shards_with(vars, plans, target_shards, LoCodec::F32)
}

/// [`plan_shards`] with an explicit lo-tier codec: the codec changes the
/// lo section's element width (and the emitted format version), so it
/// must shape the split too — the shards stay bit-identical to
/// [`crate::writer::serialize_data_with`] of the same codec.
pub fn plan_shards_with(
    vars: &[VarRecord],
    plans: &[VarPlan],
    target_shards: usize,
    lo_codec: LoCodec,
) -> Result<ShardPlan, CkptError> {
    if target_shards == 0 {
        return Err(CkptError::InvalidConfig(
            "a shard plan needs at least one shard".into(),
        ));
    }
    validate(vars, plans)?;
    lo_codec.validate()?;

    // Flatten the file into ops, each with its payload bytes per element
    // (0 for header ops).
    let mut ops: Vec<(Op, u64)> = vec![(Op::FileHeader, 0)];
    let mut total_payload = 0u64;
    for (i, (v, p)) in vars.iter().zip(plans).enumerate() {
        ops.push((Op::VarHeader(i), 0));
        let sections: &[Section] = match p {
            VarPlan::Tiered { .. } => &[Section::Hi, Section::Lo],
            _ => &[Section::Main],
        };
        for &section in sections {
            if section == Section::Lo {
                ops.push((Op::LoCount(i), 0));
            }
            let k1 = section_covered(p, section, v.data.len() as u64);
            let eb = section_elem_bytes(v.data.dtype(), section, lo_codec);
            total_payload += k1 * eb;
            if k1 > 0 {
                let elems = Op::Elems {
                    var: i,
                    section,
                    k0: 0,
                    k1,
                };
                ops.push((elems, eb));
            }
        }
    }

    // Greedy fill: close a chunk once it holds ~total/target payload bytes.
    // Floor of 16 bytes guarantees progress for the widest element (c128).
    let target = (total_payload.div_ceil(target_shards as u64)).max(16);
    let mut chunks: Vec<Vec<Op>> = Vec::new();
    let mut cur: Vec<Op> = Vec::new();
    let mut cur_payload = 0u64;
    for (op, elem_bytes) in ops {
        let Op::Elems {
            var,
            section,
            k1: elems,
            ..
        } = op
        else {
            cur.push(op);
            continue;
        };
        let mut k = 0u64;
        while k < elems {
            let room = (target.saturating_sub(cur_payload)) / elem_bytes;
            if room == 0 {
                chunks.push(std::mem::take(&mut cur));
                cur_payload = 0;
                continue;
            }
            let take = room.min(elems - k);
            cur.push(Op::Elems {
                var,
                section,
                k0: k,
                k1: k + take,
            });
            cur_payload += take * elem_bytes;
            k += take;
        }
    }
    if !cur.is_empty() || chunks.is_empty() {
        chunks.push(cur);
    }
    Ok(ShardPlan { chunks, lo_codec })
}

/// Serialize shard `idx` of `plan`. Returns `(bytes, payload_bytes)`;
/// all shards in order, sealed by [`seal_image`] or [`seal_shards`], are
/// the data file of `docs/FORMATS.md` §3 — the same bytes for every shard
/// count.
pub fn serialize_shard(
    vars: &[VarRecord],
    plans: &[VarPlan],
    plan: &ShardPlan,
    idx: usize,
) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    let mut payload = 0usize;
    for op in &plan.chunks[idx] {
        match *op {
            Op::FileHeader => {
                out.extend_from_slice(DATA_MAGIC);
                if plan.lo_codec == LoCodec::F32 {
                    put_u32(&mut out, FORMAT_VERSION);
                } else {
                    put_u32(&mut out, FORMAT_VERSION_TIERED);
                    out.push(plan.lo_codec.tag());
                }
                put_u32(&mut out, vars.len() as u32);
            }
            Op::VarHeader(i) => {
                let (v, p) = (&vars[i], &plans[i]);
                let name = v.name.as_bytes();
                put_u16(&mut out, name.len() as u16);
                out.extend_from_slice(name);
                out.push(v.data.dtype().tag());
                out.push(plan_mode(p));
                let total = v.data.len() as u64;
                put_u64(&mut out, total);
                let first = match p {
                    VarPlan::Tiered { .. } => Section::Hi,
                    _ => Section::Main,
                };
                put_u64(&mut out, section_covered(p, first, total));
            }
            Op::LoCount(i) => put_u64(&mut out, section_covered(&plans[i], Section::Lo, 0)),
            Op::Elems {
                var,
                section,
                k0,
                k1,
            } => {
                let data = &vars[var].data;
                let before = out.len();
                match (section_regions(&plans[var], section), section) {
                    (None, _) => write_elements(&mut out, data, k0..k1),
                    (Some(lo), Section::Lo) => {
                        let VarData::F64(vals) = data else {
                            unreachable!("validated: tiered requires f64")
                        };
                        for i in lo.covered_range(k0, k1).indices() {
                            plan.lo_codec.encode_into(&mut out, vals[i as usize]);
                        }
                    }
                    (Some(r), _) => {
                        write_elements(&mut out, data, r.covered_range(k0, k1).indices())
                    }
                }
                payload += out.len() - before;
            }
        }
    }
    (out, payload)
}

/// Append the elements of `data` at `indices`, raw per dtype.
fn write_elements(out: &mut Vec<u8>, data: &VarData, indices: impl Iterator<Item = u64>) {
    match data {
        VarData::F64(v) => {
            indices.for_each(|i| out.extend_from_slice(&v[i as usize].to_le_bytes()))
        }
        VarData::I64(v) => {
            indices.for_each(|i| out.extend_from_slice(&v[i as usize].to_le_bytes()))
        }
        VarData::C128(v) => indices.for_each(|i| {
            let (re, im) = v[i as usize];
            out.extend_from_slice(&re.to_le_bytes());
            out.extend_from_slice(&im.to_le_bytes());
        }),
    }
}

/// Serialize every shard of `plan` in order on the calling thread; returns
/// the segments and their summed payload bytes.
pub(crate) fn serialize_all(
    vars: &[VarRecord],
    plans: &[VarPlan],
    plan: &ShardPlan,
) -> (Vec<Vec<u8>>, usize) {
    let mut payload = 0usize;
    let shards = (0..plan.shard_count())
        .map(|i| {
            let (bytes, p) = serialize_shard(vars, plans, plan, i);
            payload += p;
            bytes
        })
        .collect();
    (shards, payload)
}

/// Shard-aware format metadata: how a data file was split, so segments can
/// be verified and reassembled by any storage backend or the reader.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardManifest {
    /// Total data-file length (including the CRC trailer) in bytes.
    pub total_len: u64,
    /// Per-shard byte lengths, in order; sums to `total_len`.
    pub shard_lens: Vec<u64>,
    /// Per-shard CRC-32, so a damaged shard is identified individually.
    pub shard_crcs: Vec<u32>,
}

impl ShardManifest {
    /// Number of shards described.
    pub fn shard_count(&self) -> usize {
        self.shard_lens.len()
    }

    /// Serialize (magic, version, counts, per-shard entries, CRC trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        put_u32(&mut out, MANIFEST_VERSION);
        put_u32(&mut out, self.shard_lens.len() as u32);
        put_u64(&mut out, self.total_len);
        for (&len, &crc) in self.shard_lens.iter().zip(&self.shard_crcs) {
            put_u64(&mut out, len);
            put_u32(&mut out, crc);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Parse and checksum-verify a manifest.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CkptError> {
        check_envelope(buf, MANIFEST_MAGIC, 8 + 4 + 4 + 8 + 4, "shard manifest")?;
        let nshards = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let total_len = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        let need = 24 + nshards * 12 + 4;
        if buf.len() != need {
            return Err(CkptError::Corrupt(format!(
                "shard manifest declares {nshards} shards but is {} bytes (expected {need})",
                buf.len()
            )));
        }
        let mut shard_lens = Vec::with_capacity(nshards);
        let mut shard_crcs = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let off = 24 + i * 12;
            shard_lens.push(u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()));
            shard_crcs.push(u32::from_le_bytes(
                buf[off + 8..off + 12].try_into().unwrap(),
            ));
        }
        let sum = shard_lens.iter().try_fold(0u64, |a, &l| a.checked_add(l));
        if sum != Some(total_len) {
            return Err(CkptError::Corrupt(
                "shard manifest lengths do not sum to the total".into(),
            ));
        }
        Ok(ShardManifest {
            total_len,
            shard_lens,
            shard_crcs,
        })
    }

    /// Verify shard `idx`'s bytes against its manifest entry — length,
    /// then CRC-32, so a damaged shard is pinned individually. The one
    /// place a shard meets its manifest.
    pub(crate) fn check_shard(&self, idx: usize, shard: &[u8]) -> Result<(), CkptError> {
        if shard.len() as u64 != self.shard_lens[idx] {
            return Err(CkptError::Corrupt(format!(
                "shard {idx} is {} bytes, manifest says {}",
                shard.len(),
                self.shard_lens[idx]
            )));
        }
        let actual = crc32(shard);
        if actual != self.shard_crcs[idx] {
            return Err(CkptError::ChecksumMismatch {
                expected: self.shard_crcs[idx],
                actual,
            });
        }
        Ok(())
    }
}

/// The last of a sealed checkpoint's shards, which carries the trailer.
fn last_shard(shards: &mut [Vec<u8>]) -> &mut Vec<u8> {
    shards
        .last_mut()
        .expect("a sealed checkpoint has at least one shard")
}

/// Seal every [`serialize_shard`] output of one plan, in plan order, into
/// the one data-file image: append the CRC trailer — rolled over the
/// segments in order, so they are never joined just to be hashed — then
/// move a lone shard or join several. What the blocking writer returns
/// and what the engine publishes in every layout that stores one image.
pub fn seal_image(mut shards: Vec<Vec<u8>>) -> Vec<u8> {
    let mut rolling = Crc32::new();
    for s in &shards {
        rolling.update(s);
    }
    put_u32(last_shard(&mut shards), rolling.finish());
    match shards.as_mut_slice() {
        [only] => std::mem::take(only),
        many => many.concat(),
    }
}

/// Append the whole-file CRC trailer to the last shard and describe the
/// result in a [`ShardManifest`] — the sharded layout's seal, run by
/// [`crate::delta::publish_epoch`] for the one layout that stores a
/// manifest. `shards` must be every [`serialize_shard`] output in plan
/// order.
///
/// Each shard is hashed once: the trailer is combined from the shards'
/// CRCs (`Crc32::combine`), and the last shard's CRC is extended over the
/// four trailer bytes it gains.
pub fn seal_shards(mut shards: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, ShardManifest) {
    let mut shard_crcs: Vec<u32> = shards.iter().map(|s| crc32(s)).collect();
    let file_crc = shards
        .iter()
        .zip(&shard_crcs)
        .fold(crc32(&[]), |file, (s, &crc)| {
            Crc32::combine(file, crc, s.len() as u64)
        });
    put_u32(last_shard(&mut shards), file_crc);
    let trailer = file_crc.to_le_bytes();
    let last_crc = shard_crcs.last_mut().expect("one CRC per shard");
    *last_crc = Crc32::combine(*last_crc, crc32(&trailer), trailer.len() as u64);
    let shard_lens: Vec<u64> = shards.iter().map(|s| s.len() as u64).collect();
    let manifest = ShardManifest {
        total_len: shard_lens.iter().sum(),
        shard_lens,
        shard_crcs,
    };
    (shards, manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, StorageBackend};
    use crate::delta::read_data_image;
    use crate::writer::serialize_data;
    use crate::{names, Bitmap, Region, Regions};

    /// Store sealed shards and their manifest as version 0 and read them
    /// back through the one reader — where a shard meets its manifest.
    fn read_back(sealed: &[Vec<u8>], manifest: &ShardManifest) -> Result<Vec<u8>, CkptError> {
        let mem = MemBackend::new();
        for (i, shard) in sealed.iter().enumerate() {
            mem.put(&names::shard(0, i), shard).unwrap();
        }
        mem.put(&names::manifest(0), &manifest.to_bytes()).unwrap();
        read_data_image(0, |name| mem.get(name))
    }

    fn sample() -> (Vec<VarRecord>, Vec<VarPlan>) {
        let vars = vec![
            VarRecord::new("u", VarData::F64((0..200).map(f64::from).collect())),
            VarRecord::new(
                "y",
                VarData::C128((0..40).map(|i| (i as f64, -(i as f64))).collect()),
            ),
            VarRecord::new("t", VarData::F64((0..64).map(|i| i as f64 * 0.5).collect())),
            VarRecord::new("it", VarData::I64(vec![7, 8, 9])),
        ];
        let crit = Bitmap::from_fn(200, |i| i % 3 != 0);
        let plans = vec![
            VarPlan::Pruned(Regions::from_bitmap(&crit)),
            VarPlan::Full,
            VarPlan::Tiered {
                hi: Regions::from_runs(vec![Region { start: 0, end: 20 }]),
                lo: Regions::from_runs(vec![Region { start: 30, end: 64 }]),
            },
            VarPlan::Full,
        ];
        (vars, plans)
    }

    /// Every chunking of `sample()` under `lo_codec`, sealed as one image
    /// or as shards read back through their manifest, is the one-shard
    /// file with the same payload count.
    fn assert_chunkings_agree(lo_codec: LoCodec, targets: &[usize]) {
        let (vars, plans) = sample();
        let (mono, mono_payload) =
            crate::writer::serialize_data_with(&vars, &plans, lo_codec).unwrap();
        for &target in targets {
            let what = format!("{lo_codec:?}, target {target}");
            let plan = plan_shards_with(&vars, &plans, target, lo_codec).unwrap();
            assert!(plan.shard_count() >= 1);
            let (shards, payload) = serialize_all(&vars, &plans, &plan);
            assert_eq!(payload, mono_payload, "{what}: payload bytes");
            assert_eq!(seal_image(shards.clone()), mono, "{what}: image");
            let (sealed, manifest) = seal_shards(shards);
            assert_eq!(read_back(&sealed, &manifest).unwrap(), mono, "{what}");
        }
    }

    #[test]
    fn sharded_serialization_is_bit_identical() {
        assert_chunkings_agree(LoCodec::F32, &[1, 2, 3, 5, 8, 64]);
    }

    #[test]
    fn sharded_v2_tiered_codec_is_bit_identical_to_monolithic() {
        for keep in [2u8, 5, 7] {
            assert_chunkings_agree(LoCodec::Trunc { keep }, &[1, 3, 8]);
        }
    }

    #[test]
    fn multiple_shards_actually_split_large_vars() {
        let (vars, plans) = sample();
        let plan = plan_shards(&vars, &plans, 4).unwrap();
        assert!(
            plan.shard_count() >= 3,
            "expected a real split, got {} shard(s)",
            plan.shard_count()
        );
    }

    #[test]
    fn manifest_roundtrip_and_verification() {
        let (vars, plans) = sample();
        let plan = plan_shards(&vars, &plans, 3).unwrap();
        let (sealed, manifest) = seal_shards(serialize_all(&vars, &plans, &plan).0);
        let parsed = ShardManifest::from_bytes(&manifest.to_bytes()).unwrap();
        assert_eq!(parsed, manifest);

        // A flipped byte in any shard is pinned to that shard.
        let mut bad = sealed.clone();
        bad[1][0] ^= 0xFF;
        assert!(matches!(
            read_back(&bad, &manifest),
            Err(CkptError::ChecksumMismatch { .. })
        ));
        // So is a shard of the wrong length.
        let mut short = sealed.clone();
        short[0].pop();
        assert!(matches!(
            read_back(&short, &manifest),
            Err(CkptError::Corrupt(_))
        ));
        // A truncated manifest is rejected.
        let bytes = manifest.to_bytes();
        assert!(ShardManifest::from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn zero_target_shards_rejected() {
        let (vars, plans) = sample();
        assert!(matches!(
            plan_shards(&vars, &plans, 0),
            Err(CkptError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_checkpoint_plans_one_shard() {
        let plan = plan_shards(&[], &[], 8).unwrap();
        assert_eq!(plan.shard_count(), 1);
        let (bytes, payload) = serialize_shard(&[], &[], &plan, 0);
        assert_eq!(payload, 0);
        let (sealed, manifest) = seal_shards(vec![bytes]);
        let assembled = read_back(&sealed, &manifest).unwrap();
        let (mono, _) = serialize_data(&[], &[]).unwrap();
        assert_eq!(assembled, mono);
    }
}
