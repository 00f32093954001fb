//! Shard-aware checkpoint serialization.
//!
//! The monolithic [`crate::writer::serialize_data`] walks every stored
//! element on one thread. For large variables that serialization *is* the
//! checkpoint stall the paper's storage reduction is meant to shrink, so
//! the async engine splits the data file into independently serializable
//! byte segments ("shards") that worker threads produce concurrently:
//!
//! * [`plan_shards`] — deterministically partition the data file into
//!   roughly equal payload segments, splitting *inside* large variables at
//!   stored-element granularity (via [`crate::Regions::covered_range`]) so one
//!   big array does not serialize on a single core.
//! * [`serialize_shard`] — produce the bytes of one segment. The
//!   concatenation of all segments plus the CRC trailer is **bit-identical**
//!   to the monolithic writer's output, so the existing reader accepts it
//!   unchanged.
//! * [`seal_shards`] — append the CRC trailer and compute a
//!   [`ShardManifest`]: the shard-aware format metadata (per-shard length
//!   and CRC) that lets a reader or a striped storage backend reassemble
//!   and verify the segments.
//!
//! A checkpoint may be *stored* sharded too (`ckpt_v.data.sNNN` files plus
//! a `ckpt_v.smf` manifest); [`crate::delta::read_data_image`] — and so
//! every loader above it — accepts both layouts.

use crate::compress::LoCodec;
use crate::format::{crc32, CkptError, Crc32, VarData, VarPlan, VarRecord};
use crate::writer::{
    plan_mode, put_u16, put_u32, put_u64, validate, write_elements, DATA_MAGIC, FORMAT_VERSION,
    FORMAT_VERSION_TIERED,
};

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

fn section_covered(plan: &VarPlan, section: Section, total: u64) -> u64 {
    match (plan, section) {
        (VarPlan::Full, Section::Main) => total,
        (VarPlan::Pruned(r), Section::Main) => r.covered(),
        (VarPlan::Tiered { hi, .. }, Section::Hi) => hi.covered(),
        (VarPlan::Tiered { lo, .. }, Section::Lo) => lo.covered(),
        _ => unreachable!("section does not exist for this plan"),
    }
}

/// Partition the data file for `vars`/`plans` into roughly
/// `target_shards` segments of roughly equal payload size (rounding at
/// element boundaries can produce a few more than the target — see
/// [`ShardPlan::shard_count`]). Validates the plans exactly as the
/// monolithic writer does.
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

    // Flatten the file into ops, tracking payload bytes per element op.
    struct SizedOp {
        op: Op,
        elem_bytes: u64, // 0 for header ops
        elems: u64,
    }
    let mut ops: Vec<SizedOp> = vec![SizedOp {
        op: Op::FileHeader,
        elem_bytes: 0,
        elems: 0,
    }];
    let mut total_payload = 0u64;
    for (i, (v, p)) in vars.iter().zip(plans).enumerate() {
        ops.push(SizedOp {
            op: Op::VarHeader(i),
            elem_bytes: 0,
            elems: 0,
        });
        let sections: &[Section] = match p {
            VarPlan::Tiered { .. } => &[Section::Hi, Section::Lo],
            _ => &[Section::Main],
        };
        for &s in sections {
            if s == Section::Lo {
                ops.push(SizedOp {
                    op: Op::LoCount(i),
                    elem_bytes: 0,
                    elems: 0,
                });
            }
            let covered = section_covered(p, s, v.data.len() as u64);
            let eb = section_elem_bytes(v.data.dtype(), s, lo_codec);
            total_payload += covered * eb;
            if covered > 0 {
                ops.push(SizedOp {
                    op: Op::Elems {
                        var: i,
                        section: s,
                        k0: 0,
                        k1: covered,
                    },
                    elem_bytes: eb,
                    elems: covered,
                });
            }
        }
    }

    // Greedy fill: close a chunk once it holds ~total/target payload bytes.
    // Floor of 16 bytes guarantees progress for the widest element (c128).
    let target = (total_payload.div_ceil(target_shards as u64)).max(16);
    let mut chunks: Vec<Vec<Op>> = Vec::new();
    let mut cur: Vec<Op> = Vec::new();
    let mut cur_payload = 0u64;
    for sized in ops {
        if sized.elem_bytes == 0 {
            cur.push(sized.op);
            continue;
        }
        let Op::Elems { var, section, .. } = sized.op else {
            unreachable!("payload op is always Elems")
        };
        let mut k = 0u64;
        while k < sized.elems {
            let room = (target.saturating_sub(cur_payload)) / sized.elem_bytes;
            if room == 0 {
                chunks.push(std::mem::take(&mut cur));
                cur_payload = 0;
                continue;
            }
            let take = room.min(sized.elems - k);
            cur.push(Op::Elems {
                var,
                section,
                k0: k,
                k1: k + take,
            });
            cur_payload += take * sized.elem_bytes;
            k += take;
        }
    }
    if !cur.is_empty() || chunks.is_empty() {
        chunks.push(cur);
    }
    Ok(ShardPlan { chunks, lo_codec })
}

/// Serialize shard `idx` of `plan`. Returns `(bytes, payload_bytes)`;
/// concatenating all shards in order and appending the [`seal_shards`]
/// CRC trailer reproduces [`crate::writer::serialize_data`] byte for byte.
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
                assert!(name.len() <= u16::MAX as usize, "variable name too long");
                put_u16(&mut out, name.len() as u16);
                out.extend_from_slice(name);
                out.push(v.data.dtype().tag());
                out.push(plan_mode(p));
                put_u64(&mut out, v.data.len() as u64);
                let first_count = match p {
                    VarPlan::Full => v.data.len() as u64,
                    VarPlan::Pruned(r) => r.covered(),
                    VarPlan::Tiered { hi, .. } => hi.covered(),
                };
                put_u64(&mut out, first_count);
            }
            Op::LoCount(i) => {
                let VarPlan::Tiered { lo, .. } = &plans[i] else {
                    unreachable!("LoCount only planned for tiered variables")
                };
                put_u64(&mut out, lo.covered());
            }
            Op::Elems {
                var,
                section,
                k0,
                k1,
            } => {
                let (v, p) = (&vars[var], &plans[var]);
                match (p, section) {
                    (VarPlan::Full, Section::Main) => {
                        payload += write_elements(&mut out, &v.data, k0..k1);
                    }
                    (VarPlan::Pruned(r), Section::Main) => {
                        payload +=
                            write_elements(&mut out, &v.data, r.covered_range(k0, k1).indices());
                    }
                    (VarPlan::Tiered { hi, .. }, Section::Hi) => {
                        let VarData::F64(vals) = &v.data else {
                            unreachable!("validated: tiered requires f64")
                        };
                        for i in hi.covered_range(k0, k1).indices() {
                            out.extend_from_slice(&vals[i as usize].to_le_bytes());
                            payload += 8;
                        }
                    }
                    (VarPlan::Tiered { lo, .. }, Section::Lo) => {
                        let VarData::F64(vals) = &v.data else {
                            unreachable!("validated: tiered requires f64")
                        };
                        let width = plan.lo_codec.width();
                        for i in lo.covered_range(k0, k1).indices() {
                            plan.lo_codec.encode_into(&mut out, vals[i as usize]);
                            payload += width;
                        }
                    }
                    _ => unreachable!("planned section matches the plan"),
                }
            }
        }
    }
    (out, payload)
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
        if buf.len() < 8 + 4 + 4 + 8 + 4 {
            return Err(CkptError::Corrupt("shard manifest too short".into()));
        }
        if &buf[..8] != MANIFEST_MAGIC {
            return Err(CkptError::Corrupt("shard manifest has wrong magic".into()));
        }
        let body = &buf[..buf.len() - 4];
        let expected = u32::from_le_bytes(buf[buf.len() - 4..].try_into().unwrap());
        let actual = crc32(body);
        if expected != actual {
            return Err(CkptError::ChecksumMismatch { expected, actual });
        }
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
        if shard_lens.iter().sum::<u64>() != total_len {
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

    /// Verify each segment against the manifest and concatenate them back
    /// into the monolithic data file the reader parses.
    pub fn assemble(&self, shards: &[Vec<u8>]) -> Result<Vec<u8>, CkptError> {
        if shards.len() != self.shard_count() {
            return Err(CkptError::Corrupt(format!(
                "manifest describes {} shards, {} provided",
                self.shard_count(),
                shards.len()
            )));
        }
        let mut out = Vec::with_capacity(self.total_len as usize);
        for (i, shard) in shards.iter().enumerate() {
            if shard.len() as u64 != self.shard_lens[i] {
                return Err(CkptError::Corrupt(format!(
                    "shard {i} is {} bytes, manifest says {}",
                    shard.len(),
                    self.shard_lens[i]
                )));
            }
            let actual = crc32(shard);
            if actual != self.shard_crcs[i] {
                return Err(CkptError::ChecksumMismatch {
                    expected: self.shard_crcs[i],
                    actual,
                });
            }
            out.extend_from_slice(shard);
        }
        Ok(out)
    }
}

/// Append the whole-file CRC trailer to the last shard and describe the
/// result in a [`ShardManifest`]. `shards` must be every
/// [`serialize_shard`] output in plan order.
pub fn seal_shards(mut shards: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, ShardManifest) {
    assert!(
        !shards.is_empty(),
        "a sealed checkpoint has at least one shard"
    );
    let mut rolling = Crc32::new();
    for s in &shards {
        rolling.update(s);
    }
    let file_crc = rolling.finish();
    put_u32(shards.last_mut().unwrap(), file_crc);
    let shard_lens: Vec<u64> = shards.iter().map(|s| s.len() as u64).collect();
    let shard_crcs: Vec<u32> = shards.iter().map(|s| crc32(s)).collect();
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
    use crate::writer::serialize_data;
    use crate::{Bitmap, Region, Regions};

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

    #[test]
    fn sharded_serialization_is_bit_identical() {
        let (vars, plans) = sample();
        let (mono, mono_payload) = serialize_data(&vars, &plans).unwrap();
        for target in [1usize, 2, 3, 5, 8, 64] {
            let plan = plan_shards(&vars, &plans, target).unwrap();
            assert!(plan.shard_count() >= 1);
            let mut payload = 0;
            let shards: Vec<Vec<u8>> = (0..plan.shard_count())
                .map(|i| {
                    let (bytes, p) = serialize_shard(&vars, &plans, &plan, i);
                    payload += p;
                    bytes
                })
                .collect();
            let (sealed, manifest) = seal_shards(shards);
            let assembled = manifest.assemble(&sealed).unwrap();
            assert_eq!(assembled, mono, "target {target} shards");
            assert_eq!(payload, mono_payload, "target {target} payload bytes");
        }
    }

    #[test]
    fn sharded_v2_tiered_codec_is_bit_identical_to_monolithic() {
        use crate::writer::serialize_data_with;
        let (vars, plans) = sample();
        for keep in [2u8, 5, 7] {
            let lo_codec = LoCodec::Trunc { keep };
            let (mono, mono_payload) = serialize_data_with(&vars, &plans, lo_codec).unwrap();
            for target in [1usize, 3, 8] {
                let plan = plan_shards_with(&vars, &plans, target, lo_codec).unwrap();
                let mut payload = 0;
                let shards: Vec<Vec<u8>> = (0..plan.shard_count())
                    .map(|i| {
                        let (bytes, p) = serialize_shard(&vars, &plans, &plan, i);
                        payload += p;
                        bytes
                    })
                    .collect();
                let (sealed, manifest) = seal_shards(shards);
                let assembled = manifest.assemble(&sealed).unwrap();
                assert_eq!(assembled, mono, "keep={keep} target={target}");
                assert_eq!(payload, mono_payload, "keep={keep} target={target}");
            }
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
        let shards: Vec<Vec<u8>> = (0..plan.shard_count())
            .map(|i| serialize_shard(&vars, &plans, &plan, i).0)
            .collect();
        let (sealed, manifest) = seal_shards(shards);
        let parsed = ShardManifest::from_bytes(&manifest.to_bytes()).unwrap();
        assert_eq!(parsed, manifest);

        // A flipped byte in any shard is pinned to that shard.
        let mut bad = sealed.clone();
        bad[1][0] ^= 0xFF;
        assert!(matches!(
            manifest.assemble(&bad),
            Err(CkptError::ChecksumMismatch { .. })
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
        let assembled = manifest.assemble(&sealed).unwrap();
        let (mono, _) = serialize_data(&[], &[]).unwrap();
        assert_eq!(assembled, mono);
    }
}
