//! Checkpoint serialization: data file + auxiliary region file.
//!
//! The data file has one encoder, [`crate::shard::serialize_shard`];
//! [`serialize_data`] here is its one-shard plan. This module owns plan
//! validation, the auxiliary file, and the byte accounting.
//!
//! Layout (all little-endian, lengths explicit, CRC-32 trailer):
//!
//! ```text
//! data file: "SCRUTCKP" | version u32 | [v2 only: lo_codec u8] | nvars u32
//!            per var: name_len u16 | name | dtype u8 | mode u8 | total u64
//!                     Full/Pruned: count u64 | raw elements
//!                     Tiered:      hi u64 | f64 elems | lo u64 | lo elems
//!            crc32 u32
//! aux file:  "SCRUTAUX" | version u32 (= 2) | nvars u32
//!            per var: name_len u16 | name | mode u8
//!                     Pruned: nruns | (gap, len)*        all LEB128
//!                     Tiered: hi nruns+runs | lo nruns+runs
//!            crc32 u32
//! ```
//!
//! Data version 1 stores tiered lo elements as f32; data version 2
//! carries an explicit [`LoCodec`] tag byte and is emitted **only** when
//! the codec is not `F32`, so every pre-compression data file is still
//! produced bit-identically and old files parse unchanged.
//!
//! The auxiliary file is the paper's §III.B structure: the start and end
//! of every contiguous critical region, so restart can place each stored
//! element at its original offset. Version 2 stores a run as its gap
//! from the previous run's end (the first run's gap is its start) and
//! its length, each an unsigned LEB128; version 1, which stored `start`
//! and `end` as two `u64`s, is still read.

use crate::compress::LoCodec;
use crate::format::{crc32, CkptError, StorageBreakdown, VarPlan, VarRecord};
use crate::shard::{plan_shards_with, seal_image, serialize_all};
use crate::Regions;
use std::fs;
use std::path::{Path, PathBuf};

pub(crate) const DATA_MAGIC: &[u8; 8] = b"SCRUTCKP";
pub(crate) const AUX_MAGIC: &[u8; 8] = b"SCRUTAUX";
pub(crate) const FORMAT_VERSION: u32 = 1;
pub(crate) const FORMAT_VERSION_TIERED: u32 = 2;
/// The auxiliary file's runs as LEB128 (gap, length) pairs; the only
/// version written. Version 1 ([`FORMAT_VERSION`]) is read too.
pub(crate) const AUX_VERSION: u32 = 2;

pub(crate) const MODE_FULL: u8 = 0;
pub(crate) const MODE_PRUNED: u8 = 1;
pub(crate) const MODE_TIERED: u8 = 2;

/// A fully serialized checkpoint (both files) plus byte accounting.
pub struct SerializedCheckpoint {
    /// The data file bytes.
    pub data: Vec<u8>,
    /// The auxiliary (region table) file bytes.
    pub aux: Vec<u8>,
    /// Byte-exact breakdown for storage reports (Table III).
    pub breakdown: StorageBreakdown,
}

pub(crate) fn plan_mode(plan: &VarPlan) -> u8 {
    match plan {
        VarPlan::Full => MODE_FULL,
        VarPlan::Pruned(_) => MODE_PRUNED,
        VarPlan::Tiered { .. } => MODE_TIERED,
    }
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `v` as an unsigned LEB128 in its canonical (shortest) form.
fn put_leb128(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `regions` as `nruns`, then each run's gap from the previous run's end
/// and its length; returns the bytes of the (gap, length) pairs.
fn put_runs(out: &mut Vec<u8>, regions: &Regions) -> usize {
    put_leb128(out, regions.run_count() as u64);
    let (before, mut end) = (out.len(), 0);
    for r in regions.runs() {
        put_leb128(out, r.start - end);
        put_leb128(out, r.len());
        end = r.end;
    }
    out.len() - before
}

pub(crate) fn validate(vars: &[VarRecord], plans: &[VarPlan]) -> Result<(), CkptError> {
    if vars.len() != plans.len() {
        return Err(CkptError::PlanMismatch(format!(
            "{} variables but {} plans",
            vars.len(),
            plans.len()
        )));
    }
    for (v, p) in vars.iter().zip(plans) {
        // Both files store the name behind a u16 length.
        if v.name.len() > u16::MAX as usize {
            return Err(CkptError::PlanMismatch(format!(
                "variable name of {} bytes exceeds the format's u16 limit",
                v.name.len()
            )));
        }
        let regions = match p {
            VarPlan::Full => [None, None],
            VarPlan::Pruned(r) => [Some(r), None],
            VarPlan::Tiered { hi, lo } => {
                if v.data.dtype() != crate::DType::F64 {
                    return Err(CkptError::PlanMismatch(format!(
                        "tiered plan requires an f64 variable, {:?} is {:?}",
                        v.name,
                        v.data.dtype()
                    )));
                }
                if !hi.intersect(lo).is_empty() {
                    return Err(CkptError::PlanMismatch(format!(
                        "tiered plan for {:?} has overlapping hi/lo regions",
                        v.name
                    )));
                }
                [Some(hi), Some(lo)]
            }
        };
        let total = v.data.len() as u64;
        for last in regions
            .into_iter()
            .flatten()
            .filter_map(|r| r.runs().last())
        {
            if last.end > total {
                return Err(CkptError::PlanMismatch(format!(
                    "regions for {:?} end at {} but the variable has {total} elements",
                    v.name, last.end
                )));
            }
        }
    }
    Ok(())
}

/// Serialize the data file; returns `(bytes, payload_bytes)`.
pub fn serialize_data(
    vars: &[VarRecord],
    plans: &[VarPlan],
) -> Result<(Vec<u8>, usize), CkptError> {
    serialize_data_with(vars, plans, LoCodec::F32)
}

/// [`serialize_data`] with an explicit lo-tier codec. `LoCodec::F32`
/// emits format version 1 bit-identically; any other codec emits
/// version 2 with its tag byte in the header.
///
/// This is the one-shard plan of the data file's one encoder,
/// [`crate::shard::serialize_shard`], sealed by [`seal_image`].
pub fn serialize_data_with(
    vars: &[VarRecord],
    plans: &[VarPlan],
    lo_codec: LoCodec,
) -> Result<(Vec<u8>, usize), CkptError> {
    let plan = plan_shards_with(vars, plans, 1, lo_codec)?;
    let (shards, payload) = serialize_all(vars, plans, &plan);
    Ok((seal_image(shards), payload))
}

/// Serialize the auxiliary region file (version 2); returns `(bytes,
/// run_bytes)`, the second the encoded run bytes: every run's LEB128 gap
/// and length.
pub fn serialize_aux(vars: &[VarRecord], plans: &[VarPlan]) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    out.extend_from_slice(AUX_MAGIC);
    put_u32(&mut out, AUX_VERSION);
    put_u32(&mut out, vars.len() as u32);
    let mut run_bytes = 0usize;
    for (v, p) in vars.iter().zip(plans) {
        let name = v.name.as_bytes();
        put_u16(&mut out, name.len() as u16);
        out.extend_from_slice(name);
        out.push(plan_mode(p));
        match p {
            VarPlan::Full => {}
            VarPlan::Pruned(r) => run_bytes += put_runs(&mut out, r),
            VarPlan::Tiered { hi, lo } => {
                run_bytes += put_runs(&mut out, hi);
                run_bytes += put_runs(&mut out, lo);
            }
        }
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    (out, run_bytes)
}

/// Serialize both files with storage accounting.
pub fn serialize(vars: &[VarRecord], plans: &[VarPlan]) -> Result<SerializedCheckpoint, CkptError> {
    serialize_with(vars, plans, LoCodec::F32)
}

/// [`serialize`] with an explicit lo-tier codec (see
/// [`serialize_data_with`]).
pub fn serialize_with(
    vars: &[VarRecord],
    plans: &[VarPlan],
    lo_codec: LoCodec,
) -> Result<SerializedCheckpoint, CkptError> {
    let (data, payload_bytes) = serialize_data_with(vars, plans, lo_codec)?;
    let (aux, run_bytes) = serialize_aux(vars, plans);
    Ok(SerializedCheckpoint {
        breakdown: full_breakdown(data.len(), payload_bytes, aux.len(), run_bytes),
        data,
        aux,
    })
}

/// Byte accounting of one data-bearing object (a sealed data file, or a
/// delta) of `data_len` bytes holding `payload_bytes` of elements, stored
/// uncompressed beside an auxiliary file of `aux_len` bytes holding
/// `run_bytes` of encoded run bytes. What is neither is header.
/// [`serialize_with`] reports it for the data file, and
/// [`crate::delta::publish_epoch`] starts every layout's accounting from
/// it.
pub(crate) fn full_breakdown(
    data_len: usize,
    payload_bytes: usize,
    aux_len: usize,
    run_bytes: usize,
) -> StorageBreakdown {
    StorageBreakdown {
        payload_bytes,
        aux_bytes: run_bytes,
        header_bytes: data_len - payload_bytes + (aux_len - run_bytes),
    }
}

/// Rebalance a [`StorageBreakdown`] after at-rest compression changed a
/// stored object from `raw_len` to `stored_len` bytes, keeping the
/// invariant that `total()` equals the bytes actually stored. Savings
/// come out of the header share first (it is the non-element share of
/// the object), then out of the payload share; growth (a pathological
/// codec on incompressible input) lands on the header share.
pub fn rebalance_breakdown(
    bd: StorageBreakdown,
    raw_len: usize,
    stored_len: usize,
) -> StorageBreakdown {
    let mut bd = bd;
    if stored_len >= raw_len {
        bd.header_bytes += stored_len - raw_len;
    } else {
        let mut saving = raw_len - stored_len;
        let from_header = saving.min(bd.header_bytes);
        bd.header_bytes -= from_header;
        saving -= from_header;
        bd.payload_bytes = bd.payload_bytes.saturating_sub(saving);
    }
    bd
}

/// Durably publish `bytes` at `path`: write a `.tmp` sibling, `fsync` it,
/// rename it over `path`, then best-effort `fsync` the directory so the
/// rename itself survives a crash. Without the file `fsync`, a crash after
/// the rename could publish a name whose *contents* never reached disk —
/// a checkpoint that exists but does not parse.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bitmap, DType, VarData};

    fn sample_vars() -> Vec<VarRecord> {
        vec![
            VarRecord::new("u", VarData::F64((0..20).map(f64::from).collect())),
            VarRecord::new("y", VarData::C128(vec![(1.0, -1.0), (2.0, -2.0)])),
            VarRecord::new("step", VarData::I64(vec![7])),
        ]
    }

    #[test]
    fn full_plan_payload_bytes() {
        let vars = sample_vars();
        let plans = vec![VarPlan::Full, VarPlan::Full, VarPlan::Full];
        let ser = serialize(&vars, &plans).unwrap();
        assert_eq!(ser.breakdown.payload_bytes, 20 * 8 + 2 * 16 + 8);
        assert_eq!(ser.breakdown.aux_bytes, 0);
        assert!(ser.breakdown.header_bytes > 0);
    }

    #[test]
    fn pruned_plan_stores_fewer_bytes() {
        let vars = sample_vars();
        let crit = Bitmap::from_fn(20, |i| i < 15);
        let plans = vec![
            VarPlan::Pruned(Regions::from_bitmap(&crit)),
            VarPlan::Full,
            VarPlan::Full,
        ];
        let ser = serialize(&vars, &plans).unwrap();
        assert_eq!(ser.breakdown.payload_bytes, 15 * 8 + 2 * 16 + 8);
        assert_eq!(ser.breakdown.aux_bytes, 2); // one run: gap 0, length 15
    }

    #[test]
    fn tiered_requires_f64() {
        let vars = vec![VarRecord::new("y", VarData::C128(vec![(0.0, 0.0)]))];
        let plans = vec![VarPlan::Tiered {
            hi: Regions::all(1),
            lo: Regions::empty(),
        }];
        assert!(matches!(
            serialize(&vars, &plans),
            Err(CkptError::PlanMismatch(_))
        ));
    }

    #[test]
    fn plan_count_mismatch_rejected() {
        let vars = sample_vars();
        assert!(serialize(&vars, &[VarPlan::Full]).is_err());
    }

    #[test]
    fn regions_out_of_bounds_rejected() {
        let vars = vec![VarRecord::new("u", VarData::F64(vec![0.0; 4]))];
        let plans = vec![VarPlan::Pruned(Regions::all(9))];
        assert!(serialize(&vars, &plans).is_err());
    }

    #[test]
    fn write_creates_both_files() {
        let dir = std::env::temp_dir().join(format!("scrutiny_ckpt_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let vars = sample_vars();
        let plans = vec![VarPlan::Full, VarPlan::Full, VarPlan::Full];
        let mut store = crate::CheckpointStore::open(&dir, 1).unwrap();
        let (v, bd) = store.save(&vars, &plans).unwrap();
        let len = |name: String| fs::metadata(dir.join(name)).unwrap().len() as usize;
        assert_eq!(
            len(crate::names::data(v)) + len(crate::names::aux(v)),
            bd.total()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn default_lo_codec_is_bit_identical_to_v1() {
        let vars = sample_vars();
        let crit = Bitmap::from_fn(20, |i| i % 2 == 0);
        let hi = Regions::from_bitmap(&crit);
        let plans = vec![
            VarPlan::Tiered {
                lo: hi.complement(20),
                hi,
            },
            VarPlan::Full,
            VarPlan::Full,
        ];
        let v1 = serialize(&vars, &plans).unwrap();
        let with = serialize_with(&vars, &plans, LoCodec::F32).unwrap();
        assert_eq!(v1.data, with.data);
        assert_eq!(v1.aux, with.aux);
        assert_eq!(u32::from_le_bytes(v1.data[8..12].try_into().unwrap()), 1);

        // A truncating codec emits version 2 and a smaller lo payload.
        let t3 = serialize_with(&vars, &plans, LoCodec::Trunc { keep: 3 }).unwrap();
        assert_eq!(u32::from_le_bytes(t3.data[8..12].try_into().unwrap()), 2);
        assert_eq!(t3.data[12], 3);
        assert!(t3.data.len() < v1.data.len());
        assert!(t3.breakdown.payload_bytes < v1.breakdown.payload_bytes);
        assert_eq!(t3.aux, v1.aux, "aux is codec-independent");
    }

    #[test]
    fn rebalance_keeps_total_equal_to_stored_bytes() {
        let bd = StorageBreakdown {
            payload_bytes: 1000,
            aux_bytes: 50,
            header_bytes: 30,
        };
        // Saving smaller than the header share.
        let r = rebalance_breakdown(bd, 1030, 1010);
        assert_eq!((r.payload_bytes, r.header_bytes), (1000, 10));
        // Saving spilling into the payload share.
        let r = rebalance_breakdown(bd, 1030, 400);
        assert_eq!((r.payload_bytes, r.header_bytes), (400, 0));
        assert_eq!(r.total(), 400 + 50);
        // Growth lands on the header share.
        let r = rebalance_breakdown(bd, 1030, 1060);
        assert_eq!((r.payload_bytes, r.header_bytes), (1000, 60));
    }

    #[test]
    fn dtype_sizes_consistent() {
        assert_eq!(DType::F64.elem_bytes(), 8);
        assert_eq!(DType::C128.elem_bytes(), 16);
    }
}
