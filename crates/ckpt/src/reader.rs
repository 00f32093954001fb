//! Checkpoint deserialization and restore-time materialization.
//!
//! Restoring a pruned checkpoint reverses the writer: stored elements are
//! placed at the offsets recorded in the auxiliary file; the holes (the
//! uncritical elements the paper proved removable) are filled according to
//! a [`FillPolicy`] — the §IV.C experiments fill them with garbage and
//! require the application to still verify.

use crate::format::{check_envelope, CkptError, DType, FillPolicy, VarPlan};
use crate::writer::{MODE_FULL, MODE_PRUNED, MODE_TIERED};
use crate::{Region, Regions};

/// One variable loaded from a checkpoint (sparse form).
pub struct LoadedVar {
    /// Variable name.
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Full logical element count of the variable.
    pub total: u64,
    /// Storage plan reconstructed from the auxiliary file.
    pub plan: VarPlan,
    /// Stored elements in region order (f64 view; complex uses two slots
    /// per element; tiered `lo` values were upcast from f32 on read).
    stored: Vec<f64>,
    /// Stored integer elements (only for [`DType::I64`]).
    stored_i: Vec<i64>,
}

impl LoadedVar {
    /// Reassemble the full `f64` array, filling unsaved holes.
    pub fn materialize_f64(&self, fill: FillPolicy) -> Result<Vec<f64>, CkptError> {
        if self.dtype != DType::F64 {
            return Err(CkptError::PlanMismatch(format!(
                "{:?} is {:?}, not F64",
                self.name, self.dtype
            )));
        }
        let n = self.total as usize;
        let mut out: Vec<f64> = (0..n).map(|i| fill.value(i)).collect();
        match &self.plan {
            VarPlan::Full => out.copy_from_slice(&self.stored),
            VarPlan::Pruned(regions) => {
                scatter(&mut out, regions, &self.stored);
            }
            VarPlan::Tiered { hi, lo } => {
                let hi_n = hi.covered() as usize;
                scatter(&mut out, hi, &self.stored[..hi_n]);
                scatter(&mut out, lo, &self.stored[hi_n..]);
            }
        }
        Ok(out)
    }

    /// Reassemble the full complex array, filling holes in both components.
    pub fn materialize_c128(&self, fill: FillPolicy) -> Result<Vec<(f64, f64)>, CkptError> {
        if self.dtype != DType::C128 {
            return Err(CkptError::PlanMismatch(format!(
                "{:?} is {:?}, not C128",
                self.name, self.dtype
            )));
        }
        let n = self.total as usize;
        let mut out: Vec<(f64, f64)> = (0..n)
            .map(|i| (fill.value(2 * i), fill.value(2 * i + 1)))
            .collect();
        let pairs: Vec<(f64, f64)> = self.stored.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        match &self.plan {
            VarPlan::Full => out.copy_from_slice(&pairs),
            VarPlan::Pruned(regions) => {
                for (i, &p) in regions.indices().zip(pairs.iter()) {
                    out[i as usize] = p;
                }
            }
            VarPlan::Tiered { .. } => {
                return Err(CkptError::PlanMismatch(
                    "tiered complex variables are not supported".into(),
                ))
            }
        }
        Ok(out)
    }

    /// Reassemble the full integer array; holes get `fill`.
    pub fn materialize_i64(&self, fill: i64) -> Result<Vec<i64>, CkptError> {
        if self.dtype != DType::I64 {
            return Err(CkptError::PlanMismatch(format!(
                "{:?} is {:?}, not I64",
                self.name, self.dtype
            )));
        }
        let n = self.total as usize;
        let mut out = vec![fill; n];
        match &self.plan {
            VarPlan::Full => out.copy_from_slice(&self.stored_i),
            VarPlan::Pruned(regions) => {
                for (i, &v) in regions.indices().zip(self.stored_i.iter()) {
                    out[i as usize] = v;
                }
            }
            VarPlan::Tiered { .. } => {
                return Err(CkptError::PlanMismatch(
                    "tiered integer variables are not supported".into(),
                ))
            }
        }
        Ok(out)
    }
}

fn scatter(out: &mut [f64], regions: &Regions, stored: &[f64]) {
    for (i, &v) in regions.indices().zip(stored.iter()) {
        out[i as usize] = v;
    }
}

/// A parsed checkpoint (all variables).
pub struct Checkpoint {
    vars: Vec<LoadedVar>,
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.pos + n > self.buf.len() {
            return Err(CkptError::Corrupt(format!(
                "truncated: need {n} bytes at offset {}, file has {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, CkptError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Admit a count a file declares of items at least `item_bytes` wide:
    /// never more than the bytes left could hold, so a CRC-consistent but
    /// hostile count cannot size an allocation or a loop.
    fn count(&self, n: u64, item_bytes: usize) -> Result<usize, CkptError> {
        let room = (self.buf.len() - self.pos) / item_bytes;
        if n > room as u64 {
            return Err(CkptError::Corrupt(format!(
                "count {n} at offset {} exceeds the {room} items the file has room for",
                self.pos
            )));
        }
        Ok(n as usize)
    }
    fn name(&mut self) -> Result<String, CkptError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CkptError::Corrupt("variable name is not UTF-8".into()))
    }
}

fn read_runs(c: &mut Cursor) -> Result<Regions, CkptError> {
    let n = c.u64()?;
    let n = c.count(n, 16)?;
    let mut runs: Vec<Region> = Vec::with_capacity(n);
    for _ in 0..n {
        let start = c.u64()?;
        let end = c.u64()?;
        if end <= start {
            return Err(CkptError::Corrupt(format!("empty region [{start},{end})")));
        }
        // `Regions::from_runs` asserts what a hostile file may break.
        if runs.last().is_some_and(|prev| start <= prev.end) {
            return Err(CkptError::Corrupt(format!(
                "region [{start},{end}) is unsorted, overlapping or touching its predecessor"
            )));
        }
        runs.push(Region { start, end });
    }
    Ok(Regions::from_runs(runs))
}

/// One past the last element `plan`'s region tables name (0 for `Full`).
fn plan_end(plan: &VarPlan) -> u64 {
    let end = |r: &Regions| r.runs().last().map_or(0, |r| r.end);
    match plan {
        VarPlan::Full => 0,
        VarPlan::Pruned(r) => end(r),
        VarPlan::Tiered { hi, lo } => end(hi).max(end(lo)),
    }
}

impl Checkpoint {
    /// Parse a checkpoint from in-memory data + auxiliary file images.
    pub fn from_bytes(data: &[u8], aux: &[u8]) -> Result<Self, CkptError> {
        // --- auxiliary file first: it carries the region tables ----------
        let body = check_envelope(aux, b"SCRUTAUX", 16, "auxiliary file")?;
        let mut c = Cursor { buf: body, pos: 8 };
        let _ver = c.u32()?;
        let nvars = c.u32()?;
        // Every variable takes at least a name length and a mode byte.
        let nvars = c.count(nvars.into(), 3)?;
        let mut plans: Vec<(String, VarPlan)> = Vec::new();
        for _ in 0..nvars {
            let name = c.name()?;
            let mode = c.u8()?;
            let plan = match mode {
                MODE_FULL => VarPlan::Full,
                MODE_PRUNED => VarPlan::Pruned(read_runs(&mut c)?),
                MODE_TIERED => VarPlan::Tiered {
                    hi: read_runs(&mut c)?,
                    lo: read_runs(&mut c)?,
                },
                m => return Err(CkptError::Corrupt(format!("unknown plan mode {m}"))),
            };
            plans.push((name, plan));
        }

        // --- data file ----------------------------------------------------
        let body = check_envelope(data, b"SCRUTCKP", 16, "data file")?;
        let mut c = Cursor { buf: body, pos: 8 };
        let ver = c.u32()?;
        let lo_codec = match ver {
            crate::writer::FORMAT_VERSION => crate::compress::LoCodec::F32,
            crate::writer::FORMAT_VERSION_TIERED => crate::compress::LoCodec::from_tag(c.u8()?)?,
            v => {
                return Err(CkptError::Corrupt(format!(
                    "unsupported data format version {v}"
                )))
            }
        };
        let nvars_d = c.u32()? as usize;
        if nvars_d != nvars {
            return Err(CkptError::Corrupt(format!(
                "data file has {nvars_d} variables, auxiliary file has {nvars}"
            )));
        }
        let mut vars = Vec::new();
        for (aux_name, plan) in plans {
            let name = c.name()?;
            if name != aux_name {
                return Err(CkptError::Corrupt(format!(
                    "variable order mismatch: data {name:?} vs aux {aux_name:?}"
                )));
            }
            let dtype = DType::from_tag(c.u8()?)?;
            let mode = c.u8()?;
            let total = c.u64()?;
            let end = plan_end(&plan);
            if end > total {
                return Err(CkptError::Corrupt(format!(
                    "{name:?}: a region ends at {end}, past its {total} elements"
                )));
            }
            let mut stored = Vec::new();
            let mut stored_i = Vec::new();
            match mode {
                MODE_FULL | MODE_PRUNED => {
                    let count = c.u64()?;
                    let count = c.count(count, dtype.elem_bytes())?;
                    if dtype == DType::I64 {
                        stored_i.reserve(count);
                        for _ in 0..count {
                            stored_i.push(c.i64()?);
                        }
                    } else {
                        // A complex element is two doubles, re then im.
                        let doubles = count * (dtype.elem_bytes() / 8);
                        stored.reserve(doubles);
                        for _ in 0..doubles {
                            stored.push(c.f64()?);
                        }
                    }
                }
                MODE_TIERED => {
                    let hi = c.u64()?;
                    for _ in 0..c.count(hi, 8)? {
                        stored.push(c.f64()?);
                    }
                    let lo = c.u64()?;
                    let width = lo_codec.width();
                    for _ in 0..c.count(lo, width)? {
                        stored.push(lo_codec.decode(c.take(width)?));
                    }
                }
                m => return Err(CkptError::Corrupt(format!("unknown data mode {m}"))),
            }
            // Cross-check the two files agree on how much was stored.
            let planned = plan.stored_elems(total);
            let actual = match dtype {
                DType::C128 => stored.len() as u64 / 2,
                DType::I64 => stored_i.len() as u64,
                DType::F64 => stored.len() as u64, // tiered: hi + lo
            };
            if planned != actual {
                return Err(CkptError::Corrupt(format!(
                    "{name:?}: auxiliary file plans {planned} elements, data file stores {actual}"
                )));
            }
            vars.push(LoadedVar {
                name,
                dtype,
                total,
                plan,
                stored,
                stored_i,
            });
        }
        Ok(Checkpoint { vars })
    }

    /// Look up a variable by name.
    pub fn var(&self, name: &str) -> Result<&LoadedVar, CkptError> {
        self.vars
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| CkptError::MissingVar(name.to_string()))
    }

    /// All variable names in file order.
    pub fn names(&self) -> Vec<&str> {
        self.vars.iter().map(|v| v.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::serialize;
    use crate::{Bitmap, VarData, VarRecord};

    fn roundtrip(vars: &[VarRecord], plans: &[VarPlan]) -> Checkpoint {
        let ser = serialize(vars, plans).unwrap();
        Checkpoint::from_bytes(&ser.data, &ser.aux).unwrap()
    }

    #[test]
    fn full_roundtrip_f64() {
        let vals: Vec<f64> = (0..50).map(|i| i as f64 * 1.5).collect();
        let vars = vec![VarRecord::new("u", VarData::F64(vals.clone()))];
        let ck = roundtrip(&vars, &[VarPlan::Full]);
        let got = ck
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Zero)
            .unwrap();
        assert_eq!(got, vals);
    }

    #[test]
    fn pruned_roundtrip_fills_holes() {
        let vals: Vec<f64> = (0..10).map(f64::from).collect();
        let crit = Bitmap::from_fn(10, |i| i % 2 == 0);
        let vars = vec![VarRecord::new("u", VarData::F64(vals))];
        let plans = vec![VarPlan::Pruned(Regions::from_bitmap(&crit))];
        let ck = roundtrip(&vars, &plans);
        let got = ck
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Sentinel(-9.0))
            .unwrap();
        for (i, &g) in got.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(g, i as f64);
            } else {
                assert_eq!(g, -9.0);
            }
        }
    }

    #[test]
    fn complex_roundtrip() {
        let vals: Vec<(f64, f64)> = (0..8).map(|i| (i as f64, -(i as f64))).collect();
        let crit = Bitmap::from_fn(8, |i| i < 6);
        let vars = vec![VarRecord::new("y", VarData::C128(vals.clone()))];
        let plans = vec![VarPlan::Pruned(Regions::from_bitmap(&crit))];
        let ck = roundtrip(&vars, &plans);
        let got = ck
            .var("y")
            .unwrap()
            .materialize_c128(FillPolicy::Zero)
            .unwrap();
        assert_eq!(&got[..6], &vals[..6]);
        assert_eq!(got[6], (0.0, 0.0));
    }

    #[test]
    fn integer_roundtrip() {
        let vars = vec![VarRecord::new("it", VarData::I64(vec![41, 42, 43]))];
        let ck = roundtrip(&vars, &[VarPlan::Full]);
        assert_eq!(
            ck.var("it").unwrap().materialize_i64(0).unwrap(),
            vec![41, 42, 43]
        );
    }

    #[test]
    fn tiered_roundtrip_loses_lo_precision_only() {
        let vals = vec![1.0 + 1e-12, 2.5, 3.25, 4.0 + 1e-12];
        let vars = vec![VarRecord::new("u", VarData::F64(vals.clone()))];
        let hi = Regions::from_runs(vec![Region { start: 0, end: 2 }]);
        let lo = Regions::from_runs(vec![Region { start: 3, end: 4 }]);
        let plans = vec![VarPlan::Tiered { hi, lo }];
        let ck = roundtrip(&vars, &plans);
        let got = ck
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Zero)
            .unwrap();
        assert_eq!(got[0], vals[0]); // exact f64
        assert_eq!(got[1], vals[1]);
        assert_eq!(got[2], 0.0); // dropped
        assert_eq!(got[3], vals[3] as f32 as f64); // f32 round-trip
    }

    #[test]
    fn tiered_v2_truncated_lo_roundtrips_within_bound() {
        use crate::compress::LoCodec;
        use crate::writer::serialize_with;
        let vals: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let vars = vec![VarRecord::new("u", VarData::F64(vals.clone()))];
        let hi = Regions::from_runs(vec![Region { start: 0, end: 10 }]);
        let lo = Regions::from_runs(vec![Region { start: 10, end: 40 }]);
        let plans = vec![VarPlan::Tiered { hi, lo }];
        for keep in [2u8, 4, 6] {
            let codec = LoCodec::Trunc { keep };
            let ser = serialize_with(&vars, &plans, codec).unwrap();
            let ck = Checkpoint::from_bytes(&ser.data, &ser.aux).unwrap();
            let got = ck
                .var("u")
                .unwrap()
                .materialize_f64(FillPolicy::Zero)
                .unwrap();
            for i in 0..10 {
                assert_eq!(got[i], vals[i], "hi tier stays exact (keep={keep})");
            }
            for i in 10..40 {
                assert_eq!(got[i], codec.apply(vals[i]), "lo tier (keep={keep})");
            }
        }
        // An unknown future version is a typed parse error, not a panic.
        let ser = serialize(&vars, &plans).unwrap();
        let mut bad = ser.data.clone();
        bad[8] = 9; // version field
        let body_len = bad.len() - 4;
        let crc = crate::format::crc32(&bad[..body_len]);
        bad[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bad, &ser.aux),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn crc_corruption_detected() {
        let vars = vec![VarRecord::new("u", VarData::F64(vec![1.0, 2.0]))];
        let mut ser = serialize(&vars, &[VarPlan::Full]).unwrap();
        let mid = ser.data.len() / 2;
        ser.data[mid] ^= 0xFF;
        assert!(matches!(
            Checkpoint::from_bytes(&ser.data, &ser.aux),
            Err(CkptError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let vars = vec![VarRecord::new("u", VarData::F64(vec![1.0, 2.0]))];
        let ser = serialize(&vars, &[VarPlan::Full]).unwrap();
        let cut = &ser.data[..ser.data.len() - 10];
        assert!(Checkpoint::from_bytes(cut, &ser.aux).is_err());
    }

    #[test]
    fn missing_var_reported() {
        let vars = vec![VarRecord::new("u", VarData::F64(vec![1.0]))];
        let ck = roundtrip(&vars, &[VarPlan::Full]);
        assert!(matches!(ck.var("nope"), Err(CkptError::MissingVar(_))));
    }

    #[test]
    fn load_accepts_sharded_dir_layout() {
        use crate::backend::{DirBackend, StorageBackend};
        use crate::shard::{plan_shards, seal_shards, serialize_all};
        use crate::writer::serialize_aux;
        use crate::{names, CheckpointStore};
        use std::fs;

        let dir = std::env::temp_dir().join(format!("scrutiny_shard_load_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let files = DirBackend::open(&dir).unwrap();

        let vals: Vec<f64> = (0..300).map(|i| (i as f64).sin()).collect();
        let crit = Bitmap::from_fn(300, |i| i % 7 != 0);
        let vars = vec![VarRecord::new("u", VarData::F64(vals.clone()))];
        let plans = vec![VarPlan::Pruned(Regions::from_bitmap(&crit))];

        let plan = plan_shards(&vars, &plans, 4).unwrap();
        let (sealed, manifest) = seal_shards(serialize_all(&vars, &plans, &plan).0);
        for (i, shard) in sealed.iter().enumerate() {
            files.put(&names::shard(5, i), shard).unwrap();
        }
        files
            .put(&names::manifest(5), &manifest.to_bytes())
            .unwrap();
        let (aux, _) = serialize_aux(&vars, &plans);
        files.put("ckpt_000005.aux", &aux).unwrap();

        // No ckpt_000005.data exists — the reader must reassemble shards.
        let ck = CheckpointStore::open(&dir, 1).unwrap().load(5).unwrap();
        let got = ck
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Zero)
            .unwrap();
        for (i, (&g, &w)) in got.iter().zip(&vals).enumerate() {
            if i % 7 != 0 {
                assert_eq!(g, w, "stored element {i}");
            } else {
                assert_eq!(g, 0.0, "pruned hole {i}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_rejected() {
        let vars = vec![VarRecord::new("u", VarData::F64(vec![1.0]))];
        let ser = serialize(&vars, &[VarPlan::Full]).unwrap();
        assert!(Checkpoint::from_bytes(&ser.aux, &ser.aux).is_err());
    }
}
