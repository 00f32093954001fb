//! Checkpoint deserialization and restore-time materialization.
//!
//! Restoring a pruned checkpoint reverses the writer: stored elements are
//! placed at the offsets recorded in the auxiliary file; the holes (the
//! uncritical elements the paper proved removable) are filled according to
//! a [`FillPolicy`] — the §IV.C experiments fill them with garbage and
//! require the application to still verify.
//!
//! Both halves work in bulk. Each stored section is decoded as one slice
//! whose count was admitted against the bytes left, and each variable is
//! rebuilt run by run: one copy per stored run of the auxiliary file, and
//! the fill evaluated only over the holes between runs.

use crate::compress::LoCodec;
use crate::format::{check_envelope, CkptError, Cursor, DType, FillPolicy, VarPlan};
use crate::writer::{
    AUX_MAGIC, AUX_VERSION, FORMAT_VERSION, FORMAT_VERSION_TIERED, MODE_FULL, MODE_PRUNED,
    MODE_TIERED,
};
use crate::{Region, Regions};
use std::iter::Peekable;

/// A variable's stored elements in region order, one vector per dtype
/// (a tiered variable's `hi` section, then its `lo` section upcast to
/// `f64`).
enum Stored {
    F64(Vec<f64>),
    C128(Vec<(f64, f64)>),
    I64(Vec<i64>),
}

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
    /// The stored elements, in region order.
    stored: Stored,
}

impl LoadedVar {
    /// Reassemble the full `f64` array, filling unsaved holes.
    pub fn materialize_f64(&self, fill: FillPolicy) -> Result<Vec<f64>, CkptError> {
        match &self.stored {
            Stored::F64(v) => Ok(self.assemble(v, |i| fill.value(i))),
            _ => Err(self.wrong_dtype(DType::F64)),
        }
    }

    /// Reassemble the full complex array, filling holes in both components.
    pub fn materialize_c128(&self, fill: FillPolicy) -> Result<Vec<(f64, f64)>, CkptError> {
        match &self.stored {
            Stored::C128(v) => Ok(self.assemble(v, |i| (fill.value(2 * i), fill.value(2 * i + 1)))),
            _ => Err(self.wrong_dtype(DType::C128)),
        }
    }

    /// Reassemble the full integer array; holes get `fill`.
    pub fn materialize_i64(&self, fill: i64) -> Result<Vec<i64>, CkptError> {
        match &self.stored {
            Stored::I64(v) => Ok(self.assemble(v, |_| fill)),
            _ => Err(self.wrong_dtype(DType::I64)),
        }
    }

    fn wrong_dtype(&self, want: DType) -> CkptError {
        CkptError::PlanMismatch(format!("{:?} is {:?}, not {want:?}", self.name, self.dtype))
    }

    /// The `total` elements of this variable: each stored run copied in
    /// one piece, `hole(i)` evaluated only for the indices no run covers.
    /// A hole's value depends on its index alone, so the bits are those of
    /// filling every element and then overwriting the stored ones.
    fn assemble<T: Copy>(&self, stored: &[T], hole: impl Fn(usize) -> T) -> Vec<T> {
        let total = self.total as usize;
        match &self.plan {
            VarPlan::Full => stored.to_vec(),
            VarPlan::Pruned(r) => fill_between(total, hole, run_values(r, stored)),
            VarPlan::Tiered { hi, lo } => {
                let (h, l) = stored.split_at(hi.covered() as usize);
                let (mut h, mut l) = (run_values(hi, h), run_values(lo, l));
                // Disjoint and each ascending: merge by start.
                let merged = std::iter::from_fn(|| {
                    let lo_first = match (h.peek(), l.peek()) {
                        (Some(a), Some(b)) => b.0.start < a.0.start,
                        (a, _) => a.is_none(),
                    };
                    if lo_first {
                        l.next()
                    } else {
                        h.next()
                    }
                });
                fill_between(total, hole, merged)
            }
        }
    }
}

/// Each run of `regions` beside its slice of `stored`, which holds the
/// covered elements in ascending order.
fn run_values<'s, T>(
    regions: &'s Regions,
    mut stored: &'s [T],
) -> Peekable<impl Iterator<Item = (&'s Region, &'s [T])>> {
    regions
        .runs()
        .iter()
        .map(move |r| {
            let (run, rest) = stored.split_at(r.len() as usize);
            stored = rest;
            (r, run)
        })
        .peekable()
}

/// `total` elements: the `(run, values)` pairs, ascending and disjoint,
/// copied in place, and `hole(i)` at every index between them.
fn fill_between<'s, T: Copy + 's>(
    total: usize,
    hole: impl Fn(usize) -> T,
    runs: impl Iterator<Item = (&'s Region, &'s [T])>,
) -> Vec<T> {
    let mut out = Vec::with_capacity(total);
    for (run, values) in runs {
        out.extend((out.len()..run.start as usize).map(&hole));
        out.extend_from_slice(values);
    }
    out.extend((out.len()..total).map(&hole));
    out
}

/// A parsed checkpoint (all variables).
pub struct Checkpoint {
    vars: Vec<LoadedVar>,
}

/// One run list of an auxiliary file of `version`: in version 2, `nruns`
/// and each run's gap from the previous run's end and its length, all
/// LEB128 (each at least one byte); in version 1, `nruns` and each run's
/// `start` and `end` as `u64`s. Both are held to one rule: runs non-empty,
/// ascending, and neither overlapping nor touching.
fn read_runs(c: &mut Cursor, version: u32) -> Result<Regions, CkptError> {
    let v2 = version == AUX_VERSION;
    let n = if v2 { c.leb128()? } else { c.u64()? };
    let n = c.count(n, if v2 { 2 } else { 16 })?;
    // Not sized from `n`: a run takes 16 bytes here but as few as 2 in
    // the file, so the table grows only with the runs actually read.
    let mut runs: Vec<Region> = Vec::new();
    for _ in 0..n {
        let (start, end) = if v2 {
            let prev = runs.last().map_or(0, |r| r.end);
            let (gap, len) = (c.leb128()?, c.leb128()?);
            let run = prev
                .checked_add(gap)
                .and_then(|s| Some((s, s.checked_add(len)?)));
            run.ok_or_else(|| {
                CkptError::Corrupt(format!(
                    "region of gap {gap} and length {len} after {prev} overflows"
                ))
            })?
        } else {
            (c.u64()?, c.u64()?)
        };
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
        let mut c = check_envelope(aux, AUX_MAGIC, 16, "auxiliary file")?;
        let version = c.version(&[FORMAT_VERSION, AUX_VERSION], "auxiliary file")?;
        let nvars = c.u32()?;
        // Every variable takes at least a name length and a mode byte.
        let nvars = c.count(nvars.into(), 3)?;
        let mut plans: Vec<(String, u8, VarPlan)> = Vec::new();
        for _ in 0..nvars {
            let name = c.str()?.to_owned();
            let mode = c.u8()?;
            let plan = match mode {
                MODE_FULL => VarPlan::Full,
                MODE_PRUNED => VarPlan::Pruned(read_runs(&mut c, version)?),
                MODE_TIERED => {
                    let (hi, lo) = (read_runs(&mut c, version)?, read_runs(&mut c, version)?);
                    if !hi.intersect(&lo).is_empty() {
                        return Err(CkptError::Corrupt(format!(
                            "{name:?}: hi and lo regions intersect"
                        )));
                    }
                    VarPlan::Tiered { hi, lo }
                }
                m => return Err(CkptError::Corrupt(format!("unknown plan mode {m}"))),
            };
            plans.push((name, mode, plan));
        }
        c.finish("auxiliary file")?;

        // --- data file ----------------------------------------------------
        let mut c = check_envelope(data, b"SCRUTCKP", 16, "data file")?;
        let known = [FORMAT_VERSION, FORMAT_VERSION_TIERED];
        let lo_codec = match c.version(&known, "data format")? {
            FORMAT_VERSION => LoCodec::F32,
            _ => LoCodec::from_tag(c.u8()?)?,
        };
        let nvars_d = c.u32()? as usize;
        if nvars_d != nvars {
            return Err(CkptError::Corrupt(format!(
                "data file has {nvars_d} variables, auxiliary file has {nvars}"
            )));
        }
        let mut vars = Vec::new();
        for (name, aux_mode, plan) in plans {
            let data_name = c.str()?;
            if data_name != name {
                return Err(CkptError::Corrupt(format!(
                    "variable order mismatch: data {data_name:?} vs aux {name:?}"
                )));
            }
            let dtype = DType::from_tag(c.u8()?)?;
            let mode = c.u8()?;
            if mode != aux_mode {
                return Err(CkptError::Corrupt(format!(
                    "{name:?}: data file mode {mode}, auxiliary file mode {aux_mode}"
                )));
            }
            let total = c.u64()?;
            let end = plan_end(&plan);
            if end > total {
                return Err(CkptError::Corrupt(format!(
                    "{name:?}: a region ends at {end}, past its {total} elements"
                )));
            }
            let count = c.u64()?;
            let stored = match (&plan, dtype) {
                (VarPlan::Tiered { hi, .. }, DType::F64) => {
                    // `assemble` splits the stored values at `hi.covered()`.
                    let planned = hi.covered();
                    if count != planned {
                        return Err(CkptError::Corrupt(format!(
                            "{name:?}: auxiliary file plans {planned} hi elements, data file stores {count}"
                        )));
                    }
                    let mut v = c.f64s(count)?;
                    let lo = c.u64()?;
                    c.los(lo, lo_codec, &mut v)?;
                    Stored::F64(v)
                }
                (VarPlan::Tiered { .. }, _) => {
                    return Err(CkptError::Corrupt(format!(
                        "{name:?}: a tiered variable must be F64, not {dtype:?}"
                    )))
                }
                (_, DType::F64) => Stored::F64(c.f64s(count)?),
                (_, DType::C128) => Stored::C128(c.c128s(count)?),
                (_, DType::I64) => Stored::I64(c.i64s(count)?),
            };
            // Cross-check the two files agree on how much was stored.
            let planned = plan.stored_elems(total);
            let actual = match &stored {
                Stored::F64(v) => v.len(), // tiered: hi + lo
                Stored::C128(v) => v.len(),
                Stored::I64(v) => v.len(),
            } as u64;
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
            });
        }
        c.finish("data file")?;
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

    /// Beyond the element counts, the two files must agree on each
    /// variable's mode; a tiered variable must be f64 with disjoint tiers.
    #[test]
    fn disagreeing_files_are_corrupt() {
        let resealed = |file: &[u8], at: usize, byte: u8| {
            let mut f = file.to_vec();
            f[at] = byte;
            let body = f.len() - 4;
            let crc = crate::format::crc32(&f[..body]);
            f[body..].copy_from_slice(&crc.to_le_bytes());
            f
        };
        let refusal = |data: &[u8], aux: &[u8]| match Checkpoint::from_bytes(data, aux) {
            Err(CkptError::Corrupt(m)) => m,
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(_) => panic!("disagreeing files parsed"),
        };
        // "u" of 8: dtype at data offset 19, mode at 20; the aux file's
        // mode at 19, and (tiered) the lo run's one-byte gap, its start,
        // at 24.
        let vars = vec![VarRecord::new("u", VarData::F64(vec![0.5; 8]))];
        let runs = |a, b| Regions::from_runs(vec![Region { start: a, end: b }]);
        let ser = serialize(&vars, &[VarPlan::Pruned(runs(0, 4))]).unwrap();
        let m = refusal(&resealed(&ser.data, 20, MODE_FULL), &ser.aux);
        assert!(m.contains("mode"), "{m}");
        let tiered = VarPlan::Tiered {
            hi: runs(0, 2),
            lo: runs(4, 8),
        };
        let ser = serialize(&vars, &[tiered]).unwrap();
        let m = refusal(&resealed(&ser.data, 19, DType::I64.tag()), &ser.aux);
        assert!(m.contains("must be F64"), "{m}");
        assert_eq!(ser.aux[20..26], [1, 0, 2, 1, 4, 4], "hi and lo runs");
        let m = refusal(&ser.data, &resealed(&ser.aux, 24, 1));
        assert!(m.contains("intersect"), "{m}");
        // One element moved from lo to hi, the data file rebuilt so every
        // length still adds up: hi count 2 at 29, lo count 4 at 53, then
        // four f32s to the trailer. hi + lo still matches the plan.
        let (hi_at, lo_at) = (29, 53);
        assert_eq!(ser.data[hi_at..hi_at + 8], 2u64.to_le_bytes());
        assert_eq!(ser.data[lo_at..lo_at + 8], 4u64.to_le_bytes());
        assert_eq!(ser.data.len() - 4, lo_at + 8 + 16);
        let mut body = ser.data[..hi_at].to_vec();
        body.extend(3u64.to_le_bytes());
        body.extend(&ser.data[hi_at + 8..lo_at]);
        body.extend(0.5f64.to_le_bytes());
        body.extend(3u64.to_le_bytes());
        body.extend(&ser.data[lo_at + 8..lo_at + 8 + 12]);
        let crc = crate::format::crc32(&body);
        body.extend(crc.to_le_bytes());
        let m = refusal(&body, &ser.aux);
        assert!(m.contains("plans 2 hi elements"), "{m}");
    }

    #[test]
    fn wrong_magic_rejected() {
        let vars = vec![VarRecord::new("u", VarData::F64(vec![1.0]))];
        let ser = serialize(&vars, &[VarPlan::Full]).unwrap();
        assert!(Checkpoint::from_bytes(&ser.aux, &ser.aux).is_err());
    }
}
