//! On-disk checkpoint behaviour: round trips, corruption detection,
//! retention, fill policies.

use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{
    Bitmap, Checkpoint, CheckpointStore, CkptError, FillPolicy, Regions, VarData, VarPlan,
    VarRecord,
};
use std::fs;
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("scrutiny_it_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn sample() -> (Vec<VarRecord>, Vec<VarPlan>) {
    let vals: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
    let crit = Bitmap::from_fn(1000, |i| i % 7 != 3);
    (
        vec![
            VarRecord::new("u", VarData::F64(vals)),
            VarRecord::new("sums", VarData::C128(vec![(1.0, 2.0); 8])),
            VarRecord::new("it", VarData::I64(vec![42])),
        ],
        vec![
            VarPlan::Pruned(Regions::from_bitmap(&crit)),
            VarPlan::Full,
            VarPlan::Full,
        ],
    )
}

#[test]
fn disk_roundtrip_preserves_critical_elements() {
    let dir = tmp("roundtrip");
    let (vars, plans) = sample();
    let mut store = CheckpointStore::open(&dir, 3).unwrap();
    let (version, _) = store.save(&vars, &plans).unwrap();
    let ck = store.load(version).unwrap();
    let u = ck
        .var("u")
        .unwrap()
        .materialize_f64(FillPolicy::Sentinel(-1.0))
        .unwrap();
    for (i, v) in u.iter().enumerate() {
        if i % 7 != 3 {
            assert_eq!(*v, (i as f64).sin());
        } else {
            assert_eq!(*v, -1.0);
        }
    }
    assert_eq!(ck.var("it").unwrap().materialize_i64(0).unwrap(), vec![42]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn on_disk_bitrot_is_detected() {
    let dir = tmp("bitrot");
    let (vars, plans) = sample();
    let mut store = CheckpointStore::open(&dir, 2).unwrap();
    let (version, _) = store.save(&vars, &plans).unwrap();
    // Flip one byte mid-file.
    let data_path = dir.join(format!("ckpt_{version:06}.data"));
    let mut bytes = fs::read(&data_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&data_path, &bytes).unwrap();
    match store.load(version) {
        Err(CkptError::ChecksumMismatch { .. }) => {}
        Err(other) => panic!("expected checksum mismatch, got {other}"),
        Ok(_) => panic!("corrupted checkpoint loaded successfully"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retention_keeps_only_newest() {
    let dir = tmp("keep");
    let (vars, plans) = sample();
    let mut store = CheckpointStore::open(&dir, 2).unwrap();
    for _ in 0..5 {
        store.save(&vars, &plans).unwrap();
    }
    assert_eq!(store.versions().unwrap().len(), 2);
    assert_eq!(store.recover_latest().unwrap().version, 4);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn aux_and_data_must_agree() {
    let (vars, plans) = sample();
    let ser = serialize(&vars, &plans).unwrap();
    // Swap in the aux file of a different plan set.
    let full: Vec<VarPlan> = vars.iter().map(|_| VarPlan::Full).collect();
    let ser_full = serialize(&vars, &full).unwrap();
    assert!(Checkpoint::from_bytes(&ser.data, &ser_full.aux).is_err());
}

#[test]
fn garbage_fill_is_deterministic_across_loads() {
    let (vars, plans) = sample();
    let ser = serialize(&vars, &plans).unwrap();
    let a = Checkpoint::from_bytes(&ser.data, &ser.aux)
        .unwrap()
        .var("u")
        .unwrap()
        .materialize_f64(FillPolicy::Garbage(9))
        .unwrap();
    let b = Checkpoint::from_bytes(&ser.data, &ser.aux)
        .unwrap()
        .var("u")
        .unwrap()
        .materialize_f64(FillPolicy::Garbage(9))
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn overlong_variable_name_is_a_typed_plan_mismatch_in_every_writer() {
    use scrutiny_ckpt::{plan_shards_with, serialize_with, LoCodec};
    use scrutiny_engine::StorageBackend;
    use scrutiny_engine::{read_version, EngineConfig, EngineError, EngineHandle, MemBackend};
    use std::sync::Arc;
    // One byte past the u16 both files store a name length in: the one
    // validation rejects it, so neither the encoder nor `serialize_aux`
    // ever truncates (or asserts on) a name.
    let named = |len: usize| vec![VarRecord::new("n".repeat(len), VarData::I64(vec![1]))];
    let vars = named(u16::MAX as usize + 1);
    let plans = [VarPlan::Full];
    assert!(matches!(
        serialize_with(&vars, &plans, LoCodec::F32),
        Err(CkptError::PlanMismatch(_))
    ));
    assert!(matches!(
        plan_shards_with(&vars, &plans, 3, LoCodec::F32),
        Err(CkptError::PlanMismatch(_))
    ));
    let mem = Arc::new(MemBackend::new());
    let engine = EngineHandle::open(mem.clone(), EngineConfig::default()).unwrap();
    match engine.submit(&vars, &plans) {
        Err(EngineError::Ckpt(CkptError::PlanMismatch(_))) => {}
        other => panic!("expected a typed plan mismatch, got {other:?}"),
    }
    assert!(mem.list().unwrap().is_empty());
    // The longest legal name still round-trips.
    let ticket = engine.submit(&named(u16::MAX as usize), &plans).unwrap();
    let version = ticket.version();
    engine.wait(ticket).unwrap();
    let (data, aux) = read_version(mem.as_ref(), version).unwrap();
    let ck = Checkpoint::from_bytes(&data, &aux).unwrap();
    assert_eq!(ck.names()[0].len(), u16::MAX as usize);
}
