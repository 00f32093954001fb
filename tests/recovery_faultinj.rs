//! Faultinj-driven recovery suite: every storage-corruption scenario —
//! truncated shard, flipped payload byte, deleted delta base, missing
//! commit marker — must end in a *successful* recovery to an older
//! verified version, with the recovered image **bit-identical** to that
//! version's blocking save and a `RecoveryReport` naming each rejected
//! version. Plus the parallel-restore bit-identity property: on all
//! three layouts (monolithic, sharded, delta chain) and any thread
//! count, `read_data_image_parallel` equals the serial reader byte for
//! byte.
//!
//! CI runs this suite in release next to the stress/delta/segmented
//! suites: the restore pipeline is multi-threaded, and debug-mode
//! timing can hide job-claiming races.

use proptest::prelude::*;
use scrutiny_ckpt::delta::read_data_image;
use scrutiny_ckpt::restore::{read_data_image_parallel, RestoreOptions};
use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{
    names, Bitmap, Checkpoint, CkptError, FillPolicy, Regions, VarData, VarPlan, VarRecord,
};
use scrutiny_engine::{
    DeltaPolicy, EngineConfig, EngineHandle, Layout, MemBackend, RecoveryConfig, RecoveryManager,
    StorageBackend,
};
use scrutiny_faultinj::StorageScenario;
use std::sync::Arc;

/// One distinct state per epoch (all three dtypes; pruned + full plans).
fn epoch_state(epoch: u64) -> (Vec<VarRecord>, Vec<VarPlan>) {
    let n = 400;
    let f: Vec<f64> = (0..n)
        .map(|j| {
            (j as f64 * 0.1).sin()
                + if j as u64 % 37 == epoch % 37 {
                    1.0
                } else {
                    0.0
                }
        })
        .collect();
    let vars = vec![
        VarRecord::new("u", VarData::F64(f)),
        VarRecord::new(
            "y",
            VarData::C128((0..50).map(|j| (j as f64, epoch as f64)).collect()),
        ),
        VarRecord::new("it", VarData::I64(vec![epoch as i64, 3])),
    ];
    let crit = Bitmap::from_fn(n, |j| j % 5 != 2);
    let plans = vec![
        VarPlan::Pruned(Regions::from_bitmap(&crit)),
        VarPlan::Full,
        VarPlan::Full,
    ];
    (vars, plans)
}

/// Expected (blocking-save) data/aux images, one pair per epoch.
type ExpectedImages = Vec<(Vec<u8>, Vec<u8>)>;

/// Run `epochs` submits through an engine with `cfg` over a fresh
/// `MemBackend`; returns the backend plus each epoch's expected
/// (blocking-save) data/aux images.
fn filled(cfg: EngineConfig, epochs: u64) -> (Arc<MemBackend>, ExpectedImages) {
    let mem = Arc::new(MemBackend::new());
    let engine = EngineHandle::open(mem.clone(), cfg).unwrap();
    let mut expected = Vec::new();
    for e in 0..epochs {
        let (vars, plans) = epoch_state(e);
        let t = engine.submit(&vars, &plans).unwrap();
        assert_eq!(t.version(), e);
        engine.wait(t).unwrap();
        let ser = serialize(&vars, &plans).unwrap();
        expected.push((ser.data, ser.aux));
    }
    (mem, expected)
}

fn recover(mem: Arc<MemBackend>) -> scrutiny_engine::Recovered {
    RecoveryManager::new(mem, RecoveryConfig::default())
        .recover_latest()
        .unwrap()
}

#[test]
fn truncated_shard_recovers_prior_version_bit_identically() {
    let (mem, expected) = filled(
        EngineConfig {
            workers: 3,
            target_shards: 4,
            layout: Layout::Sharded,
            ..Default::default()
        },
        3,
    );
    let damaged = StorageScenario::TruncatedShard
        .inject(mem.as_ref(), 2)
        .unwrap();
    assert_eq!(damaged, names::shard(2, 0));

    let r = recover(mem);
    assert_eq!(r.version, 1);
    assert_eq!(r.report.rejected_versions(), vec![2]);
    assert!(
        matches!(
            r.report.rejected[0].error,
            CkptError::Corrupt(_) | CkptError::ChecksumMismatch { .. }
        ),
        "reason: {}",
        r.report.rejected[0].error
    );
    assert_eq!(
        r.data, expected[1].0,
        "recovered image must be bit-identical"
    );
    assert_eq!(r.aux, expected[1].1);
}

#[test]
fn flipped_payload_byte_in_monolithic_recovers_prior_version() {
    let (mem, expected) = filled(EngineConfig::default(), 3);
    let damaged = StorageScenario::FlippedPayloadByte
        .inject(mem.as_ref(), 2)
        .unwrap();
    assert_eq!(damaged, names::data(2));

    let r = recover(mem);
    assert_eq!(r.version, 1);
    assert_eq!(r.report.rejected_versions(), vec![2]);
    assert!(matches!(
        r.report.rejected[0].error,
        CkptError::ChecksumMismatch { .. }
    ));
    assert_eq!(r.data, expected[1].0);
    assert_eq!(r.aux, expected[1].1);
}

/// The compression tentpole's fault-injection guard: damage inside a
/// `SCRUTCZB` container payload must surface as the container's own
/// typed `ChecksumMismatch` (the stored-byte CRC — detected *before*
/// decode output reaches the format layer), the recovery scan must fall
/// back past it, and the recovered image must be bit-identical to the
/// prior version's uncompressed blocking save.
#[test]
fn flipped_compressed_byte_recovers_prior_version_with_typed_rejection() {
    let (mem, expected) = filled(
        EngineConfig {
            codec: scrutiny_ckpt::CodecConfig {
                at_rest: scrutiny_ckpt::AtRest::Auto,
                ..Default::default()
            },
            ..Default::default()
        },
        3,
    );
    let damaged = StorageScenario::FlippedCompressedByte
        .inject(mem.as_ref(), 2)
        .unwrap();
    assert_eq!(damaged, names::data(2));

    let r = recover(mem);
    assert_eq!(r.version, 1);
    assert_eq!(r.report.rejected_versions(), vec![2]);
    assert!(
        matches!(
            r.report.rejected[0].error,
            CkptError::ChecksumMismatch { .. }
        ),
        "container damage must reject as a checksum mismatch, got: {}",
        r.report.rejected[0].error
    );
    assert_eq!(
        r.data, expected[1].0,
        "recovered image must decode bit-identically to the raw save"
    );
    assert_eq!(r.aux, expected[1].1);
}

#[test]
fn flipped_payload_byte_in_a_delta_link_recovers_prior_version() {
    // rebase_every=8 → version 0 is the base, 1..=3 are deltas.
    let (mem, expected) = filled(
        EngineConfig {
            delta: Some(DeltaPolicy {
                page_bytes: 128,
                rebase_every: 8,
            }),
            ..Default::default()
        },
        4,
    );
    let damaged = StorageScenario::FlippedPayloadByte
        .inject(mem.as_ref(), 3)
        .unwrap();
    assert_eq!(damaged, names::delta(3));

    let r = recover(mem);
    assert_eq!(
        r.version, 2,
        "fallback lands inside the intact chain prefix"
    );
    assert_eq!(r.report.rejected_versions(), vec![3]);
    assert_eq!(r.data, expected[2].0);
    // The recovered checkpoint restores through the typed reader too.
    let ck = Checkpoint::from_bytes(&r.data, &r.aux).unwrap();
    let (vars, _) = epoch_state(2);
    let VarData::I64(want) = &vars[2].data else {
        unreachable!()
    };
    assert_eq!(&ck.var("it").unwrap().materialize_i64(0).unwrap(), want);
}

#[test]
fn deleted_delta_base_rejects_the_whole_chain() {
    // rebase_every=2 → bases at 0 and 3; deltas at 1, 2 (on base 0) and
    // 4 (on base 3).
    let (mem, expected) = filled(
        EngineConfig {
            delta: Some(DeltaPolicy {
                page_bytes: 128,
                rebase_every: 2,
            }),
            ..Default::default()
        },
        5,
    );
    let damaged = StorageScenario::DeletedDeltaBase
        .inject(mem.as_ref(), 4)
        .unwrap();
    assert_eq!(
        damaged,
        names::data(3),
        "version 4's chain anchors on base 3"
    );

    let r = recover(mem);
    // 4 fails (its base's image is gone), 3 has artifacts but no commit
    // marker any more; 2 restores through the intact older chain 0→1→2.
    assert_eq!(r.version, 2);
    assert_eq!(r.report.rejected_versions(), vec![4, 3]);
    assert_eq!(r.data, expected[2].0);
    assert_eq!(r.aux, expected[2].1);
}

#[test]
fn missing_commit_marker_is_rejected_by_name() {
    let (mem, expected) = filled(EngineConfig::default(), 3);
    StorageScenario::MissingCommitMarker
        .inject(mem.as_ref(), 2)
        .unwrap();

    let r = recover(mem);
    assert_eq!(r.version, 1);
    assert_eq!(
        r.report.rejected_versions(),
        vec![2],
        "the uncommitted version must be named, not silently skipped"
    );
    assert!(
        r.report.rejected[0]
            .error
            .to_string()
            .contains("commit marker"),
        "reason: {}",
        r.report.rejected[0].error
    );
    assert_eq!(r.data, expected[1].0);
}

#[test]
fn every_version_corrupt_is_a_typed_unrecoverable_error() {
    let (mem, _) = filled(EngineConfig::default(), 3);
    for v in 0..3 {
        StorageScenario::FlippedPayloadByte
            .inject(mem.as_ref(), v)
            .unwrap();
    }
    let err = RecoveryManager::new(mem, RecoveryConfig::default())
        .recover_latest()
        .unwrap_err();
    match err {
        scrutiny_engine::EngineError::Unrecoverable(report) => {
            assert_eq!(report.rejected_versions(), vec![2, 1, 0]);
            assert_eq!(report.scanned, 3);
        }
        other => panic!("expected Unrecoverable, got {other}"),
    }
}

#[test]
fn load_parallel_matches_serial_load_on_a_store_chain() {
    use scrutiny_ckpt::CheckpointStore;
    use scrutiny_engine::DirBackend;
    let dir = std::env::temp_dir().join(format!("scrutiny_loadpar_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = DeltaPolicy {
        page_bytes: 128,
        rebase_every: 3,
    };
    let mut store = CheckpointStore::open(&dir, 16).unwrap();
    for e in 0..5u64 {
        let (vars, plans) = epoch_state(e);
        store.save_delta(&vars, &plans, &policy).unwrap();
    }
    // The same directory, read object by object: the parallel pipeline
    // over `DirBackend::get` against the store's (serial) load.
    let files = DirBackend::open(&dir).unwrap();
    for v in 0..5u64 {
        let serial = store.load(v).unwrap();
        let (data, stats) = read_data_image_parallel(
            v,
            &|name: &str| files.get(name),
            &RestoreOptions { threads: 3 },
        )
        .unwrap();
        let aux = files.get(&names::aux(v)).unwrap();
        let parallel = Checkpoint::from_bytes(&data, &aux).unwrap();
        assert!(stats.image_bytes > 0);
        let (vars, _) = epoch_state(v);
        let VarData::F64(_) = &vars[0].data else {
            unreachable!()
        };
        let a = serial
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Sentinel(-1.0))
            .unwrap();
        let b = parallel
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Sentinel(-1.0))
            .unwrap();
        assert_eq!(a, b, "version {v}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// Parallel restore is bit-identical to the serial reader on every
    /// layout the engine can publish — monolithic, sharded, and delta
    /// chains with random page sizes — for every committed version and
    /// any thread count.
    #[test]
    fn parallel_restore_is_bit_identical_on_all_layouts(
        seed in 0u64..1_000_000,
        epochs in 1u64..5,
        page_bytes in 32usize..512,
        threads in 0usize..5,
        mode in 0usize..3,
    ) {
        let cfg = match mode {
            0 => EngineConfig::default(),
            1 => EngineConfig {
                workers: 2,
                target_shards: 3,
                layout: Layout::Sharded,
                ..Default::default()
            },
            _ => EngineConfig {
                delta: Some(DeltaPolicy { page_bytes, rebase_every: 2 }),
                ..Default::default()
            },
        };
        let mem = Arc::new(MemBackend::new());
        let engine = EngineHandle::open(mem.clone(), cfg).unwrap();
        for e in 0..epochs {
            let (vars, plans) = epoch_state(e.wrapping_add(seed));
            let t = engine.submit(&vars, &plans).unwrap();
            engine.wait(t).unwrap();
        }
        for v in 0..epochs {
            let want = read_data_image(v, |name| mem.get(name)).unwrap();
            let (got, stats) = read_data_image_parallel(
                v,
                &|name: &str| mem.get(name),
                &RestoreOptions { threads },
            ).unwrap();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(stats.image_bytes, want.len());
        }
    }
}
