//! Faultinj-driven recovery suite: every storage-corruption scenario —
//! truncated shard, flipped payload byte, deleted delta base, missing
//! commit marker — must end in a *successful* recovery to an older
//! verified version, with the recovered image **bit-identical** to that
//! version's blocking save and a `RecoveryReport` naming each rejected
//! version. Plus the parallel-restore bit-identity property: on all
//! three layouts (monolithic, sharded, delta chain) and any thread
//! count, the one reader (`read_data_image_parallel`) returns the same
//! bytes as at `threads: 1`. And the hostile-length cases: a length field
//! (or a region table) that is CRC-consistent but absurd is a typed
//! `Corrupt`, decided before it sizes an allocation — this binary counts
//! allocations (`CountingAlloc`) to check the last clause. And the
//! `SCRUTCZB` decoder behind forged CRCs: mutated payloads whose CRCs are
//! re-sealed decode exactly as FORMATS §9 reads them or are typed
//! `Corrupt`, and a verified container of another version's shard is
//! still a `ChecksumMismatch` against the manifest.
//!
//! CI runs this suite in release next to the stress/delta/segmented
//! suites: the restore pipeline is multi-threaded, and debug-mode
//! timing can hide job-claiming races.

use proptest::prelude::*;
use scrutiny_ckpt::restore::{read_data_image_parallel, RestoreOptions};
use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{
    names, Bitmap, Checkpoint, CheckpointStore, CkptError, FillPolicy, Regions, VarData, VarPlan,
    VarRecord,
};
use scrutiny_engine::{
    DeltaPolicy, DirBackend, EngineConfig, EngineHandle, Layout, MemBackend, RecoveryConfig,
    RecoveryManager, StorageBackend,
};
use scrutiny_faultinj::{allocated_during, CountingAlloc, StorageScenario};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
        scrutiny_engine::EngineError::Ckpt(CkptError::Unrecoverable(report)) => {
            assert_eq!(report.rejected_versions(), vec![2, 1, 0]);
            assert_eq!(report.scanned, 3);
        }
        other => panic!("expected Unrecoverable, got {other}"),
    }
}

/// The store and the engine restart through one walk, so they agree on
/// a damaged newest version whatever its layout: monolithic and delta
/// versions saved by a `CheckpointStore`, and sharded ones published by
/// an engine into a `DirBackend` and then opened as a store. With one
/// payload byte of the newest version flipped, `CheckpointStore::
/// recover_latest` and `RecoveryManager::recover_latest` both reject it
/// by name and return the previous version, bit-identical to its
/// blocking save. A store of mixed aux versions too: version 1's aux
/// file replaced by its version-1 spelling, which both faces return as
/// stored.
#[test]
fn store_and_manager_fall_back_alike_past_a_damaged_newest_version() {
    for (layout, v1_aux) in [
        ("monolithic", false),
        ("delta", false),
        ("sharded", false),
        ("delta", true),
    ] {
        let case = format!("{layout}{}", if v1_aux { ", v1 aux" } else { "" });
        let dir = std::env::temp_dir().join(format!(
            "scrutiny_faces_{layout}_{v1_aux}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut expected = Vec::new();
        if layout == "sharded" {
            let cfg = EngineConfig {
                workers: 3,
                target_shards: 4,
                layout: Layout::Sharded,
                ..Default::default()
            };
            let engine =
                EngineHandle::open(Arc::new(DirBackend::open(&dir).unwrap()), cfg).unwrap();
            for e in 0..3 {
                let (vars, plans) = epoch_state(e);
                let t = engine.submit(&vars, &plans).unwrap();
                engine.wait(t).unwrap();
                let ser = serialize(&vars, &plans).unwrap();
                expected.push((ser.data, ser.aux));
            }
        } else {
            let mut store = CheckpointStore::open(&dir, 16).unwrap();
            let policy = DeltaPolicy {
                page_bytes: 128,
                rebase_every: 8,
            };
            for e in 0..3 {
                let (vars, plans) = epoch_state(e);
                if layout == "delta" {
                    store.save_delta(&vars, &plans, &policy).unwrap();
                } else {
                    store.save(&vars, &plans).unwrap();
                }
                let ser = serialize(&vars, &plans).unwrap();
                expected.push((ser.data, ser.aux));
            }
        }
        let files = Arc::new(DirBackend::open(&dir).unwrap());
        if v1_aux {
            let (vars, plans) = epoch_state(1);
            expected[1].1 = scrutiny_integration::aux_v1(&vars, &plans);
            files.put(&names::aux(1), &expected[1].1).unwrap();
        }
        let damaged = StorageScenario::FlippedPayloadByte
            .inject(files.as_ref(), 2)
            .unwrap();
        let want_damaged = match layout {
            "monolithic" => names::data(2),
            "delta" => names::delta(2),
            _ => names::shard(2, 0),
        };
        assert_eq!(damaged, want_damaged);

        let store = CheckpointStore::open(&dir, 16).unwrap();
        let by_store = store.recover_latest().unwrap();
        let by_manager = RecoveryManager::new(files, RecoveryConfig::default())
            .recover_latest()
            .unwrap();
        for (face, r) in [("store", &by_store), ("RecoveryManager", &by_manager)] {
            assert_eq!(r.version, 1, "{case}: {face}");
            assert_eq!(r.report.rejected_versions(), vec![2], "{case}: {face}");
            assert!(r.data == expected[1].0, "{case}: {face}: data image");
            assert!(r.aux == expected[1].1, "{case}: {face}: aux image");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Overwrite the field at `at` of a CRC-trailed object and re-seal the
/// trailer, so only the field itself — not the envelope — is wrong.
fn with_field(object: &[u8], at: usize, field: &[u8]) -> Vec<u8> {
    spliced(object, at, field.len(), field)
}

/// Replace the `width` bytes at `at` of a CRC-trailed object by `field`,
/// of any length, and re-seal the trailer: a variable-width field (an
/// aux file's LEB128) rewritten.
fn spliced(object: &[u8], at: usize, width: usize, field: &[u8]) -> Vec<u8> {
    let body = &object[..object.len() - 4];
    resealed(&[&body[..at], field, &body[at + width..]].concat())
}

/// `body` sealed with its CRC-32 trailer.
fn resealed(body: &[u8]) -> Vec<u8> {
    let crc = scrutiny_ckpt::format::crc32(body);
    [body, &crc.to_le_bytes()].concat()
}

/// `object` with eight zero bytes appended to its body and the trailer
/// re-sealed over them: well-formed in every field, but longer than its
/// last variable.
fn padded(object: &[u8]) -> Vec<u8> {
    resealed(&[&object[..object.len() - 4], &[0; 8]].concat())
}

/// Bytes after the last variable of either file are corruption, not
/// slack: each padded file is refused on its own, and a padded newest
/// version is rejected by name while recovery falls back one version.
#[test]
fn trailing_bytes_after_the_last_variable_are_corruption() {
    let (vars, plans) = epoch_state(0);
    let ser = serialize(&vars, &plans).unwrap();
    for (what, data, aux) in [
        ("data file", padded(&ser.data), ser.aux.clone()),
        ("auxiliary file", ser.data.clone(), padded(&ser.aux)),
    ] {
        match Checkpoint::from_bytes(&data, &aux) {
            Err(CkptError::Corrupt(m)) => assert!(
                m.contains("8 trailing bytes") && m.contains(what),
                "{what}: {m}"
            ),
            Err(e) => panic!("{what}: expected Corrupt, got {e}"),
            Ok(_) => panic!("{what}: a padded file parsed"),
        }
    }
    for name in [names::data(2), names::aux(2)] {
        let (mem, expected) = filled(EngineConfig::default(), 3);
        mem.put(&name, &padded(&mem.get(&name).unwrap())).unwrap();
        let r = recover(mem);
        assert_eq!(r.version, 1, "{name}");
        assert_eq!(r.report.rejected_versions(), vec![2], "{name}");
        assert!(
            matches!(r.report.rejected[0].error, CkptError::Corrupt(_)),
            "{name}: {}",
            r.report.rejected[0].error
        );
        assert_eq!(r.data, expected[1].0, "{name}");
        assert_eq!(r.aux, expected[1].1, "{name}");
    }
}

/// `decode` must refuse its `input_len`-byte hostile input as `Corrupt`
/// having allocated no more than the input's own size (plus slack for
/// error strings and small headers).
fn assert_refused<T>(what: &str, input_len: usize, decode: impl FnOnce() -> Result<T, CkptError>) {
    let (result, allocated) = allocated_during(decode).expect("this binary counts allocations");
    match result {
        Err(CkptError::Corrupt(_)) => {}
        Err(e) => panic!("{what}: expected Corrupt, got {e}"),
        Ok(_) => panic!("{what}: hostile input decoded"),
    }
    assert!(
        allocated <= input_len + (64 << 10),
        "{what}: allocated {allocated} bytes deciding about {input_len} input bytes"
    );
}

#[test]
fn hostile_lengths_are_typed_corruption_before_they_size_an_allocation() {
    use scrutiny_ckpt::compress::{compress, decompress};
    use scrutiny_ckpt::delta::{apply_delta, diff_images};
    use scrutiny_ckpt::{AtRest, Region, ShardManifest};
    use scrutiny_integration::aux_v1;
    let huge = (1u64 << 60).to_le_bytes();

    // SCRUTDLT: `full_len` (offset 24) sizes the reconstructed image.
    let parent = vec![7u8; 1000];
    let mut child = parent.clone();
    child[500] ^= 1;
    let (delta, _) = diff_images(&parent, &child, 0, 64).unwrap();
    let bad = with_field(&delta, 24, &(1u64 << 46).to_le_bytes());
    assert_refused("delta full_len", parent.len() + bad.len(), || {
        apply_delta(&parent, &bad)
    });
    // The largest honest length — every byte past the parent stored — is fine.
    let grown = vec![7u8; 1900];
    let (delta, _) = diff_images(&parent, &grown, 0, 64).unwrap();
    assert_eq!(apply_delta(&parent, &delta).unwrap(), grown);

    // SCRUTCKP / SCRUTAUX of one Pruned variable "u": the data file's
    // element count sits at offset 29; the version-1 aux file's `nvars` at
    // 12 and its run count at 20.
    let runs = |a: u64, b: u64| Regions::from_runs(vec![Region { start: a, end: b }]);
    let vars = vec![VarRecord::new("u", VarData::F64(vec![1.5; 64]))];
    let plans = [VarPlan::Pruned(runs(8, 40))];
    let ser = serialize(&vars, &plans).unwrap();
    let v1 = aux_v1(&vars, &plans);
    let both = ser.data.len() + v1.len();
    for (what, at, field) in [
        ("data element count", 29, &huge[..]),
        ("data nvars", 12, &u32::MAX.to_le_bytes()[..]),
    ] {
        let bad = with_field(&ser.data, at, field);
        assert_refused(what, both, || Checkpoint::from_bytes(&bad, &ser.aux));
    }
    for (what, at, field) in [
        ("aux nvars", 12, &u32::MAX.to_le_bytes()[..]),
        ("aux run count", 20, &huge[..]),
        // Under the old plausibility cap of 2^32 runs, still 32 GiB.
        ("aux run count 2^31", 20, &(1u64 << 31).to_le_bytes()[..]),
    ] {
        let bad = with_field(&v1, at, field);
        assert_refused(what, both, || Checkpoint::from_bytes(&ser.data, &bad));
    }
    // Version 2 spells the run count as a LEB128 at 20, here one byte.
    assert_eq!(ser.aux[20..23], [1, 8, 32], "nruns 1, gap 8, length 32");
    let v2_count = [[0x80; 8].as_slice(), &[0x10]].concat(); // 2^60
    let bad = spliced(&ser.aux, 20, 1, &v2_count);
    assert_refused("aux v2 run count 2^60", both, || {
        Checkpoint::from_bytes(&ser.data, &bad)
    });

    // A Tiered variable "t": hi count at 29, then 4 hi elements, lo count
    // at 69; aux hi run count at 20, one run, lo run count at 44.
    let vars = vec![VarRecord::new("t", VarData::F64(vec![2.5; 16]))];
    let plan = VarPlan::Tiered {
        hi: runs(0, 4),
        lo: runs(8, 12),
    };
    let plans = [plan];
    let ser = serialize(&vars, &plans).unwrap();
    let both = ser.data.len() + ser.aux.len();
    for (what, at) in [("tiered hi count", 29), ("tiered lo count", 69)] {
        let bad = with_field(&ser.data, at, &huge);
        assert_refused(what, both, || Checkpoint::from_bytes(&bad, &ser.aux));
    }
    let bad = with_field(&aux_v1(&vars, &plans), 44, &huge);
    assert_refused("aux lo run count", both, || {
        Checkpoint::from_bytes(&ser.data, &bad)
    });

    // Every count the bulk decoders admit, inflated far past the file and
    // by one past what is stored (which the bytes behind it could still
    // hold). A Tiered "t" under a two-byte lo codec — the widest decode
    // per stored byte — then a Pruned c128 "z", a Full i64 "it" and a
    // Pruned f64 "u": t's hi count at 30 and lo count at 70 (the codec
    // tag shifts them by one), z's count at 103, it's at 189.
    let vars = vec![
        VarRecord::new("t", VarData::F64(vec![2.5; 16])),
        VarRecord::new(
            "z",
            VarData::C128((0..12).map(|j| (j as f64, -0.5)).collect()),
        ),
        VarRecord::new("it", VarData::I64((0..6).collect())),
        VarRecord::new("u", VarData::F64(vec![-1.25; 8])),
    ];
    let plans = [
        VarPlan::Tiered {
            hi: runs(0, 4),
            lo: runs(8, 14),
        },
        VarPlan::Pruned(runs(2, 6)),
        VarPlan::Full,
        VarPlan::Pruned(runs(1, 5)),
    ];
    let lo2 = scrutiny_ckpt::LoCodec::Trunc { keep: 2 };
    let ser = scrutiny_ckpt::writer::serialize_with(&vars, &plans, lo2).unwrap();
    let both = ser.data.len() + ser.aux.len();
    for (what, at, stored) in [
        ("bulk tiered hi count", 30, 4u64),
        ("bulk tiered lo count", 70, 6),
        ("bulk c128 count", 103, 4),
        ("bulk i64 count", 189, 6),
    ] {
        let field = |v: u64| ser.data[at..at + 8] == v.to_le_bytes();
        assert!(field(stored), "{what}: the count sits at {at}");
        for inflated in [1u64 << 60, stored + 1] {
            let bad = with_field(&ser.data, at, &inflated.to_le_bytes());
            assert_refused(what, both, || Checkpoint::from_bytes(&bad, &ser.aux));
        }
    }
    // Cut the file's body at every byte and re-seal it: each cut is a
    // typed error, never a panic.
    for cut in 0..ser.data.len() - 4 {
        let bad = resealed(&ser.data[..cut]);
        assert!(
            Checkpoint::from_bytes(&bad, &ser.aux).is_err(),
            "cut at {cut} parsed"
        );
    }

    // Region tables themselves: ten elements stored as [0,4),[6,10). In
    // the version-1 file, run 1 at offset 44 rewritten to overlap run 0,
    // or to end past the variable. In version 2 (nruns at 20, then gap
    // and length, one byte each, at 21–24), varints that are not
    // canonical, a run touching its predecessor (gap 0), an empty run,
    // a run past the variable, and a start or an end past 2^64 − 1. All
    // still store eight elements, so only the tables are wrong — and
    // recovery must step over the version that carries them.
    let vars = vec![VarRecord::new("u", VarData::F64(vec![0.5; 10]))];
    let plans = [VarPlan::Pruned(Regions::from_runs(vec![
        Region { start: 0, end: 4 },
        Region { start: 6, end: 10 },
    ]))];
    let ser = serialize(&vars, &plans).unwrap();
    let v1 = aux_v1(&vars, &plans);
    let both = ser.data.len() + v1.len();
    assert_eq!(
        ser.aux[20..25],
        [2, 0, 4, 2, 4],
        "nruns, then (gap, length)×2"
    );
    let v1_run = |start: u64, end: u64| {
        with_field(&v1, 44, &[start.to_le_bytes(), end.to_le_bytes()].concat())
    };
    let v2_field = |at: usize, field: &[u8]| spliced(&ser.aux, at, 1, field);
    let u64_max = [[0xFF; 9].as_slice(), &[0x01]].concat();
    let u64_max_less_1 = [[0xFE].as_slice(), &[0xFF; 8], &[0x01]].concat();
    for (what, bad) in [
        ("v1 overlapping runs", v1_run(2, 6)),
        ("v1 run past total", v1_run(20, 24)),
        (
            "v2 11-byte varint",
            v2_field(23, &[[0x80; 10].as_slice(), &[0]].concat()),
        ),
        (
            "v2 10th varint byte > 1",
            v2_field(23, &[[0xFF; 9].as_slice(), &[0x02]].concat()),
        ),
        ("v2 overlong 0x80 0x00", v2_field(23, &[0x80, 0x00])),
        ("v2 gap 0 between runs", v2_field(23, &[0])),
        ("v2 length 0", v2_field(22, &[0])),
        ("v2 run past total", v2_field(23, &[20])),
        ("v2 start overflows", v2_field(23, &u64_max)),
        ("v2 start + length overflows", v2_field(21, &u64_max_less_1)),
    ] {
        assert_refused(what, both, || Checkpoint::from_bytes(&ser.data, &bad));

        let mem = Arc::new(MemBackend::new());
        let engine = EngineHandle::open(mem.clone(), EngineConfig::default()).unwrap();
        for _ in 0..3 {
            let t = engine.submit(&vars, &plans).unwrap();
            engine.wait(t).unwrap();
        }
        mem.put(&names::aux(2), &bad).unwrap();
        let r = recover(mem);
        assert_eq!(r.version, 1, "{what}");
        assert_eq!(r.report.rejected_versions(), vec![2], "{what}");
        assert!(
            matches!(r.report.rejected[0].error, CkptError::Corrupt(_)),
            "{what}: {}",
            r.report.rejected[0].error
        );
    }

    // SCRUTCZB: `raw_len` (offset 13) sizes the decode buffer.
    let stored = compress(&vec![0u8; 4096], AtRest::Rle);
    let bad = with_field(&stored, 13, &(1u64 << 46).to_le_bytes());
    assert_refused("container raw_len", bad.len(), || decompress(&bad));

    // SCRUTSHM: shard lengths whose sum overflows (entries at 24 and 36).
    let (_, manifest) = scrutiny_ckpt::seal_shards(vec![vec![1u8; 10], vec![2u8; 10]]);
    let bad = with_field(&manifest.to_bytes(), 24, &u64::MAX.to_le_bytes());
    assert_refused("manifest length sum", bad.len(), || {
        ShardManifest::from_bytes(&bad)
    });

    // A format version no reader knows (3 where the aux file is at 2, 2
    // where each other format is at 1), every other byte intact: the aux
    // file, the shard manifest, and a delta file where it is applied and
    // where retention peeks at its parent.
    let v2 = 2u32.to_le_bytes();
    let bad = with_field(&ser.aux, 8, &3u32.to_le_bytes());
    assert_refused("aux version 3", both, || {
        Checkpoint::from_bytes(&ser.data, &bad)
    });
    let bad = with_field(&manifest.to_bytes(), 8, &v2);
    assert_refused("manifest version 2", bad.len(), || {
        ShardManifest::from_bytes(&bad)
    });
    let bad = with_field(&delta, 8, &v2);
    assert_refused("delta version 2", parent.len() + bad.len(), || {
        apply_delta(&parent, &bad)
    });
    assert_refused("delta parent peek, version 2", bad.len(), || {
        scrutiny_ckpt::delta::parent_version(&bad)
    });
}

/// Generated hostile bytes for the version-2 auxiliary file: every
/// truncation of its body and every single-bit flip, each re-sealed, of
/// the aux file of a Full i64, a Pruned f64 with runs at both edges, a
/// Tiered f64 and a Pruned c128. Each is a typed `Corrupt` or a decode
/// whose plans re-serialize to exactly those bytes — canonical LEB128
/// leaves one spelling per run list — and none allocates more than its
/// input plus 64 KiB.
#[test]
fn every_truncation_and_bit_flip_of_a_v2_aux_is_corrupt_or_canonical() {
    use scrutiny_ckpt::{serialize_aux, Region};
    let runs = |rs: &[(u64, u64)]| {
        Regions::from_runs(
            rs.iter()
                .map(|&(start, end)| Region { start, end })
                .collect(),
        )
    };
    let vars = vec![
        VarRecord::new("it", VarData::I64(vec![3, -4, 5])),
        VarRecord::new("u", VarData::F64((0..300).map(f64::from).collect())),
        VarRecord::new("t", VarData::F64(vec![0.5; 40])),
        VarRecord::new(
            "z",
            VarData::C128((0..20).map(|j| (j as f64, 1.0)).collect()),
        ),
    ];
    let plans = vec![
        VarPlan::Full,
        VarPlan::Pruned(runs(&[(0, 3), (7, 8), (150, 200), (290, 300)])),
        VarPlan::Tiered {
            hi: runs(&[(0, 2), (5, 9), (36, 40)]),
            lo: runs(&[(2, 4), (9, 14), (20, 30)]),
        },
        VarPlan::Pruned(runs(&[(0, 1), (4, 12), (19, 20)])),
    ];
    let ser = serialize(&vars, &plans).unwrap();
    let body = &ser.aux[..ser.aux.len() - 4];
    let truncations = (0..body.len()).map(|cut| resealed(&body[..cut]));
    let flips = (0..body.len() * 8).map(|bit| {
        let mut flipped = body.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        resealed(&flipped)
    });
    let mut decoded = 0;
    for (k, aux) in truncations.chain(flips).enumerate() {
        let input = ser.data.len() + aux.len();
        let (result, allocated) = allocated_during(|| Checkpoint::from_bytes(&ser.data, &aux))
            .expect("this binary counts allocations");
        assert!(
            allocated <= input + (64 << 10),
            "input {k}: allocated {allocated} bytes deciding about {input} input bytes"
        );
        let ck = match result {
            Err(CkptError::Corrupt(_)) => continue,
            Err(e) => panic!("input {k}: expected Corrupt, got {e}"),
            Ok(ck) => ck,
        };
        // A decode agrees with the data file, names included, so only the
        // plans can differ from the originals.
        let got: Vec<VarPlan> = vars
            .iter()
            .map(|v| ck.var(&v.name).unwrap().plan.clone())
            .collect();
        assert_eq!(serialize_aux(&vars, &got).0, aux, "input {k}");
        decoded += 1;
    }
    // Some flips move a run without changing how much is stored.
    assert!(decoded > 0, "no input decoded");
}

/// A Pruned variable's `total` is bounded by no stored byte, only by its
/// last region's end: a CRC-consistent data file declaring 2^40 elements
/// parses. Restoring it against the analysis is a typed `PlanMismatch`,
/// decided before the declared total sizes a buffer.
#[test]
fn a_total_no_stored_byte_backs_is_refused_before_it_sizes_a_buffer() {
    use scrutiny_core::restart::{capture_state, materialize_all};
    use scrutiny_core::tiny::Heat1d;
    use scrutiny_core::{plan::plans_for, scrutinize, Policy};
    let app = Heat1d::new(16, 12, 5);
    let analysis = scrutinize(&app).unwrap();
    let plans = plans_for(&analysis, Policy::PrunedValue);
    assert!(matches!(plans[0], VarPlan::Pruned(_)), "temp is pruned");
    let ser = serialize(&capture_state(&app), &plans).unwrap();
    // temp's `total` follows its name ("temp" at 18), dtype and mode.
    let at = 24;
    assert_eq!(ser.data[at..at + 8], 20u64.to_le_bytes(), "total at {at}");
    let bad = with_field(&ser.data, at, &(1u64 << 40).to_le_bytes());
    let checkpoint = Checkpoint::from_bytes(&bad, &ser.aux).unwrap();
    let (result, allocated) =
        allocated_during(|| materialize_all(&checkpoint, &analysis, FillPolicy::Zero))
            .expect("this binary counts allocations");
    match result {
        Err(CkptError::PlanMismatch(m)) => assert!(m.contains("temp"), "{m}"),
        Err(e) => panic!("expected PlanMismatch, got {e}"),
        Ok(_) => panic!("a 2^40-element temp was materialized"),
    }
    let input = bad.len() + ser.aux.len();
    assert!(
        allocated <= input + (64 << 10),
        "allocated {allocated} bytes deciding about {input} input bytes"
    );
}

/// FORMATS §9 read a byte at a time: what `payload` decodes to under
/// `method` for a `raw_len`-byte object, or `None` if it is malformed.
fn spec_decode(method: u8, payload: &[u8], raw_len: usize) -> Option<Vec<u8>> {
    let rle = |src: &[u8], len: usize| -> Option<(Vec<u8>, usize)> {
        let (mut out, mut pos) = (Vec::new(), 0);
        while out.len() < len {
            let c = *src.get(pos)?;
            pos += 1;
            if c < 128 {
                out.extend_from_slice(src.get(pos..pos + c as usize + 1)?);
                pos += c as usize + 1;
            } else {
                let b = *src.get(pos)?;
                out.resize(out.len() + c as usize - 125, b);
                pos += 1;
            }
        }
        (out.len() == len).then_some((out, pos))
    };
    match method {
        1 => rle(payload, raw_len).and_then(|(out, used)| (used == payload.len()).then_some(out)),
        2 => {
            let words = raw_len / 8;
            let (planes, used) = rle(payload, words * 8)?;
            let tail = &payload[used..];
            if tail.len() != raw_len % 8 {
                return None;
            }
            let mut out: Vec<u8> = (0..words * 8)
                .map(|i| planes[(i % 8) * words + i / 8])
                .collect();
            out.extend_from_slice(tail);
            Some(out)
        }
        _ => None,
    }
}

/// The decoder indexes slices, and the trailer CRC stops any plain
/// mutation before it runs. So every mutation of a small `Rle` and
/// `BitPlane` payload here is forged: both CRCs re-sealed (`raw_crc` to
/// what the byte-at-a-time reading of FORMATS §9 decodes, where it
/// decodes). Every truncation, every byte set to each of 0, 127, 128 and
/// 255 (so every control byte), and every wrong tail length must decode
/// to exactly the spec's bytes or be a typed `Corrupt` — never a panic,
/// never an allocation past the input plus 64 KiB.
#[test]
fn forged_container_payloads_decode_as_the_spec_says_or_are_typed_corruption() {
    use scrutiny_ckpt::compress::{compress, decompress};
    use scrutiny_ckpt::AtRest;
    let raw: Vec<u8> = [
        vec![4u8; 21],
        (0..45).collect(),
        vec![0xF0; 7],
        1.5f64.to_le_bytes().repeat(5),
        vec![9, 9, 1],
    ]
    .concat();
    assert_ne!(raw.len() % 8, 0, "a non-word tail");
    const HEADER: usize = 25;
    for (method, tag) in [(AtRest::Rle, 1u8), (AtRest::BitPlane, 2)] {
        let good = compress(&raw, method);
        assert_eq!(good[12], tag);
        let payload = &good[HEADER..good.len() - 4];
        assert_eq!(spec_decode(tag, payload, raw.len()).as_ref(), Some(&raw));
        let mut forged: Vec<Vec<u8>> = (0..payload.len()).map(|n| payload[..n].to_vec()).collect();
        for at in 0..payload.len() {
            for c in [0u8, 127, 128, 255] {
                let mut p = payload.to_vec();
                p[at] = c;
                forged.push(p);
            }
        }
        for extra in 1..=9 {
            forged.push([payload, &vec![0xAB; extra]].concat());
        }
        // (forgeries that decoded to other bytes, forgeries refused)
        let mut outcomes = (0, 0);
        for p in forged {
            let want = spec_decode(tag, &p, raw.len());
            let mut container = good[..HEADER].to_vec();
            if let Some(bytes) = &want {
                container[21..25]
                    .copy_from_slice(&scrutiny_integration::crc32_bitwise(bytes).to_le_bytes());
            }
            container.extend_from_slice(&p);
            container.extend(scrutiny_integration::crc32_bitwise(&container).to_le_bytes());
            let (got, allocated) = allocated_during(|| decompress(&container))
                .expect("this binary counts allocations");
            assert!(
                allocated <= container.len() + (64 << 10),
                "{method:?}: allocated {allocated}"
            );
            match (got, want) {
                (Ok(got), Some(want)) => {
                    assert_eq!(got, want, "{method:?} {p:?}");
                    outcomes.0 += usize::from(got != raw);
                }
                (Err(CkptError::Corrupt(_)), None) => outcomes.1 += 1,
                (got, want) => panic!("{method:?} {p:?}: decoded {got:?}, the spec says {want:?}"),
            }
        }
        assert!(outcomes.0 > 0 && outcomes.1 > 0, "{method:?}: {outcomes:?}");
    }
}

/// A shard whose container verifies but which belongs to another version
/// is still rejected by its manifest entry — the CRC the container
/// verified stands in for hashing the shard again, it does not skip the
/// comparison — and recovery falls back past it.
#[test]
fn a_verified_container_of_another_versions_shard_is_a_checksum_mismatch() {
    let (mem, expected) = filled(
        EngineConfig {
            layout: Layout::Sharded,
            target_shards: 4,
            codec: scrutiny_ckpt::CodecConfig {
                at_rest: scrutiny_ckpt::AtRest::Auto,
                ..Default::default()
            },
            ..Default::default()
        },
        3,
    );
    let older = mem.get(&names::shard(1, 0)).unwrap();
    let newer = mem.get(&names::shard(2, 0)).unwrap();
    assert_ne!(older, newer);
    let older_raw = scrutiny_ckpt::compress::decompress(&older).unwrap();
    assert_eq!(
        older_raw.len(),
        scrutiny_ckpt::compress::decompress(&newer).unwrap().len(),
        "the swap must get past the length check"
    );
    mem.put(&names::shard(2, 0), &older).unwrap();

    let fetch = |name: &str| mem.get(name);
    let err = read_data_image_parallel(2, &fetch, &RestoreOptions { threads: 1 }).unwrap_err();
    match err {
        CkptError::ChecksumMismatch { expected, actual } => {
            assert_eq!(actual, scrutiny_integration::crc32_bitwise(&older_raw));
            assert_ne!(expected, actual);
        }
        other => panic!("expected a checksum mismatch, got {other}"),
    }
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

#[test]
fn inflated_delta_length_falls_back_to_the_previous_version() {
    let (mem, expected) = filled(
        EngineConfig {
            delta: Some(DeltaPolicy {
                page_bytes: 128,
                rebase_every: 4,
            }),
            ..Default::default()
        },
        3,
    );
    let name = names::delta(2);
    let bad = with_field(&mem.get(&name).unwrap(), 24, &(1u64 << 46).to_le_bytes());
    mem.put(&name, &bad).unwrap();

    let r = recover(mem);
    assert_eq!(r.version, 1);
    assert_eq!(r.report.rejected_versions(), vec![2]);
    assert!(
        matches!(r.report.rejected[0].error, CkptError::Corrupt(_)),
        "reason: {}",
        r.report.rejected[0].error
    );
    assert_eq!(r.data, expected[1].0);
    assert_eq!(r.aux, expected[1].1);
}

#[test]
fn load_parallel_matches_serial_load_on_a_store_chain() {
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
            let serial = RestoreOptions { threads: 1 };
            let (want, _) = read_data_image_parallel(v, &|name: &str| mem.get(name), &serial).unwrap();
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
