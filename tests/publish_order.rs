//! FORMATS §7 as a property of every writer's recorded write sequence:
//! for the engine in every layout, raw and under the at-rest codec, and
//! for `CheckpointStore`'s `save` and `save_delta` with retention
//! running, each version's commit marker is the last object put for it,
//! and a crash just before any marker opens as a store whose latest
//! checkpoint is the previous epoch (`assert_cuts_recover`). The same
//! log counts what the writers *read*: steady-state publish + retention
//! fetches nothing, and one faulted recovery fetches each object it
//! needs once and asks for none that is not there. And with concurrent
//! submitters and several serializing threads, the markers still land
//! in version order.

use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{
    delta, names, AtRest, CheckpointStore, CkptError, CodecConfig, VarData, VarPlan, VarRecord,
};
use scrutiny_engine::{
    list_versions, prune_chain_aware, read_version, DeltaPolicy, EngineConfig, EngineHandle,
    Layout, MemBackend, RecoveryConfig, RecoveryManager, StorageBackend,
};
use scrutiny_faultinj::{Op, ScriptedBackend};
use scrutiny_integration::assert_cuts_recover;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A scripted backend with no rules over a fresh `MemBackend`.
fn logged() -> ScriptedBackend {
    ScriptedBackend::new(Arc::new(MemBackend::new()))
}

/// The gets logged since the last take, with whether each found its
/// object.
fn take_gets(backend: &ScriptedBackend) -> Vec<(String, bool)> {
    let log = backend.take_log().into_iter();
    log.filter(|c| c.op == Op::Get)
        .map(|c| (c.name, c.ok))
        .collect()
}

#[test]
fn every_layout_puts_its_commit_marker_last_and_a_cut_before_it_recovers() {
    let delta = Some(DeltaPolicy {
        page_bytes: 256,
        rebase_every: 2,
    });
    for (tag, layout, delta, at_rest) in [
        ("mono", Layout::Monolithic, None, AtRest::None),
        ("mono_czb", Layout::Monolithic, None, AtRest::Auto),
        ("sharded", Layout::Sharded, None, AtRest::None),
        ("sharded_czb", Layout::Sharded, None, AtRest::Auto),
        ("delta", Layout::Monolithic, delta, AtRest::None),
        ("delta_czb", Layout::Monolithic, delta, AtRest::Auto),
    ] {
        let backend = logged();
        let cfg = EngineConfig {
            workers: 3,
            target_shards: 3,
            layout,
            delta,
            codec: CodecConfig {
                at_rest,
                ..Default::default()
            },
            ..Default::default()
        };
        let engine = EngineHandle::open(Arc::new(backend.clone()), cfg).unwrap();
        let mut u: Vec<f64> = (0..400).map(|i| i as f64).collect();
        for epoch in 0..5u64 {
            u[1] = epoch as f64;
            let vars = vec![VarRecord::new("u", VarData::F64(u.clone()))];
            let t = engine.submit(&vars, &[VarPlan::Full]).unwrap();
            engine.wait(t).unwrap();
        }
        let committed = assert_cuts_recover(&backend.take_log(), "u", 1, tag);
        assert_eq!(
            committed,
            [0, 1, 2, 3, 4],
            "{tag}: one commit marker per epoch"
        );
    }
}

#[test]
fn concurrent_submitters_commit_in_version_order_in_every_layout() {
    const PER_THREAD: u64 = 6;
    let delta = Some(DeltaPolicy {
        page_bytes: 256,
        rebase_every: 3,
    });
    for (tag, layout, delta) in [
        ("mono", Layout::Monolithic, None),
        ("sharded", Layout::Sharded, None),
        ("delta", Layout::Monolithic, delta),
    ] {
        for at_rest in [AtRest::None, AtRest::Rle, AtRest::BitPlane, AtRest::Auto] {
            let backend = logged();
            let cfg = EngineConfig {
                workers: 3,
                target_shards: 3,
                layout,
                delta,
                codec: CodecConfig {
                    at_rest,
                    ..Default::default()
                },
                ..Default::default()
            };
            let engine = EngineHandle::open(Arc::new(backend.clone()), cfg).unwrap();
            // Two compute threads, each submitting its own localized
            // updates and waiting on them: `(version, state)` per epoch.
            let submitted: Vec<(u64, Vec<VarRecord>)> = std::thread::scope(|scope| {
                let submitters: Vec<_> = (0..2u64)
                    .map(|t| {
                        let engine = &engine;
                        scope.spawn(move || {
                            (0..PER_THREAD)
                                .map(|k| {
                                    let mut u: Vec<f64> = (0..400).map(|i| i as f64).collect();
                                    u[(t * PER_THREAD + k) as usize] = -1.0;
                                    let vars = vec![VarRecord::new("u", VarData::F64(u))];
                                    let ticket = engine.submit(&vars, &[VarPlan::Full]).unwrap();
                                    let v = ticket.version();
                                    engine.wait(ticket).unwrap();
                                    (v, vars)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                submitters
                    .into_iter()
                    .flat_map(|s| s.join().unwrap())
                    .collect()
            });
            let markers: Vec<u64> = backend
                .take_log()
                .iter()
                .filter(|c| c.op == Op::Put)
                .filter_map(|c| names::committed_version(&c.name))
                .collect();
            assert_eq!(
                markers,
                (0..2 * PER_THREAD).collect::<Vec<u64>>(),
                "{tag} {at_rest:?}: commit markers out of version order"
            );
            for (v, vars) in &submitted {
                let (data, _) = read_version(&backend, *v).unwrap();
                let want = serialize(vars, &[VarPlan::Full]).unwrap().data;
                assert_eq!(data, want, "{tag} {at_rest:?} v{v}");
            }
        }
    }
}

/// A delta-chain engine over `backend`: rebase every 8 deltas (a chain
/// is one base + 8 deltas = 9 epochs), keep the newest four versions.
fn chain_engine(backend: &ScriptedBackend) -> EngineHandle {
    let cfg = EngineConfig {
        workers: 2,
        keep: Some(4),
        delta: Some(DeltaPolicy {
            page_bytes: 256,
            rebase_every: 8,
        }),
        ..Default::default()
    };
    EngineHandle::open(Arc::new(backend.clone()), cfg).unwrap()
}

/// Submit and wait epochs `epochs`, each a localized update.
fn run_chain_epochs(engine: &EngineHandle, epochs: std::ops::Range<u64>) {
    let mut u: Vec<f64> = (0..400).map(|i| i as f64).collect();
    for epoch in epochs {
        u[1] = epoch as f64;
        let vars = vec![VarRecord::new("u", VarData::F64(u.clone()))];
        let t = engine.submit(&vars, &[VarPlan::Full]).unwrap();
        assert_eq!(t.version(), epoch);
        engine.wait(t).unwrap();
    }
}

#[test]
fn steady_state_publish_and_retention_fetch_nothing_and_a_reopen_falls_back() {
    let backend = logged();
    let engine = chain_engine(&backend);
    run_chain_epochs(&engine, 0..20);
    // Bases at 0, 9, 18. The newest four are 16..=19; 16 and 17 restore
    // through base 9, so 9..=19 stay — decided from the parents the
    // publisher handed the pruner, without reading one object.
    assert_eq!(take_gets(&backend), []);
    let kept = list_versions(&backend).unwrap();
    assert_eq!(kept, (9..=19).collect::<Vec<u64>>());

    // A reopened engine knows no parents. Epoch 20 is its fresh base;
    // the newest four (17..=20) pin 9..=17 and 18 → retention keeps the
    // same set a header-reading pruner keeps, reading each inherited
    // live delta's header once: 17 down to 10, and 19.
    drop(engine);
    let engine = chain_engine(&backend);
    run_chain_epochs(&engine, 20..21);
    assert_eq!(
        list_versions(&backend).unwrap(),
        (9..=20).collect::<Vec<u64>>()
    );
    let mut fetched = take_gets(&backend);
    fetched.sort();
    let inherited = (10..=17).chain([19]).map(|v| (names::delta(v), true));
    assert_eq!(fetched, inherited.collect::<Vec<_>>());
    // Epoch 21 is a delta on 20: the old chain 9..=17 retires, and what
    // was read once (19's parent) is not read again.
    run_chain_epochs(&engine, 21..22);
    assert_eq!(list_versions(&backend).unwrap(), [18, 19, 20, 21]);
    assert_eq!(take_gets(&backend), []);
}

#[test]
fn a_faulted_recovery_fetches_each_object_once_and_none_that_is_missing() {
    let mem = Arc::new(MemBackend::new());
    let backend = ScriptedBackend::new(mem.clone());
    // 14 epochs: base 9, deltas 10..=13 — the newest version is the
    // fourth delta of its chain.
    run_chain_epochs(&chain_engine(&backend), 0..14);
    let newest = names::delta(13);
    let mut flipped = mem.get(&newest).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    mem.put(&newest, &flipped).unwrap();
    let want = read_version(mem.as_ref(), 12).unwrap();
    backend.take_log();

    let recovered = RecoveryManager::new(Arc::new(backend.clone()), RecoveryConfig::default())
        .recover_latest()
        .unwrap();
    assert_eq!(recovered.version, 12);
    assert_eq!(recovered.report.rejected_versions(), [13]);
    assert!(matches!(
        recovered.report.rejected[0].error,
        CkptError::ChecksumMismatch { .. }
    ));
    assert_eq!((recovered.data, recovered.aux), want);
    // Two aux files, four deltas, one base: the rejected candidate's
    // links 12..=10 and base 9 serve the fallback, and no `.data` /
    // `.smf` probe of a delta version ever reaches the backend.
    let mut fetched = take_gets(&backend);
    fetched.sort();
    let mut expected: Vec<(String, bool)> = [names::aux(13), names::aux(12), names::data(9)]
        .into_iter()
        .chain((10..=13).map(names::delta))
        .map(|name| (name, true))
        .collect();
    expected.sort();
    assert_eq!(fetched, expected);
}

/// One `x` state per epoch: `x[0]` holds the version number.
fn x_state(i: u64) -> Vec<VarRecord> {
    let mut vals = vec![0.5f64; 64];
    vals[0] = i as f64;
    vec![VarRecord::new("x", VarData::F64(vals))]
}

#[test]
fn every_store_writer_puts_its_commit_marker_last() {
    let policy = DeltaPolicy {
        page_bytes: 64,
        rebase_every: 2,
    };
    // `save` (monolithic), then `save_delta` (base, delta, delta,
    // rebase, delta, delta) — both with retention running between
    // epochs, so the replayed prefixes hold deletes too.
    for (tag, chained) in [("store", None), ("store_delta", Some(&policy))] {
        let backend = logged();
        let mut store = CheckpointStore::over(Box::new(backend.clone()), 2).unwrap();
        for i in 0..6 {
            match chained {
                None => store.save(&x_state(i), &[VarPlan::Full]).unwrap(),
                Some(policy) => store
                    .save_delta(&x_state(i), &[VarPlan::Full], policy)
                    .unwrap(),
            };
        }
        let log = backend.take_log();
        let deltas: Vec<u64> = (0..6)
            .filter(|&v| {
                log.iter()
                    .any(|c| c.op == Op::Put && c.name == names::delta(v))
            })
            .collect();
        assert_eq!(deltas.is_empty(), chained.is_none());
        assert!(chained.is_none() || deltas == [1, 2, 4, 5]);
        assert!(log.iter().any(|c| c.op == Op::Delete), "retention ran");
        let committed = assert_cuts_recover(&log, "x", 0, tag);
        assert_eq!(committed, (0..6).collect::<Vec<u64>>(), "{tag}");
    }
}

#[test]
fn save_delta_retention_reads_nothing_the_store_wrote_and_a_reopen_falls_back() {
    let policy = DeltaPolicy {
        page_bytes: 64,
        rebase_every: 8,
    };
    let save = |store: &mut CheckpointStore, epochs: std::ops::Range<u64>| {
        for i in epochs {
            let (v, _) = store
                .save_delta(&x_state(i), &[VarPlan::Full], &policy)
                .unwrap();
            assert_eq!(v, i);
        }
    };
    // 20 epochs, keep = 4: bases at 0, 9, 18; the newest four pin
    // 9..=19 — the same sets, and the same fallback reads after a
    // reopen, as the engine's above.
    let mem = Arc::new(MemBackend::new());
    let backend = ScriptedBackend::new(mem.clone());
    let mut store = CheckpointStore::over(Box::new(backend.clone()), 4).unwrap();
    save(&mut store, 0..20);
    assert_eq!(take_gets(&backend), []);
    assert_eq!(store.versions().unwrap(), (9..=19).collect::<Vec<u64>>());

    let backend = ScriptedBackend::new(mem);
    let mut store = CheckpointStore::over(Box::new(backend.clone()), 4).unwrap();
    save(&mut store, 20..21);
    assert_eq!(store.versions().unwrap(), (9..=20).collect::<Vec<u64>>());
    let mut fetched = take_gets(&backend);
    fetched.sort();
    let inherited = (10..=17).chain([19]).map(|v| (names::delta(v), true));
    assert_eq!(fetched, inherited.collect::<Vec<_>>());
    save(&mut store, 21..22);
    assert_eq!(store.versions().unwrap(), [18, 19, 20, 21]);
    assert_eq!(take_gets(&backend), []);
}

#[test]
fn prune_lists_once_and_deletes_markers_first_newest_first() {
    // 0 full, 1 and 2 deltas on it, 3 full (sharded), 4 delta on 3:
    // keep = 2 retires the old chain 0..=2. Version 5 has no marker
    // yet — an in-flight writer's objects, not the pruner's.
    let mem = Arc::new(MemBackend::new());
    let img: Vec<u8> = (0..200u8).collect();
    let delta_on = |parent| delta::diff_images(&img, &img, parent, 64).unwrap().0;
    for (name, bytes) in [
        (names::data(0), img.clone()),
        (names::delta(1), delta_on(0)),
        (names::delta(2), delta_on(1)),
        (names::shard(3, 0), img.clone()),
        (names::manifest(3), b"m".to_vec()),
        (names::delta(4), delta_on(3)),
        (names::shard(5, 0), img.clone()),
    ] {
        mem.put(&name, &bytes).unwrap();
    }
    for v in 0..6 {
        mem.put(&names::aux(v), b"a").unwrap();
    }
    // The writer knew delta 4's parent; nothing else live is a delta,
    // so the prune reads no object — and forgets nothing live.
    let b = ScriptedBackend::new(mem);
    let mut parents = BTreeMap::from([(2, 1), (4, 3)]);
    prune_chain_aware(&b, 2, &mut parents).unwrap();
    let log = b.take_log();
    assert_eq!(log.iter().filter(|c| c.op == Op::List).count(), 1);
    assert!(log.iter().all(|c| c.op != Op::Get));
    assert_eq!(parents, BTreeMap::from([(4, 3)]));
    assert!(log.iter().all(|c| c.op != Op::Put), "deletes only");
    let deleted: Vec<&str> = log
        .iter()
        .filter(|c| c.op == Op::Delete)
        .map(|c| c.name.as_str())
        .collect();
    let (d2, d1, d0) = (names::delta(2), names::delta(1), names::data(0));
    let (a2, a1, a0) = (names::aux(2), names::aux(1), names::aux(0));
    assert_eq!(deleted, [&d2, &d1, &d0, &a2, &a1, &a0]);
    assert_eq!(list_versions(&b).unwrap(), [3, 4]);
    assert!(b.get(&names::aux(5)).is_ok(), "uncommitted objects stay");
    assert!(b.get(&names::shard(5, 0)).is_ok());
}
