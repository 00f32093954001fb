//! FORMATS §7 as a property of the engine's recorded write sequence: in
//! every layout, raw and under the at-rest codec, each version's commit
//! marker is the last object put for it, and a crash just before any
//! marker — the puts up to it replayed into a fresh directory — opens as
//! a `CheckpointStore` whose latest checkpoint is the previous epoch.
//! (`CheckpointStore`'s own writers are held to the same property in
//! `crates/ckpt/src/store.rs`.) The same log counts what the engine
//! *reads*: steady-state publish + retention fetches nothing, and one
//! faulted recovery fetches each object it needs once and asks for none
//! that is not there. And with concurrent submitters and several
//! serializing threads, the markers still land in version order.

use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{
    names, AtRest, CheckpointStore, CkptError, CodecConfig, FillPolicy, VarData, VarPlan, VarRecord,
};
use scrutiny_engine::{
    list_versions, read_version, DeltaPolicy, DirBackend, EngineConfig, EngineHandle, Layout,
    MemBackend, RecoveryConfig, RecoveryManager, StorageBackend,
};
use std::sync::{Arc, Mutex};

/// Forwards to memory, recording every put in call order, and every get
/// with whether it found its object.
#[derive(Default)]
struct PutLog(
    MemBackend,
    Mutex<Vec<(String, Vec<u8>)>>,
    Mutex<Vec<(String, bool)>>,
);

impl PutLog {
    /// The gets logged since the last call.
    fn take_gets(&self) -> Vec<(String, bool)> {
        std::mem::take(&mut *self.2.lock().unwrap())
    }
}

impl StorageBackend for PutLog {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let entry = (name.to_string(), bytes.to_vec());
        self.1.lock().unwrap().push(entry);
        self.0.put(name, bytes)
    }
    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        let got = self.0.get(name);
        let entry = (name.to_string(), got.is_ok());
        self.2.lock().unwrap().push(entry);
        got
    }
    fn list(&self) -> Result<Vec<String>, CkptError> {
        self.0.list()
    }
    fn delete(&self, name: &str) -> Result<(), CkptError> {
        self.0.delete(name)
    }
    fn label(&self) -> String {
        "put-log".into()
    }
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
        let backend = Arc::new(PutLog::default());
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
        let engine = EngineHandle::open(backend.clone(), cfg).unwrap();
        let mut u: Vec<f64> = (0..400).map(|i| i as f64).collect();
        for epoch in 0..5u64 {
            u[1] = epoch as f64;
            let vars = vec![VarRecord::new("u", VarData::F64(u.clone()))];
            let t = engine.submit(&vars, &[VarPlan::Full]).unwrap();
            engine.wait(t).unwrap();
        }
        let log = backend.1.lock().unwrap();
        let markers: Vec<usize> = (0..log.len())
            .filter(|&i| names::committed_version(&log[i].0).is_some())
            .collect();
        assert_eq!(markers.len(), 5, "{tag}: one commit marker per epoch");
        for (v, &i) in markers.iter().enumerate() {
            let v = v as u64;
            assert_eq!(names::committed_version(&log[i].0), Some(v));
            for (later, _) in &log[i + 1..] {
                assert_ne!(
                    names::classify(later).version(),
                    Some(v),
                    "{tag}: {later} is put after version {v}'s marker {}",
                    log[i].0
                );
            }
            let dir = std::env::temp_dir().join(format!(
                "scrutiny_engine_cut_{tag}_{v}_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let files = DirBackend::open(&dir).unwrap();
            for (name, bytes) in &log[..i] {
                files.put(name, bytes).unwrap();
            }
            let store = CheckpointStore::open(&dir, 64).unwrap();
            assert_eq!(store.latest().unwrap(), v.checked_sub(1), "{tag} v{v}");
            if let Some(prev) = v.checked_sub(1) {
                let ck = store.load_latest().unwrap();
                let got = ck.var("u").unwrap().materialize_f64(FillPolicy::Zero);
                assert_eq!(got.unwrap()[1], prev as f64, "{tag} v{v}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
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
            let backend = Arc::new(PutLog::default());
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
            let engine = EngineHandle::open(backend.clone(), cfg).unwrap();
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
                .1
                .lock()
                .unwrap()
                .iter()
                .filter_map(|(name, _)| names::committed_version(name))
                .collect();
            assert_eq!(
                markers,
                (0..2 * PER_THREAD).collect::<Vec<u64>>(),
                "{tag} {at_rest:?}: commit markers out of version order"
            );
            for (v, vars) in &submitted {
                let (data, _) = read_version(backend.as_ref(), *v).unwrap();
                let want = serialize(vars, &[VarPlan::Full]).unwrap().data;
                assert_eq!(data, want, "{tag} {at_rest:?} v{v}");
            }
        }
    }
}

/// A delta-chain engine over `backend`: rebase every 8 deltas (a chain
/// is one base + 8 deltas = 9 epochs), keep the newest four versions.
fn chain_engine(backend: Arc<PutLog>) -> EngineHandle {
    let cfg = EngineConfig {
        workers: 2,
        keep: Some(4),
        delta: Some(DeltaPolicy {
            page_bytes: 256,
            rebase_every: 8,
        }),
        ..Default::default()
    };
    EngineHandle::open(backend, cfg).unwrap()
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
    let backend = Arc::new(PutLog::default());
    let engine = chain_engine(backend.clone());
    run_chain_epochs(&engine, 0..20);
    // Bases at 0, 9, 18. The newest four are 16..=19; 16 and 17 restore
    // through base 9, so 9..=19 stay — decided from the parents the
    // publisher handed the pruner, without reading one object.
    assert_eq!(backend.take_gets(), []);
    let kept = list_versions(backend.as_ref()).unwrap();
    assert_eq!(kept, (9..=19).collect::<Vec<u64>>());

    // A reopened engine knows no parents. Epoch 20 is its fresh base;
    // the newest four (17..=20) pin 9..=17 and 18 → retention keeps the
    // same set a header-reading pruner keeps, reading each inherited
    // live delta's header once: 17 down to 10, and 19.
    drop(engine);
    let engine = chain_engine(backend.clone());
    run_chain_epochs(&engine, 20..21);
    assert_eq!(
        list_versions(backend.as_ref()).unwrap(),
        (9..=20).collect::<Vec<u64>>()
    );
    let mut fetched = backend.take_gets();
    fetched.sort();
    let inherited = (10..=17).chain([19]).map(|v| (names::delta(v), true));
    assert_eq!(fetched, inherited.collect::<Vec<_>>());
    // Epoch 21 is a delta on 20: the old chain 9..=17 retires, and what
    // was read once (19's parent) is not read again.
    run_chain_epochs(&engine, 21..22);
    assert_eq!(list_versions(backend.as_ref()).unwrap(), [18, 19, 20, 21]);
    assert_eq!(backend.take_gets(), []);
}

#[test]
fn a_faulted_recovery_fetches_each_object_once_and_none_that_is_missing() {
    let backend = Arc::new(PutLog::default());
    // 14 epochs: base 9, deltas 10..=13 — the newest version is the
    // fourth delta of its chain.
    run_chain_epochs(&chain_engine(backend.clone()), 0..14);
    let newest = names::delta(13);
    let mut flipped = backend.0.get(&newest).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    backend.0.put(&newest, &flipped).unwrap();
    let want = read_version(&backend.0, 12).unwrap();
    backend.take_gets();

    let recovered = RecoveryManager::new(backend.clone(), RecoveryConfig::default())
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
    let mut fetched = backend.take_gets();
    fetched.sort();
    let mut expected: Vec<(String, bool)> = [names::aux(13), names::aux(12), names::data(9)]
        .into_iter()
        .chain((10..=13).map(names::delta))
        .map(|name| (name, true))
        .collect();
    expected.sort();
    assert_eq!(fetched, expected);
}
