//! FORMATS §7 as a property of the engine's recorded write sequence: in
//! every layout, raw and under the at-rest codec, each version's commit
//! marker is the last object put for it, and a crash just before any
//! marker — the puts up to it replayed into a fresh directory — opens as
//! a `CheckpointStore` whose latest checkpoint is the previous epoch.
//! (`CheckpointStore`'s own writers are held to the same property in
//! `crates/ckpt/src/store.rs`.)

use scrutiny_ckpt::{
    names, AtRest, CheckpointStore, CkptError, CodecConfig, FillPolicy, VarData, VarPlan, VarRecord,
};
use scrutiny_engine::{
    DeltaPolicy, DirBackend, EngineConfig, EngineHandle, Layout, MemBackend, StorageBackend,
};
use std::sync::{Arc, Mutex};

/// Forwards to memory, recording every put in call order.
#[derive(Default)]
struct PutLog(MemBackend, Mutex<Vec<(String, Vec<u8>)>>);

impl StorageBackend for PutLog {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), CkptError> {
        let entry = (name.to_string(), bytes.to_vec());
        self.1.lock().unwrap().push(entry);
        self.0.put(name, bytes)
    }
    fn get(&self, name: &str) -> Result<Vec<u8>, CkptError> {
        self.0.get(name)
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
