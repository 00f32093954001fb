//! Engine concurrency stress: many snapshots submitted from compute
//! threads while workers drain.
//!
//! Run in release in CI (`cargo test --release -p scrutiny-engine --test
//! stress`): debug-mode timing serializes the pipeline enough to hide
//! races, which would make this suite toothless.

use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{
    Bitmap, Checkpoint, CheckpointStore, FillPolicy, Region, Regions, VarData, VarPlan, VarRecord,
};
use scrutiny_engine::{
    read_version, DirBackend, EngineConfig, EngineHandle, Layout, MemBackend, ShardedBackend,
    StorageBackend,
};
use std::sync::Arc;

/// Deterministic per-submission state: distinct values and plans so a
/// cross-wired version or a torn shard cannot go unnoticed.
fn snapshot_for(i: u64) -> (Vec<VarRecord>, Vec<VarPlan>) {
    let n = 600 + (i as usize % 7) * 31;
    let f: Vec<f64> = (0..n)
        .map(|j| (i as f64 + 1.0) * (j as f64).sin())
        .collect();
    let c: Vec<(f64, f64)> = (0..40)
        .map(|j| (i as f64 + j as f64, -(j as f64)))
        .collect();
    let vars = vec![
        VarRecord::new("u", VarData::F64(f)),
        VarRecord::new("y", VarData::C128(c)),
        VarRecord::new("it", VarData::I64(vec![i as i64])),
    ];
    let crit = Bitmap::from_fn(n, |j| (j as u64 + i) % 4 != 0);
    let plans = vec![
        VarPlan::Pruned(Regions::from_bitmap(&crit)),
        VarPlan::Full,
        VarPlan::Full,
    ];
    (vars, plans)
}

#[test]
fn stress_every_ticket_resolves_and_bytes_match_blocking_save() {
    const PER_THREAD: u64 = 16;
    const THREADS: u64 = 2;

    let mem = Arc::new(MemBackend::new());
    let cfg = EngineConfig {
        workers: 4,
        queue_depth: 2,
        target_shards: 4,
        layout: Layout::Monolithic,
        ..Default::default()
    };
    let engine = EngineHandle::open(mem.clone(), cfg).unwrap();

    // Submit from multiple compute threads while workers drain; every
    // ticket must resolve with the exact accounting of a blocking save.
    let versions: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let engine = &engine;
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                for k in 0..PER_THREAD {
                    let i = t * PER_THREAD + k;
                    let (vars, plans) = snapshot_for(i);
                    let ticket = engine.submit(&vars, &plans).unwrap();
                    let version = ticket.version();
                    let bd = engine.wait(ticket).unwrap();
                    let blocking = serialize(&vars, &plans).unwrap();
                    assert_eq!(bd, blocking.breakdown, "submission {i} accounting");
                    out.push((version, i));
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(versions.len(), (THREADS * PER_THREAD) as usize);
    assert_eq!(engine.pending(), 0, "every ticket must have resolved");
    let mut seen: Vec<u64> = versions.iter().map(|&(v, _)| v).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), versions.len(), "versions must be unique");

    // Engine-written bytes are bit-identical to the blocking writer's.
    for &(version, i) in &versions {
        let (vars, plans) = snapshot_for(i);
        let blocking = serialize(&vars, &plans).unwrap();
        let (data, aux) = read_version(mem.as_ref(), version).unwrap();
        assert_eq!(data, blocking.data, "submission {i} data bytes");
        assert_eq!(aux, blocking.aux, "submission {i} aux bytes");
    }
}

#[test]
fn stress_sharded_layout_on_striped_dirs_roundtrips_through_the_reader() {
    let root = std::env::temp_dir().join(format!("scrutiny_stress_dirs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let stripe = ShardedBackend::new(vec![
        Arc::new(DirBackend::open(root.join("tier0")).unwrap()) as Arc<dyn StorageBackend>,
        Arc::new(DirBackend::open(root.join("tier1")).unwrap()),
    ])
    .unwrap();
    let backend: Arc<dyn StorageBackend> = Arc::new(stripe);
    let cfg = EngineConfig {
        workers: 3,
        target_shards: 5,
        layout: Layout::Sharded,
        keep: Some(4),
        ..Default::default()
    };
    let engine = EngineHandle::open(backend.clone(), cfg).unwrap();

    for i in 0..10u64 {
        let (vars, plans) = snapshot_for(i);
        engine.submit(&vars, &plans).unwrap();
    }
    let resolved = engine.drain().unwrap();
    assert_eq!(resolved.len(), 10);

    // Retention kept the newest 4; each survivor reassembles from the
    // stripe and parses through the standard reader.
    let versions = scrutiny_engine::list_versions(backend.as_ref()).unwrap();
    assert_eq!(versions, vec![6, 7, 8, 9]);
    for &v in &versions {
        let (vars, _plans) = snapshot_for(v);
        let (data, aux) = read_version(backend.as_ref(), v).unwrap();
        let ck = Checkpoint::from_bytes(&data, &aux).unwrap();
        let VarData::F64(want) = &vars[0].data else {
            unreachable!()
        };
        let got = ck
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Sentinel(f64::NAN))
            .unwrap();
        for (j, (&g, &w)) in got.iter().zip(want).enumerate() {
            if (j as u64 + v) % 4 != 0 {
                assert_eq!(g, w, "version {v} element {j}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stress_delta_mode_with_concurrent_submitters_and_one_worker() {
    // A delta is a diff against the previous version, so the publisher
    // must receive submissions in version order. `submit` allocates the
    // version and sends to the publisher under one lock; with concurrent
    // submitters a send that raced ahead of an older version would diff
    // against the wrong parent, and the chain reader below would reject
    // (or mis-restore) what it published.
    use scrutiny_ckpt::DeltaPolicy;
    let mem = Arc::new(MemBackend::new());
    let cfg = EngineConfig {
        workers: 1,
        queue_depth: 4,
        target_shards: 2,
        delta: Some(DeltaPolicy {
            page_bytes: 256,
            rebase_every: 5,
        }),
        ..Default::default()
    };
    let engine = EngineHandle::open(mem.clone(), cfg).unwrap();
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let engine = &engine;
            scope.spawn(move || {
                for k in 0..6 {
                    let (vars, plans) = snapshot_for(t * 10 + k);
                    let ticket = engine.submit(&vars, &plans).unwrap();
                    engine.wait(ticket).unwrap();
                }
            });
        }
    });
    assert_eq!(engine.pending(), 0);
    // Every version still reconstructs through the chain reader.
    for v in scrutiny_engine::list_versions(mem.as_ref()).unwrap() {
        read_version(mem.as_ref(), v).unwrap();
    }
}

#[test]
fn engine_written_dir_checkpoint_restores_via_checkpoint_store() {
    let dir = std::env::temp_dir().join(format!("scrutiny_stress_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Write one monolithic and one sharded checkpoint into the same dir.
    let backend = Arc::new(DirBackend::open(&dir).unwrap());
    for layout in [Layout::Monolithic, Layout::Sharded] {
        let engine = EngineHandle::open(
            backend.clone(),
            EngineConfig {
                layout,
                target_shards: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let vals: Vec<f64> = (0..512).map(|j| j as f64 * 0.125).collect();
        let vars = vec![VarRecord::new("u", VarData::F64(vals))];
        let plans = vec![VarPlan::Pruned(Regions::from_runs(vec![Region {
            start: 0,
            end: 500,
        }]))];
        let t = engine.submit(&vars, &plans).unwrap();
        engine.wait(t).unwrap();
    }

    // The pre-existing store opens the directory (sweeping nothing it
    // shouldn't), sees both versions and restores each bit-identically.
    let store = CheckpointStore::open(&dir, 5).unwrap();
    assert_eq!(store.versions().unwrap(), vec![0, 1]);
    for v in [0, 1] {
        let ck = store.load(v).unwrap();
        let got = ck
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Zero)
            .unwrap();
        for (j, &g) in got.iter().enumerate().take(500) {
            assert_eq!(g, j as f64 * 0.125, "version {v} element {j}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
