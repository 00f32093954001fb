//! End-to-end async pipeline: NPB apps checkpointing through the engine
//! (every backend and layout), with restart verification consuming the
//! engine-written checkpoints through the standard reader path.

use scrutiny_core::{
    checkpoint_restart_cycle, restart_cycle, scrutinize, CheckpointSource, DirBackend,
    EngineConfig, EngineHandle, Layout, MemBackend, Policy, RestartConfig, ShardedBackend,
    StorageBackend,
};
use scrutiny_npb::{burn_in, burn_in_suite_mini, Bt, BurnIn};
use std::sync::Arc;

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scrutiny_engpipe_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn burn_in_wired_npb_apps_verify_through_every_backend() {
    let dir = tmp("burnin");
    for app in burn_in_suite_mini() {
        let analysis = scrutinize(app.as_ref()).unwrap();
        let name = analysis.app.name.clone();
        let backends: Vec<(Arc<dyn StorageBackend>, Layout)> = vec![
            (Arc::new(MemBackend::new()), Layout::Monolithic),
            (
                Arc::new(DirBackend::open(dir.join(&name)).unwrap()),
                Layout::Sharded,
            ),
            (
                Arc::new(
                    ShardedBackend::new(vec![
                        Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
                        Arc::new(DirBackend::open(dir.join(format!("{name}_stripe"))).unwrap()),
                    ])
                    .unwrap(),
                ),
                Layout::Sharded,
            ),
        ];
        for (backend, layout) in backends {
            let label = backend.label();
            let engine = EngineHandle::open(
                backend,
                EngineConfig {
                    layout,
                    keep: Some(3),
                    ..Default::default()
                },
            )
            .unwrap();
            let run = BurnIn::new(3, Policy::PrunedValue);
            let report =
                burn_in(app.as_ref(), &analysis, &engine, &run).expect("burn-in must not error");
            assert!(
                report.verified,
                "{name} via {label}: restart failed (rel err {})",
                report.rel_err
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn async_and_blocking_cycles_agree_on_bt() {
    let app = Bt::mini();
    let analysis = scrutinize(&app).unwrap();
    let cfg = RestartConfig::default();
    let blocking = checkpoint_restart_cycle(&app, &analysis, &cfg).unwrap();
    let engine = EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
    let source = CheckpointSource::Engine(&engine);
    let asynced = restart_cycle(&app, &analysis, &cfg, source, |_, _| {}).unwrap();
    assert!(asynced.verified);
    assert_eq!(
        asynced.storage, blocking.storage,
        "async pipeline must store exactly the blocking writer's bytes"
    );
    assert_eq!(asynced.restarted, blocking.restarted);
}
