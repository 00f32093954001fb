//! Asynchronous checkpointing on NPB CG: submit returns immediately,
//! workers serialize shards and write in the background, and the restart
//! path consumes the engine-written checkpoint.
//!
//! Run with: `cargo run --release --example async_checkpoint`

use scrutiny_core::restart::capture_state;
use scrutiny_core::{
    plan::plans_for, restart_cycle, scrutinize, CheckpointSource, DirBackend, EngineConfig,
    EngineHandle, Layout, MemBackend, Policy, RestartConfig, StorageBackend,
};
use scrutiny_npb::{burn_in, BurnIn, Cg};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let app = Cg::class_s();
    println!("scrutinizing CG class S…");
    let analysis = scrutinize(&app).unwrap();
    let vars = capture_state(&app);
    let plans = plans_for(&analysis, Policy::PrunedValue);

    // --- blocking save vs async submit on the compute thread ------------
    let dir = std::env::temp_dir().join("scrutiny_example_async");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = scrutiny_ckpt::CheckpointStore::open(dir.join("blocking"), 2).unwrap();
    let t0 = Instant::now();
    store.save(&vars, &plans).unwrap();
    let blocking = t0.elapsed();

    let engine = EngineHandle::open(
        Arc::new(DirBackend::open(dir.join("async")).unwrap()),
        EngineConfig::default(),
    )
    .unwrap();
    let t0 = Instant::now();
    let ticket = engine.submit(&vars, &plans).unwrap();
    let submit = t0.elapsed();
    let storage = engine.wait(ticket).unwrap();
    println!(
        "blocking save: {blocking:?}   async submit: {submit:?}   ({:.1}% of blocking; {} B stored)",
        100.0 * submit.as_secs_f64() / blocking.as_secs_f64().max(1e-12),
        storage.total(),
    );

    // --- restart verification through each backend -----------------------
    let backends: Vec<(&str, Arc<dyn StorageBackend>)> = vec![
        ("mem", Arc::new(MemBackend::new())),
        (
            "dir",
            Arc::new(DirBackend::open(dir.join("verify")).unwrap()),
        ),
    ];
    for (name, backend) in backends {
        let engine = EngineHandle::open(
            backend,
            EngineConfig {
                layout: Layout::Sharded,
                ..Default::default()
            },
        )
        .unwrap();
        let source = CheckpointSource::Engine(&engine);
        let report = restart_cycle(
            &app,
            &analysis,
            &RestartConfig::default(),
            source,
            |_, _| {},
        )
        .unwrap();
        println!(
            "restart via {name:<14} verified: {} (rel err {:.2e}, {} B vs full {} B)",
            report.verified,
            report.rel_err,
            report.storage.total(),
            report.full_storage.total()
        );
    }

    // --- multi-epoch burn-in: compute overlaps draining ------------------
    let engine = EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
    let run = BurnIn::new(4, Policy::PrunedValue);
    let report = burn_in(&app, &analysis, &engine, &run).unwrap();
    println!(
        "burn-in {}: {} epochs, {} payload bytes, verified: {}",
        report.app, report.epochs, report.payload_bytes, report.verified
    );
    let _ = std::fs::remove_dir_all(&dir);
}
