//! Checkpointing as a service: spawn an in-process `scrutinyd`, run two
//! tenants' NPB burn-ins against it over a loopback socket, corrupt one
//! tenant's newest checkpoint at rest, recover it over the wire, and
//! print the daemon's per-tenant accounting plus where its single obs
//! JSONL log landed.
//!
//! The same binary shape works across processes/machines: point
//! `RemoteBackend::connect` at a `scrutinyd --tcp host:port` (or
//! `--unix /path.sock`) started elsewhere and nothing in the engine,
//! recovery, or fault-injection code changes — `RemoteBackend` is just
//! another `StorageBackend`.
//!
//! Run with: `cargo run --release --example remote_checkpoint [out_dir]`

use scrutiny_ckpt::names::Tenant;
use scrutiny_core::{scrutinize, Policy};
use scrutiny_engine::{
    DirBackend, EngineConfig, EngineHandle, RecoveryConfig, RecoveryManager, StorageBackend,
};
use scrutiny_faultinj::StorageScenario;
use scrutiny_npb::{burn_in, BurnIn, Cg, Ft};
use scrutiny_obs::Recorder;
use scrutinyd::{Daemon, DaemonConfig, RemoteBackend};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let out: PathBuf = std::env::args().nth(1).unwrap_or_else(|| ".".into()).into();
    std::fs::create_dir_all(&out).unwrap();

    // ---- The service: one storage pool, many tenants, one log. ----
    let pool = Arc::new(DirBackend::open(out.join("pool")).unwrap());
    let obs = out.join("scrutinyd.jsonl");
    let daemon = Daemon::spawn_tcp(
        "127.0.0.1:0",
        pool,
        DaemonConfig {
            recorder: Recorder::new(),
            obs_jsonl: Some(obs.clone()),
            max_versions: Some(8),
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    println!("scrutinyd serving on {}", daemon.endpoint());

    // ---- Two tenants burn in concurrently over the wire. ----
    let endpoint = daemon.endpoint();
    let workers: Vec<_> = [("cg_team", 0usize), ("ft_team", 1usize)]
        .into_iter()
        .map(|(tenant, which)| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let remote = Arc::new(
                    RemoteBackend::connect(endpoint, Some(Tenant::new(tenant).unwrap())).unwrap(),
                );
                let engine = EngineHandle::open(remote.clone(), EngineConfig::default()).unwrap();
                let run = BurnIn::new(3, Policy::PrunedValue);
                let report = if which == 0 {
                    let app = Cg::mini();
                    let analysis = scrutinize(&app).unwrap();
                    burn_in(&app, &analysis, &engine, &run).unwrap()
                } else {
                    let app = Ft::mini();
                    let analysis = scrutinize(&app).unwrap();
                    burn_in(&app, &analysis, &engine, &run).unwrap()
                };
                drop(engine);
                println!(
                    "  tenant {tenant:<8} {} epochs, {} payload bytes, verified={}",
                    report.epochs, report.payload_bytes, report.verified
                );
                remote
            })
        })
        .collect();
    let remotes: Vec<Arc<RemoteBackend>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // ---- Corrupt cg_team's newest checkpoint, recover over the wire. ----
    let victim = remotes[0].clone();
    let versions = scrutiny_engine::list_versions(victim.as_ref()).unwrap();
    let newest = *versions.last().unwrap();
    victim
        .mark("inject", &[("scenario", "flipped_payload_byte")])
        .unwrap();
    let damaged = StorageScenario::FlippedPayloadByte
        .inject(victim.as_ref(), newest)
        .unwrap();
    println!("flipped a payload byte in {damaged} (tenant cg_team, v{newest})");
    let recovered = RecoveryManager::new(victim.clone(), RecoveryConfig::default())
        .recover_latest()
        .unwrap();
    println!(
        "cg_team recovered v{} ({} candidates scanned, rejected {:?})",
        recovered.version,
        recovered.report.scanned,
        recovered.report.rejected_versions()
    );

    // ---- Per-tenant accounting, then a graceful drain. ----
    for remote in &remotes {
        let stats = remote.stats().unwrap();
        println!(
            "  {:<24} {} versions, {} objects, {} bytes accepted",
            remote.label(),
            stats.versions,
            stats.objects,
            stats.accepted_bytes
        );
    }
    remotes[0].shutdown_daemon().unwrap();
    daemon.join().unwrap();
    println!("daemon drained; per-tenant history in {}", obs.display());
}
