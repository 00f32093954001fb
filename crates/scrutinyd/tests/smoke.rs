//! Daemon smoke suite: spawn `scrutinyd` on a Unix socket, submit
//! checkpoints through an engine over [`RemoteBackend`], recover them,
//! exercise every typed rejection, and shut the daemon down gracefully —
//! the lifecycle CI runs in release.

use scrutiny_ckpt::names::{self, Tenant};
use scrutiny_ckpt::{CkptError, VarData, VarPlan, VarRecord};
use scrutiny_engine::{
    EngineConfig, EngineHandle, RecoveryConfig, RecoveryManager, StorageBackend,
};
use scrutiny_obs::Recorder;
use scrutinyd::{Daemon, DaemonConfig, RejectReason, RemoteBackend};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scrutinyd_smoke_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn vars(seed: f64, n: usize) -> Vec<VarRecord> {
    vec![VarRecord::new(
        "u",
        VarData::F64((0..n).map(|i| seed + i as f64).collect()),
    )]
}

#[cfg(unix)]
#[test]
fn unix_socket_submit_recover_shutdown() {
    let dir = scratch("unix");
    let pool = Arc::new(scrutiny_engine::DirBackend::open(dir.join("pool")).unwrap());
    let sock = dir.join("scrutinyd.sock");
    let obs = dir.join("daemon.jsonl");
    let cfg = DaemonConfig {
        recorder: Recorder::new(),
        obs_jsonl: Some(obs.clone()),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::spawn_unix(&sock, pool, cfg).unwrap();

    // Submit three epochs through a real engine over the socket.
    let tenant = Tenant::new("smoke").unwrap();
    let remote = RemoteBackend::connect(daemon.endpoint(), Some(tenant)).unwrap();
    remote.ping().unwrap();
    let engine = EngineHandle::open(Arc::new(remote), EngineConfig::default()).unwrap();
    for epoch in 0..3 {
        let t = engine
            .submit(&vars(epoch as f64, 2048), &[VarPlan::Full])
            .unwrap();
        engine.wait(t).unwrap();
    }

    // Recover over the same wire.
    let recovered = RecoveryManager::new(engine.backend(), RecoveryConfig::default())
        .recover_latest()
        .unwrap();
    assert_eq!(recovered.version, 2);
    assert!(recovered.report.rejected.is_empty());

    // Stats reflect the tenant's namespace.
    let remote =
        RemoteBackend::connect(daemon.endpoint(), Some(Tenant::new("smoke").unwrap())).unwrap();
    let stats = remote.stats().unwrap();
    assert_eq!(stats.versions, 3);
    assert!(stats.accepted_bytes > 0 || stats.objects > 0);

    // Marker lands in the daemon log; graceful shutdown via the control
    // frame flushes it.
    remote.mark("smoke_done", &[("phase", "end")]).unwrap();
    drop(engine);
    remote.shutdown_daemon().unwrap();
    daemon.join().unwrap();
    assert!(!sock.exists(), "socket file removed on join");
    let log = std::fs::read_to_string(&obs).unwrap();
    let snap = scrutiny_obs::Snapshot::from_jsonl(&log).unwrap();
    let mut marks = snap.events_named("scrutinyd.mark");
    assert!(
        snap.events_named("scrutinyd.publish").next().is_some(),
        "publish events logged"
    );
    assert!(
        marks.any(|e| e.field_str("label") == Some("smoke_done")),
        "marker in the daemon log"
    );

    // After shutdown the endpoint is dead.
    assert!(RemoteBackend::connect(scrutinyd::Endpoint::Unix(sock), None).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// 250 small request/response exchanges on one connection. With a frame
/// split over two writes and Nagle on, each TCP exchange waits out a
/// delayed ACK (~88 ms: 22 s for this loop); the bound is 10× slack over
/// a slow, loaded host and 10× under that stall.
fn assert_small_requests_do_not_stall(daemon: Daemon) {
    let endpoint = daemon.endpoint();
    let remote =
        RemoteBackend::connect(endpoint.clone(), Some(Tenant::new("lat").unwrap())).unwrap();
    let t0 = std::time::Instant::now();
    for _ in 0..200 {
        remote.ping().unwrap();
    }
    for i in 0..50 {
        remote.put(&names::aux(i), &[i as u8; 64]).unwrap();
    }
    let took = t0.elapsed();
    assert!(
        took < std::time::Duration::from_secs(2),
        "200 PINGs + 50 small PUTs over {endpoint} took {took:?}: a per-request socket stall is back"
    );
    daemon.join().unwrap();
}

#[test]
fn small_requests_run_at_loopback_speed_on_tcp_and_unix_sockets() {
    let pool = || Arc::new(scrutiny_engine::MemBackend::new());
    assert_small_requests_do_not_stall(
        Daemon::spawn_tcp("127.0.0.1:0", pool(), DaemonConfig::default()).unwrap(),
    );
    #[cfg(unix)]
    {
        let dir = scratch("latency");
        assert_small_requests_do_not_stall(
            Daemon::spawn_unix(dir.join("scrutinyd.sock"), pool(), DaemonConfig::default())
                .unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn quotas_surface_as_typed_rejections() {
    let pool = Arc::new(scrutiny_engine::MemBackend::new());
    let cfg = DaemonConfig {
        max_versions: Some(2),
        max_object_bytes: Some(4096),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::spawn_tcp("127.0.0.1:0", pool, cfg).unwrap();
    let remote =
        RemoteBackend::connect(daemon.endpoint(), Some(Tenant::new("quota").unwrap())).unwrap();

    // Two committed versions fit the quota…
    remote.put(&names::data(0), &[1u8; 64]).unwrap();
    remote.put(&names::data(1), &[2u8; 64]).unwrap();
    // …an overwrite of an existing version still passes…
    remote.put(&names::data(1), &[3u8; 64]).unwrap();
    // …a third version is refused, typed.
    let err = remote.put(&names::data(2), &[4u8; 64]).unwrap_err();
    assert!(
        RemoteBackend::is_rejection(&err, RejectReason::VersionQuota),
        "want version_quota, got {err}"
    );
    // Non-committing objects (aux) are not version-gated.
    remote.put(&names::aux(0), &[0u8; 16]).unwrap();

    // Oversized object, typed.
    let err = remote.put(&names::aux(1), &[0u8; 8192]).unwrap_err();
    assert!(
        RemoteBackend::is_rejection(&err, RejectReason::ObjectTooLarge),
        "want object_too_large, got {err}"
    );

    // A rejected PUT is not an integrity statement: recovery over the
    // same backend still restores what was committed.
    assert_eq!(scrutiny_engine::list_versions(&remote).unwrap(), vec![0, 1]);
    daemon.join().unwrap();
}

#[test]
fn tenant_validation_and_namespace_escapes() {
    let pool = Arc::new(scrutiny_engine::MemBackend::new());
    let daemon = Daemon::spawn_tcp("127.0.0.1:0", pool, DaemonConfig::default()).unwrap();

    // The daemon re-validates the tenant id (the wire is untrusted even
    // though Tenant::new validated client-side): "default" is reserved.
    let err = RemoteBackend::connect(daemon.endpoint(), Some(Tenant::new("default").unwrap()))
        .unwrap_err();
    assert!(
        RemoteBackend::is_rejection(&err, RejectReason::BadTenant),
        "want bad_tenant, got {err}"
    );

    // Namespace escapes are refused, typed, and change nothing.
    let remote =
        RemoteBackend::connect(daemon.endpoint(), Some(Tenant::new("t1").unwrap())).unwrap();
    let err = remote.put("t2/ckpt_000000.data", &[1u8; 8]).unwrap_err();
    assert!(
        RemoteBackend::is_rejection(&err, RejectReason::BadName),
        "want bad_name, got {err}"
    );
    let err = remote.get("../secrets").unwrap_err();
    assert!(RemoteBackend::is_rejection(&err, RejectReason::BadName));

    // The default tenant (no tenant) sees the root namespace only.
    remote.put(&names::data(0), b"tenant-owned").unwrap();
    let root = RemoteBackend::connect(daemon.endpoint(), None).unwrap();
    assert!(root.list().unwrap().is_empty());
    assert!(matches!(
        root.get(&names::data(0)),
        Err(CkptError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound
    ));
    daemon.join().unwrap();
}

#[test]
fn draining_daemon_refuses_new_sessions() {
    let pool = Arc::new(scrutiny_engine::MemBackend::new());
    let daemon = Daemon::spawn_tcp("127.0.0.1:0", pool, DaemonConfig::default()).unwrap();
    let endpoint = daemon.endpoint();
    daemon.shutdown();
    // The accept loop may let a racing connection in; its HELLO must be
    // refused as draining (or the dial itself fails — both are clean).
    match RemoteBackend::connect(endpoint, None) {
        Err(e) => assert!(
            RemoteBackend::is_rejection(&e, RejectReason::Draining)
                || matches!(e, CkptError::Io(_)),
            "unexpected error {e}"
        ),
        Ok(_) => panic!("draining daemon accepted a new session"),
    }
    daemon.join().unwrap();
}
