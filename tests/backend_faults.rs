//! A backend that fails, panics or denies access, scripted with
//! `ScriptedBackend` rules: each fault surfaces as the typed error (or
//! the panic) it was, reaches the caller that waits on it, and leaves the
//! engine able to publish the next epoch.

use scrutiny_ckpt::names::{self, CkptName};
use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{Bitmap, CkptError, Regions, VarData, VarPlan, VarRecord};
use scrutiny_engine::{
    read_version, DeltaPolicy, EngineConfig, EngineError, EngineHandle, MemBackend, RecoveryConfig,
    RecoveryManager, StorageBackend,
};
use scrutiny_faultinj::{Op, Rule, ScriptedBackend};
use std::io::ErrorKind;
use std::sync::Arc;

fn sample(n: usize, scale: f64) -> (Vec<VarRecord>, Vec<VarPlan>) {
    let vars = vec![
        VarRecord::new(
            "u",
            VarData::F64((0..n).map(|i| i as f64 * scale).collect()),
        ),
        VarRecord::new("it", VarData::I64(vec![n as i64])),
    ];
    let crit = Bitmap::from_fn(n, |i| i % 5 != 0);
    let plans = vec![VarPlan::Pruned(Regions::from_bitmap(&crit)), VarPlan::Full];
    (vars, plans)
}

fn denied(_: &str) -> CkptError {
    CkptError::Io(std::io::Error::new(ErrorKind::PermissionDenied, "denied"))
}

#[test]
fn read_version_propagates_non_notfound_errors() {
    // Aux reads succeed; the monolithic data read fails with a
    // *permission* error, which must surface as-is instead of being
    // masked by a sharded-layout probe.
    let mem = Arc::new(MemBackend::new());
    mem.put(&names::aux(3), b"aux").unwrap();
    let is_data =
        |op, name: &str| op == Op::Get && matches!(names::classify(name), CkptName::Data(_));
    let backend = ScriptedBackend::new(mem).rule(Rule::fail(is_data, denied));
    match read_version(&backend, 3) {
        Err(CkptError::Io(e)) => assert_eq!(e.kind(), ErrorKind::PermissionDenied),
        other => panic!("expected the permission error, got {other:?}"),
    }
    for call in backend.take_log().iter().filter(|c| c.op == Op::Get) {
        let kind = names::classify(&call.name);
        assert!(
            matches!(kind, CkptName::Aux(_) | CkptName::Data(_)),
            "sharded probe must not run: asked for {:?}",
            call.name
        );
    }
}

#[test]
fn backend_failure_propagates_to_wait() {
    let on_fire = |_: &str| CkptError::Corrupt("disk on fire".into());
    let backend = ScriptedBackend::new(Arc::new(MemBackend::new()))
        .rule(Rule::fail(|op, _| op == Op::Put, on_fire));
    let eng = EngineHandle::open(Arc::new(backend), EngineConfig::default()).unwrap();
    let (vars, plans) = sample(32, 1.0);
    let ticket = eng.submit(&vars, &plans).unwrap();
    match eng.wait(ticket) {
        Err(EngineError::Ckpt(CkptError::Corrupt(m))) => assert!(m.contains("disk on fire")),
        other => panic!("expected the backend failure, got {other:?}"),
    }
    // The engine stays usable for the next submission's failure too.
    let t2 = eng.submit(&vars, &plans).unwrap();
    assert!(eng.wait(t2).is_err());
}

#[test]
fn publisher_panic_reaches_wait_and_the_engine_keeps_publishing() {
    let mem = Arc::new(MemBackend::new());
    let panic_once = Rule::panic(|op, _| op == Op::Put, "disk controller on fire").first(1);
    let backend = ScriptedBackend::new(mem.clone()).rule(panic_once);
    let eng = EngineHandle::open(Arc::new(backend), EngineConfig::default()).unwrap();
    let (vars, plans) = sample(64, 1.0);
    match eng.wait(eng.submit(&vars, &plans).unwrap()) {
        Err(EngineError::WorkerPanic(m)) => assert!(m.contains("on fire"), "{m}"),
        other => panic!("expected the panic, got {other:?}"),
    }
    let t = eng.submit(&vars, &plans).unwrap();
    let v = t.version();
    eng.wait(t).unwrap();
    assert!(read_version(mem.as_ref(), v).is_ok());
}

#[test]
fn delta_chain_survives_a_failed_epoch() {
    let v1 = |op, name: &str| op == Op::Put && names::classify(name).version() == Some(1);
    let lost = |_: &str| CkptError::Corrupt("epoch 1 lost".into());
    let mem = Arc::new(MemBackend::new());
    let backend = ScriptedBackend::new(mem.clone()).rule(Rule::fail(v1, lost));
    let cfg = EngineConfig {
        workers: 2,
        delta: Some(DeltaPolicy {
            page_bytes: 256,
            rebase_every: 10,
        }),
        ..Default::default()
    };
    let eng = EngineHandle::open(Arc::new(backend), cfg).unwrap();
    let (mut vars, plans) = sample(300, 2.0);
    let mut wanted = Vec::new();
    let mut results = Vec::new();
    for epoch in 0..3u64 {
        if let VarData::F64(v) = &mut vars[0].data {
            v[0] = epoch as f64 + 0.25;
        }
        let t = eng.submit(&vars, &plans).unwrap();
        wanted.push(serialize(&vars, &plans).unwrap().data);
        results.push(eng.wait(t));
    }
    assert!(results[0].is_ok());
    assert!(results[1].is_err(), "epoch 1's failure must surface");
    assert!(results[2].is_ok(), "the chain continues past a failure");
    // Epoch 2's delta patches epoch 0 (the last image that landed),
    // and still reconstructs epoch 2's state bit-identically.
    let (data, _) = read_version(mem.as_ref(), 2).unwrap();
    assert_eq!(data, wanted[2]);
    assert!(read_version(mem.as_ref(), 1).is_err());
}

#[test]
fn environmental_errors_abort_instead_of_degrading() {
    // Listing works; every get is a permission failure.
    let mem = Arc::new(MemBackend::new());
    mem.put(&names::data(0), b"x").unwrap();
    mem.put(&names::aux(0), b"x").unwrap();
    let backend = ScriptedBackend::new(mem).rule(Rule::fail(|op, _| op == Op::Get, denied));
    let mgr = RecoveryManager::new(Arc::new(backend), RecoveryConfig::default());
    match mgr.recover_latest() {
        Err(EngineError::Ckpt(CkptError::Io(e))) => {
            assert_eq!(e.kind(), ErrorKind::PermissionDenied)
        }
        other => panic!(
            "expected the permission error, got {:?}",
            other.map(|r| r.version)
        ),
    }
}
