//! Bit-identity across the wire: an engine submitting through
//! `RemoteBackend` → `scrutinyd` → `DirBackend` must leave **exactly**
//! the bytes a local engine writing the same epochs directly to a
//! `DirBackend` leaves — same object names, same object bytes — on all
//! three layouts (monolithic, sharded, delta chains). The daemon is a
//! namespace and policy layer, never a rewrite layer.
//!
//! The named tests pin each layout on real directories (including the
//! raw pool files under the tenant prefix); the property test sweeps
//! layout × epochs × sizes on in-memory pools; and every layout runs once
//! more through a proxy that forwards one byte per write, because a frame
//! that leaves in one `write` must still never be assumed to arrive in
//! one `read`.

use proptest::prelude::*;
use scrutiny_ckpt::names::Tenant;
use scrutiny_ckpt::{Bitmap, Regions, VarData, VarPlan, VarRecord};
use scrutiny_engine::{
    DeltaPolicy, DirBackend, EngineConfig, EngineHandle, Layout, MemBackend, StorageBackend,
};
use scrutiny_faultinj::{FaultProxy, NetFault};
use scrutiny_obs::Recorder;
use scrutinyd::{Daemon, DaemonConfig, Endpoint, RemoteBackend};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

const TENANT: &str = "mirror";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scrutiny_rt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn layout_cfg(ix: usize) -> EngineConfig {
    match ix {
        0 => EngineConfig::default(),
        1 => EngineConfig {
            workers: 3,
            target_shards: 4,
            layout: Layout::Sharded,
            ..Default::default()
        },
        _ => EngineConfig {
            delta: Some(DeltaPolicy {
                page_bytes: 128,
                rebase_every: 8,
            }),
            ..Default::default()
        },
    }
}

fn epoch_state(epoch: u64, n: usize) -> (Vec<VarRecord>, Vec<VarPlan>) {
    let f: Vec<f64> = (0..n)
        .map(|j| (j as f64 * 0.07).cos() + (epoch * epoch) as f64)
        .collect();
    let vars = vec![
        VarRecord::new("u", VarData::F64(f)),
        VarRecord::new("it", VarData::I64(vec![epoch as i64])),
    ];
    let crit = Bitmap::from_fn(n, |j| j % 7 != 3);
    let plans = vec![VarPlan::Pruned(Regions::from_bitmap(&crit)), VarPlan::Full];
    (vars, plans)
}

fn run_epochs(backend: Arc<dyn StorageBackend>, cfg: EngineConfig, epochs: u64, n: usize) {
    let engine = EngineHandle::open(backend, cfg).unwrap();
    for e in 0..epochs {
        let (vars, plans) = epoch_state(e, n);
        let t = engine.submit(&vars, &plans).unwrap();
        engine.wait(t).unwrap();
    }
}

fn objects(b: &dyn StorageBackend) -> BTreeMap<String, Vec<u8>> {
    b.list()
        .unwrap()
        .into_iter()
        .map(|name| {
            let bytes = b.get(&name).unwrap();
            (name, bytes)
        })
        .collect()
}

/// The core equivalence: same epochs via the daemon and directly; the
/// tenant's remote view, and optionally the raw pool under the tenant
/// prefix, must equal the direct backend byte for byte. With `dribble`
/// the client's traffic — both directions, reads back included — crosses
/// a [`FaultProxy`] one byte per write.
fn assert_bit_identical(
    direct: Arc<dyn StorageBackend>,
    pool: Arc<dyn StorageBackend>,
    layout: usize,
    epochs: u64,
    n: usize,
    dribble: bool,
) {
    run_epochs(direct.clone(), layout_cfg(layout), epochs, n);

    let daemon = Daemon::spawn_tcp(
        "127.0.0.1:0",
        pool.clone(),
        DaemonConfig {
            recorder: Recorder::new(),
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let mut endpoint = daemon.endpoint();
    let proxy = dribble.then(|| {
        let Endpoint::Tcp(addr) = &endpoint else {
            unreachable!("spawn_tcp yields a TCP endpoint")
        };
        let proxy = FaultProxy::spawn(addr.as_str(), NetFault::Dribble).unwrap();
        proxy.arm();
        endpoint = Endpoint::Tcp(proxy.addr().to_string());
        proxy
    });
    let remote =
        Arc::new(RemoteBackend::connect(endpoint, Some(Tenant::new(TENANT).unwrap())).unwrap());
    run_epochs(remote.clone(), layout_cfg(layout), epochs, n);

    let want = objects(direct.as_ref());
    assert!(!want.is_empty(), "direct engine produced objects");
    assert_eq!(
        objects(remote.as_ref()),
        want,
        "tenant view ≠ direct backend (layout {layout}, {epochs} epochs)"
    );
    // The pool holds the same bytes under the tenant prefix and nothing
    // else.
    let pooled = objects(pool.as_ref());
    let reprefixed: BTreeMap<String, Vec<u8>> = want
        .iter()
        .map(|(k, v)| (format!("{TENANT}/{k}"), v.clone()))
        .collect();
    assert_eq!(pooled, reprefixed, "raw pool ≠ prefixed direct objects");
    if let Some(proxy) = &proxy {
        assert!(proxy.is_armed(), "dribbled to the end");
    }
    drop(remote);
    daemon.join().unwrap();
}

#[test]
fn monolithic_layout_is_bit_identical_over_the_wire() {
    let dir = scratch("mono");
    assert_bit_identical(
        Arc::new(DirBackend::open(dir.join("direct")).unwrap()),
        Arc::new(DirBackend::open(dir.join("pool")).unwrap()),
        0,
        3,
        400,
        false,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_layout_is_bit_identical_over_the_wire() {
    let dir = scratch("shard");
    assert_bit_identical(
        Arc::new(DirBackend::open(dir.join("direct")).unwrap()),
        Arc::new(DirBackend::open(dir.join("pool")).unwrap()),
        1,
        3,
        400,
        false,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_chain_layout_is_bit_identical_over_the_wire() {
    let dir = scratch("delta");
    assert_bit_identical(
        Arc::new(DirBackend::open(dir.join("direct")).unwrap()),
        Arc::new(DirBackend::open(dir.join("pool")).unwrap()),
        2,
        4,
        400,
        false,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_layout_is_bit_identical_through_a_one_byte_at_a_time_proxy() {
    for layout in 0..3 {
        assert_bit_identical(
            Arc::new(MemBackend::new()),
            Arc::new(MemBackend::new()),
            layout,
            3,
            200,
            true,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any layout, any small epoch count, any payload size: the daemon
    /// path and the direct path are indistinguishable at the byte level.
    #[test]
    fn remote_storage_is_bit_identical_to_direct(
        layout in 0usize..3,
        epochs in 2u64..5,
        n in 64usize..256,
    ) {
        assert_bit_identical(
            Arc::new(MemBackend::new()),
            Arc::new(MemBackend::new()),
            layout,
            epochs,
            n,
            false,
        );
    }
}
