//! Multi-tenant acceptance suite: four concurrent tenants drive
//! burn-ins through **one** live `scrutinyd` over a socket — one of
//! them a real NPB pipeline, the others synthetic engines on all three
//! layouts (monolithic, sharded, delta) plus chain-aware retention —
//! then one tenant's newest checkpoint is corrupted at rest and
//! recovered over the wire.
//!
//! The isolation contract under test: the victim's recovery walk never
//! scans, rejects, or prunes any other tenant's versions; every other
//! tenant's objects survive bit-identical; the victim's fallback image
//! is bit-identical to its blocking save; and the daemon's single obs
//! JSONL log reconstructs each tenant's publish/marker history.
//!
//! CI runs this suite in release next to the recovery/stress suites.

use scrutiny_ckpt::names::Tenant;
use scrutiny_ckpt::writer::serialize;
use scrutiny_ckpt::{Bitmap, Regions, VarData, VarPlan, VarRecord};
use scrutiny_core::{scrutinize, Policy};
use scrutiny_engine::{
    list_versions, DeltaPolicy, DirBackend, EngineConfig, EngineHandle, Layout, RecoveryConfig,
    RecoveryManager, StorageBackend,
};
use scrutiny_faultinj::StorageScenario;
use scrutiny_npb::{burn_in, BurnIn, Cg};
use scrutiny_obs::{Recorder, Snapshot};
use scrutinyd::{Daemon, DaemonConfig, RemoteBackend};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

const EPOCHS: u64 = 4;
/// Tenant roster: `bravo` (sharded) is the corruption victim.
const TENANTS: [&str; 4] = ["alpha", "bravo", "carol", "delta"];
const VICTIM: &str = "bravo";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scrutiny_tenancy_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Per-tenant engine shape: exercise every layout plus retention so the
/// victim's recovery runs next to live prunes of *other* namespaces.
fn engine_cfg(tenant: &str) -> EngineConfig {
    match tenant {
        "bravo" => EngineConfig {
            workers: 2,
            target_shards: 3,
            layout: Layout::Sharded,
            ..Default::default()
        },
        "carol" => EngineConfig {
            delta: Some(DeltaPolicy {
                page_bytes: 128,
                rebase_every: 8,
            }),
            ..Default::default()
        },
        "delta" => EngineConfig {
            keep: Some(2),
            ..Default::default()
        },
        _ => EngineConfig::default(),
    }
}

/// One distinct synthetic state per (tenant, epoch): different values
/// *and* different pruning maps, so cross-tenant bleed of any object
/// would break bit-identity somewhere.
fn tenant_state(ord: u64, epoch: u64) -> (Vec<VarRecord>, Vec<VarPlan>) {
    let n = 300;
    let f: Vec<f64> = (0..n)
        .map(|j| (j as f64 * 0.1 + ord as f64).sin() + epoch as f64)
        .collect();
    let vars = vec![
        VarRecord::new("u", VarData::F64(f)),
        VarRecord::new("it", VarData::I64(vec![ord as i64, epoch as i64])),
    ];
    let crit = Bitmap::from_fn(n, |j| (j as u64 + ord) % 5 != 2);
    let plans = vec![VarPlan::Pruned(Regions::from_bitmap(&crit)), VarPlan::Full];
    (vars, plans)
}

/// Every object a backend view holds, by name — the bit-identity unit.
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

#[test]
fn four_tenants_one_daemon_with_corruption_isolation_and_obs_history() {
    let dir = scratch("e2e");
    let pool = Arc::new(DirBackend::open(dir.join("pool")).unwrap());
    let obs = dir.join("daemon.jsonl");
    let cfg = DaemonConfig {
        recorder: Recorder::new(),
        obs_jsonl: Some(obs.clone()),
        ..DaemonConfig::default()
    };
    // A Unix socket where the platform has one, TCP elsewhere — the
    // suite is transport-agnostic by construction.
    #[cfg(unix)]
    let daemon = Daemon::spawn_unix(dir.join("scrutinyd.sock"), pool, cfg).unwrap();
    #[cfg(not(unix))]
    let daemon = Daemon::spawn_tcp("127.0.0.1:0", pool, cfg).unwrap();
    let endpoint = daemon.endpoint();

    // ---- Concurrent burn-in: one thread per tenant, one daemon. ----
    let threads: Vec<_> = TENANTS
        .iter()
        .enumerate()
        .map(|(ord, &name)| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let remote = Arc::new(
                    RemoteBackend::connect(endpoint, Some(Tenant::new(name).unwrap())).unwrap(),
                );
                remote.mark("burn_in_start", &[]).unwrap();
                let engine = EngineHandle::open(remote.clone(), engine_cfg(name)).unwrap();
                if name == "alpha" {
                    // A real pipeline tenant: NPB CG burned in over the
                    // wire, restart-verified from the daemon's storage.
                    let app = Cg::mini();
                    let analysis = scrutinize(&app).unwrap();
                    let run = BurnIn::new(EPOCHS as usize, Policy::PrunedValue);
                    let report = burn_in(&app, &analysis, &engine, &run).unwrap();
                    assert!(report.verified, "remote restart-verify failed");
                } else {
                    for epoch in 0..EPOCHS {
                        let (vars, plans) = tenant_state(ord as u64, epoch);
                        let t = engine.submit(&vars, &plans).unwrap();
                        engine.wait(t).unwrap();
                    }
                }
                drop(engine);
                remote.mark("burn_in_done", &[]).unwrap();
                remote
            })
        })
        .collect();
    let remotes: Vec<Arc<RemoteBackend>> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    // The pool root sees no un-prefixed objects: every byte written went
    // through a tenant namespace.
    let root = RemoteBackend::connect(daemon.endpoint(), None).unwrap();
    assert!(
        root.list().unwrap().is_empty(),
        "root namespace stayed empty"
    );

    // Pre-corruption snapshot of every tenant's namespace.
    let before: Vec<BTreeMap<String, Vec<u8>>> =
        remotes.iter().map(|r| objects(r.as_ref())).collect();

    // ---- Corrupt the victim's newest version, recover over the wire. ----
    let victim_ix = TENANTS.iter().position(|t| *t == VICTIM).unwrap();
    let victim = remotes[victim_ix].clone();
    let versions = list_versions(victim.as_ref()).unwrap();
    let last = *versions.last().unwrap();
    victim
        .mark("recovery_start", &[("scenario", "flipped_payload_byte")])
        .unwrap();
    let damaged = StorageScenario::FlippedPayloadByte
        .inject(victim.as_ref(), last)
        .unwrap();
    let r = RecoveryManager::new(victim.clone(), RecoveryConfig::default())
        .recover_latest()
        .unwrap();
    victim.mark("recovery_done", &[]).unwrap();

    assert_eq!(r.version, last - 1, "fallback to the previous version");
    assert_eq!(r.report.rejected_versions(), vec![last]);
    // The walk stayed inside the victim's namespace: every candidate it
    // examined is one of the victim's own committed versions.
    assert!(r.report.scanned <= versions.len());

    // The recovered image is bit-identical to the victim's blocking
    // save of that epoch.
    let (vars, plans) = tenant_state(victim_ix as u64, last - 1);
    let expected = serialize(&vars, &plans).unwrap();
    assert_eq!(r.data, expected.data, "recovered data image bit-identical");
    assert_eq!(r.aux, expected.aux, "recovered aux image bit-identical");

    // ---- Isolation: nobody else noticed. ----
    for (ix, tenant) in TENANTS.iter().enumerate() {
        let after = objects(remotes[ix].as_ref());
        if *tenant == VICTIM {
            // Only the injected object changed in the victim's own view.
            let mut expect = before[ix].clone();
            let obj = expect.get_mut(&damaged).unwrap();
            assert_ne!(&after[&damaged], obj, "injection took effect");
            obj.clone_from(&after[&damaged]);
            assert_eq!(after, expect, "victim's other objects untouched");
            continue;
        }
        assert_eq!(
            after, before[ix],
            "tenant {tenant} objects changed during another tenant's recovery"
        );
        // Every survivor recovers its own latest with nothing rejected.
        let own = RecoveryManager::new(remotes[ix].clone(), RecoveryConfig::default())
            .recover_latest()
            .unwrap();
        assert!(
            own.report.rejected.is_empty(),
            "tenant {tenant} saw rejects"
        );
        let own_versions = list_versions(remotes[ix].as_ref()).unwrap();
        assert_eq!(own.version, *own_versions.last().unwrap());
    }
    // The retention tenant really pruned (keep=2) — inside its own
    // namespace only, over the same daemon.
    let kept = list_versions(remotes[3].as_ref()).unwrap();
    assert_eq!(kept, vec![EPOCHS - 2, EPOCHS - 1], "keep=2 retention held");
    // The NPB tenant keeps everything: its epochs plus the restart
    // verification's extra checkpoint.
    assert_eq!(
        list_versions(remotes[0].as_ref()).unwrap().len(),
        EPOCHS as usize + 1,
        "unpruned tenant kept every version"
    );

    // ---- One JSONL log reconstructs every tenant's history. ----
    drop(root);
    victim.shutdown_daemon().unwrap();
    daemon.join().unwrap();
    let log = std::fs::read_to_string(&obs).unwrap();
    let snap = Snapshot::from_jsonl(&log).unwrap();
    assert_eq!(snap.dropped_events, 0, "event ring kept the full history");

    // Per-tenant publish history: exactly versions 0..EPOCHS each.
    let mut published: BTreeMap<&str, BTreeSet<u64>> = BTreeMap::new();
    for e in snap.events.iter().filter(|e| e.name == "scrutinyd.publish") {
        let tenant = e.field_str("tenant").expect("publish carries tenant");
        let v = e.field_u64("version").expect("publish carries version");
        published.entry(tenant).or_default().insert(v);
    }
    assert_eq!(
        published.keys().copied().collect::<Vec<_>>(),
        TENANTS,
        "publish events name exactly the four tenants"
    );
    for (&tenant, versions) in &published {
        // `alpha` (the NPB tenant) publishes one extra version for its
        // restart verification; everyone else publishes one per epoch —
        // including the retention tenant's later-pruned versions: the
        // log keeps the full history retention erases from storage.
        let last = if tenant == "alpha" {
            EPOCHS
        } else {
            EPOCHS - 1
        };
        let want: BTreeSet<u64> = (0..=last).collect();
        assert_eq!(
            versions, &want,
            "tenant {tenant} published versions 0..={last}"
        );
    }

    // Markers: all four burn-ins completed; recovery phases belong to
    // the victim alone.
    let marks: Vec<(&str, &str)> = snap
        .events
        .iter()
        .filter(|e| e.name == "scrutinyd.mark")
        .map(|e| {
            (
                e.field_str("tenant").unwrap(),
                e.field_str("label").unwrap(),
            )
        })
        .collect();
    for tenant in TENANTS {
        assert!(
            marks.contains(&(tenant, "burn_in_done")),
            "tenant {tenant} burn-in marker missing"
        );
    }
    for &(tenant, label) in &marks {
        if label.starts_with("recovery_") {
            assert_eq!(tenant, VICTIM, "recovery markers tagged to the victim only");
        }
    }

    // Gauges drained back to zero; the request counter saw the traffic.
    for tenant in TENANTS {
        let name = format!("scrutinyd.queue_depth.{tenant}");
        let g = snap.gauges.iter().find(|(n, _)| *n == name);
        assert_eq!(g.map(|(_, v)| *v), Some(0), "{name} returned to zero");
    }
    let reqs = snap
        .counters
        .iter()
        .find(|(n, _)| n == "scrutinyd.requests")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(reqs > 0, "request counter recorded the traffic");
    let _ = std::fs::remove_dir_all(&dir);
}
