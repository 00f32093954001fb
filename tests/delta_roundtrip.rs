//! Delta-checkpoint round trips: base → delta → rebase chains written
//! through the async engine (and the blocking store) must restore
//! **bit-identically** through the existing reader for every `VarData`
//! dtype, retention must never prune a base out from under a live chain,
//! and — as a property over random epoch histories — delta-chain
//! reconstruction must equal a monolithic save byte for byte.
//!
//! CI runs this suite in release alongside the engine stress tests:
//! debug-mode timing can hide a submit-side ordering race, and the
//! publisher thread diffs each epoch against the one it published before.

use proptest::prelude::*;
use scrutiny_ckpt::writer::{serialize, serialize_data};
use scrutiny_ckpt::{
    names, read_data_image_parallel, AtRest, Bitmap, CheckpointStore, CodecConfig, DeltaPolicy,
    FillPolicy, Regions, RestoreOptions, VarData, VarPlan, VarRecord,
};
use scrutiny_engine::{
    read_version, DirBackend, EngineConfig, EngineHandle, Layout, MemBackend, StorageBackend,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One state with all three dtypes; `epoch` drives localized updates.
fn epoch_state(epoch: u64) -> (Vec<VarRecord>, Vec<VarPlan>) {
    let n = 500;
    let f: Vec<f64> = (0..n)
        .map(|j| {
            let base = (j as f64).cos();
            // A moving 25-element window changes per epoch.
            if (j / 25) as u64 == epoch % 20 {
                base + epoch as f64
            } else {
                base
            }
        })
        .collect();
    let c: Vec<(f64, f64)> = (0..60)
        .map(|j| {
            if j < 6 {
                (epoch as f64, -(j as f64))
            } else {
                (j as f64, -(j as f64))
            }
        })
        .collect();
    let vars = vec![
        VarRecord::new("u", VarData::F64(f)),
        VarRecord::new("y", VarData::C128(c)),
        VarRecord::new("it", VarData::I64(vec![epoch as i64, 7, 9])),
    ];
    let crit = Bitmap::from_fn(n, |j| j % 9 != 4);
    let plans = vec![
        VarPlan::Pruned(Regions::from_bitmap(&crit)),
        VarPlan::Full,
        VarPlan::Full,
    ];
    (vars, plans)
}

#[test]
fn engine_chain_restores_bit_identically_for_all_dtypes() {
    let mem = Arc::new(MemBackend::new());
    let engine = EngineHandle::open(
        mem.clone(),
        EngineConfig {
            workers: 3,
            target_shards: 3,
            delta: Some(DeltaPolicy {
                page_bytes: 256,
                rebase_every: 3,
            }),
            ..Default::default()
        },
    )
    .unwrap();

    // 7 epochs: base, 3 deltas, rebase, 2 deltas.
    let mut expected = Vec::new();
    for epoch in 0..7u64 {
        let (vars, plans) = epoch_state(epoch);
        let t = engine.submit(&vars, &plans).unwrap();
        let v = t.version();
        engine.wait(t).unwrap();
        expected.push((v, serialize(&vars, &plans).unwrap()));
    }
    // The chain lifecycle really happened: deltas and a rebase exist.
    let held = mem.list().unwrap();
    assert!(held.iter().any(|n| *n == names::delta(1)));
    assert!(held.iter().any(|n| *n == names::data(4)), "epoch 4 rebases");
    assert!(held.iter().any(|n| *n == names::delta(6)));

    for (v, blocking) in &expected {
        let (data, aux) = read_version(mem.as_ref(), *v).unwrap();
        assert_eq!(&data, &blocking.data, "version {v} data image");
        assert_eq!(&aux, &blocking.aux, "version {v} aux image");

        // And through the typed reader: every dtype materializes to the
        // exact values that were submitted.
        let ck = scrutiny_ckpt::Checkpoint::from_bytes(&data, &aux).unwrap();
        let (vars, _) = epoch_state(*v);
        let VarData::F64(want_f) = &vars[0].data else {
            unreachable!()
        };
        let got = ck
            .var("u")
            .unwrap()
            .materialize_f64(FillPolicy::Sentinel(f64::NAN))
            .unwrap();
        for (j, (&g, &w)) in got.iter().zip(want_f).enumerate() {
            if j % 9 != 4 {
                assert_eq!(g, w, "version {v} f64 element {j}");
            }
        }
        let VarData::C128(want_c) = &vars[1].data else {
            unreachable!()
        };
        assert_eq!(
            &ck.var("y")
                .unwrap()
                .materialize_c128(FillPolicy::Zero)
                .unwrap(),
            want_c,
            "version {v} c128"
        );
        let VarData::I64(want_i) = &vars[2].data else {
            unreachable!()
        };
        assert_eq!(
            &ck.var("it").unwrap().materialize_i64(0).unwrap(),
            want_i,
            "version {v} i64"
        );
    }
}

#[test]
fn store_and_engine_agree_on_chain_layout() {
    // The blocking store and the async engine, fed the same epochs with
    // the same policy, publish the same commit markers and the same
    // reconstructed images.
    let dir = std::env::temp_dir().join(format!("scrutiny_dlt_agree_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = DeltaPolicy {
        page_bytes: 256,
        rebase_every: 2,
    };
    let mut store = CheckpointStore::open(&dir, 16).unwrap();
    let mem = Arc::new(MemBackend::new());
    let engine = EngineHandle::open(
        mem.clone(),
        EngineConfig {
            delta: Some(policy),
            ..Default::default()
        },
    )
    .unwrap();
    for epoch in 0..5u64 {
        let (vars, plans) = epoch_state(epoch);
        store.save_delta(&vars, &plans, &policy).unwrap();
        let t = engine.submit(&vars, &plans).unwrap();
        engine.wait(t).unwrap();
    }
    for v in 0..5u64 {
        let on_disk = dir.join(names::delta(v)).exists();
        let in_mem = mem.list().unwrap().iter().any(|n| *n == names::delta(v));
        assert_eq!(on_disk, in_mem, "version {v} delta marker");
        let (engine_data, _) = read_version(mem.as_ref(), v).unwrap();
        let files = |name: &str| std::fs::read(dir.join(name)).map_err(Into::into);
        let (store_data, _) =
            read_data_image_parallel(v, &files, &RestoreOptions { threads: 1 }).unwrap();
        assert_eq!(engine_data, store_data, "version {v} image");
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // And structurally, since both run the one publisher and the one
    // pruner: a store directory and an engine-over-`DirBackend` directory
    // hold the same object names with the same bytes after every epoch,
    // retention (keep = 2) included, raw and under the at-rest codec.
    let contents = |dir: &std::path::Path| -> BTreeMap<String, Vec<u8>> {
        let files = DirBackend::open(dir).unwrap();
        let names = files.list().unwrap();
        names
            .into_iter()
            .map(|n| {
                let bytes = files.get(&n).unwrap();
                (n, bytes)
            })
            .collect()
    };
    for at_rest in [AtRest::None, AtRest::Auto] {
        for delta in [None, Some(policy)] {
            let tag = format!("{at_rest:?}_{}_{}", delta.is_some(), std::process::id());
            let store_dir = std::env::temp_dir().join(format!("scrutiny_agree_store_{tag}"));
            let engine_dir = std::env::temp_dir().join(format!("scrutiny_agree_engine_{tag}"));
            let _ = std::fs::remove_dir_all(&store_dir);
            let _ = std::fs::remove_dir_all(&engine_dir);
            let codec = CodecConfig {
                at_rest,
                ..Default::default()
            };
            let mut store = CheckpointStore::open(&store_dir, 2)
                .unwrap()
                .with_codec(codec)
                .unwrap();
            let engine = EngineHandle::open(
                Arc::new(DirBackend::open(&engine_dir).unwrap()),
                EngineConfig {
                    layout: Layout::Monolithic,
                    keep: Some(2),
                    delta,
                    codec,
                    ..Default::default()
                },
            )
            .unwrap();
            for epoch in 0..7u64 {
                let (vars, plans) = epoch_state(epoch);
                let (v, store_bd) = match &delta {
                    Some(policy) => store.save_delta(&vars, &plans, policy).unwrap(),
                    None => store.save(&vars, &plans).unwrap(),
                };
                let t = engine.submit(&vars, &plans).unwrap();
                assert_eq!(t.version(), v);
                let engine_bd = engine.wait(t).unwrap();
                assert_eq!(store_bd, engine_bd, "{tag} epoch {epoch}: accounting");
                let on_disk = contents(&store_dir);
                assert_eq!(on_disk, contents(&engine_dir), "{tag} epoch {epoch}");
                // Monolithic retires version 0 at epoch 2; the chain
                // (base 0, deltas 1-2, rebase 3) lets go of it at epoch 4.
                assert_eq!(
                    on_disk.contains_key(&names::aux(0)),
                    epoch < if delta.is_some() { 4 } else { 2 },
                    "{tag} epoch {epoch}: retention"
                );
            }
            std::fs::remove_dir_all(&store_dir).unwrap();
            std::fs::remove_dir_all(&engine_dir).unwrap();
        }
    }
}

#[test]
fn retention_never_breaks_a_live_chain_across_reopen() {
    let dir = std::env::temp_dir().join(format!("scrutiny_dlt_ret_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = DeltaPolicy {
        page_bytes: 256,
        rebase_every: 4,
    };
    {
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        for epoch in 0..5u64 {
            let (vars, plans) = epoch_state(epoch);
            store.save_delta(&vars, &plans, &policy).unwrap();
        }
        // 0 base, 1..=4 deltas: every version survives keep=2 because the
        // retained deltas restore through all of them.
        assert_eq!(store.versions().unwrap(), vec![0, 1, 2, 3, 4]);
    }
    // Reopen: the sweep must not treat chain members as debris, and every
    // version must still load.
    let store = CheckpointStore::open(&dir, 2).unwrap();
    assert_eq!(store.versions().unwrap(), vec![0, 1, 2, 3, 4]);
    for v in 0..5u64 {
        let (vars, _) = epoch_state(v);
        let VarData::I64(want) = &vars[2].data else {
            unreachable!()
        };
        assert_eq!(
            &store
                .load(v)
                .unwrap()
                .var("it")
                .unwrap()
                .materialize_i64(0)
                .unwrap(),
            want,
            "version {v} after reopen"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delta-chain reconstruction is bit-identical to a monolithic save:
    /// for a random initial state and random localized mutations per
    /// epoch, reconstructing the newest (and every intermediate) version
    /// through the chain equals serializing that epoch's state directly.
    #[test]
    fn delta_chain_equals_monolithic_save(
        seed in 0u64..1_000_000,
        epochs in 2usize..6,
        page_bytes in 1usize..600,
        nvals in 1usize..400,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "scrutiny_dlt_prop_{}_{seed}_{epochs}_{page_bytes}_{nvals}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = DeltaPolicy { page_bytes, rebase_every: 3 };
        let mut store = CheckpointStore::open(&dir, 32).unwrap();

        // splitmix-ish deterministic value stream from the seed.
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E3779B97F4A7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
            x ^ (x >> 31)
        };
        let mut vals: Vec<f64> = (0..nvals).map(|_| next() as f64 / 1e18).collect();
        let crit = Bitmap::from_fn(nvals, |j| j % 5 != 1);
        let plans = vec![VarPlan::Pruned(Regions::from_bitmap(&crit))];

        let mut images = Vec::new();
        for _epoch in 0..epochs {
            // Random localized mutation: one contiguous window.
            let at = (next() as usize) % nvals;
            let len = ((next() as usize) % (nvals / 4 + 1)).min(nvals - at);
            for v in &mut vals[at..at + len.max(1).min(nvals - at)] {
                *v += 1.0;
            }
            let vars = vec![VarRecord::new("u", VarData::F64(vals.clone()))];
            let (version, _) = store.save_delta(&vars, &plans, &policy).unwrap();
            images.push((version, serialize_data(&vars, &plans).unwrap().0));
        }
        for (version, want) in &images {
            let files = |name: &str| std::fs::read(dir.join(name)).map_err(Into::into);
            let (got, _) =
                read_data_image_parallel(*version, &files, &RestoreOptions { threads: 1 }).unwrap();
            prop_assert_eq!(&got, want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
