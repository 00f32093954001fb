//! Checkpoint → failure → restart, end to end (the paper's §IV.C).
//!
//! The cycle: run to the checkpoint boundary, write a (pruned) checkpoint,
//! "fail", restore — placing stored elements at their recorded offsets and
//! filling the pruned holes with garbage — and run to completion. The
//! restarted output must match the uninterrupted golden output within the
//! application's own tolerance; that passing is precisely how the paper
//! validates the AD classification.

use crate::analysis::AnalysisReport;
use crate::app::ScrutinyApp;
use crate::plan::{codec_for, plans_for, Policy};
use crate::site::{CaptureSite, NoopSite, RestoreSite};
use scrutiny_ckpt::writer::{serialize, serialize_with};
use scrutiny_ckpt::{
    Checkpoint, CheckpointStore, CkptError, DType, FillPolicy, StorageBreakdown, VarData, VarPlan,
    VarRecord,
};
use scrutiny_engine::{EngineError, EngineHandle, RecoveryConfig, RecoveryManager, RecoveryReport};
use std::path::PathBuf;

/// Configuration of a restart experiment.
#[derive(Clone, Debug)]
pub struct RestartConfig {
    /// Storage policy for the checkpoint under test.
    pub policy: Policy,
    /// Fill for elements the checkpoint did not store.
    pub fill: FillPolicy,
    /// When set, the checkpoint round-trips through files in this
    /// directory (via [`CheckpointStore`]); otherwise through memory.
    pub store_dir: Option<PathBuf>,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            policy: Policy::PrunedValue,
            fill: FillPolicy::Garbage(0x5EED),
            store_dir: None,
        }
    }
}

/// Outcome of one checkpoint/restart cycle.
#[derive(Debug)]
pub struct RestartReport {
    /// Output of the uninterrupted run.
    pub golden: f64,
    /// Output of the restarted run.
    pub restarted: f64,
    /// |restarted − golden|.
    pub abs_err: f64,
    /// Relative error against max(1, |golden|).
    pub rel_err: f64,
    /// Did the restarted run reproduce the golden output within the
    /// application's tolerance? (The benchmark's "verification".)
    pub verified: bool,
    /// Storage of the checkpoint under test.
    pub storage: StorageBreakdown,
    /// Storage of the full (baseline) checkpoint of the same state.
    pub full_storage: StorageBreakdown,
    /// For a [`CheckpointSource::Recovered`] cycle: the version the run
    /// restarted from, and the scan that chose it — what was rejected on
    /// the way, and why. `None` for every other source.
    pub recovery: Option<(u64, RecoveryReport)>,
}

/// Capture the checkpoint state of `app` as named records.
pub fn capture_state(app: &dyn ScrutinyApp) -> Vec<VarRecord> {
    let spec = app.spec();
    let mut site = CaptureSite::new();
    app.run_f64(&mut site);
    assert_eq!(
        site.vars.len(),
        spec.vars.len(),
        "capture saw {} variables, spec declares {}",
        site.vars.len(),
        spec.vars.len()
    );
    spec.vars
        .iter()
        .zip(site.vars)
        .map(|(vs, data)| VarRecord::new(vs.name.clone(), data))
        .collect()
}

/// The front half of every verification cycle: golden run, state
/// capture, storage plans, and the full-checkpoint baseline accounting.
struct CyclePrefix {
    golden: f64,
    vars: Vec<VarRecord>,
    plans: Vec<VarPlan>,
    full_storage: StorageBreakdown,
}

fn cycle_prefix(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    cfg: &RestartConfig,
) -> Result<CyclePrefix, CkptError> {
    let golden = app.run_f64(&mut NoopSite).output;
    let vars = capture_state(app);
    let plans = plans_for(analysis, cfg.policy);
    let full_plans: Vec<VarPlan> = vars.iter().map(|_| VarPlan::Full).collect();
    let full_storage = serialize(&vars, &full_plans)?.breakdown;
    Ok(CyclePrefix {
        golden,
        vars,
        plans,
        full_storage,
    })
}

/// The back half: restore from a loaded checkpoint (holes filled,
/// optionally corrupted), restart, and compare against the golden output.
fn cycle_finish(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    cfg: &RestartConfig,
    prefix: &CyclePrefix,
    checkpoint: &Checkpoint,
    storage: StorageBreakdown,
    mutate: impl FnOnce(&mut [VarData], &AnalysisReport),
) -> Result<RestartReport, CkptError> {
    // Restore: full-size buffers, holes filled, then optional corruption.
    let mut bufs = materialize_all(checkpoint, analysis, cfg.fill)?;
    mutate(&mut bufs, analysis);

    // Restart ("resume" semantics: deterministic pre-checkpoint prefix,
    // state overwritten at the boundary, remainder recomputed).
    let mut site = RestoreSite::new(bufs);
    let restarted = app.run_f64(&mut site).output;
    assert!(
        site.applied,
        "the run never reached its checkpoint boundary"
    );

    let abs_err = (restarted - prefix.golden).abs();
    let rel_err = abs_err / prefix.golden.abs().max(1.0);
    Ok(RestartReport {
        golden: prefix.golden,
        restarted,
        abs_err,
        rel_err,
        verified: rel_err <= app.tolerance(),
        storage,
        full_storage: prefix.full_storage,
        recovery: None,
    })
}

/// Where the checkpoint a [`restart_cycle`] restores from comes from.
#[derive(Clone, Copy)]
pub enum CheckpointSource<'a> {
    /// A blocking save of the captured state, loaded back: through files
    /// in [`RestartConfig::store_dir`] when set, through memory otherwise.
    Blocking,
    /// The asynchronous engine: capture → `submit` → `wait`, then read the
    /// engine-written checkpoint back through whatever backend the engine
    /// publishes into. [`RestartConfig::store_dir`] is ignored; the
    /// engine's backend decides where bytes live.
    Engine(&'a EngineHandle),
    /// Nothing is written: the newest fully-verifiable checkpoint on the
    /// engine's backend is recovered, falling back across damaged versions
    /// (bad CRCs, missing shards, broken delta parents) instead of
    /// erroring out. The engine should be drained first — in-flight
    /// submissions look like partial writes to the scan. In the report's
    /// [`RestartReport::storage`] the payload/aux fields hold the
    /// recovered data/aux image sizes — the writer-side header split is
    /// not recoverable after the fact.
    Recovered(&'a EngineHandle, &'a RecoveryConfig),
}

/// The §IV.C verification cycle: golden run, a checkpoint of the boundary
/// state obtained through `source`, restore with the pruned holes filled,
/// restart, compare against the golden output. `mutate` may corrupt the
/// restored buffers before the restart (fault injection); pass a no-op
/// closure for a clean cycle. Every source ends in the same restore and
/// comparison, so the verification semantics cannot diverge between them.
pub fn restart_cycle(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    cfg: &RestartConfig,
    source: CheckpointSource<'_>,
    mutate: impl FnOnce(&mut [VarData], &AnalysisReport),
) -> Result<RestartReport, EngineError> {
    let prefix = cycle_prefix(app, analysis, cfg)?;
    let mut recovery = None;
    let (checkpoint, storage) = match source {
        CheckpointSource::Blocking => {
            // The policy decides the storage codec: `TieredCompressed`
            // stores the lo tier as truncated-mantissa f64 (and, through a
            // store, the data objects in the `SCRUTCZB` at-rest
            // container); every other policy is the strict passthrough.
            let codec = codec_for(cfg.policy);
            match &cfg.store_dir {
                Some(dir) => {
                    let mut store = CheckpointStore::open(dir, 2)?.with_codec(codec)?;
                    let (version, storage) = store.save(&prefix.vars, &prefix.plans)?;
                    (store.load(version)?, storage)
                }
                None => {
                    let ser = serialize_with(&prefix.vars, &prefix.plans, codec.lo)?;
                    (Checkpoint::from_bytes(&ser.data, &ser.aux)?, ser.breakdown)
                }
            }
        }
        CheckpointSource::Engine(engine) => {
            let ticket = engine.submit(&prefix.vars, &prefix.plans)?;
            let version = ticket.version();
            let storage = engine.wait(ticket)?;
            // Consume the engine-written checkpoint through the existing
            // reader.
            let (data, aux) = scrutiny_engine::read_version(engine.backend().as_ref(), version)?;
            (Checkpoint::from_bytes(&data, &aux)?, storage)
        }
        CheckpointSource::Recovered(engine, scan) => {
            let recovered =
                RecoveryManager::new(engine.backend(), scan.clone()).recover_latest()?;
            let storage = StorageBreakdown {
                payload_bytes: recovered.data.len(),
                aux_bytes: recovered.aux.len(),
                header_bytes: 0,
            };
            recovery = Some((recovered.version, recovered.report));
            (recovered.checkpoint, storage)
        }
    };
    let mut report = cycle_finish(app, analysis, cfg, &prefix, &checkpoint, storage, mutate)?;
    report.recovery = recovery;
    Ok(report)
}

/// A clean (no corruption) cycle through a blocking save
/// ([`CheckpointSource::Blocking`]).
pub fn checkpoint_restart_cycle(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    cfg: &RestartConfig,
) -> Result<RestartReport, EngineError> {
    restart_cycle(app, analysis, cfg, CheckpointSource::Blocking, |_, _| {})
}

/// Run the §IV.C verification cycle against an **already-loaded**
/// checkpoint: golden run, restore from `checkpoint` with holes filled,
/// restart, compare. This is the back half every recovery path ends in —
/// the checkpoint may have been read serially, restored by the parallel
/// pipeline, or selected by a [`RecoveryManager`] fallback scan; the
/// verification semantics are identical. `storage` is whatever byte
/// accounting the caller has for the checkpoint under test (recovery
/// callers typically only know raw image sizes — see
/// [`CheckpointSource::Recovered`]).
pub fn verify_restart_from(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    cfg: &RestartConfig,
    checkpoint: &Checkpoint,
    storage: StorageBreakdown,
) -> Result<RestartReport, CkptError> {
    let prefix = cycle_prefix(app, analysis, cfg)?;
    cycle_finish(app, analysis, cfg, &prefix, checkpoint, storage, |_, _| {})
}

/// Materialize every variable of a loaded checkpoint into full-size
/// buffers, in the order of the analysis spec.
///
/// A variable's stored `total` sizes its buffer, and for a pruned or
/// tiered variable no stored byte bounds it (only its last region's end
/// does), so a `total` other than the analysis's own is
/// [`CkptError::PlanMismatch`], decided before that buffer is allocated.
pub fn materialize_all(
    checkpoint: &Checkpoint,
    analysis: &AnalysisReport,
    fill: FillPolicy,
) -> Result<Vec<VarData>, CkptError> {
    analysis
        .vars
        .iter()
        .map(|v| {
            let loaded = checkpoint.var(&v.spec.name)?;
            if loaded.total != v.total() as u64 {
                return Err(CkptError::PlanMismatch(format!(
                    "{:?} holds {} elements, the analysis {}",
                    v.spec.name,
                    loaded.total,
                    v.total()
                )));
            }
            Ok(match v.spec.dtype {
                DType::F64 => VarData::F64(loaded.materialize_f64(fill)?),
                DType::C128 => VarData::C128(loaded.materialize_c128(fill)?),
                DType::I64 => VarData::I64(loaded.materialize_i64(0)?),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::scrutinize;
    use crate::tiny::Heat1d;

    /// A clean cycle restoring from an `engine`-written checkpoint.
    fn engine_cycle(
        app: &Heat1d,
        analysis: &AnalysisReport,
        cfg: &RestartConfig,
        engine: &EngineHandle,
    ) -> RestartReport {
        let source = CheckpointSource::Engine(engine);
        restart_cycle(app, analysis, cfg, source, |_, _| {}).unwrap()
    }

    #[test]
    fn clean_restart_verifies_with_garbage_fill() {
        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let report = checkpoint_restart_cycle(&app, &analysis, &RestartConfig::default()).unwrap();
        assert!(report.verified, "rel err {}", report.rel_err);
        assert!(report.storage.total() < report.full_storage.total());
    }

    #[test]
    fn restart_through_files_verifies() {
        let dir = std::env::temp_dir().join(format!("scrutiny_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = Heat1d::new(12, 8, 3);
        let analysis = scrutinize(&app).unwrap();
        let cfg = RestartConfig {
            store_dir: Some(dir.clone()),
            ..Default::default()
        };
        let report = checkpoint_restart_cycle(&app, &analysis, &cfg).unwrap();
        assert!(report.verified);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupting_uncritical_elements_is_harmless() {
        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let report = restart_cycle(
            &app,
            &analysis,
            &RestartConfig::default(),
            CheckpointSource::Blocking,
            |bufs, analysis| {
                // Poison every uncritical element of every float variable.
                for (buf, crit) in bufs.iter_mut().zip(&analysis.vars) {
                    if let VarData::F64(v) = buf {
                        for i in crit.value_map.zeros() {
                            v[i] = 1e30;
                        }
                    }
                }
            },
        )
        .unwrap();
        assert!(report.verified, "uncritical corruption changed the output");
    }

    #[test]
    fn corrupting_critical_elements_breaks_verification() {
        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let report = restart_cycle(
            &app,
            &analysis,
            &RestartConfig::default(),
            CheckpointSource::Blocking,
            |bufs, analysis| {
                let crit = &analysis.vars[0];
                if let VarData::F64(v) = &mut bufs[0] {
                    let idx = crit.value_map.ones().next().unwrap();
                    v[idx] += 1.0e3;
                }
            },
        )
        .unwrap();
        assert!(!report.verified, "critical corruption went unnoticed");
    }

    #[test]
    fn async_engine_restart_verifies_on_all_backends() {
        use scrutiny_engine::{DirBackend, EngineConfig, MemBackend, StorageBackend};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("scrutiny_async_rs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let cfg = RestartConfig::default();

        let backends: Vec<Arc<dyn StorageBackend>> = vec![
            Arc::new(MemBackend::new()),
            Arc::new(DirBackend::open(&dir).unwrap()),
        ];
        for backend in backends {
            let label = backend.label();
            for layout in [
                scrutiny_engine::Layout::Monolithic,
                scrutiny_engine::Layout::Sharded,
            ] {
                let engine = EngineHandle::open(
                    backend.clone(),
                    EngineConfig {
                        layout,
                        ..Default::default()
                    },
                )
                .unwrap();
                let report = engine_cycle(&app, &analysis, &cfg, &engine);
                assert!(
                    report.verified,
                    "backend {label} / {layout:?}: rel err {}",
                    report.rel_err
                );
                assert!(report.storage.total() < report.full_storage.total());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_chain_restart_verifies_with_garbage_fill() {
        use scrutiny_engine::{DeltaPolicy, EngineConfig, MemBackend};
        use std::sync::Arc;

        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let cfg = RestartConfig::default();
        let engine = EngineHandle::open(
            Arc::new(MemBackend::new()),
            EngineConfig {
                delta: Some(DeltaPolicy {
                    page_bytes: 64,
                    rebase_every: 8,
                }),
                ..Default::default()
            },
        )
        .unwrap();

        // Grow a chain: a base plus two mutated delta epochs, so the
        // final verification epoch restores through real dirty pages.
        let vars = capture_state(&app);
        let plans = plans_for(&analysis, cfg.policy);
        for epoch in 0..3 {
            let mut vars = vars.clone();
            if let VarData::F64(v) = &mut vars[0].data {
                v[epoch] += 0.5; // localized, critical-region update
            }
            let t = engine.submit(&vars, &plans).unwrap();
            engine.wait(t).unwrap();
        }

        // The §IV.C cycle on top of the chain: the checkpoint under test
        // is itself a delta; restore walks base → deltas through the
        // existing reader, fills the pruned holes with garbage, and the
        // restarted run must still verify.
        let report = engine_cycle(&app, &analysis, &cfg, &engine);
        assert!(report.verified, "rel err {}", report.rel_err);
        assert!(
            report.storage.total() < report.full_storage.total(),
            "a delta epoch must write less than a full checkpoint"
        );
    }

    #[test]
    fn recover_cycle_falls_back_to_intact_version_and_verifies() {
        use scrutiny_ckpt::names;
        use scrutiny_engine::{EngineConfig, MemBackend, RecoveryConfig, StorageBackend};
        use std::sync::Arc;

        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let cfg = RestartConfig::default();
        let mem = Arc::new(MemBackend::new());
        let engine = EngineHandle::open(mem.clone(), EngineConfig::default()).unwrap();

        // Two epochs of the same boundary state; then the newest loses a
        // payload byte on the storage tier.
        let plans = plans_for(&analysis, cfg.policy);
        for _ in 0..2 {
            let t = engine.submit(&capture_state(&app), &plans).unwrap();
            engine.wait(t).unwrap();
        }
        let name = names::data(1);
        let mut bytes = mem.get(&name).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        mem.put(&name, &bytes).unwrap();

        let report = restart_cycle(
            &app,
            &analysis,
            &cfg,
            CheckpointSource::Recovered(&engine, &RecoveryConfig::default()),
            |_, _| {},
        )
        .unwrap();
        let (version, recovery) = report.recovery.as_ref().unwrap();
        assert_eq!(*version, 0);
        assert_eq!(recovery.recovered, Some(0));
        assert_eq!(recovery.rejected_versions(), vec![1]);
        assert!(
            report.verified,
            "restart from the recovered version failed (rel err {})",
            report.rel_err
        );
    }

    #[test]
    fn async_report_matches_blocking_report() {
        use scrutiny_engine::{EngineConfig, EngineHandle, MemBackend};
        use std::sync::Arc;

        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let cfg = RestartConfig::default();
        let blocking = checkpoint_restart_cycle(&app, &analysis, &cfg).unwrap();
        let engine =
            EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
        let asynced = engine_cycle(&app, &analysis, &cfg, &engine);
        assert_eq!(asynced.storage, blocking.storage, "same bytes either path");
        assert_eq!(asynced.restarted, blocking.restarted, "same restart output");
    }

    #[test]
    fn full_policy_reproduces_exactly() {
        let app = Heat1d::new(8, 6, 2);
        let analysis = scrutinize(&app).unwrap();
        let cfg = RestartConfig {
            policy: Policy::Full,
            ..Default::default()
        };
        let report = checkpoint_restart_cycle(&app, &analysis, &cfg).unwrap();
        assert_eq!(report.abs_err, 0.0, "full restore must be bit-exact");
    }

    #[test]
    fn tiered_compressed_policy_verifies_and_shrinks_storage() {
        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let pruned = checkpoint_restart_cycle(&app, &analysis, &RestartConfig::default()).unwrap();
        // keep=5 drops 24 mantissa bits (per-element error < 2^-28),
        // keep=6 drops 16 (< 2^-36): both inside the 1e-9 verification
        // tolerance, both strictly smaller than f64 critical storage.
        for keep in [5u8, 6] {
            let cfg = RestartConfig {
                policy: Policy::TieredCompressed {
                    hi_threshold: 0.9,
                    keep,
                },
                ..Default::default()
            };
            // In-memory path: truncated lo tier, no at-rest container.
            let report = checkpoint_restart_cycle(&app, &analysis, &cfg).unwrap();
            assert!(report.verified, "keep={keep}: rel err {}", report.rel_err);
            assert!(
                report.storage.payload_bytes < pruned.storage.payload_bytes,
                "keep={keep}: lossy tier {} !< prune-only {}",
                report.storage.payload_bytes,
                pruned.storage.payload_bytes
            );
            // Store path: same policy through files, with the at-rest
            // container applied on disk.
            let dir = std::env::temp_dir()
                .join(format!("scrutiny_restart_tc_{keep}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg_disk = RestartConfig {
                store_dir: Some(dir.clone()),
                ..cfg
            };
            let on_disk = checkpoint_restart_cycle(&app, &analysis, &cfg_disk).unwrap();
            assert!(on_disk.verified, "keep={keep} through files");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn tiered_policy_verifies_within_f32_tolerance() {
        let app = Heat1d::new(16, 10, 5);
        let analysis = scrutinize(&app).unwrap();
        let cfg = RestartConfig {
            policy: Policy::Tiered { hi_threshold: 0.9 },
            ..Default::default()
        };
        let report = checkpoint_restart_cycle(&app, &analysis, &cfg).unwrap();
        // f32 rounding perturbs the output slightly; it must stay small.
        assert!(report.rel_err < 1e-6, "rel err {}", report.rel_err);
        assert!(report.storage.payload_bytes < report.full_storage.payload_bytes);
    }
}
