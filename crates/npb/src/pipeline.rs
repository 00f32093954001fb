//! Long-running NPB driver with asynchronous checkpointing: the burn-in
//! wiring of the async engine into the NPB benchmarks.
//!
//! HPC production runs checkpoint *periodically* inside a long main loop;
//! the paper's single-boundary experiment is one period of that loop.
//! [`burn_in`] replays the period [`BurnIn::epochs`] times against a live
//! [`EngineHandle`]: each epoch takes the app's checkpoint state — captured
//! afresh or drifted from the previous epoch ([`Drift`]) — and `submit`s
//! it, so the next epoch's compute overlaps the previous epoch's
//! serialization and storage, exactly the overlap the engine exists for.
//! The run ends with a restart-verification from the newest engine-written
//! checkpoint — or, with a [`BurnIn::fault`], closes the lifecycle loop:
//! damage the newest checkpoint on the storage tier
//! ([`scrutiny_faultinj::StorageScenario`]), recover the newest version
//! that still verifies, and restart the benchmark trajectory from it.

use crate::{Cg, Ft};
use scrutiny_core::plan::plans_for;
use scrutiny_core::restart::capture_state;
use scrutiny_core::{
    restart_cycle, AnalysisReport, CheckpointSource, EngineError, EngineHandle, Policy, Recorder,
    RecoveryConfig, RestartConfig, ScrutinyApp, VarData, VarRecord,
};
use scrutiny_faultinj::StorageScenario;

/// How each epoch's checkpoint state follows from the previous one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drift {
    /// Re-capture the app's boundary state every epoch: the capture run is
    /// the compute that overlaps the previous epoch's storage.
    Recapture,
    /// [`perturb_localized`]: a small moving window of every variable
    /// changes, the slowly-changing long-loop state a **delta-enabled**
    /// engine ([`scrutiny_core::EngineConfig::delta`]) exists for — epoch 0
    /// publishes a full base, later epochs only the dirty pages, crossing
    /// a rebase whenever the configured chain length is reached.
    Localized,
    /// [`perturb_uncritical`]: epochs differ on disk while every epoch's
    /// critical state stays bit-identical, so *any* of them restores a
    /// verifying state — the §IV.C argument a recovery run rests on.
    Uncritical,
}

/// What one [`burn_in`] run does.
#[derive(Clone, Debug)]
pub struct BurnIn {
    /// Checkpoint periods to run: at least one, at least two when the
    /// state drifts or a fault needs an older epoch to fall back to.
    pub epochs: usize,
    /// Storage policy of every epoch and of the closing verification.
    pub policy: Policy,
    /// How the state changes between epochs.
    pub drift: Drift,
    /// When set: once every epoch has resolved, damage the newest version
    /// on the engine's backend this way, then recover the newest
    /// fully-verifiable checkpoint and restart from *it*.
    pub fault: Option<StorageScenario>,
    /// Where the run reports: one `npb.epoch` event per resolved epoch
    /// (`epoch`, `version`, `payload_bytes`, `total_bytes`, `wait_us`), the
    /// injection as a `faultinj.inject` event, and the recovery scan's
    /// candidate/reject/recovered events. With the engine opened on the
    /// same recorder ([`scrutiny_core::EngineConfig::recorder`]) the JSONL
    /// dump is a complete record of the lifecycle — every submit, publish,
    /// commit, the injected damage, and the fallback walk — with no other
    /// output needed (`tests/obs_lifecycle.rs` holds that contract).
    pub recorder: Recorder,
}

impl BurnIn {
    /// `epochs` re-captured periods under `policy`: no fault, nothing
    /// recorded. The other runs are struct updates of this one.
    pub fn new(epochs: usize, policy: Policy) -> BurnIn {
        BurnIn {
            epochs,
            policy,
            drift: Drift::Recapture,
            fault: None,
            recorder: Recorder::disabled(),
        }
    }
}

/// Outcome of one [`burn_in`] run.
#[derive(Clone, Debug)]
pub struct BurnInReport {
    /// Benchmark name (from its spec).
    pub app: String,
    /// Checkpoints submitted (one per epoch) — all resolved.
    pub epochs: usize,
    /// Segments of the analysis tape the burn-in's criticality maps came
    /// from (the record ran through the segmented tape).
    pub tape_segments: usize,
    /// What the analysis sweeps did, **aggregated across both sweeps**
    /// (value + reachability): frontier traffic sums, thread/segment
    /// counts take the maximum.
    pub sweep: scrutiny_core::SweepStats,
    /// Stored payload bytes of each epoch, in submission order.
    pub epoch_payload_bytes: Vec<usize>,
    /// Sum of stored payload bytes across all epochs.
    pub payload_bytes: usize,
    /// Bytes written by each epoch in order (under a delta engine index 0
    /// is the base, and rebase epochs show up as full-sized entries
    /// between runs of small deltas).
    pub epoch_bytes: Vec<usize>,
    /// Total bytes written across all epochs.
    pub total_bytes: usize,
    /// Did the closing restart — from the newest engine-written
    /// checkpoint, or from the recovered one after a fault — reproduce the
    /// golden output within the app's tolerance?
    pub verified: bool,
    /// Relative error of that restart.
    pub rel_err: f64,
    /// What the fault damaged and what the run resumed from; `Some`
    /// exactly when [`BurnIn::fault`] was set.
    pub recovery: Option<BurnInRecovery>,
}

/// The fault-and-fallback part of a [`BurnInReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BurnInRecovery {
    /// Name of the object the storage fault damaged.
    pub damaged: String,
    /// Newest version on the backend when the fault struck.
    pub newest_version: u64,
    /// Version the recovery scan actually restored.
    pub recovered_version: u64,
    /// Versions the scan rejected (newest first), from the
    /// [`scrutiny_core::RecoveryReport`].
    pub rejected_versions: Vec<u64>,
}

/// Run [`BurnIn::epochs`] checkpoint periods of `app` through `engine`,
/// then verify by restarting — from the engine's newest checkpoint, or,
/// after a [`BurnIn::fault`], from the newest version that still recovers.
pub fn burn_in(
    app: &dyn ScrutinyApp,
    analysis: &AnalysisReport,
    engine: &EngineHandle,
    run: &BurnIn,
) -> Result<BurnInReport, EngineError> {
    let least = if run.fault.is_some() || run.drift != Drift::Recapture {
        2
    } else {
        1
    };
    if run.epochs < least {
        return Err(EngineError::InvalidConfig(format!(
            "this burn-in needs at least {least} epoch(s)"
        )));
    }
    let rec = &run.recorder;
    let plans = plans_for(analysis, run.policy);
    let mut vars = capture_state(app);
    let mut tickets = Vec::with_capacity(run.epochs);
    for epoch in 0..run.epochs {
        if epoch > 0 {
            match run.drift {
                Drift::Recapture => vars = capture_state(app),
                Drift::Localized => perturb_localized(&mut vars, epoch),
                Drift::Uncritical => perturb_uncritical(&mut vars, analysis, epoch),
            }
        }
        // submit returns as soon as the snapshot is staged; producing the
        // next epoch's state is the compute that overlaps this epoch's
        // serialization and storage.
        tickets.push(engine.submit(&vars, &plans)?);
    }
    let mut newest = 0;
    let mut epoch_payload_bytes = Vec::with_capacity(run.epochs);
    let mut epoch_bytes = Vec::with_capacity(run.epochs);
    for (epoch, ticket) in tickets.into_iter().enumerate() {
        newest = ticket.version();
        let t0 = rec.now_us();
        let storage = engine.wait(ticket)?;
        rec.event(
            "npb.epoch",
            &[
                ("epoch", epoch.into()),
                ("version", newest.into()),
                ("payload_bytes", storage.payload_bytes.into()),
                ("total_bytes", storage.total().into()),
                ("wait_us", rec.now_us().saturating_sub(t0).into()),
            ],
        );
        epoch_payload_bytes.push(storage.payload_bytes);
        epoch_bytes.push(storage.total());
    }
    let damaged = run
        .fault
        .map(|scenario| scenario.inject_obs(engine.backend().as_ref(), newest, rec))
        .transpose()?;
    let cfg = RestartConfig {
        policy: run.policy,
        ..Default::default()
    };
    let scan = RecoveryConfig {
        recorder: rec.clone(),
        ..Default::default()
    };
    let source = match damaged {
        Some(_) => CheckpointSource::Recovered(engine, &scan),
        None => CheckpointSource::Engine(engine),
    };
    let restart = restart_cycle(app, analysis, &cfg, source, |_, _| {})?;
    let recovery = damaged
        .zip(restart.recovery)
        .map(|(damaged, (recovered_version, scan))| BurnInRecovery {
            damaged,
            newest_version: newest,
            recovered_version,
            rejected_versions: scan.rejected_versions(),
        });
    Ok(BurnInReport {
        app: app.spec().name,
        epochs: run.epochs,
        tape_segments: analysis.tape_stats.segments,
        // Sum, don't overwrite: both sweeps contributed to the maps.
        sweep: analysis.sweep.merged_with(&analysis.reach_sweep),
        payload_bytes: epoch_payload_bytes.iter().sum(),
        epoch_payload_bytes,
        total_bytes: epoch_bytes.iter().sum(),
        epoch_bytes,
        verified: restart.verified,
        rel_err: restart.rel_err,
        recovery,
    })
}

/// Apply a small localized update to every variable, the slowly-changing
/// long-loop state delta checkpoints exist for: each epoch perturbs a
/// different 1/16th window of each array (deterministically by epoch), so
/// most pages of the serialized state survive unchanged between epochs.
pub fn perturb_localized(vars: &mut [VarRecord], epoch: usize) {
    for var in vars.iter_mut() {
        let n = var.data.len();
        if n == 0 {
            continue;
        }
        let window = (n / 16).max(1);
        let start = (epoch * window) % n;
        let end = (start + window).min(n);
        match &mut var.data {
            VarData::F64(v) => {
                for x in &mut v[start..end] {
                    *x += 1e-3;
                }
            }
            VarData::C128(v) => {
                for (re, _) in &mut v[start..end] {
                    *re += 1e-3;
                }
            }
            VarData::I64(v) => {
                for x in &mut v[start..end] {
                    *x = x.wrapping_add(1);
                }
            }
        }
    }
}

/// Perturb only elements the analysis proved **uncritical** (per-epoch
/// moving window, like [`perturb_localized`]). This is the §IV.C
/// argument driving the recovery burn-in: epochs differ on disk (real
/// dirty pages under `Policy::Full`), yet *any* epoch restores a
/// verifying state, because the critical elements are bit-identical
/// across all of them — so falling back to an older checkpoint after
/// corruption must still pass verification.
pub fn perturb_uncritical(vars: &mut [VarRecord], analysis: &AnalysisReport, epoch: usize) {
    for (var, crit) in vars.iter_mut().zip(&analysis.vars) {
        let n = var.data.len();
        if n == 0 {
            continue;
        }
        let window = (n / 16).max(1);
        let start = (epoch * window) % n;
        let end = (start + window).min(n);
        let in_window = |i: usize| i >= start && i < end;
        match &mut var.data {
            VarData::F64(v) => {
                for i in crit.value_map.zeros().filter(|&i| in_window(i)) {
                    v[i] += 1e-3 * (epoch as f64 + 1.0);
                }
            }
            VarData::C128(v) => {
                for i in crit.value_map.zeros().filter(|&i| in_window(i)) {
                    v[i].0 += 1e-3 * (epoch as f64 + 1.0);
                }
            }
            // Integer control state is analyzed by liveness, not AD;
            // leave it alone.
            VarData::I64(_) => {}
        }
    }
}

/// Reduced instances of the two benchmarks the burn-in tests drive: CG (the
/// classic pruned float vector + integer control state) and FT (the large
/// complex-typed state that exercises sharded serialization hardest).
pub fn burn_in_suite_mini() -> Vec<Box<dyn ScrutinyApp>> {
    vec![Box::new(Cg::mini()), Box::new(Ft::mini())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::{scrutinize, EngineConfig, EngineHandle, MemBackend};
    use std::sync::Arc;

    #[test]
    fn delta_burn_in_cg_and_ft_base_to_delta_to_rebase() {
        use scrutiny_core::DeltaPolicy;
        for app in burn_in_suite_mini() {
            let analysis = scrutinize(app.as_ref()).unwrap();
            let engine = EngineHandle::open(
                Arc::new(MemBackend::new()),
                EngineConfig {
                    delta: Some(DeltaPolicy {
                        page_bytes: 128,
                        rebase_every: 3,
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
            // 6 epochs with rebase_every = 3: base, 3 deltas, a rebase
            // (epoch 4), another delta — the full chain lifecycle.
            let run = BurnIn {
                drift: Drift::Localized,
                ..BurnIn::new(6, Policy::PrunedValue)
            };
            let report = burn_in(app.as_ref(), &analysis, &engine, &run).unwrap();
            assert_eq!(report.epochs, 6);
            assert!(
                report.verified,
                "{}: delta-chain restart failed (rel err {})",
                report.app, report.rel_err
            );
            for delta_epoch in [1, 2, 3, 5] {
                assert!(
                    report.epoch_bytes[delta_epoch] < report.epoch_bytes[0],
                    "{} epoch {delta_epoch}: delta ({}) must write less than the base ({})",
                    report.app,
                    report.epoch_bytes[delta_epoch],
                    report.epoch_bytes[0]
                );
            }
            assert_eq!(engine.pending(), 0);
        }
    }

    #[test]
    fn recovery_burn_in_survives_a_flipped_byte_in_a_delta_chain() {
        use scrutiny_core::DeltaPolicy;
        for app in burn_in_suite_mini() {
            let analysis = scrutinize(app.as_ref()).unwrap();
            let engine = EngineHandle::open(
                Arc::new(MemBackend::new()),
                EngineConfig {
                    delta: Some(DeltaPolicy {
                        page_bytes: 128,
                        rebase_every: 3,
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
            // Full plans so the uncritical perturbations produce real
            // dirty pages between epochs.
            let run = BurnIn {
                drift: Drift::Uncritical,
                fault: Some(StorageScenario::FlippedPayloadByte),
                ..BurnIn::new(4, Policy::Full)
            };
            let report = burn_in(app.as_ref(), &analysis, &engine, &run).unwrap();
            let recovery = report.recovery.expect("a fault was injected");
            assert_eq!(recovery.newest_version, 3);
            assert_eq!(
                recovery.recovered_version, 2,
                "{}: expected fallback to the previous epoch",
                report.app
            );
            assert_eq!(recovery.rejected_versions, vec![3], "{}", report.app);
            assert!(
                report.verified,
                "{}: resumed trajectory failed verification (rel err {})",
                report.app, report.rel_err
            );
        }
    }

    #[test]
    fn recovery_burn_in_survives_a_missing_commit_marker() {
        for app in burn_in_suite_mini() {
            let analysis = scrutinize(app.as_ref()).unwrap();
            let engine =
                EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
            let run = BurnIn {
                drift: Drift::Uncritical,
                fault: Some(StorageScenario::MissingCommitMarker),
                ..BurnIn::new(3, Policy::PrunedValue)
            };
            let report = burn_in(app.as_ref(), &analysis, &engine, &run).unwrap();
            let recovery = report.recovery.expect("a fault was injected");
            assert_eq!(recovery.recovered_version, 1, "{}", report.app);
            assert_eq!(recovery.rejected_versions, vec![2], "{}", report.app);
            assert!(
                report.verified,
                "{}: resumed trajectory failed verification (rel err {})",
                report.app, report.rel_err
            );
        }
    }

    #[test]
    fn burn_in_cg_and_ft_through_the_engine() {
        for app in burn_in_suite_mini() {
            let analysis = scrutinize(app.as_ref()).unwrap();
            let engine =
                EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
            let run = BurnIn::new(3, Policy::PrunedValue);
            let report = burn_in(app.as_ref(), &analysis, &engine, &run).unwrap();
            assert_eq!(report.epochs, 3);
            assert!(report.payload_bytes > 0);
            assert!(report.tape_segments > 0);
            assert!(
                report.verified,
                "{}: engine restart failed (rel err {})",
                report.app, report.rel_err
            );
            assert_eq!(engine.pending(), 0);
        }
    }

    #[test]
    fn burn_in_with_forced_segmentation_and_parallel_sweeps() {
        // Drive the whole analyze→burn-in→restart pipeline with the tape
        // split into many small segments and the sweeps running parallel:
        // results (criticality, restart verification) must be unaffected,
        // and the report must surface the segmentation it ran with.
        use scrutiny_core::{scrutinize_with, ScrutinyOptions};
        for app in burn_in_suite_mini() {
            let analysis = scrutinize_with(
                app.as_ref(),
                &ScrutinyOptions {
                    segment_len: 4096,
                    threads: 4,
                    ..ScrutinyOptions::default()
                },
            )
            .unwrap();
            let engine =
                EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
            let run = BurnIn::new(2, Policy::PrunedValue);
            let report = burn_in(app.as_ref(), &analysis, &engine, &run).unwrap();
            assert!(
                report.tape_segments > 1,
                "{}: expected a segmented tape",
                report.app
            );
            assert!(
                report.sweep.parallel,
                "{}: expected a parallel sweep",
                report.app
            );
            assert!(report.sweep.cross_contribs > 0);
            assert!(
                report.verified,
                "{}: restart from segmented-analysis maps failed (rel err {})",
                report.app, report.rel_err
            );
        }
    }
}
