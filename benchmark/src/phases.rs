//! The three measured phases every workload has — analyze, epochs,
//! recover — each run for a fixed wall-clock budget with a floor on the
//! sample count, so the run length is the same on any commit and a faster
//! program yields more samples, not a shorter run. Closed loop, one
//! client, one checkpoint in flight. Every output is checked; a check
//! runs outside the interval it checks.
//!
//! A phase runs in slices, one per round of the run (see `run::ROUNDS`),
//! so its samples come from the whole length of the run: this sandbox's
//! speed changes for tens of seconds at a time, and the end-to-end
//! timings are read from the best of the blocks the samples are cut into
//! (see `stats::best_block`).

use crate::stats::ms;
use crate::timed_backend::Counts;
use crate::workload::{Ops, Rig};
use crate::Res;
use scrutiny_ckpt::format::crc32;
use scrutiny_core::restart::materialize_all;
use scrutiny_core::{
    scrutinize_differential, scrutinize_with, AnalysisReport, Analyzer, RecoveryManager,
    StorageBackend,
};
use scrutiny_obs::span;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long a phase runs in all and how many samples it takes at least
/// and at most (the cap bounds a traced run's event volume). The phase
/// stops only at a count `n` with `n % stride == phase`.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub time: Duration,
    pub floor: usize,
    pub cap: usize,
    pub stride: usize,
    pub phase: usize,
}

/// How far a phase has come: operations attempted and the wall clock
/// its slices have taken.
#[derive(Clone, Copy, Debug, Default)]
pub struct Progress {
    pub attempted: usize,
    pub wall: Duration,
}

/// Whether a phase has used `part` of its budget — of its time, and of
/// its floor: it stops before a stride of repetitions that, at the mean
/// cost so far, would overrun.
fn used(budget: Budget, part: f64, progress: Progress) -> bool {
    let n = progress.attempted;
    if n == 0 || n % budget.stride != budget.phase {
        return false;
    }
    let time = budget.time.mul_f64(part);
    let floor = (budget.floor as f64 * part).ceil() as usize;
    let next = progress.wall / n as u32 * budget.stride as u32;
    n >= budget.cap || (n >= floor && progress.wall + next > time)
}

/// One slice of a phase: repeat `op` until the phase has [`used`] `part`
/// of its budget. A slice of a phase that is already that far does
/// nothing.
fn slice(budget: Budget, part: f64, progress: &mut Progress, mut op: impl FnMut()) {
    while !used(budget, part, *progress) {
        let t0 = Instant::now();
        op();
        progress.wall += t0.elapsed();
        progress.attempted += 1;
    }
}

/// One analysis pass over the workload's apps: the summed wall clock of
/// the `scrutinize_with` calls, or `None` when one failed.
fn analysis_pass(rig: &Rig, ops: &mut Ops) -> Option<f64> {
    let mut reports: Vec<AnalysisReport> = Vec::with_capacity(rig.apps.len());
    let mut safe = true;
    let t0 = Instant::now();
    {
        let _s = span!(rig.rec, "bench.analyze");
        for app in &rig.apps {
            let report = if rig.w.analyzer == Analyzer::Both {
                // What `scrutinize_with` runs for `Both`, keeping the
                // cross-check's verdict instead of dropping it.
                scrutinize_differential(app.as_ref(), &rig.opts).map(|d| {
                    safe &= d.is_safe();
                    d.ad
                })
            } else {
                scrutinize_with(app.as_ref(), &rig.opts)
            };
            match report {
                Ok(r) => reports.push(r),
                Err(e) => {
                    ops.check(false, || format!("analysis failed: {e}"));
                    return None;
                }
            }
        }
    }
    let elapsed = ms(t0.elapsed());
    ops.attempted += 1;

    let _s = span!(rig.rec, "bench.check");
    if rig.w.analyzer == Analyzer::Both {
        ops.check(safe, || "datadep-critical ⊉ ad-critical".into());
    }
    for ((app, report), reference) in rig.w.apps.iter().zip(&reports).zip(&rig.reference) {
        for &(var, uncritical) in app.table2() {
            let got = report.var(var).map(|v| v.uncritical());
            ops.check(got == Some(uncritical), || {
                format!("{app:?}({var}): {got:?} uncritical, Table II says {uncritical}")
            });
        }
        let identical =
            report.vars.len() == reference.vars.len()
                && report.vars.iter().zip(&reference.vars).all(|(a, b)| {
                    a.value_map == b.value_map && a.structural_map == b.structural_map
                });
        ops.check(identical, || {
            format!("{app:?}: bitmaps differ from the unbounded reference analysis")
        });
    }
    Some(elapsed)
}

/// What the analyze phase measured.
#[derive(Default)]
pub struct Analyses {
    /// Per-pass wall clock.
    pub pass_ms: Vec<f64>,
    progress: Progress,
}

pub fn analyze(rig: &Rig, budget: Budget, part: f64, out: &mut Analyses, ops: &mut Ops) {
    let Analyses { pass_ms, progress } = out;
    slice(budget, part, progress, || {
        pass_ms.extend(analysis_pass(rig, ops))
    });
}

/// What the epochs phase measured.
#[derive(Default)]
pub struct Epochs {
    pub submit_us: Vec<f64>,
    pub wait_ms: Vec<f64>,
    /// `submit` called → `wait` returned.
    pub epoch_ms: Vec<f64>,
    /// Epochs attempted (a failed one has no timing sample) and the wall
    /// clock of the phase.
    pub progress: Progress,
    /// Backend put bytes accumulated by the end of each epoch.
    put_bytes_after: Vec<u64>,
    /// Backend traffic of the phase.
    pub counts: Counts,
}

impl Epochs {
    /// Bytes handed to `StorageBackend::put` per epoch, over whole
    /// rebase periods only (a base is many deltas' worth of bytes, so a
    /// partial period would depend on where the phase happened to stop).
    pub fn put_bytes_per_epoch(&self, period: usize) -> f64 {
        let n = self.put_bytes_after.len();
        let whole = match n / period * period {
            0 => n, // fewer epochs than one period (smoke run): use them all
            w => w,
        };
        self.put_bytes_after[whole - 1] as f64 / whole as f64
    }
}

/// Mutate → `submit` → `wait`, one checkpoint in flight.
pub fn epochs(rig: &mut Rig, budget: Budget, part: f64, out: &mut Epochs, ops: &mut Ops) {
    let rec = rig.rec.clone();
    let earlier = out.counts;
    let before = rig.backend.counts();
    let mut progress = out.progress;
    slice(budget, part, &mut progress, || {
        if rig.w.delta {
            let _s = span!(rec, "bench.mutate");
            rig.mutate();
        }
        let t0 = Instant::now();
        let ticket = {
            let _s = span!(rec, "bench.submit");
            rig.engine.submit(rig.current(), &rig.plans)
        };
        let t1 = Instant::now();
        let waited = ticket.and_then(|t| {
            let version = t.version();
            let _s = span!(rec, "bench.wait");
            rig.engine.wait(t).map(|_| version)
        });
        let t2 = Instant::now();
        match waited {
            Ok(version) => {
                ops.attempted += 1;
                ops.check(version > rig.newest(), || {
                    format!("version {version} does not follow {}", rig.newest())
                });
                rig.note_submitted(version);
                out.submit_us.push(ms(t1 - t0) * 1e3);
                out.wait_ms.push(ms(t2 - t1));
                out.epoch_ms.push(ms(t2 - t0));
            }
            Err(e) => {
                ops.check(false, || format!("epoch failed: {e}"));
            }
        }
        out.counts = earlier + rig.backend.counts().since(before);
        out.put_bytes_after.push(out.counts.put.bytes);
    });
    out.progress = progress;
}

/// What the recover phase measured.
#[derive(Default)]
pub struct Recoveries {
    /// `recover_latest` alone.
    pub scan_ms: Vec<f64>,
    /// `materialize_all` alone.
    pub materialize_ms: Vec<f64>,
    /// `recover_latest` called → full-size buffers in hand.
    pub recover_ms: Vec<f64>,
    pub progress: Progress,
    /// Versions rejected by name, summed over the recoveries.
    pub rejected: usize,
    /// Backend traffic of the recoveries.
    pub counts: Counts,
}

/// `recover_latest` → `materialize_all`, after flipping a byte of the
/// newest version on a fault workload (repaired again afterwards, so the
/// chain is intact for the next epoch and for the exit check).
pub fn recover(
    rig: &Rig,
    budget: Budget,
    part: f64,
    out: &mut Recoveries,
    ops: &mut Ops,
) -> Res<()> {
    if used(budget, part, out.progress) {
        return Ok(()); // nothing to inject a fault for
    }
    let rec = &rig.rec;
    let repair = if rig.w.fault {
        let _s = span!(rec, "bench.inject");
        Some(rig.flip_newest()?)
    } else {
        None
    };
    let (want_version, want_rejected, want_crc) = rig.expected_recovery(rig.w.fault)?;
    let manager = RecoveryManager::new(rig.backend.clone(), rig.recovery.clone());

    let before = rig.backend.counts();
    let mut progress = out.progress;
    slice(budget, part, &mut progress, || {
        let t0 = Instant::now();
        let recovered = {
            let _s = span!(rec, "bench.recover");
            manager.recover_latest()
        };
        let t1 = Instant::now();
        let recovered = match recovered {
            Ok(r) => r,
            Err(e) => {
                ops.check(false, || format!("recovery failed: {e}"));
                return;
            }
        };
        let buffers = {
            let _s = span!(rec, "bench.materialize");
            materialize_all(&recovered.checkpoint, rig.mg_analysis(), rig.fill())
        };
        let t2 = Instant::now();
        ops.attempted += 1;

        let _s = span!(rec, "bench.check");
        ops.check(buffers.is_ok(), || "materialize_all failed".into());
        black_box(&buffers);
        ops.check(recovered.version == want_version, || {
            format!(
                "recovered {} but expected {want_version}",
                recovered.version
            )
        });
        let rejected = recovered.report.rejected_versions();
        ops.check(rejected == want_rejected, || {
            format!("rejected {rejected:?} but expected {want_rejected:?}")
        });
        ops.check(crc32(&recovered.data) == want_crc, || {
            format!(
                "version {} is not bit-identical to a blocking save",
                recovered.version
            )
        });
        out.rejected += rejected.len();
        out.scan_ms.push(ms(t1 - t0));
        out.materialize_ms.push(ms(t2 - t1));
        out.recover_ms.push(ms(t2 - t0));
    });
    out.progress = progress;
    out.counts = out.counts + rig.backend.counts().since(before);

    if let Some((name, original)) = repair {
        let _s = span!(rec, "bench.inject");
        rig.backend.put(&name, &original)?;
    }
    Ok(())
}
