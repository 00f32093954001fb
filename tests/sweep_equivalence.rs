//! Acceptance test for the segmented-tape refactor: on real NPB kernel
//! recordings (CG and FT at minimum), the parallel reverse sweeps produce
//! **bit-identical** gradients and reachability to the serial seed sweep,
//! the whole-pipeline criticality maps are unchanged by segmentation, and
//! a residency-bounded tape sweeps to the same bits however its evicted
//! windows are re-recorded.
//!
//! CI runs this in release next to the engine stress suite: frontier-merge
//! ordering races would hide behind debug-mode timing otherwise.

use scrutiny_ad::{
    Adj, Gradient, Kernel, SweepConfig, SweepRequest, Tape, TapeCheckpointConfig, TapeConfig,
    TapeReplay, TapeSession,
};
use scrutiny_core::{
    record_resumable, scrutinize, scrutinize_with, LeafSite, ScrutinyApp, ScrutinyOptions,
};
use scrutiny_npb::{Bt, Cg, Ft};

/// Record one AD run of `app` through the checkpoint boundary, the way
/// `scrutinize` does, on a tape with the given segment length.
fn record(app: &dyn ScrutinyApp, segment_len: usize) -> (Adj, Tape) {
    let session = TapeSession::with_config(TapeConfig {
        capacity: app.tape_capacity_hint(),
        segment_len,
        ..TapeConfig::default()
    });
    let mut site = LeafSite::new();
    let out = app.run_ad(&mut site);
    (out.output, session.finish())
}

fn check_kernel(app: &dyn ScrutinyApp) {
    let (out, tape) = record(app, 1 << 12);
    assert!(
        tape.segment_count() > 1,
        "{}: tape too small to exercise segmentation",
        app.spec().name
    );
    let (serial, sstats) = tape.gradient_sweep(out, SweepConfig::serial()).unwrap();
    let (reach_serial, _) = tape.reachable_sweep(out, SweepConfig::serial()).unwrap();
    assert!(!sstats.parallel);
    for threads in [2usize, 4] {
        let cfg = SweepConfig::with_threads(threads);
        let (par, pstats) = tape.gradient_sweep(out, cfg).unwrap();
        assert!(
            pstats.parallel,
            "{}: sweep did not parallelize",
            app.spec().name
        );
        assert_eq!(pstats.threads, threads);
        assert_eq!(serial.len(), par.len());
        for i in 0..serial.len() {
            assert_eq!(
                serial.of_node(i as u64).to_bits(),
                par.of_node(i as u64).to_bits(),
                "{}: gradient of node {i} diverged with {threads} threads",
                app.spec().name
            );
        }
        let (reach_par, _) = tape.reachable_sweep(out, cfg).unwrap();
        assert_eq!(
            reach_serial,
            reach_par,
            "{}: reachability diverged with {threads} threads",
            app.spec().name
        );
    }
    // Fused ≡ each kernel alone, on the unbounded tape too: one
    // `Tape::sweep` of all three kernels against each legacy sweep at the
    // same thread count.
    let name = app.spec().name;
    for threads in [1usize, 2, 4] {
        let cfg = SweepConfig::with_threads(threads);
        let fused = tape
            .sweep(
                out,
                &SweepRequest {
                    kernels: &[Kernel::Value, Kernel::Reach, Kernel::DataDep],
                    threads,
                    ..SweepRequest::default()
                },
            )
            .unwrap();
        let (grads, _) = fused.value.unwrap();
        let (alone, _) = tape.gradient_sweep(out, cfg).unwrap();
        assert_eq!(alone.len(), grads.len());
        for i in 0..alone.len() as u64 {
            assert_eq!(
                alone.of_node(i).to_bits(),
                grads.of_node(i).to_bits(),
                "{name}: fused gradient of node {i} diverged with {threads} threads"
            );
        }
        let (reach, _) = fused.reach.unwrap();
        let (reach_alone, _) = tape.reachable_sweep(out, cfg).unwrap();
        assert_eq!(
            reach_alone, *reach,
            "{name}: fused reachability, {threads} threads"
        );
        let dd = fused.datadep.unwrap();
        let dd_alone = tape.datadep_sweep(out, cfg).unwrap();
        assert_eq!(
            dd_alone.live_bits(),
            dd.live_bits(),
            "{name}: fused liveness, {threads} threads"
        );
        for i in 0..reach.len() as u64 {
            assert_eq!(
                dd_alone.used(i),
                dd.used(i),
                "{name}: fused def-use bit {i}, {threads} threads"
            );
        }
    }
}

#[test]
fn cg_parallel_sweep_bit_identical_to_serial() {
    check_kernel(&Cg::mini());
}

#[test]
fn ft_parallel_sweep_bit_identical_to_serial() {
    check_kernel(&Ft::mini());
}

#[test]
fn bt_parallel_sweep_bit_identical_to_serial() {
    check_kernel(&Bt::mini());
}

/// The bounded-memory matrix: for each residency budget — one, two and
/// four segments, the auto ⌈log2⌉ policy, and "everything fits" — and each
/// sweep-thread count, the checkpointed tape's value gradients,
/// reachability and datadep bits must be bit-identical to the unbounded
/// recording of the same run, whichever replayer re-records the evicted
/// windows — the step-resumable one `record_resumable` returns, or the
/// closure that can only start at the program start (the oracle) — and
/// whether the kernels share one fused walk or each walks alone.
fn check_checkpointed(app: &dyn ScrutinyApp) {
    const SEG: usize = 1 << 12;
    let name = app.spec().name;
    let (out, full) = record(app, SEG);
    let segments = full.segment_count();
    assert!(segments > 1, "{name}: tape too small to exercise eviction");
    let (base_grads, _) = full.gradient_sweep(out, SweepConfig::serial()).unwrap();
    let (base_reach, _) = full.reachable_sweep(out, SweepConfig::serial()).unwrap();
    let base_dd = full.datadep_sweep(out, SweepConfig::serial()).unwrap();
    let same_grads = |grads: &Gradient, what: &str| {
        for i in 0..base_grads.len() {
            assert_eq!(
                base_grads.of_node(i as u64).to_bits(),
                grads.of_node(i as u64).to_bits(),
                "{name}: gradient of node {i} diverged under replay ({what})"
            );
        }
    };
    let program_start = || {
        let mut site = LeafSite::new();
        let _ = app.run_ad(&mut site);
    };
    let budgets = [
        TapeCheckpointConfig::with_ncheckpoints(1),
        TapeCheckpointConfig::with_ncheckpoints(2),
        TapeCheckpointConfig::with_ncheckpoints(4),
        TapeCheckpointConfig::auto(),
        TapeCheckpointConfig::with_ncheckpoints(segments),
    ];
    for ckpt in budgets {
        let n = ckpt.ncheckpoints;
        let (outcome, _, bounded, resumable) = record_resumable(
            app,
            TapeConfig {
                capacity: app.tape_capacity_hint(),
                segment_len: SEG,
                checkpoint: Some(ckpt),
                ..TapeConfig::default()
            },
        );
        let out_b = outcome.output;
        assert_eq!(
            out_b.index(),
            out.index(),
            "{name}: checkpointed recording drifted (ncheckpoints={n})"
        );
        let budget = ckpt.budget_bytes(SEG, segments);
        let replayers: [(&str, &dyn TapeReplay); 2] =
            [("resumable", &resumable), ("program start", &program_start)];
        for threads in [1usize, 2, 4] {
            for (which, replay) in replayers {
                let what = format!("{which}, ncheckpoints={n}, threads={threads}");
                let fused = bounded
                    .sweep(
                        out_b,
                        &SweepRequest {
                            kernels: &[Kernel::Value, Kernel::Reach, Kernel::DataDep],
                            threads,
                            replay: Some(replay),
                            ..SweepRequest::default()
                        },
                    )
                    .unwrap();
                let (grads, gstats) = fused.value.unwrap();
                assert!(
                    gstats.peak_resident_bytes <= budget,
                    "{name}: walk peak {} over budget {budget} ({what})",
                    gstats.peak_resident_bytes
                );
                same_grads(&grads, &what);
                let (reach, _) = fused.reach.unwrap();
                assert_eq!(base_reach, *reach, "{name}: reachability ({what})");
                let dd = fused.datadep.unwrap();
                assert_eq!(dd.live_bits(), &reach[..], "{name}: liveness ({what})");
                for i in 0..reach.len() as u64 {
                    assert_eq!(
                        dd.used(i),
                        base_dd.used(i),
                        "{name}: def-use bit {i} ({what})"
                    );
                }
                // Fused ≡ each kernel alone.
                let cfg = if threads == 1 {
                    SweepConfig::serial()
                } else {
                    SweepConfig::with_threads(threads)
                };
                let (grads, gstats) = bounded.gradient_sweep_replay(out_b, cfg, replay).unwrap();
                assert!(
                    gstats.peak_resident_bytes <= budget,
                    "{name}: value sweep peak {} over budget {budget} ({what})",
                    gstats.peak_resident_bytes
                );
                same_grads(&grads, &format!("alone, {what}"));
                let (reach, _) = bounded.reachable_sweep_replay(out_b, cfg, replay).unwrap();
                assert_eq!(base_reach, reach, "{name}: reachability (alone, {what})");
                let dd = bounded
                    .sweep(
                        out_b,
                        &SweepRequest {
                            kernels: &[Kernel::DataDep],
                            threads,
                            replay: Some(replay),
                            ..SweepRequest::default()
                        },
                    )
                    .unwrap()
                    .datadep
                    .unwrap();
                assert_eq!(
                    dd.live_bits(),
                    &reach[..],
                    "{name}: liveness (alone, {what})"
                );
            }
        }
        if n <= 2 {
            assert!(
                bounded.stats().replayed_segments > 0,
                "{name}: a {n}-segment budget over {segments} segments must \
                 have forced replays"
            );
        }
    }
}

// The program-start oracle re-records the whole app once per evicted
// window — tens of full AD re-runs per sweep at the one-segment budget —
// and the matrix walks every tape with it as well as with the resumable
// replayer. CI runs these in release (where the matrix takes seconds per
// app); under a debug build they are ignored, like the rest of this
// suite's raison d'être says: debug-mode timing is not what these tests
// exist to check.
#[cfg_attr(debug_assertions, ignore = "replay matrix runs in release CI")]
#[test]
fn cg_checkpointed_sweeps_bit_identical_across_budgets_and_threads() {
    check_checkpointed(&Cg::mini());
}

#[cfg_attr(debug_assertions, ignore = "replay matrix runs in release CI")]
#[test]
fn ft_checkpointed_sweeps_bit_identical_across_budgets_and_threads() {
    check_checkpointed(&Ft::mini());
}

#[cfg_attr(debug_assertions, ignore = "replay matrix runs in release CI")]
#[test]
fn bt_checkpointed_sweeps_bit_identical_across_budgets_and_threads() {
    check_checkpointed(&Bt::mini());
}

/// End-to-end: the criticality maps and gradient magnitudes the storage
/// planner consumes are bit-identical whether the analysis ran serial on
/// a monolithic tape or parallel on a finely segmented one.
#[test]
fn scrutinize_maps_unchanged_by_segmentation_cg_ft() {
    let apps: [Box<dyn ScrutinyApp>; 2] = [Box::new(Cg::mini()), Box::new(Ft::mini())];
    for app in apps {
        let base = scrutinize(app.as_ref()).unwrap();
        let seg = scrutinize_with(
            app.as_ref(),
            &ScrutinyOptions {
                segment_len: 4096,
                threads: 4,
                ..ScrutinyOptions::default()
            },
        )
        .unwrap();
        assert!(seg.tape_stats.segments > 1);
        assert!(seg.sweep.parallel);
        assert_eq!(base.vars.len(), seg.vars.len());
        for (a, b) in base.vars.iter().zip(&seg.vars) {
            assert_eq!(a.value_map, b.value_map, "{}: value map", a.spec.name);
            assert_eq!(
                a.structural_map, b.structural_map,
                "{}: structural map",
                a.spec.name
            );
            for (ga, gb) in a.grad_mag.iter().zip(&b.grad_mag) {
                assert_eq!(
                    ga.to_bits(),
                    gb.to_bits(),
                    "{}: grad magnitude",
                    a.spec.name
                );
            }
        }
    }
}
