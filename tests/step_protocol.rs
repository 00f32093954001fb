//! The step protocol and what the bounded-memory analysis builds on it.
//!
//! * Every application — the seven AD-analyzable NPB kernels and the demo
//!   app here, the pitfall apps in `nonsmooth_pitfalls.rs` — honours the
//!   contract `scrutiny_integration::assert_step_contract` spells out:
//!   stepping by hand ≡ the provided run, forks are snapshots that
//!   allocate what `snapshot_bytes` says (this binary counts allocations
//!   to check it), resumed re-recording is bit-exact.
//! * On a many-step tape the replay work of a reverse walk is
//!   logarithmic: `replayed_nodes ≤ C · log2(segments) · recorded_nodes`,
//!   with snapshot bytes inside the residency budget — where replaying
//!   every window from the program start (all a closure can do, and all
//!   any replayer did before step snapshots) breaks the same bound. The
//!   bound holds on a tape of a few long steps too (CG), because the
//!   inner resume points of a step are rungs like its boundaries.
//! * An application whose snapshot is too large for the ladder's share of
//!   the budget (FT's frequency-domain state) keeps the full segment
//!   window and replays from the program start instead of overshooting.

use scrutiny_ad::{Kernel, SweepConfig, SweepRequest, TapeCheckpointConfig, TapeConfig};
use scrutiny_core::tiny::Heat1d;
use scrutiny_core::{record_resumable, LeafSite, ScrutinyApp};
use scrutiny_faultinj::{allocated_by, CountingAlloc};
use scrutiny_integration::assert_step_contract;
use scrutiny_npb::{ad_suite_mini, Cg, Ft};

/// Lets the contract weigh every fork against its `snapshot_bytes`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn every_app_honours_the_step_contract() {
    let (_, weighed) = allocated_by(|| vec![0u8; 100]).expect("allocations are counted");
    assert_eq!(weighed, 100);
    for app in ad_suite_mini() {
        assert_step_contract(app.as_ref());
    }
    assert_step_contract(&Heat1d::new(16, 12, 5));
    // The boundary cases: checkpoint before the first and the last step.
    assert_step_contract(&Heat1d::new(8, 6, 0));
    assert_step_contract(&Heat1d::new(8, 6, 5));
}

/// The constant of the logarithmic replay bound asserted below.
const C: f64 = 1.0;

#[test]
fn replay_work_is_logarithmic_on_a_many_step_tape() {
    // 96 taped steps of 80 nodes over 64-node segments: ~120 segments,
    // a step and a segment about the same size.
    const SEG: usize = 64;
    let app = Heat1d::new(16, 100, 4);
    let ckpt = TapeCheckpointConfig::auto();
    let (outcome, _, tape, resumable) = record_resumable(
        &app,
        TapeConfig {
            segment_len: SEG,
            checkpoint: Some(ckpt),
            ..TapeConfig::default()
        },
    );
    let segments = tape.segment_count();
    assert!(segments >= 100, "{segments} segments");
    let budget = ckpt.budget_bytes(SEG, segments);
    let bound = (C * (segments as f64).log2() * tape.len() as f64) as u64;
    let request = |replay| SweepRequest {
        kernels: &[Kernel::Value, Kernel::Reach, Kernel::DataDep],
        threads: 1,
        replay: Some(replay),
        ..SweepRequest::default()
    };

    let swept = tape.sweep(outcome.output, &request(&resumable)).unwrap();
    let stats = swept.value.unwrap().1;
    assert!(stats.replayed_segments as usize >= segments / 2);
    assert!(
        stats.replayed_nodes <= bound,
        "resumed walk replayed {} nodes, bound {bound} ({segments} segments, {} recorded)",
        stats.replayed_nodes,
        tape.len()
    );
    assert!(
        stats.peak_resident_bytes <= budget,
        "peak {} over budget {budget}, snapshots included",
        stats.peak_resident_bytes
    );

    // The linear schedule on the same tape: every window from the start.
    let program_start = || {
        let mut site = LeafSite::new();
        let _ = app.run_ad(&mut site);
    };
    let swept = tape
        .sweep(outcome.output, &request(&program_start))
        .unwrap();
    let linear = swept.value.unwrap().1;
    assert!(
        linear.replayed_nodes > bound,
        "program-start replay stayed within {bound}: {} nodes",
        linear.replayed_nodes
    );
    assert!(linear.peak_resident_bytes <= budget);
}

#[test]
fn replay_work_is_logarithmic_on_a_few_long_steps_tape() {
    // CG: 3 taped outer steps of ~16 600 nodes over 256-node segments,
    // 195 segments in all, ~65 a step. Its ten inner conjugate-gradient
    // iterations a step are what keep a window from being re-recorded
    // from its step's start (16.7× the tape; 5.1× with them).
    const SEG: usize = 256;
    let app = Cg::mini();
    let (outcome, _, tape, resumable) = record_resumable(
        &app,
        TapeConfig {
            segment_len: SEG,
            checkpoint: Some(TapeCheckpointConfig::auto()),
            ..TapeConfig::default()
        },
    );
    let segments = tape.segment_count();
    assert!(segments >= 100, "{segments} segments");
    let bound = (C * (segments as f64).log2() * tape.len() as f64) as u64;
    let (_, stats) = tape
        .gradient_sweep_replay(outcome.output, SweepConfig::serial(), &resumable)
        .unwrap();
    assert!(
        stats.replayed_nodes <= bound,
        "resumed walk replayed {} nodes, bound {bound} ({segments} segments, {} recorded)",
        stats.replayed_nodes,
        tape.len()
    );
}

#[test]
fn oversized_snapshot_degrades_to_the_program_start_within_budget() {
    // FT's fork holds the whole frequency-domain field: 8·8·9 complex
    // values of two 16-byte scalars here (18 KiB), 8.5 MB at class S. With
    // 512-node segments and two residency slots the ladder's share would
    // be one segment's 12.5 KiB, taken only if three snapshots fit: the
    // segments keep both slots and every window is replayed from the
    // program start — exactly what a closure does.
    const SEG: usize = 1 << 9;
    let app = Ft::mini();
    assert!(app.start_ad().snapshot_bytes() > SEG * scrutiny_ad::NODE_BYTES);
    let record = |checkpoint| {
        record_resumable(
            &app,
            TapeConfig {
                segment_len: SEG,
                checkpoint,
                ..TapeConfig::default()
            },
        )
    };
    let (out, _, full, _) = record(None);
    let (base, _) = full
        .gradient_sweep(out.output, SweepConfig::serial())
        .unwrap();

    let ckpt = TapeCheckpointConfig::with_ncheckpoints(2);
    let (out_b, _, tape, resumable) = record(Some(ckpt));
    let segments = tape.segment_count();
    assert!(segments > 8, "{segments} segments");
    let (grads, stats) = tape
        .gradient_sweep_replay(out_b.output, SweepConfig::serial(), &resumable)
        .unwrap();
    for i in 0..base.len() as u64 {
        assert_eq!(base.of_node(i).to_bits(), grads.of_node(i).to_bits());
    }
    assert!(stats.peak_resident_bytes <= ckpt.budget_bytes(SEG, segments));
    // Two-segment windows (the resident two-segment tail needs none),
    // each replayed from node 0 at least to its own end.
    assert_eq!(stats.replayed_segments as usize, segments - 2);
    let from_start: u64 = (0..segments - 2)
        .rev()
        .step_by(2)
        .map(|s| ((s + 1) * SEG) as u64)
        .sum();
    assert!(stats.replayed_nodes >= from_start);
}
