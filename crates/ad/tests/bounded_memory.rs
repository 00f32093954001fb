//! The memory-budget harness for divide-and-conquer tape checkpointing:
//! on randomly generated recordings, a checkpointed tape must (a) never
//! let resident bytes — arenas *and* ladder snapshots — exceed the
//! configured budget, during recording *or* while the sweeps replay
//! evicted segments, and (b) produce gradients, reachability, and datadep
//! liveness **bit-identical** to the same program recorded unbounded —
//! whether the replayer is a closure (program start only) or a [`Ladder`]
//! (resuming step snapshots), and whether the kernels walk alone or fused
//! into one walk. Violations of either property are exactly the silent
//! failure modes eviction could introduce, so both are checked on every
//! case.
//!
//! The error-path tests pin down the typed-error contract: an impossible
//! budget is [`AdError::InvalidConfig`], sweeping an evicted tape without
//! a replayer is [`AdError::SegmentEvicted`], a non-deterministic replay
//! — closure or step — is [`AdError::ReplayDivergence`], and a poisoned
//! (overflowed) tape keeps reporting [`AdError::TapeOverflow`] — never a
//! panic.

use proptest::prelude::*;
use scrutiny_ad::{
    AdError, Adj, Kernel, Ladder, Resume, SweepConfig, SweepRequest, Tape, TapeCheckpointConfig,
    TapeConfig, TapeSession, NODE_BYTES,
};
use std::cell::Cell;
use std::rc::Rc;

/// One deterministic straight-line program, runnable in one go or step by
/// step: fold `ops` over a two-leaf seed state. Each op byte picks the
/// arithmetic, so the recording is a pure function of `(ops, x0, y0)` —
/// exactly what a replayer needs to be.
#[derive(Clone)]
struct Program {
    ops: Rc<[u8]>,
    /// Ops per step.
    stride: usize,
    /// Next op to run.
    pos: usize,
    x: Adj,
    y: Adj,
    acc: Adj,
    /// Perturbs the arithmetic of op 40 on every run after the first
    /// (shared by clones), leaving the node count alone — the
    /// nondeterministic-step fixture.
    flaky: Option<Rc<Cell<u32>>>,
}

impl Program {
    /// The program start: leaves and the seed product are on the tape.
    fn start(ops: &Rc<[u8]>, x0: f64, y0: f64, stride: usize) -> Program {
        let x = Adj::leaf(x0);
        let y = Adj::leaf(y0);
        Program {
            ops: ops.clone(),
            stride,
            pos: 0,
            x,
            y,
            acc: x * y,
            flaky: None,
        }
    }

    fn apply(&mut self, i: usize) {
        let (x, y, acc) = (self.x, self.y, self.acc);
        let mut next = match self.ops[i] % 5 {
            0 => acc + x,
            1 => acc * y,
            2 => acc - x * 0.5,
            3 => (acc * acc + 1.0).sqrt(),
            _ => acc / (y * y + 2.0),
        };
        // Touch both leaves periodically so liveness stays interesting.
        if i % 7 == 0 {
            next += x * y;
        }
        if let Some(runs) = self.flaky.as_ref().filter(|_| i == 40) {
            next *= 1.0 + f64::from(runs.get());
            runs.set(runs.get() + 1);
        }
        self.acc = next;
    }
}

impl Resume for Program {
    fn advance(&mut self) -> bool {
        let end = (self.pos + self.stride).min(self.ops.len());
        for i in self.pos..end {
            self.apply(i);
        }
        self.pos = end;
        end < self.ops.len()
    }

    fn bytes(&self) -> usize {
        std::mem::size_of::<Program>()
    }
}

/// The whole program in one go — what a replay closure calls.
fn run_program(ops: &Rc<[u8]>, x0: f64, y0: f64) -> Adj {
    let mut p = Program::start(ops, x0, y0, ops.len().max(1));
    while p.advance() {}
    p.acc
}

/// Record `ops` on a tape with the given segment length and optional
/// residency budget.
fn record(
    ops: &Rc<[u8]>,
    x0: f64,
    y0: f64,
    segment_len: usize,
    checkpoint: Option<TapeCheckpointConfig>,
) -> (Adj, Tape) {
    let session = TapeSession::with_config(TapeConfig {
        segment_len,
        checkpoint,
        ..TapeConfig::default()
    });
    let out = run_program(ops, x0, y0);
    (out, session.finish())
}

fn ops_of(bytes: Vec<u8>) -> Rc<[u8]> {
    bytes.into()
}

const SEG: usize = 32;

fn bounded_cfg(checkpoint: TapeCheckpointConfig) -> TapeConfig {
    TapeConfig {
        segment_len: SEG,
        checkpoint: Some(checkpoint),
        ..TapeConfig::default()
    }
}

const ALL_KERNELS: [Kernel; 3] = [Kernel::Value, Kernel::Reach, Kernel::DataDep];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs, random budgets: peak residency stays under the
    /// budget and every sweep result is bit-identical to the unbounded
    /// recording — each kernel alone through a closure, and all three
    /// fused into one walk.
    #[test]
    fn residency_bounded_and_sweeps_bit_identical(
        ops in proptest::collection::vec(0u8..255, 64..512),
        n in 1usize..6,
        x0 in 0.5f64..2.0,
        y0 in 0.5f64..2.0,
    ) {
        let ops = ops_of(ops);
        let (out, full) = record(&ops, x0, y0, SEG, None);
        let segments = full.segment_count();
        prop_assume!(segments > 2);
        let (base, _) = full.gradient_sweep(out, SweepConfig::serial()).unwrap();
        let (base_reach, _) = full.reachable_sweep(out, SweepConfig::serial()).unwrap();
        let base_dd = full.datadep_sweep(out, SweepConfig::serial()).unwrap();

        let ckpt = TapeCheckpointConfig::with_ncheckpoints(n);
        let budget = ckpt.budget_bytes(SEG, segments);
        let (out_b, bounded) = record(&ops, x0, y0, SEG, Some(ckpt));
        prop_assert!(
            bounded.peak_resident_bytes() <= budget,
            "recording peak {} over budget {budget} (ncheckpoints={n})",
            bounded.peak_resident_bytes()
        );

        let replay = || { let _ = run_program(&ops, x0, y0); };
        let (grads, stats) = bounded
            .gradient_sweep_replay(out_b, SweepConfig::serial(), &replay)
            .unwrap();
        prop_assert!(
            stats.peak_resident_bytes <= budget,
            "sweep peak {} over budget {budget} (ncheckpoints={n})",
            stats.peak_resident_bytes
        );
        for i in 0..base.len() {
            prop_assert_eq!(
                base.of_node(i as u64).to_bits(),
                grads.of_node(i as u64).to_bits()
            );
        }
        let (reach, _) = bounded
            .reachable_sweep_replay(out_b, SweepConfig::serial(), &replay)
            .unwrap();
        prop_assert_eq!(&base_reach, &reach);
        let dd = bounded
            .sweep(out_b, &SweepRequest {
                kernels: &[Kernel::DataDep],
                threads: 1,
                replay: Some(&replay),
                ..SweepRequest::default()
            })
            .unwrap()
            .datadep
            .unwrap();
        prop_assert_eq!(dd.live_bits(), &reach[..]);
        if n < segments {
            prop_assert!(
                bounded.stats().replayed_segments > 0,
                "budget {n} < {segments} segments must have forced replays"
            );
        }

        let fused = bounded
            .sweep(out_b, &SweepRequest {
                kernels: &ALL_KERNELS,
                threads: 1,
                replay: Some(&replay),
                ..SweepRequest::default()
            })
            .unwrap();
        let (fused_grads, fused_stats) = fused.value.unwrap();
        for i in 0..base.len() {
            prop_assert_eq!(
                base.of_node(i as u64).to_bits(),
                fused_grads.of_node(i as u64).to_bits()
            );
        }
        prop_assert_eq!(&base_reach, &*fused.reach.unwrap().0);
        let dd = fused.datadep.unwrap();
        prop_assert_eq!(dd.live_bits(), &base_reach[..]);
        for i in 0..base.len() as u64 {
            prop_assert_eq!(dd.used(i), base_dd.used(i));
        }
        prop_assert!(fused_stats.peak_resident_bytes <= budget);
    }

    /// The same contract through a [`Ladder`]: recorded step by step with
    /// snapshots sharing the budget, swept resuming them — bit-identical
    /// to the unbounded tape and to the closure replayer on the very same
    /// tape, with snapshot bytes inside the budget.
    #[test]
    fn ladder_replay_is_bit_identical_and_within_budget(
        ops in proptest::collection::vec(0u8..255, 64..512),
        n in 1usize..6,
        stride in 1usize..40,
        x0 in 0.5f64..2.0,
    ) {
        let ops = ops_of(ops);
        let y0 = 0.75;
        let (out, full) = record(&ops, x0, y0, SEG, None);
        let segments = full.segment_count();
        prop_assume!(segments > 2);
        let (base, _) = full.gradient_sweep(out, SweepConfig::serial()).unwrap();
        let (base_reach, _) = full.reachable_sweep(out, SweepConfig::serial()).unwrap();

        let ckpt = TapeCheckpointConfig::with_ncheckpoints(n);
        let budget = ckpt.budget_bytes(SEG, segments);
        let (tape, end, ladder) =
            Ladder::record(bounded_cfg(ckpt), || Program::start(&ops, x0, y0, stride));
        prop_assert_eq!(end.acc.index(), out.index());
        prop_assert!(tape.peak_resident_bytes() <= budget);

        for threads in [1usize, 3] {
            let fused = tape
                .sweep(end.acc, &SweepRequest {
                    kernels: &ALL_KERNELS,
                    threads,
                    replay: Some(&ladder),
                    ..SweepRequest::default()
                })
                .unwrap();
            let (grads, stats) = fused.value.unwrap();
            for i in 0..base.len() {
                prop_assert_eq!(
                    base.of_node(i as u64).to_bits(),
                    grads.of_node(i as u64).to_bits()
                );
            }
            prop_assert_eq!(&base_reach, &*fused.reach.unwrap().0);
            let dd = fused.datadep.unwrap();
            prop_assert_eq!(dd.live_bits(), &base_reach[..]);
            prop_assert!(
                stats.peak_resident_bytes <= budget,
                "peak {} over budget {budget} (ncheckpoints={n}, stride={stride})",
                stats.peak_resident_bytes
            );
        }
        // The program-start closure is the oracle on the same tape.
        let replay = || { let _ = run_program(&ops, x0, y0); };
        let (grads, _) = tape
            .gradient_sweep_replay(end.acc, SweepConfig::serial(), &replay)
            .unwrap();
        for i in 0..base.len() {
            prop_assert_eq!(
                base.of_node(i as u64).to_bits(),
                grads.of_node(i as u64).to_bits()
            );
        }
        prop_assert!(tape.peak_resident_bytes() <= budget);
    }

    /// The budget really is a *byte* contract: `for_budget_bytes` resolves
    /// to a segment count whose residency never exceeds the raw byte
    /// figure it was asked for.
    #[test]
    fn byte_budget_is_respected(
        ops in proptest::collection::vec(0u8..255, 64..256),
        budget_segs in 1usize..5,
    ) {
        let ops = ops_of(ops);
        let budget = budget_segs * SEG * NODE_BYTES;
        let ckpt = TapeCheckpointConfig::for_budget_bytes(budget, SEG).unwrap();
        let (out, tape) = record(&ops, 1.25, 0.75, SEG, Some(ckpt));
        let replay = || { let _ = run_program(&ops, 1.25, 0.75); };
        let (_, stats) = tape
            .gradient_sweep_replay(out, SweepConfig::serial(), &replay)
            .unwrap();
        prop_assert!(tape.peak_resident_bytes() <= budget);
        prop_assert!(stats.peak_resident_bytes <= budget);
    }
}

#[test]
fn budget_below_one_segment_is_invalid_config() {
    let err = TapeCheckpointConfig::for_budget_bytes(SEG * NODE_BYTES - 1, SEG).unwrap_err();
    assert!(matches!(err, AdError::InvalidConfig { .. }), "{err}");
}

#[test]
fn evicted_sweep_without_replayer_is_segment_evicted() {
    let ops = ops_of(vec![1u8; 256]);
    let (out, tape) = record(
        &ops,
        1.5,
        0.5,
        SEG,
        Some(TapeCheckpointConfig::with_ncheckpoints(1)),
    );
    assert!(tape.stats().evicted_segments > 0);
    let err = tape.gradient_sweep(out, SweepConfig::serial()).unwrap_err();
    assert!(matches!(err, AdError::SegmentEvicted { .. }), "{err}");
    // The fused entry without a replayer reports the same.
    let err = tape
        .sweep(
            out,
            &SweepRequest {
                kernels: &ALL_KERNELS,
                threads: 1,
                ..SweepRequest::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, AdError::SegmentEvicted { .. }), "{err}");
}

#[test]
fn divergent_replay_is_replay_divergence() {
    let ops = ops_of(vec![3u8; 256]);
    let (out, tape) = record(
        &ops,
        1.5,
        0.5,
        SEG,
        Some(TapeCheckpointConfig::with_ncheckpoints(1)),
    );
    // Same node count, different arithmetic: the digest check must
    // refuse the re-recorded bytes.
    let bad = || {
        let _ = run_program(&ops, 1.5, 0.625);
    };
    let err = tape
        .gradient_sweep_replay(out, SweepConfig::serial(), &bad)
        .unwrap_err();
    assert!(matches!(err, AdError::ReplayDivergence { .. }), "{err}");
}

#[test]
fn nondeterministic_step_is_replay_divergence_naming_the_segment() {
    // Op 40 multiplies by a run counter: the recording sees ×1, every
    // resumed re-run something else — same node count, other partials.
    let ops = ops_of(vec![1u8; 256]);
    let runs = Rc::new(Cell::new(0));
    let start = || Program {
        flaky: Some(runs.clone()),
        ..Program::start(&ops, 1.5, 0.5, 16)
    };
    let ckpt = TapeCheckpointConfig::with_ncheckpoints(4);
    let (tape, end, ladder) = Ladder::record(bounded_cfg(ckpt), start);
    let err = tape
        .gradient_sweep_replay(end.acc, SweepConfig::serial(), &ladder)
        .unwrap_err();
    match err {
        AdError::ReplayDivergence { segment, .. } => {
            // Op 40's nodes sit a few segments in; the error names one.
            assert!(segment < tape.segment_count() as u64, "{err}");
        }
        other => panic!("expected ReplayDivergence, got {other}"),
    }
}

#[test]
fn step_with_a_drifting_node_count_is_replay_divergence() {
    // A step that records one node more on every re-run: caught by the
    // per-step node count before any digest is looked at.
    #[derive(Clone)]
    struct Drifting {
        x: Adj,
        step: u32,
        runs: Rc<Cell<u32>>,
    }
    impl Resume for Drifting {
        fn advance(&mut self) -> bool {
            for _ in 0..40 {
                self.x = self.x * 1.01 + 0.5;
            }
            if self.step == 3 {
                for _ in 0..self.runs.get() {
                    self.x *= 2.0;
                }
                self.runs.set(self.runs.get() + 1);
            }
            self.step += 1;
            self.step < 8
        }
        fn bytes(&self) -> usize {
            std::mem::size_of::<Drifting>()
        }
    }
    let runs = Rc::new(Cell::new(0));
    let start = || Drifting {
        x: Adj::leaf(1.0),
        step: 0,
        runs: runs.clone(),
    };
    let ckpt = TapeCheckpointConfig::with_ncheckpoints(2);
    let (tape, end, ladder) = Ladder::record(bounded_cfg(ckpt), start);
    let err = tape
        .gradient_sweep_replay(end.x, SweepConfig::serial(), &ladder)
        .unwrap_err();
    assert!(
        matches!(
            err,
            AdError::ReplayDivergence {
                segment: u64::MAX,
                ..
            }
        ),
        "{err}"
    );
}

/// The least a reverse walk over `segments` segments re-runs when every
/// `window`-segment replay starts at node 0 (the resident tail window
/// needs none): each one at least up to its window's end.
fn from_start_nodes(segments: usize, window: usize) -> u64 {
    let ends = (0..segments - window).rev().step_by(window);
    ends.map(|s| ((s + 1) * SEG) as u64).sum()
}

#[test]
fn snapshot_too_large_for_its_share_degrades_to_the_program_start() {
    // The ladder's share of a four-segment budget is two segments' bytes,
    // and it is taken only if three snapshots fit (the replaying run and
    // two rungs). One byte more per snapshot and none is kept: every
    // replay starts at the program start, the segments keep the whole
    // window (all four slots), and residency stays inside the budget.
    #[derive(Clone)]
    struct Huge(Program);
    impl Resume for Huge {
        fn advance(&mut self) -> bool {
            self.0.advance()
        }
        fn bytes(&self) -> usize {
            2 * SEG * NODE_BYTES / 3 + 1
        }
    }
    let ops = ops_of((0..800).map(|i| (i * 7 % 251) as u8).collect());
    let ckpt = TapeCheckpointConfig::with_ncheckpoints(4);
    let (tape, end, ladder) = Ladder::record(bounded_cfg(ckpt), || {
        Huge(Program::start(&ops, 1.25, 0.75, 8))
    });
    let segments = tape.segment_count();
    let (_, stats) = tape
        .gradient_sweep_replay(end.0.acc, SweepConfig::serial(), &ladder)
        .unwrap();
    assert!(stats.replayed_segments > 0);
    assert!(
        stats.replayed_nodes >= from_start_nodes(segments, 4),
        "every replay ran from the program start"
    );
    assert!(stats.peak_resident_bytes <= ckpt.budget_bytes(SEG, segments));

    // The same program with honest (small) snapshots resumes them: less
    // than half the replay work, at half the window.
    let (tape, end, ladder) =
        Ladder::record(bounded_cfg(ckpt), || Program::start(&ops, 1.25, 0.75, 8));
    let (_, resumed) = tape
        .gradient_sweep_replay(end.acc, SweepConfig::serial(), &ladder)
        .unwrap();
    assert!(resumed.replayed_nodes < stats.replayed_nodes / 2);
    assert!(resumed.peak_resident_bytes <= ckpt.budget_bytes(SEG, segments));
}

#[test]
fn one_checkpoint_leaves_no_room_for_snapshots() {
    // `ncheckpoints = 1`: the window is the whole budget, the ladder's
    // share is zero, and replay behaves exactly like a closure.
    let ops = ops_of(vec![2u8; 300]);
    let ckpt = TapeCheckpointConfig::with_ncheckpoints(1);
    let (tape, end, ladder) =
        Ladder::record(bounded_cfg(ckpt), || Program::start(&ops, 1.5, 0.5, 10));
    let (_, stats) = tape
        .gradient_sweep_replay(end.acc, SweepConfig::serial(), &ladder)
        .unwrap();
    assert!(stats.replayed_nodes >= from_start_nodes(tape.segment_count(), 1));
    assert!(stats.peak_resident_bytes <= SEG * NODE_BYTES);
}

#[test]
fn overflowed_checkpointed_tape_stays_a_typed_error() {
    let ops = ops_of(vec![0u8; 256]);
    let session = TapeSession::with_config(TapeConfig {
        segment_len: SEG,
        node_limit: 64,
        checkpoint: Some(TapeCheckpointConfig::with_ncheckpoints(1)),
        ..TapeConfig::default()
    });
    let out = run_program(&ops, 1.0, 2.0);
    let tape = session.finish();
    let replay = || {
        let _ = run_program(&ops, 1.0, 2.0);
    };
    let err = tape
        .gradient_sweep_replay(out, SweepConfig::serial(), &replay)
        .unwrap_err();
    assert_eq!(err, AdError::TapeOverflow { limit: 64 });
}
