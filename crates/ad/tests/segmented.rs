//! Stress/property suite for the segmented tape and its parallel sweeps.
//!
//! The contract under test: the parallel value sweep and the parallel
//! structural sweep are **bit-identical** to the serial seed sweep — on
//! random tapes (property tests), on adversarial segment-boundary shapes
//! (unit tests), and regardless of segment length (a recording split into
//! many tiny segments must sweep to the same bits as the same recording in
//! one monolithic segment).
//!
//! CI runs this suite under `cargo test --release` next to the engine
//! stress and delta round-trip suites, where debug-mode timing cannot hide
//! frontier-merge ordering races.

use proptest::prelude::*;
use scrutiny_ad::{AdError, Adj, Gradient, Real, SweepConfig, Tape, TapeConfig, TapeSession};

/// Deterministic splitmix64, so every generated tape reproduces exactly.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The serial sweeps (the seed algorithm): the oracle every other
/// configuration is compared against.
fn gradient_serial(tape: &Tape, out: Adj) -> Gradient {
    tape.gradient_sweep(out, SweepConfig::serial()).unwrap().0
}

fn reachable_serial(tape: &Tape, out: Adj) -> Vec<bool> {
    tape.reachable_sweep(out, SweepConfig::serial()).unwrap().0
}

fn session(segment_len: usize) -> TapeSession {
    TapeSession::with_config(TapeConfig {
        segment_len,
        ..TapeConfig::default()
    })
}

/// Record a random expression DAG (must be called inside a session).
/// Heavy fan-out and mixed constants on purpose: fan-out creates the
/// repeated same-slot adjoint accumulation where floating-point ordering
/// bugs would show, constants exercise folding around segment boundaries.
fn record_random(seed: u64) -> (Vec<Adj>, Adj) {
    let mut st = seed;
    let n_leaves = 1 + (splitmix(&mut st) % 24) as usize;
    let mut pool: Vec<Adj> = (0..n_leaves)
        .map(|i| Adj::leaf((splitmix(&mut st) % 1000) as f64 / 100.0 - 5.0 + i as f64 * 0.01))
        .collect();
    pool.push(Adj::constant(1.5));
    pool.push(Adj::constant(-0.25));
    let n_ops = 32 + (splitmix(&mut st) % 480) as usize;
    for _ in 0..n_ops {
        let a = pool[(splitmix(&mut st) as usize) % pool.len()];
        let b = pool[(splitmix(&mut st) as usize) % pool.len()];
        let v = match splitmix(&mut st) % 10 {
            0 => a + b,
            1 => a - b,
            2 => a * b,
            3 => a / (b * b + 1.0), // denominator ≥ 1: stays finite
            4 => a.sin(),
            5 => (a * a + 1.0).sqrt(),
            6 => a.rmax(b),
            7 => -a,                      // a −1.0 partial
            8 => a * Adj::constant(-0.0), // a −0.0 partial, stored explicitly
            _ => a * 0.5 + b * 2.0,
        };
        pool.push(v);
    }
    // Sum a handful of late pool entries so the output usually depends on
    // nodes spread across many segments.
    let mut out = Adj::constant(0.0);
    for _ in 0..4 {
        out += pool[pool.len() - 1 - (splitmix(&mut st) as usize) % (pool.len() / 2)];
    }
    (pool, out)
}

fn grad_bits(g: &Gradient) -> Vec<u64> {
    (0..g.len())
        .map(|i| g.of_node(i as u64).to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel sweeps (several worker counts) are bit-identical to the
    /// serial sweep on random multi-segment tapes.
    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit(seed in 0u64..u64::MAX) {
        let s = session(16);
        let (_, out) = record_random(seed);
        let tape = s.finish();
        let (serial, sstats) = tape.gradient_sweep(out, SweepConfig::serial()).unwrap();
        let (reach_serial, _) = tape.reachable_sweep(out, SweepConfig::serial()).unwrap();
        prop_assert!(!sstats.parallel);
        for threads in [2usize, 3, 8] {
            let cfg = SweepConfig::with_threads(threads);
            let (par, pstats) = tape.gradient_sweep(out, cfg).unwrap();
            prop_assert_eq!(grad_bits(&serial), grad_bits(&par));
            if out.index().is_some() && pstats.segments > 1 {
                prop_assert!(pstats.parallel);
                prop_assert!(pstats.threads > 1);
            }
            let (reach_par, _) = tape.reachable_sweep(out, cfg).unwrap();
            prop_assert_eq!(&reach_serial, &reach_par);
        }
    }

    /// The datadep analyzer's liveness bits agree bit-for-bit with the
    /// structural sweep they refactor, on random multi-segment tapes,
    /// across serial and parallel configurations — and its def-use bits
    /// honor the invariant that only consumed nodes (or the output) can
    /// be live.
    #[test]
    fn datadep_agrees_with_structural_sweep_bit_for_bit(seed in 0u64..u64::MAX) {
        let s = session(16);
        let (_, out) = record_random(seed);
        let tape = s.finish();
        let reach = reachable_serial(&tape, out);
        for threads in [1usize, 2, 3, 8] {
            let cfg = SweepConfig::with_threads(threads);
            let dd = tape.datadep_sweep(out, cfg).unwrap();
            prop_assert_eq!(&reach, dd.live_bits());
            prop_assert_eq!(dd.seed(), out.index());
            for i in 0..tape.len() as u64 {
                // An unconsumed node can only be live if it is the output.
                if dd.live(i) && !dd.used(i) {
                    prop_assert_eq!(Some(i), out.index());
                }
            }
        }
        // Every live node has a witness path ending at the output; every
        // dead node has none. (Capped to keep the property cheap.)
        let dd = tape.datadep_sweep(out, SweepConfig::serial()).unwrap();
        for i in (0..tape.len() as u64).take(64) {
            match dd.witness_path(&tape, i, 8) {
                Some(w) => {
                    prop_assert!(dd.live(i));
                    prop_assert_eq!(w.nodes[0], i);
                    if w.nodes.len() < 8 {
                        prop_assert_eq!(*w.nodes.last().unwrap(), out.index().unwrap());
                        prop_assert_eq!(w.hops, w.nodes.len() - 1);
                    } else {
                        prop_assert!(w.hops >= w.nodes.len() - 1);
                    }
                }
                None => prop_assert!(!dd.live(i)),
            }
        }
    }

    /// Segmentation itself must not change the sweep: the same recording
    /// split into tiny segments sweeps to the same bits as one monolithic
    /// segment (the seed layout).
    #[test]
    fn segment_length_is_invisible_to_results(seed in 0u64..u64::MAX) {
        let s = session(1 << 22); // effectively monolithic
        let (_, out_mono) = record_random(seed);
        let mono = s.finish();
        let g_mono = gradient_serial(&mono, out_mono);
        let r_mono = reachable_serial(&mono, out_mono);
        prop_assert_eq!(mono.stats().segments <= 1, true);

        let s = session(8);
        let (_, out_seg) = record_random(seed);
        let seg = s.finish();
        prop_assert_eq!(mono.len(), seg.len());
        let (g_seg, _) = seg.gradient_sweep(out_seg, SweepConfig::with_threads(4)).unwrap();
        let (r_seg, _) = seg.reachable_sweep(out_seg, SweepConfig::with_threads(4)).unwrap();
        prop_assert_eq!(grad_bits(&g_mono), grad_bits(&g_seg));
        prop_assert_eq!(r_mono, r_seg);
    }
}

// ---- segment-boundary edge cases ----------------------------------------

/// Pad the active tape with throwaway tracked nodes until the next node
/// lands at `offset` within its 8-node segment.
fn pad_to_offset(s: &TapeSession, x: Adj, offset: usize) {
    while s.recorded() % 8 != offset {
        let _ = x + 1.0;
    }
}

fn check_all_configs(tape: &Tape, out: Adj) {
    let serial = gradient_serial(tape, out);
    let reach = reachable_serial(tape, out);
    let dd = tape.datadep_sweep(out, SweepConfig::serial()).unwrap();
    assert_eq!(dd.live_bits(), &reach[..]);
    for threads in [2usize, 4] {
        let cfg = SweepConfig::with_threads(threads);
        let (par, _) = tape.gradient_sweep(out, cfg).unwrap();
        assert_eq!(grad_bits(&serial), grad_bits(&par));
        let (rpar, _) = tape.reachable_sweep(out, cfg).unwrap();
        assert_eq!(reach, rpar);
        let dd_par = tape.datadep_sweep(out, cfg).unwrap();
        assert_eq!(dd_par.live_bits(), &reach[..]);
    }
}

#[test]
fn leaf_in_first_segment_output_in_last() {
    let s = session(8);
    let x = Adj::leaf(3.0);
    let mut y = x;
    for _ in 0..100 {
        y *= 2.0; // ~13 segments of chain
    }
    let tape = s.finish();
    assert!(tape.segment_count() > 10);
    let g = tape.gradient(y).unwrap();
    assert_eq!(g.wrt(x), 2f64.powi(100));
    check_all_configs(&tape, y);
}

#[test]
fn cross_segment_parents_accumulate_in_serial_order() {
    // One leaf in segment 0 receives dozens of adjoint contributions from
    // every later segment — the exact pattern where a frontier merge with
    // the wrong ordering would change the floating-point sum.
    let s = session(8);
    let x = Adj::leaf(1.1);
    let mut out = Adj::constant(0.0);
    for i in 0..120 {
        out += x * (0.1 + i as f64 * 0.37);
    }
    let tape = s.finish();
    assert!(tape.segment_count() > 20);
    check_all_configs(&tape, out);
}

#[test]
fn output_at_segment_boundary_offsets() {
    for offset in [0usize, 7] {
        let s = session(8);
        let x = Adj::leaf(2.0);
        pad_to_offset(&s, x, offset);
        let out = x * 4.0;
        let tape = s.finish();
        assert_eq!(tape.gradient(out).unwrap().wrt(x), 4.0);
        check_all_configs(&tape, out);
    }
}

#[test]
fn empty_tape_sweeps() {
    let s = TapeSession::new();
    let c = Adj::constant(2.0) * 3.0;
    let tape = s.finish();
    assert!(tape.is_empty());
    let g = tape.gradient(c).unwrap();
    assert!(g.is_empty());
    assert!(tape.reachable(c).unwrap().is_empty());
}

#[test]
fn constant_output_on_multi_segment_tape() {
    let s = session(8);
    let x = Adj::leaf(1.0);
    for _ in 0..40 {
        let _ = x * 2.0;
    }
    let c = Adj::constant(5.0);
    let tape = s.finish();
    assert!(tape.segment_count() > 1);
    let g = tape.gradient(c).unwrap();
    assert_eq!(g.len(), tape.len());
    assert!((0..g.len()).all(|i| g.of_node(i as u64) == 0.0));
    assert!(tape.reachable(c).unwrap().iter().all(|&b| !b));
    let dd = tape.datadep(c).unwrap();
    assert_eq!(dd.live_count(), 0);
    assert_eq!(dd.seed(), None);
}

#[test]
fn datadep_cross_segment_fan_in_is_live_with_deep_witness() {
    // The fan-in shape from `cross_segment_parents_accumulate_in_serial_order`:
    // one leaf in segment 0 consumed by every later segment. The leaf must
    // be live under every thread count, and its greedy witness must route
    // through the *first* live consumer, crossing all segments to the out.
    let s = session(8);
    let x = Adj::leaf(1.1);
    let mut out = Adj::constant(0.0);
    for i in 0..120 {
        out += x * (0.1 + i as f64 * 0.37);
    }
    let tape = s.finish();
    assert!(tape.segment_count() > 20);
    let reach = reachable_serial(&tape, out);
    for threads in [1usize, 2, 4] {
        let dd = tape
            .datadep_sweep(out, SweepConfig::with_threads(threads))
            .unwrap();
        assert_eq!(dd.live_bits(), &reach[..]);
        assert!(dd.live(x.index().unwrap()));
        let w = dd
            .witness_path(&tape, x.index().unwrap(), usize::MAX)
            .unwrap();
        assert_eq!(w.nodes[0], x.index().unwrap());
        assert_eq!(*w.nodes.last().unwrap(), out.index().unwrap());
        // Path edges are genuine parent links in increasing id order.
        for pair in w.nodes.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}

#[test]
fn overflow_surfaces_as_typed_error_not_abort() {
    let s = TapeSession::with_config(TapeConfig {
        segment_len: 8,
        node_limit: 20,
        ..TapeConfig::default()
    });
    let x = Adj::leaf(1.0);
    let mut y = x;
    for _ in 0..100 {
        y += x; // blows the budget; the run continues
    }
    let tape = s.finish();
    assert!(tape.overflowed());
    assert_eq!(
        tape.gradient(y).unwrap_err(),
        AdError::TapeOverflow { limit: 20 }
    );
    assert_eq!(
        tape.datadep(y).unwrap_err(),
        AdError::TapeOverflow { limit: 20 }
    );
}

#[test]
fn out_of_range_seed_is_typed() {
    // An output from another, longer recording.
    let s = session(8);
    let mut foreign = Adj::leaf(1.0);
    while foreign.index() != Some(99) {
        foreign += 1.0;
    }
    drop(s);
    let s = session(8);
    let _x = Adj::leaf(1.0);
    let tape = s.finish();
    match tape.gradient(foreign) {
        Err(AdError::NodeOutOfRange { node: 99, len: 1 }) => {}
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
}

#[test]
fn sweep_stats_report_parallelism_and_frontier_traffic() {
    let s = session(8);
    let x = Adj::leaf(1.0);
    let mut out = Adj::constant(0.0);
    for _ in 0..64 {
        out += x * 2.0;
    }
    let tape = s.finish();
    let (_, stats) = tape
        .gradient_sweep(out, SweepConfig::with_threads(4))
        .unwrap();
    assert!(stats.parallel);
    assert_eq!(stats.threads, 4);
    assert_eq!(stats.segments, tape.segment_count());
    assert!(stats.cross_contribs > 0, "x fans in from every segment");
    let (_, serial) = tape.gradient_sweep(out, SweepConfig::serial()).unwrap();
    assert!(!serial.parallel);
    assert_eq!(serial.cross_contribs, 0);
}
