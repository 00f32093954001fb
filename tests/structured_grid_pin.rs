//! Pins what the three structured-grid solvers (BT, SP, LU) record, op
//! for op: tape node and leaf counts, the output's bits, an FNV-1a over
//! every adjoint's bits, a started run's `snapshot_bytes()`, the tape
//! capacity hint, and the native class-S output's bits. The constants
//! were recorded from the separate BT, SP and LU ports that preceded the
//! shared ADI app and LU's single flux sweep; a refactor that reorders a
//! single addition fails here by name, and the constants are never to be
//! re-recorded to make one pass.

use scrutiny_ad::TapeConfig;
use scrutiny_core::site::NoopSite;
use scrutiny_core::{record_resumable, ScrutinyApp};
use scrutiny_npb::{Bt, Lu, Sp};

/// Everything one app's recording is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    nodes: usize,
    leaves: usize,
    output_bits: u64,
    adjoint_fnv: u64,
    snapshot_bytes: usize,
    capacity_hint: usize,
    class_s_output_bits: u64,
}

/// FNV-1a (64-bit) over the little-endian bytes of `words`.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn observe(mini: &dyn ScrutinyApp, class_s: &dyn ScrutinyApp) -> Pin {
    let cfg = TapeConfig {
        capacity: mini.tape_capacity_hint(),
        ..TapeConfig::default()
    };
    let (outcome, _, tape, _) = record_resumable(mini, cfg);
    let grads = tape.gradient(outcome.output).unwrap();
    let stats = tape.stats();
    Pin {
        nodes: stats.nodes,
        leaves: stats.leaves,
        output_bits: outcome.output.value().to_bits(),
        adjoint_fnv: fnv1a((0..grads.len() as u64).map(|i| grads.of_node(i).to_bits())),
        snapshot_bytes: mini.start_ad().snapshot_bytes(),
        capacity_hint: mini.tape_capacity_hint(),
        class_s_output_bits: class_s.run_f64(&mut NoopSite).output.to_bits(),
    }
}

#[test]
fn bt_tape_is_pinned() {
    let pin = Pin {
        nodes: 1_654_077,
        leaves: 10_140,
        output_bits: 4_616_689_183_240_213_994,
        adjoint_fnv: 15_676_202_958_296_606_639,
        snapshot_bytes: 324_632,
        capacity_hint: 4_700_000,
        class_s_output_bits: 4_605_702_621_569_694_366,
    };
    assert_eq!(observe(&Bt::mini(), &Bt::class_s()), pin);
}

#[test]
fn sp_tape_is_pinned() {
    let pin = Pin {
        nodes: 1_046_077,
        leaves: 10_140,
        output_bits: 4_616_917_643_971_084_847,
        adjoint_fnv: 7_607_023_159_777_228_131,
        snapshot_bytes: 324_632,
        capacity_hint: 4_200_000,
        class_s_output_bits: 4_601_036_525_606_407_800,
    };
    assert_eq!(observe(&Sp::mini(), &Sp::class_s()), pin);
}

#[test]
fn lu_tape_is_pinned() {
    let pin = Pin {
        nodes: 1_406_002,
        leaves: 24_336,
        output_bits: 4_615_074_298_210_757_958,
        adjoint_fnv: 20_146_867_322_348_146,
        snapshot_bytes: 389_640,
        capacity_hint: 6_300_000,
        class_s_output_bits: 4_602_570_377_165_514_170,
    };
    assert_eq!(observe(&Lu::mini(), &Lu::class_s()), pin);
}
