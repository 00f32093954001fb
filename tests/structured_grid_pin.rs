//! Pins what every NPB app records, op for op: tape node and leaf counts,
//! the output's bits, an FNV-1a over every adjoint's bits, an FNV-1a over
//! the reach bits, a started run's `snapshot_bytes()`, the tape capacity
//! hint, and the native class-S output's bits — for the `mini()` instance
//! of BT, SP, LU, CG, MG, FT and EP. IS records no tape (its integer state
//! is analysed by read-before-overwrite liveness), so its row pins that
//! analysis instead: the verification count, the rank checksum and an
//! FNV-1a over every variable's criticality bits.
//!
//! The BT, SP and LU constants were recorded from the separate ports that
//! preceded the shared ADI app and LU's single flux sweep; every reach
//! FNV and the CG, MG, FT, EP and IS rows were recorded on the wide
//! four-column tape that preceded the variable-length encoding. A
//! refactor that reorders a single addition, or a tape encoding that
//! loses one partial's sign, fails here by name, and the constants are
//! never to be re-recorded to make one pass.

use scrutiny_ad::TapeConfig;
use scrutiny_core::site::NoopSite;
use scrutiny_core::{record_resumable, ScrutinyApp};
use scrutiny_npb::is::IsSite;
use scrutiny_npb::{Bt, Cg, Ep, Ft, Is, Lu, Mg, Sp};

/// Everything one app's recording is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    nodes: usize,
    leaves: usize,
    output_bits: u64,
    adjoint_fnv: u64,
    reach_fnv: u64,
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

/// FNV-1a over `bits` packed 64 to a word, least significant bit first.
fn fnv1a_bits(bits: &[bool]) -> u64 {
    fnv1a(bits.chunks(64).map(|c| {
        c.iter()
            .enumerate()
            .fold(0u64, |w, (i, &b)| w | (u64::from(b) << i))
    }))
}

fn observe(mini: &dyn ScrutinyApp, class_s: &dyn ScrutinyApp) -> Pin {
    let cfg = TapeConfig {
        capacity: mini.tape_capacity_hint(),
        ..TapeConfig::default()
    };
    let (outcome, _, tape, _) = record_resumable(mini, cfg);
    let grads = tape.gradient(outcome.output).unwrap();
    let reach = tape.reachable(outcome.output).unwrap();
    let stats = tape.stats();
    Pin {
        nodes: stats.nodes,
        leaves: stats.leaves,
        output_bits: outcome.output.value().to_bits(),
        adjoint_fnv: fnv1a((0..grads.len() as u64).map(|i| grads.of_node(i).to_bits())),
        reach_fnv: fnv1a_bits(&reach),
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
        reach_fnv: 1_609_772_212_362_952_787,
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
        reach_fnv: 3_225_180_762_846_885_875,
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
        reach_fnv: 112_455_358_298_954_865,
        snapshot_bytes: 389_640,
        capacity_hint: 6_300_000,
        class_s_output_bits: 4_602_570_377_165_514_170,
    };
    assert_eq!(observe(&Lu::mini(), &Lu::class_s()), pin);
}

#[test]
fn cg_tape_is_pinned() {
    let pin = Pin {
        nodes: 49_902,
        leaves: 66,
        output_bits: 4_625_425_968_328_008_980,
        adjoint_fnv: 5_418_468_217_419_463_397,
        reach_fnv: 16_808_046_175_655_318_659,
        // A started run carries one `Option<Box<_>>` more than before CG
        // resumed inside an iteration: 1 136 B then.
        snapshot_bytes: 1_144,
        capacity_hint: 50_020,
        class_s_output_bits: 4_626_799_340_625_102_703,
    };
    assert_eq!(observe(&Cg::mini(), &Cg::class_s()), pin);
}

#[test]
fn mg_tape_is_pinned() {
    let pin = Pin {
        nodes: 157_772,
        leaves: 2_560,
        output_bits: 4_570_257_093_954_751_488,
        adjoint_fnv: 16_591_386_925_500_991_556,
        reach_fnv: 4_572_131_712_702_228_790,
        snapshot_bytes: 41_048,
        capacity_hint: 285_536,
        class_s_output_bits: 4_556_196_761_131_530_085,
    };
    assert_eq!(observe(&Mg::mini(), &Mg::class_s()), pin);
}

#[test]
fn ft_tape_is_pinned() {
    let pin = Pin {
        nodes: 56_464,
        leaves: 1_158,
        output_bits: 4_605_050_355_988_085_588,
        adjoint_fnv: 7_401_273_409_687_923_193,
        reach_fnv: 10_613_570_906_212_883_159,
        snapshot_bytes: 18_616,
        capacity_hint: 113_664,
        class_s_output_bits: 4_582_433_401_356_954_289,
    };
    assert_eq!(observe(&Ft::mini(), &Ft::class_s()), pin);
}

#[test]
fn ep_tape_is_pinned() {
    let pin = Pin {
        nodes: 139,
        leaves: 12,
        output_bits: 4_640_855_050_526_837_206,
        adjoint_fnv: 9_820_737_312_254_591_477,
        reach_fnv: 16_658_318_788_515_791_779,
        snapshot_bytes: 256,
        capacity_hint: 192,
        class_s_output_bits: 4_667_409_533_953_094_087,
    };
    assert_eq!(observe(&Ep::mini(), &Ep::class_s()), pin);
}

#[test]
fn is_liveness_is_pinned() {
    let out = Is::mini().run(IsSite::Track);
    let bits: Vec<bool> = out
        .reports
        .iter()
        .flat_map(|r| r.critical.clone())
        .collect();
    let observed = (
        out.passed_verification,
        out.rank_checksum,
        fnv1a_bits(&bits),
    );
    assert_eq!(observed, (7, 7_708, 9_762_501_974_725_051_736));
}
