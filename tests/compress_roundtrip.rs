//! Compression-block invariants (`scrutiny_ckpt::compress`): the
//! properties the `SCRUTCZB` container and the tiered v2 data format
//! must hold for the at-rest codec to be safe to enable.
//!
//! * **Default-off bit-identity** — with the default codec every byte
//!   stream is identical to what the pre-compression writer produced.
//! * **Container roundtrip** — `decompress(compress(x)) == x` for every
//!   at-rest method over adversarial byte patterns.
//! * **Restore equivalence** — an engine publishing with `AtRest::Auto`
//!   restores bit-identically to one publishing raw, in every layout
//!   (monolithic, sharded, delta) and at every reader thread count.
//! * **One encoding** — the word-at-a-time codec emits exactly the
//!   containers of the byte-at-a-time oracle
//!   (`scrutiny_integration::czb_bytewise`) under every method, on the
//!   inputs where a greedy scan can be off by one, and on MG class S's
//!   shards; the oracle's containers decode back.
//! * **CRC equivalence** — the three-lane CRC equals the bit-at-a-time
//!   reference on random buffers at every alignment, short and spanning
//!   several lane blocks, whole and streamed in two calls.
//! * **§IV.C with lossy tiers** — every NPB mini passes the paper's
//!   restart verification under `Policy::TieredCompressed`, with a
//!   checkpoint measurably smaller than prune-only.
//!
//! CI runs this suite in release: the property cases serialize full NPB
//! states repeatedly, which is needlessly slow unoptimized.

use proptest::prelude::*;
use scrutiny_ckpt::compress::{compress, decompress, is_container, maybe_decompress};
use scrutiny_ckpt::format::{crc32, Crc32};
use scrutiny_ckpt::writer::{serialize, serialize_with};
use scrutiny_ckpt::{
    plan_shards_with, seal_shards, serialize_shard, AtRest, CodecConfig, DeltaPolicy, LoCodec,
    RestoreOptions,
};
use scrutiny_core::restart::{capture_state, checkpoint_restart_cycle};
use scrutiny_core::{
    plan::{codec_for, plans_for},
    scrutinize, Policy, RestartConfig, ScrutinyApp,
};
use scrutiny_engine::{
    read_version, EngineConfig, EngineHandle, Layout, MemBackend, StorageBackend,
};
use scrutiny_integration::czb_bytewise;
use scrutiny_npb::{perturb_localized, Bt, Cg, Ep, Ft, Lu, Mg, Sp};
use std::sync::Arc;

fn minis() -> Vec<Box<dyn ScrutinyApp>> {
    vec![
        Box::new(Bt::mini()),
        Box::new(Sp::mini()),
        Box::new(Lu::mini()),
        Box::new(Mg::mini()),
        Box::new(Cg::mini()),
        Box::new(Ft::mini()),
        Box::new(Ep::mini()),
    ]
}

/// With the default codec (`AtRest::None`, `LoCodec::F32`) the tiered
/// writer emits byte-for-byte what the plain writer always emitted —
/// enabling the feature cannot disturb a single existing stream.
#[test]
fn default_codec_leaves_every_byte_stream_identical() {
    for app in minis() {
        let analysis = scrutinize(app.as_ref()).unwrap();
        let vars = capture_state(app.as_ref());
        for policy in [Policy::PrunedValue, Policy::Tiered { hi_threshold: 1e-3 }] {
            let plans = plans_for(&analysis, policy);
            let plain = serialize(&vars, &plans).unwrap();
            let tiered = serialize_with(&vars, &plans, LoCodec::F32).unwrap();
            assert_eq!(plain.data, tiered.data, "{} {policy:?}", app.spec().name);
            assert_eq!(plain.aux, tiered.aux, "{} {policy:?}", app.spec().name);
        }
    }
}

/// Every NPB mini passes the paper's §IV.C restart verification with the
/// lossy tier enabled (`keep = 6`: relative error bound 2⁻³⁶, well
/// inside every app's tolerance), and the lossy checkpoints are
/// measurably smaller than prune-only — the tentpole's acceptance bar.
/// Per app the lossy payload never exceeds the pruned one (an app whose
/// state is entirely hi-tier at this threshold ties); across the suite
/// the total must strictly shrink.
#[test]
fn tiered_compressed_verifies_every_npb_mini_and_shrinks() {
    let (mut lossy_total, mut pruned_total) = (0usize, 0usize);
    for app in minis() {
        let name = app.spec().name;
        let analysis = scrutinize(app.as_ref()).unwrap();
        let pruned = checkpoint_restart_cycle(
            app.as_ref(),
            &analysis,
            &RestartConfig {
                policy: Policy::PrunedValue,
                ..Default::default()
            },
        )
        .unwrap();
        let lossy = checkpoint_restart_cycle(
            app.as_ref(),
            &analysis,
            &RestartConfig {
                policy: Policy::TieredCompressed {
                    hi_threshold: 1e-3,
                    keep: 6,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            lossy.verified,
            "{name}: rel err {} exceeds tolerance",
            lossy.rel_err
        );
        assert!(
            lossy.storage.payload_bytes <= pruned.storage.payload_bytes,
            "{name}: lossy {} B > pruned {} B",
            lossy.storage.payload_bytes,
            pruned.storage.payload_bytes
        );
        lossy_total += lossy.storage.payload_bytes;
        pruned_total += pruned.storage.payload_bytes;
    }
    assert!(
        lossy_total < pruned_total,
        "suite-wide: lossy {lossy_total} B !< pruned {pruned_total} B"
    );
}

/// One engine per layout, published with `AtRest::Auto`, must restore
/// bit-identically to a raw-publishing engine — through `read_version`
/// (the serial reader) and the parallel pipeline at 1, 2, and 4 threads.
#[test]
fn compressed_engines_restore_bit_identically_in_every_layout() {
    let app = Ft::mini();
    let analysis = scrutinize(&app).unwrap();
    let base_vars = capture_state(&app);
    let plans = plans_for(&analysis, Policy::PrunedValue);
    let auto = CodecConfig {
        at_rest: AtRest::Auto,
        ..Default::default()
    };

    let configs: [(&str, EngineConfig); 3] = [
        ("monolithic", EngineConfig::default()),
        (
            "sharded",
            EngineConfig {
                layout: Layout::Sharded,
                target_shards: 4,
                ..Default::default()
            },
        ),
        (
            "delta",
            EngineConfig {
                delta: Some(DeltaPolicy::default()),
                ..Default::default()
            },
        ),
    ];
    for (label, cfg) in configs {
        let mut backends = Vec::new();
        for codec in [CodecConfig::default(), auto] {
            // Same epoch history for both engines: identical state in,
            // so any byte difference out is the codec's fault.
            let mut vars = base_vars.clone();
            let mem = Arc::new(MemBackend::new());
            let engine = EngineHandle::open(
                mem.clone(),
                EngineConfig {
                    codec,
                    ..cfg.clone()
                },
            )
            .unwrap();
            for epoch in 0..3usize {
                if epoch > 0 {
                    perturb_localized(&mut vars, epoch);
                }
                let t = engine.submit(&vars, &plans).unwrap();
                engine.wait(t).unwrap();
            }
            backends.push(mem);
        }
        let (raw, zip) = (&backends[0], &backends[1]);
        for version in 0..3u64 {
            let want = read_version(raw.as_ref(), version).unwrap();
            let got = read_version(zip.as_ref(), version).unwrap();
            assert_eq!(want, got, "{label} v{version} serial");
            for threads in [1usize, 2, 4] {
                let fetch = |name: &str| zip.get(name);
                let (image, _) = scrutiny_ckpt::read_data_image_parallel(
                    version,
                    &fetch,
                    &RestoreOptions { threads },
                )
                .unwrap();
                assert_eq!(want.0, image, "{label} v{version} parallel x{threads}");
            }
        }
    }
}

/// The sealed shards of MG class S's checkpoint as the benchmark's
/// sharded disk workload publishes them: tiered plans, four-byte lo
/// tier, a four-shard target.
fn mg_class_s_shards() -> Vec<Vec<u8>> {
    let app = Mg::class_s();
    let policy = Policy::TieredCompressed {
        hi_threshold: 1e-6,
        keep: 4,
    };
    let plans = plans_for(&scrutinize(&app).unwrap(), policy);
    let vars = capture_state(&app);
    let plan = plan_shards_with(&vars, &plans, 4, codec_for(policy).lo).unwrap();
    let shards = (0..plan.shard_count())
        .map(|i| serialize_shard(&vars, &plans, &plan, i).0)
        .collect();
    seal_shards(shards).0
}

/// The first `8·⌊len/8⌋` bytes of `planes` read as the bit-plane
/// transpose of a word buffer, turned back into that buffer, then the
/// tail: the input whose bit-plane RLE scans exactly `planes`.
fn words_of_planes(planes: &[u8]) -> Vec<u8> {
    let words = planes.len() / 8;
    let mut out: Vec<u8> = (0..words * 8)
        .map(|i| planes[(i % 8) * words + i / 8])
        .collect();
    out.extend_from_slice(&planes[words * 8..]);
    out
}

/// `compress(x, m) == czb_bytewise(x, m)` for all four methods, and the
/// oracle's container decodes to `x`. The inputs aim at a greedy scan's
/// edges, each also as the words whose bit planes it is: runs of every
/// length 1..=300 (past the 130 cap, twice) at every offset mod 8;
/// literal blocks of 126..=131 (around the 128 cap) at every offset; a
/// triple, a pair, and a pair beside a triple at every offset mod 8;
/// every length 0..=17 and every tail 0..8 from a two-letter alphabet;
/// and MG class S's shards.
#[test]
fn the_codec_emits_the_bytewise_oracles_containers() {
    // Distinct bytes: no run, no triple.
    let distinct =
        |n: usize, from: usize| -> Vec<u8> { (0..n).map(|i| ((from + i) * 7) as u8).collect() };
    let mut z = 0x5EED_u64;
    let mut coin = move || {
        z = z
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (z >> 63) as u8
    };
    let mut edges: Vec<Vec<u8>> = Vec::new();
    for off in 0..8 {
        for run in 1..=300 {
            edges.push([distinct(off, 1), vec![0x5A; run], distinct(11, 40)].concat());
        }
        for lit in 126..=131 {
            edges.push([distinct(off + lit, 3), vec![0xC3; 4], distinct(9, 60)].concat());
        }
        for at in off..off + 16 {
            for pattern in [
                &[0xEE, 0xEE, 0xEE][..],
                &[0xEE, 0xEE],
                &[0xEE, 0xEE, 1, 1, 1],
            ] {
                let mut v = distinct(40, 5);
                v[at..at + pattern.len()].copy_from_slice(pattern);
                edges.push(v);
            }
        }
    }
    for len in 0..=17 {
        for _ in 0..8 {
            edges.push((0..len).map(|_| coin()).collect());
        }
    }
    for words in 0..6 {
        for tail in 0..8 {
            edges.push((0..8 * words + tail).map(|_| coin()).collect());
        }
    }
    let planed: Vec<Vec<u8>> = edges.iter().map(|e| words_of_planes(e)).collect();
    for raw in edges.iter().chain(&planed).chain(&mg_class_s_shards()) {
        for method in [AtRest::None, AtRest::Rle, AtRest::BitPlane, AtRest::Auto] {
            let want = czb_bytewise(raw, method);
            assert!(
                compress(raw, method) == want,
                "{method:?} differs from the oracle on {} bytes {:?}",
                raw.len(),
                &raw[..raw.len().min(64)]
            );
            assert_eq!(&decompress(&want).unwrap(), raw, "{method:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `decompress(compress(x, method)) == x` for every at-rest method,
    /// over inputs spanning the codecs' best and worst cases: runs,
    /// periodic structure (bit-plane-friendly), and incompressible
    /// noise. `Auto`'s pick must never exceed stored-form size + header.
    #[test]
    fn container_roundtrips_every_method(
        seed in 0u64..1_000_000,
        len in 0usize..4096,
        kind in 0u8..3,
    ) {
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E3779B97F4A7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
            x ^ (x >> 31)
        };
        let raw: Vec<u8> = match kind {
            0 => (0..len).map(|i| if (i / 97) % 2 == 0 { 0 } else { 0xAB }).collect(),
            1 => (0..len).map(|i| ((i % 8) * 16) as u8 | ((i / 64) as u8 & 0x0F)).collect(),
            _ => (0..len).map(|_| next() as u8).collect(),
        };
        for at_rest in [AtRest::Rle, AtRest::BitPlane, AtRest::Auto] {
            let stored = compress(&raw, at_rest);
            prop_assert!(is_container(&stored));
            prop_assert!(!is_container(&raw) || raw.len() >= 8);
            prop_assert_eq!(&decompress(&stored).unwrap(), &raw);
            prop_assert_eq!(&maybe_decompress(stored.clone()).unwrap(), &raw);
            if at_rest == AtRest::Auto {
                // Auto never does worse than the stored fallback.
                prop_assert!(stored.len() <= raw.len() + 25 + 4);
            }
        }
    }

    /// The three-lane CRC equals the bit-at-a-time oracle
    /// (`scrutiny_integration::crc32_bitwise`) on random buffers at every
    /// sub-word alignment: short ones around the 8-byte stride, and ones
    /// of up to four 12 KiB lane blocks with every remainder `k·12288 ±
    /// 0..8` — whole, and streamed as two `update` calls split at random.
    #[test]
    fn sliced_crc_equals_scalar(
        seed in 0u64..1_000_000,
        short_len in 0usize..2048,
        blocks in 0usize..5,
        near in 0usize..17,
        offset in 0usize..8,
        split in 0usize..1 << 20,
    ) {
        const BLOCK: usize = 3 * 4096;
        let len = match blocks {
            0 => short_len,
            k => k * BLOCK + near - 8,
        };
        let mut z = seed;
        let buf: Vec<u8> = (0..len + offset).map(|_| {
            z = z.wrapping_add(0x9E3779B97F4A7C15);
            (z ^ (z >> 31)) as u8
        }).collect();
        let view = &buf[offset..];
        let want = scrutiny_integration::crc32_bitwise(view);
        prop_assert_eq!(crc32(view), want);
        let (a, b) = view.split_at(split % (len + 1));
        let mut streamed = Crc32::new();
        streamed.update(a);
        streamed.update(b);
        prop_assert_eq!(streamed.finish(), want);
    }
}
