//! The on-disk formats pinned by bytes: the `SCRUTCKP` data file (version
//! 1 and version 2), the `SCRUTAUX` region file (version 2, written, and
//! version 1, still read) and the `SCRUTSHM` shard manifest of one tiny
//! state, and the `SCRUTCZB` containers of one short input under every
//! at-rest method, spelled here byte by byte from `docs/FORMATS.md` §3–§5
//! and §9 — not produced by a second encoder — and compared with what the
//! one encoder emits. Trailers come from the bit-at-a-time CRC oracle, so
//! not even the checksum code is shared.

use scrutiny_ckpt::compress::{compress, decompress};
use scrutiny_ckpt::writer::serialize_with;
use scrutiny_ckpt::{
    plan_shards_with, seal_image, seal_shards, serialize_shard, AtRest, Checkpoint, FillPolicy,
    LoCodec, Region, Regions, ShardManifest, VarData, VarPlan, VarRecord,
};
use scrutiny_integration::{aux_v1, crc32_bitwise};

/// One variable per plan kind and dtype: a `Full` i64, a `Pruned` f64, a
/// `Tiered` f64 and a (`Full`) c128.
fn tiny_state() -> (Vec<VarRecord>, Vec<VarPlan>) {
    let runs = |a, b| Regions::from_runs(vec![Region { start: a, end: b }]);
    (
        vec![
            VarRecord::new("it", VarData::I64(vec![7, -2])),
            VarRecord::new("u", VarData::F64(vec![1.0, 2.0, 3.0, 4.0])),
            VarRecord::new("t", VarData::F64(vec![0.5, 1.5, 2.5, -3.25])),
            VarRecord::new("z", VarData::C128(vec![(1.0, -1.0)])),
        ],
        vec![
            VarPlan::Full,
            VarPlan::Pruned(runs(1, 3)),
            VarPlan::Tiered {
                hi: runs(0, 1),
                lo: runs(2, 4),
            },
            VarPlan::Full,
        ],
    )
}

/// Concatenate the fields and append the CRC-32 trailer over them.
fn sealed(fields: &[&[u8]]) -> Vec<u8> {
    let mut out = fields.concat();
    out.extend(crc32_bitwise(&out).to_le_bytes());
    out
}

/// A little-endian u64 field.
fn u64le(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

// IEEE-754 doubles, little-endian.
const F_0_5: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xE0, 0x3F];
const F_1_0: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xF0, 0x3F];
const F_2_0: [u8; 8] = [0, 0, 0, 0, 0, 0, 0x00, 0x40];
const F_3_0: [u8; 8] = [0, 0, 0, 0, 0, 0, 0x08, 0x40];
const F_NEG_1_0: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xF0, 0xBF];

/// The data file of [`tiny_state`]: `version_and_tag` is the format
/// version (plus the version-2 codec tag), `lo` the two lo-tier elements
/// (2.5 and −3.25) in that version's encoding.
fn data_file(version_and_tag: &[u8], lo: &[u8]) -> Vec<u8> {
    sealed(&[
        b"SCRUTCKP",
        version_and_tag,
        &[4, 0, 0, 0], // nvars
        // "it": i64, Full, total 2, count 2, then 7 and -2.
        &[2, 0],
        b"it",
        &[2, 0],
        &u64le(2),
        &u64le(2),
        &[7, 0, 0, 0, 0, 0, 0, 0],
        &[0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
        // "u": f64, Pruned, total 4, count 2: elements 1 and 2.
        &[1, 0],
        b"u",
        &[0, 1],
        &u64le(4),
        &u64le(2),
        &F_2_0,
        &F_3_0,
        // "t": f64, Tiered, total 4; hi count 1 (element 0), lo count 2.
        &[1, 0],
        b"t",
        &[0, 2],
        &u64le(4),
        &u64le(1),
        &F_0_5,
        &u64le(2),
        lo,
        // "z": c128, Full, total 1, count 1: re then im.
        &[1, 0],
        b"z",
        &[1, 0],
        &u64le(1),
        &u64le(1),
        &F_1_0,
        &F_NEG_1_0,
    ])
}

/// Version 1: lo elements are f32 (2.5 = 0x40200000, −3.25 = 0xC0500000).
fn data_v1() -> Vec<u8> {
    data_file(&[1, 0, 0, 0], &[0, 0, 0x20, 0x40, 0, 0, 0x50, 0xC0])
}

/// Version 2, tag 3: lo elements are the top three bytes of the f64
/// (2.5 = 0x4004…, −3.25 = 0xC00A…).
fn data_v2_keep3() -> Vec<u8> {
    data_file(&[2, 0, 0, 0, 3], &[0, 0x04, 0x40, 0, 0x0A, 0xC0])
}

/// The auxiliary file of [`tiny_state`], version 2: each run list is
/// `nruns`, then every run's gap from the previous run's end and its
/// length, all LEB128 (here each one byte).
fn aux_file() -> Vec<u8> {
    sealed(&[
        b"SCRUTAUX",
        &[2, 0, 0, 0], // version
        &[4, 0, 0, 0], // nvars
        &[2, 0],
        b"it",
        &[0], // Full: no runs
        &[1, 0],
        b"u",
        &[1],    // Pruned: one run [1, 3)
        &[1],    // nruns
        &[1, 2], // gap 1, length 2
        &[1, 0],
        b"t",
        &[2],    // Tiered: hi one run [0, 1), lo one run [2, 4)
        &[1],    // hi nruns
        &[0, 1], // gap 0, length 1
        &[1],    // lo nruns: its gap counts from 0, not from hi
        &[2, 2], // gap 2, length 2
        &[1, 0],
        b"z",
        &[0],
    ])
}

/// A version-2 run list with a multi-byte gap: "w" of 300 elements
/// stored as [1, 3), [200, 201) and [203, 300).
fn multirun_state() -> (Vec<VarRecord>, Vec<VarPlan>) {
    let runs = [(1, 3), (200, 201), (203, 300)].map(|(start, end)| Region { start, end });
    (
        vec![VarRecord::new("w", VarData::F64(vec![0.25; 300]))],
        vec![VarPlan::Pruned(Regions::from_runs(runs.to_vec()))],
    )
}

fn multirun_aux() -> Vec<u8> {
    sealed(&[
        b"SCRUTAUX",
        &[2, 0, 0, 0], // version
        &[1, 0, 0, 0], // nvars
        &[1, 0],
        b"w",
        &[1],          // Pruned
        &[3],          // nruns
        &[1, 2],       // [1, 3): gap 1, length 2
        &[0xC5, 0x01], // [200, 201): gap 197 = 0x45 | 1 << 7…
        &[1],          // …length 1
        &[2, 97],      // [203, 300): gap 2, length 97
    ])
}

#[test]
fn the_encoder_emits_exactly_the_documented_bytes() {
    let (vars, plans) = tiny_state();
    for (codec, want) in [
        (LoCodec::F32, data_v1()),
        (LoCodec::Trunc { keep: 3 }, data_v2_keep3()),
    ] {
        let ser = serialize_with(&vars, &plans, codec).unwrap();
        assert_eq!(ser.data, want, "{codec:?} data file");
        assert_eq!(ser.aux, aux_file(), "{codec:?} aux file");
        // 16 bytes each of i64, pruned f64 and c128 payload, 8 of hi, and
        // two lo elements; three runs of two one-byte varints; the rest is
        // header.
        let payload = 16 + 16 + 8 + 2 * codec.width() + 16;
        assert_eq!(ser.breakdown.payload_bytes, payload);
        assert_eq!(ser.breakdown.aux_bytes, 3 * 2);
        assert_eq!(ser.breakdown.total(), want.len() + aux_file().len());

        // Any chunking of the same plan is the same file.
        let plan = plan_shards_with(&vars, &plans, 3, codec).unwrap();
        assert!(plan.shard_count() >= 3);
        let shards: Vec<Vec<u8>> = (0..plan.shard_count())
            .map(|i| serialize_shard(&vars, &plans, &plan, i).0)
            .collect();
        assert_eq!(seal_image(shards.clone()), want, "{codec:?} image");
        assert_eq!(seal_shards(shards).0.concat(), want, "{codec:?} shards");
    }
}

#[test]
fn the_aux_file_spells_gaps_and_lengths_in_leb128() {
    let (vars, plans) = multirun_state();
    let ser = serialize_with(&vars, &plans, LoCodec::F32).unwrap();
    assert_eq!(ser.aux, multirun_aux());
    assert_eq!(ser.breakdown.aux_bytes, 2 + 3 + 2);
    // Version 2 and the version-1 spelling of the same runs read back to
    // the same plan.
    for aux in [multirun_aux(), aux_v1(&vars, &plans)] {
        let ck = Checkpoint::from_bytes(&ser.data, &aux).unwrap();
        assert_eq!(ck.var("w").unwrap().plan, plans[0]);
    }
}

#[test]
fn the_manifest_is_exactly_the_documented_bytes() {
    // The version-1 file cut at two arbitrary offsets — shard boundaries
    // are the writer's choice — and sealed: the trailer lands on the last
    // shard, and the manifest lists each shard's length and CRC.
    let file = data_v1();
    let body = &file[..file.len() - 4];
    let cuts = [&body[..21], &body[21..90], &body[90..]];
    let (shards, manifest) = seal_shards(cuts.iter().map(|c| c.to_vec()).collect());
    assert_eq!(shards.concat(), file);
    assert_eq!(&shards[2][..], &file[90..]);

    let entry = |shard: &[u8]| {
        [
            &u64le(shard.len() as u64)[..],
            &crc32_bitwise(shard).to_le_bytes(),
        ]
        .concat()
    };
    let want = sealed(&[
        b"SCRUTSHM",
        &[1, 0, 0, 0], // version
        &[3, 0, 0, 0], // nshards
        &u64le(file.len() as u64),
        &entry(&file[..21]),
        &entry(&file[21..90]),
        &entry(&file[90..]),
    ]);
    assert_eq!(manifest.to_bytes(), want);
    assert_eq!(ShardManifest::from_bytes(&want).unwrap(), manifest);
}

/// The auxiliary file of [`tiny_state`] in the version-1 layout the
/// writer no longer emits: `nruns` and every run's `start` and `end`, all
/// `u64`.
fn aux_file_v1() -> Vec<u8> {
    sealed(&[
        b"SCRUTAUX",
        &[1, 0, 0, 0], // version
        &[4, 0, 0, 0], // nvars
        &[2, 0],
        b"it",
        &[0], // Full: no runs
        &[1, 0],
        b"u",
        &[1], // Pruned: one run [1, 3)
        &u64le(1),
        &u64le(1),
        &u64le(3),
        &[1, 0],
        b"t",
        &[2], // Tiered: hi one run [0, 1), lo one run [2, 4)
        &u64le(1),
        &u64le(0),
        &u64le(1),
        &u64le(1),
        &u64le(2),
        &u64le(4),
        &[1, 0],
        b"z",
        &[0],
    ])
}

#[test]
fn the_documented_bytes_read_back() {
    let (vars, plans) = tiny_state();
    // The test-side version-1 writer spells the same bytes.
    assert_eq!(aux_v1(&vars, &plans), aux_file_v1());
    // 2.5 and −3.25 are exact in an f32 and in three bytes alike; both
    // auxiliary file versions read back to the same plans.
    for (data, aux) in [data_v1(), data_v2_keep3()]
        .into_iter()
        .flat_map(|data| [(data.clone(), aux_file()), (data, aux_file_v1())])
    {
        let ck = Checkpoint::from_bytes(&data, &aux).unwrap();
        for (name, plan) in ["it", "u", "t", "z"].iter().zip(&plans) {
            assert_eq!(&ck.var(name).unwrap().plan, plan, "{name}");
        }
        assert_eq!(ck.names(), ["it", "u", "t", "z"]);
        assert_eq!(ck.var("it").unwrap().materialize_i64(0).unwrap(), [7, -2]);
        let hole = FillPolicy::Sentinel(-9.0);
        assert_eq!(
            ck.var("u").unwrap().materialize_f64(hole).unwrap(),
            [-9.0, 2.0, 3.0, -9.0]
        );
        assert_eq!(
            ck.var("t").unwrap().materialize_f64(hole).unwrap(),
            [0.5, -9.0, 2.5, -3.25]
        );
        assert_eq!(
            ck.var("z").unwrap().materialize_c128(hole).unwrap(),
            [(1.0, -1.0)]
        );
    }
}

/// The `SCRUTCZB` input: a run of 3, a run of 131 (encoded 130 + 1), then
/// 128 distinct bytes, so the run's last byte opens a 129-byte literal
/// (encoded 128 + 1). 262 bytes: 32 words and a 6-byte tail.
fn czb_input() -> Vec<u8> {
    [vec![7u8; 3], vec![0xAA; 131], (0..128).collect()].concat()
}

/// The container of [`czb_input`] with method tag `method` around
/// `payload`.
fn czb_container(method: u8, payload: &[u8]) -> Vec<u8> {
    let raw = czb_input();
    sealed(&[
        b"SCRUTCZB",
        &[1, 0, 0, 0], // version
        &[method],
        &u64le(raw.len() as u64),
        &crc32_bitwise(&raw).to_le_bytes(),
        payload,
    ])
}

/// Fifteen bytes `from, from + 8, …, from + 112`.
fn step8(from: u8) -> Vec<u8> {
    (0..15).map(|m| from + 8 * m).collect()
}

/// Method 1: groups in input order, greedy.
fn czb_rle_payload() -> Vec<u8> {
    [
        &[128, 7][..],                  // run of 3: 125 + 3
        &[255, 0xAA],                   // run of 130, the cap
        &[127, 0xAA],                   // literal of 128: the run's last byte…
        &(0..127).collect::<Vec<u8>>(), // …and 0..=126
        &[0, 127],                      // literal of 1: the literal cap's remainder
    ]
    .concat()
}

/// Method 2: plane `k` is byte `k` of each of the 32 words; position
/// `8j + k` holds 7 below 3, 0xAA below 134, and `8j + k − 134` above.
/// So planes 0–2 are `7, 0xAA×16, step8(k + 2)`, planes 3–5
/// `0xAA×17, step8(k + 2)`, planes 6–7 `0xAA×16, k − 6, step8(k + 2)`;
/// a plane's leading 7 ends the literal of the plane before it.
fn czb_bitplane_payload() -> Vec<u8> {
    let group = |parts: &[&[u8]]| parts.concat();
    [
        group(&[&[0, 7]]),                // plane 0's 7
        group(&[&[141, 0xAA]]),           // run of 16
        group(&[&[15], &step8(2), &[7]]), // plane 0's tail, plane 1's 7
        group(&[&[141, 0xAA]]),
        group(&[&[15], &step8(3), &[7]]), // plane 1's tail, plane 2's 7
        group(&[&[141, 0xAA]]),
        group(&[&[14], &step8(4)]), // plane 2's tail
        group(&[&[142, 0xAA]]),     // run of 17
        group(&[&[14], &step8(5)]), // plane 3
        group(&[&[142, 0xAA]]),
        group(&[&[14], &step8(6)]), // plane 4
        group(&[&[142, 0xAA]]),
        group(&[&[14], &step8(7)]), // plane 5
        group(&[&[141, 0xAA]]),
        group(&[&[15, 0], &step8(8)]), // plane 6
        group(&[&[141, 0xAA]]),
        group(&[&[15, 1], &step8(9)]), // plane 7
        (122..128).collect(),          // the 6-byte tail, verbatim
    ]
    .concat()
}

#[test]
fn the_compression_container_is_exactly_the_documented_bytes() {
    let raw = czb_input();
    let rle = czb_container(1, &czb_rle_payload());
    let bitplane = czb_container(2, &czb_bitplane_payload());
    assert_eq!(czb_rle_payload().len(), 135);
    assert_eq!(czb_bitplane_payload().len(), 156);
    for (method, want) in [
        (AtRest::None, czb_container(0, &raw)),
        (AtRest::Rle, rle.clone()),
        (AtRest::BitPlane, bitplane),
        // The RLE payload is strictly smaller than the bit-plane one and
        // than the raw bytes.
        (AtRest::Auto, rle),
    ] {
        assert_eq!(compress(&raw, method), want, "{method:?}");
        assert_eq!(decompress(&want).unwrap(), raw, "{method:?}");
    }
}

/// Fill every element, then overwrite the stored ones index by index: the
/// reader's reassembly as the paper describes it, computed here from the
/// saved values alone.
fn fill_then_scatter<T: Copy>(
    total: usize,
    hole: impl Fn(usize) -> T,
    stored: &[(&Regions, &dyn Fn(usize) -> T)],
) -> Vec<T> {
    let mut out: Vec<T> = (0..total).map(hole).collect();
    for (regions, value) in stored {
        for i in regions.indices() {
            out[i as usize] = value(i as usize);
        }
    }
    out
}

/// Materialization pinned against [`fill_then_scatter`] bit for bit, under
/// every fill policy: `Full`; `Pruned` with a run at index 0, a run ending
/// at `total`, and no runs at all; `Tiered` with interleaved hi and lo
/// runs under every lo codec; a pruned c128; a pruned i64; and a
/// zero-length variable. The CRC-32 of every materialized bit is pinned
/// too, as read from the element-at-a-time reader.
#[test]
fn materialize_is_fill_then_scatter_bit_for_bit() {
    let runs = |rs: &[(u64, u64)]| {
        Regions::from_runs(
            rs.iter()
                .map(|&(start, end)| Region { start, end })
                .collect(),
        )
    };
    let n = 41usize;
    let f: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.731).sin() * 1e3 + 0.1)
        .collect();
    let z: Vec<(f64, f64)> = (0..n)
        .map(|i| (i as f64 + 0.25, -(i as f64) * 1.5))
        .collect();
    let ints: Vec<i64> = (0..n as i64).map(|i| i * 1_000_003 - 7).collect();
    let edges = runs(&[(0, 3), (7, 8), (12, 20), (33, 41)]);
    let hi = runs(&[(0, 2), (5, 9), (20, 21), (36, 41)]);
    let lo = runs(&[(2, 4), (9, 14), (22, 30), (31, 36)]);
    let vars = vec![
        VarRecord::new("full", VarData::F64(f.clone())),
        VarRecord::new("edges", VarData::F64(f.clone())),
        VarRecord::new("holes", VarData::F64(f.clone())),
        VarRecord::new("tiered", VarData::F64(f.clone())),
        VarRecord::new("z", VarData::C128(z.clone())),
        VarRecord::new("ints", VarData::I64(ints.clone())),
        VarRecord::new("empty", VarData::F64(Vec::new())),
    ];
    let plans = vec![
        VarPlan::Full,
        VarPlan::Pruned(edges.clone()),
        VarPlan::Pruned(Regions::empty()),
        VarPlan::Tiered {
            hi: hi.clone(),
            lo: lo.clone(),
        },
        VarPlan::Pruned(edges.clone()),
        VarPlan::Pruned(edges.clone()),
        VarPlan::Full,
    ];
    let all = Regions::all(n as u64);
    let codecs = [LoCodec::F32]
        .into_iter()
        .chain((2..=7).map(|keep| LoCodec::Trunc { keep }));
    let mut bits: Vec<u8> = Vec::new();
    for codec in codecs {
        let ser = serialize_with(&vars, &plans, codec).unwrap();
        let ck = Checkpoint::from_bytes(&ser.data, &ser.aux).unwrap();
        for fill in [
            FillPolicy::Zero,
            FillPolicy::Sentinel(-9.5),
            FillPolicy::Garbage(0x5EED),
        ] {
            let what = format!("{codec:?}, {fill:?}");
            let exact = |i: usize| f[i];
            let lossy = |i: usize| codec.apply(f[i]);
            let hole = |i: usize| fill.value(i);
            let f64_cases: [(&str, Vec<f64>); 5] = [
                ("full", fill_then_scatter(n, hole, &[(&all, &exact)])),
                ("edges", fill_then_scatter(n, hole, &[(&edges, &exact)])),
                ("holes", fill_then_scatter(n, hole, &[])),
                (
                    "tiered",
                    fill_then_scatter(n, hole, &[(&hi, &exact), (&lo, &lossy)]),
                ),
                ("empty", Vec::new()),
            ];
            for (name, want) in f64_cases {
                let got = ck.var(name).unwrap().materialize_f64(fill).unwrap();
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{what}: {name}");
                got.iter().for_each(|b| bits.extend(b.to_le_bytes()));
            }

            let pair = |i: usize| z[i];
            let want = fill_then_scatter(
                n,
                |i| (fill.value(2 * i), fill.value(2 * i + 1)),
                &[(&edges, &pair)],
            );
            let got = ck.var("z").unwrap().materialize_c128(fill).unwrap();
            let to_bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
                v.iter().map(|c| (c.0.to_bits(), c.1.to_bits())).collect()
            };
            assert_eq!(to_bits(&got), to_bits(&want), "{what}: z");
            for (re, im) in to_bits(&got) {
                bits.extend(re.to_le_bytes());
                bits.extend(im.to_le_bytes());
            }

            let hole_i = fill.value(0).to_bits() as i64;
            let int = |i: usize| ints[i];
            let want = fill_then_scatter(n, |_| hole_i, &[(&edges, &int)]);
            let got = ck.var("ints").unwrap().materialize_i64(hole_i).unwrap();
            assert_eq!(got, want, "{what}: ints");
            got.iter().for_each(|v| bits.extend(v.to_le_bytes()));
        }
    }
    assert_eq!(
        crc32_bitwise(&bits),
        0x98D2_29A7,
        "CRC-32 of every materialized bit"
    );
}
