//! The differential analyzer harness: run the AD value criterion and the
//! static data-dependency analyzer over the same recording, prove the
//! safety invariant, and explain every disagreement.
//!
//! The invariant under test is directional: **datadep-critical ⊇
//! ad-critical**. The static analyzer (`scrutiny_ad::datadep`, surfaced
//! as `Analyzer::DataDep`) may keep elements the AD sweep would drop —
//! that costs checkpoint bytes — but it must never drop an element the
//! AD sweep keeps, because dropping a truly critical element breaks
//! restarts. [`assert_safety_invariant`] checks the superset relation
//! directly on the bitmaps (independently of the disagreement
//! classifier) *and* checks that the classifier accounted for every
//! differing element, so a disagreement can neither be unsafe nor
//! unexplained. The repo-root `tests/analyzer_differential.rs` drives
//! this over the NPB kernels; `tests/nonsmooth_pitfalls.rs` drives it
//! over the hand-built Hückelheim-style pitfall tapes.
//!
//! [`assert_step_contract`] is the other shared harness: what every
//! `ScrutinyApp` owes the step protocol, checked the same way for the NPB
//! kernels, the demo app and the pitfall apps. One clause of it — a run's
//! `snapshot_bytes` is what a fork of it really allocates — needs the test
//! binary to install `scrutiny_faultinj::CountingAlloc` as its global
//! allocator.
//!
//! The format oracles live here too, outside the product:
//! [`direct_serialize_data`] (the `SCRUTCKP` data file written variable by
//! variable), [`aux_v1`] (the version-1 `SCRUTAUX` file the writer no
//! longer emits), [`czb_bytewise`] (the `SCRUTCZB` container encoded a
//! byte at a time) and [`crc32_bitwise`] share nothing with
//! `scrutiny-ckpt`'s one encoder, its word-at-a-time codec and its
//! three-lane CRC but `docs/FORMATS.md`; [`Dual`], forward-mode dual numbers, shares nothing
//! with the reverse-mode tape but [`Real`].
//!
//! [`assert_cuts_recover`] holds every writer to FORMATS §7 over the
//! write sequence a `scrutiny_faultinj::ScriptedBackend` logged.

#![warn(missing_docs)]

mod dual;

pub use dual::Dual;

use scrutiny_ad::{SweepConfig, Tape, TapeCheckpointConfig, TapeConfig, TapeSession};
use scrutiny_ckpt::{
    names, AtRest, CheckpointStore, CkptError, DirBackend, FillPolicy, LoCodec, StorageBackend,
    VarData, VarPlan, VarRecord,
};
use scrutiny_core::{
    record_resumable, scrutinize_differential, scrutinize_with, AdError, Adj, AnalysisReport,
    AppRun, CaptureSite, CkptSite, DifferentialReport, DisagreementKind, EngineError, LeafSite,
    Real, RecoveryConfig, RecoveryManager, ScrutinyApp, ScrutinyOptions,
};
use scrutiny_faultinj::{
    allocated_by, campaign_matrix, Call, CampaignConfig, CampaignReport, Corruption, Op, Target,
};
use std::sync::Arc;

/// One application's differential run, labeled for failure messages.
#[derive(Debug)]
pub struct DifferentialCase {
    /// Application name (e.g. `CG`).
    pub name: String,
    /// Problem class (e.g. `S`).
    pub class: String,
    /// Both analyzers' reports plus the classified disagreements.
    pub report: DifferentialReport,
}

/// Run both analyzers over `app` and label the result.
pub fn differential_case(
    app: &dyn ScrutinyApp,
    opts: &ScrutinyOptions,
) -> Result<DifferentialCase, AdError> {
    let report = scrutinize_differential(app, opts)?;
    Ok(DifferentialCase {
        name: report.ad.app.name.clone(),
        class: report.ad.app.class.clone(),
        report,
    })
}

/// Assert everything the differential contract promises for one case:
///
/// 1. **Safety (bitmap-level):** every AD-critical element is
///    datadep-critical, checked directly on the per-variable maps —
///    not via the disagreement list, so a classifier bug cannot mask a
///    violation.
/// 2. **Safety (typed):** the classifier reported no
///    [`DisagreementKind::AdCriticalDataDepDead`] entries.
/// 3. **Completeness:** every element whose verdicts differ appears in
///    exactly one disagreement group, and nothing else does.
/// 4. **Witnesses:** every over-approximation group carries a witness
///    data-flow path with at least one hop.
///
/// Panics with [`explain`]-style context on any failure.
pub fn assert_safety_invariant(case: &DifferentialCase) {
    let label = format!("{} class {}", case.name, case.class);
    let rep = &case.report;
    assert_eq!(
        rep.ad.vars.len(),
        rep.datadep.vars.len(),
        "{label}: analyzer reports disagree on variable count"
    );
    for (va, vd) in rep.ad.vars.iter().zip(&rep.datadep.vars) {
        let expected: Vec<usize> = vd.value_map.diff_indices(&va.value_map);
        for &i in &expected {
            assert!(
                vd.value_map.get(i) && !va.value_map.get(i),
                "{label}: {}[{i}] is AD-critical but datadep-dead — the \
                 static analyzer under-approximated\n{}",
                va.spec.name,
                explain(rep)
            );
        }
        let claimed: Vec<usize> = rep
            .disagreements
            .iter()
            .filter(|d| d.var == va.spec.name)
            .flat_map(|d| d.elems.iter().copied())
            .collect();
        assert_eq!(
            claimed, expected,
            "{label}: disagreement list for {} does not match the maps",
            va.spec.name
        );
    }
    assert!(rep.is_safe(), "{label}:\n{}", explain(rep));
    for d in &rep.disagreements {
        assert_eq!(
            d.kind,
            DisagreementKind::ValueDeadStructurallyLive,
            "{label}: unexpected disagreement kind on {}",
            d.var
        );
        let w = d
            .witness
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: {} disagreement has no witness path", d.var));
        assert!(
            w.hops >= 1 && !w.nodes.is_empty(),
            "{label}: degenerate witness on {}",
            d.var
        );
    }
}

/// Render every disagreement of one differential run as a named,
/// human-readable line (one per variable × kind group), e.g.
///
/// ```text
/// CG class S: 2 disagreement group(s), 12 over-approximated element(s)
///   x: ValueDeadStructurallyLive ×12 [first elem 7, witness 5 hops: 120 -> 998 -> ...]
/// ```
pub fn explain(report: &DifferentialReport) -> String {
    let mut out = format!(
        "{} class {}: {} disagreement group(s), {} over-approximated element(s)\n",
        report.ad.app.name,
        report.ad.app.class,
        report.disagreements.len(),
        report.over_approximated_elems()
    );
    for d in &report.disagreements {
        let witness = match &d.witness {
            Some(w) => {
                let path: Vec<String> = w.nodes.iter().map(u64::to_string).collect();
                format!("witness {} hops: {}", w.hops, path.join(" -> "))
            }
            None => "no witness path".to_string(),
        };
        out.push_str(&format!(
            "  {}: {:?} ×{} [first elem {}, {}]\n",
            d.var,
            d.kind,
            d.elems.len(),
            d.elems.first().copied().unwrap_or(0),
            witness
        ));
    }
    out
}

/// Scrutinize `app` twice — once unbounded, once under `ckpt`'s tape
/// residency budget — for the bounded ≡ unbounded oracle
/// ([`first_divergence`] must find nothing between the two). Returns
/// `(unbounded, bounded)`.
pub fn scrutinize_bounded_vs_unbounded(
    app: &dyn ScrutinyApp,
    opts: &ScrutinyOptions,
    ckpt: TapeCheckpointConfig,
) -> Result<(AnalysisReport, AnalysisReport), AdError> {
    let unbounded = scrutinize_with(app, opts)?;
    let bounded = scrutinize_with(
        app,
        &ScrutinyOptions {
            tape_checkpoints: Some(ckpt),
            ..opts.clone()
        },
    )?;
    Ok((unbounded, bounded))
}

/// First variable (or pseudo-field) on which two analyses disagree at
/// the bit level — criticality maps, every gradient bit, the primal
/// output — if any.
pub fn first_divergence(a: &AnalysisReport, b: &AnalysisReport) -> Option<String> {
    if a.output_value.to_bits() != b.output_value.to_bits() {
        return Some("output_value".into());
    }
    for (va, vb) in a.vars.iter().zip(&b.vars) {
        if va.value_map != vb.value_map || va.structural_map != vb.structural_map {
            return Some(va.spec.name.clone());
        }
        for (ga, gb) in va.grad_mag.iter().zip(&vb.grad_mag) {
            if ga.to_bits() != gb.to_bits() {
                return Some(format!("{}.grad_mag", va.spec.name));
            }
        }
    }
    None
}

/// The corruption models the differential campaigns sweep.
pub fn corruption_models() -> Vec<Corruption> {
    vec![
        Corruption::Zero,
        Corruption::BitFlip { bit: 63 },
        Corruption::BitFlip { bit: 1 },
        Corruption::Poison(1e30),
        Corruption::Scale(4.0),
        Corruption::Offset(-3.25),
    ]
}

/// Corrupt elements the *static* analyzer calls uncritical, across the
/// whole corruption-model matrix, and restart-verify each trial.
///
/// Because datadep-uncritical ⊆ ad-uncritical, every such element has a
/// zero adjoint and corruption must be harmless: each returned campaign
/// must report zero failures. This is the fault-injection face of the
/// safety invariant — the analyzer that never consulted a derivative
/// still only ever discards restart-irrelevant bytes.
pub fn datadep_uncritical_matrix(
    app: &dyn ScrutinyApp,
    datadep_report: &AnalysisReport,
    trials: usize,
) -> Vec<(Corruption, CampaignReport)> {
    let base = CampaignConfig {
        target: Target::Uncritical,
        trials,
        elems_per_trial: 16,
        ..CampaignConfig::default()
    };
    campaign_matrix(app, datadep_report, &base, &corruption_models())
}

/// Drive `run` by hand through `app`'s iterations `from..=last`, showing
/// the site the checkpoint variables at the checkpoint boundary — what
/// the provided `run_f64` / `run_ad` do — and return the output.
/// `started` says `run` stands at an inner resume point of iteration
/// `from`, whose boundary is then behind it.
fn drive_by_hand<'a, R: Real>(
    app: &dyn ScrutinyApp,
    run: &mut (dyn AppRun<'a, R> + 'a),
    from: usize,
    mut started: bool,
    site: &mut dyn CkptSite<R>,
) -> R {
    for iter in from..=*app.steps().end() {
        if !started && iter == app.checkpoint_iter() {
            site.at_boundary(iter, &mut run.vars(iter));
        }
        while !run.step(iter) {}
        started = false;
    }
    run.output()
}

/// Every adjoint and reachability bit of `tape` seeded at `out`: a
/// content witness two recordings of the same run must share.
fn tape_witness(tape: &Tape, out: Adj) -> (Vec<u64>, Vec<bool>) {
    let serial = SweepConfig::serial();
    let (grads, _) = tape.gradient_sweep(out, serial).expect("value sweep");
    let (reach, _) = tape.reachable_sweep(out, serial).expect("reach sweep");
    let bits = (0..grads.len() as u64)
        .map(|i| grads.of_node(i).to_bits())
        .collect();
    (bits, reach)
}

/// Bit-at-a-time IEEE CRC-32 (reflected, poly `0xEDB88320`): the oracle
/// for `scrutiny_ckpt::format::crc32`, table-free so the two share no
/// code.
pub fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
        }
    }
    !c
}

/// The `SCRUTCZB` container of `docs/FORMATS.md` §9 encoded a byte at a
/// time — what `scrutiny_ckpt::compress::compress` was before its scans
/// went word-at-a-time, kept as the oracle it is checked against: the
/// greedy run-length rule, the bit-plane transpose scattered one byte at
/// a time, `Auto`'s pick, and both CRCs from [`crc32_bitwise`].
pub fn czb_bytewise(raw: &[u8], method: AtRest) -> Vec<u8> {
    let (tag, payload) = match method {
        AtRest::None => (0u8, raw.to_vec()),
        AtRest::Rle => (1, rle_bytewise(raw)),
        AtRest::BitPlane => (2, bitplane_bytewise(raw)),
        AtRest::Auto => {
            let rle = rle_bytewise(raw);
            let bp = bitplane_bytewise(raw);
            if bp.len() < rle.len() && bp.len() < raw.len() {
                (2, bp)
            } else if rle.len() < raw.len() {
                (1, rle)
            } else {
                (0, raw.to_vec())
            }
        }
    };
    let mut out = b"SCRUTCZB".to_vec();
    out.extend(1u32.to_le_bytes());
    out.push(tag);
    out.extend((raw.len() as u64).to_le_bytes());
    out.extend(crc32_bitwise(raw).to_le_bytes());
    out.extend(payload);
    out.extend(crc32_bitwise(&out).to_le_bytes());
    out
}

/// How many bytes equal to `src[i]` start at `i`, up to `cap`.
fn run_len_at(src: &[u8], i: usize, cap: usize) -> usize {
    let b = src[i];
    let mut n = 1;
    while n < cap && i + n < src.len() && src[i + n] == b {
        n += 1;
    }
    n
}

/// Runs of 3..=130 as `125 + n, byte`; everything else in literal groups
/// of 1..=128 as `n − 1, bytes…`, each ending where a run of 3 begins.
fn rle_bytewise(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < src.len() {
        let run = run_len_at(src, i, 130);
        if run >= 3 {
            out.push((125 + run) as u8);
            out.push(src[i]);
            i += run;
            continue;
        }
        let start = i;
        i += run;
        while i < src.len() && i - start < 128 {
            let r = run_len_at(src, i, 3);
            if r >= 3 {
                break;
            }
            i += r;
        }
        let lit = (i - start).min(128);
        i = start + lit;
        out.push((lit - 1) as u8);
        out.extend_from_slice(&src[start..start + lit]);
    }
    out
}

/// Byte `k` of every 8-byte word into plane `k`, the planes run-length
/// encoded, the tail past the last whole word appended verbatim.
fn bitplane_bytewise(src: &[u8]) -> Vec<u8> {
    let words = src.len() / 8;
    let mut planes = vec![0u8; words * 8];
    for (j, w) in src.chunks_exact(8).enumerate() {
        for k in 0..8 {
            planes[k * words + j] = w[k];
        }
    }
    let mut out = rle_bytewise(&planes);
    out.extend_from_slice(&src[words * 8..]);
    out
}

/// The `SCRUTCKP` data file of `docs/FORMATS.md` §3 written directly,
/// variable by variable — what `scrutiny_ckpt::serialize_data_with` was
/// before the shard-plan interpreter became the only encoder, kept as
/// the oracle it is checked against. Returns `(bytes, payload_bytes)`;
/// `vars`/`plans` must be a valid pairing.
pub fn direct_serialize_data(
    vars: &[VarRecord],
    plans: &[VarPlan],
    lo_codec: LoCodec,
) -> (Vec<u8>, usize) {
    let mut out = b"SCRUTCKP".to_vec();
    match lo_codec {
        LoCodec::F32 => out.extend(1u32.to_le_bytes()),
        LoCodec::Trunc { keep } => {
            out.extend(2u32.to_le_bytes());
            out.push(keep);
        }
    }
    out.extend((vars.len() as u32).to_le_bytes());
    let mut payload = 0;
    for (v, p) in vars.iter().zip(plans) {
        out.extend((v.name.len() as u16).to_le_bytes());
        out.extend(v.name.as_bytes());
        out.push(match v.data {
            VarData::F64(_) => 0,
            VarData::C128(_) => 1,
            VarData::I64(_) => 2,
        });
        // Sections in file order: (stored element indices, lo tier?).
        let (mode, sections): (u8, Vec<(Vec<u64>, bool)>) = match p {
            VarPlan::Full => (0, vec![((0..v.data.len() as u64).collect(), false)]),
            VarPlan::Pruned(r) => (1, vec![(r.indices().collect(), false)]),
            VarPlan::Tiered { hi, lo } => (
                2,
                vec![
                    (hi.indices().collect(), false),
                    (lo.indices().collect(), true),
                ],
            ),
        };
        out.push(mode);
        out.extend((v.data.len() as u64).to_le_bytes());
        for (indices, lo_tier) in sections {
            out.extend((indices.len() as u64).to_le_bytes());
            let before = out.len();
            for i in indices {
                let i = i as usize;
                match (&v.data, lo_tier, lo_codec) {
                    (VarData::F64(x), false, _) => out.extend(x[i].to_le_bytes()),
                    (VarData::F64(x), true, LoCodec::F32) => {
                        out.extend((x[i] as f32).to_le_bytes())
                    }
                    (VarData::F64(x), true, LoCodec::Trunc { keep }) => {
                        out.extend(&x[i].to_le_bytes()[8 - keep as usize..])
                    }
                    (VarData::C128(x), ..) => {
                        out.extend(x[i].0.to_le_bytes());
                        out.extend(x[i].1.to_le_bytes());
                    }
                    (VarData::I64(x), ..) => out.extend(x[i].to_le_bytes()),
                }
            }
            payload += out.len() - before;
        }
    }
    out.extend(crc32_bitwise(&out).to_le_bytes());
    (out, payload)
}

/// The `SCRUTAUX` file of `docs/FORMATS.md` §4 in its version-1 layout,
/// written directly: each run list as `nruns` and every run's `start`
/// and `end`, all `u64`. The writer emits only version 2; this is the
/// reference the version-1 reader is fed with. `vars`/`plans` must be a
/// valid pairing.
pub fn aux_v1(vars: &[VarRecord], plans: &[VarPlan]) -> Vec<u8> {
    let mut out = b"SCRUTAUX".to_vec();
    out.extend(1u32.to_le_bytes());
    out.extend((vars.len() as u32).to_le_bytes());
    for (v, p) in vars.iter().zip(plans) {
        out.extend((v.name.len() as u16).to_le_bytes());
        out.extend(v.name.as_bytes());
        let (mode, lists) = match p {
            VarPlan::Full => (0u8, vec![]),
            VarPlan::Pruned(r) => (1, vec![r]),
            VarPlan::Tiered { hi, lo } => (2, vec![hi, lo]),
        };
        out.push(mode);
        for runs in lists {
            out.extend((runs.run_count() as u64).to_le_bytes());
            for r in runs.runs() {
                out.extend(r.start.to_le_bytes());
                out.extend(r.end.to_le_bytes());
            }
        }
    }
    out.extend(crc32_bitwise(&out).to_le_bytes());
    out
}

/// Assert that `run.snapshot_bytes()` is what a fork of `run` really
/// allocates — never less (the residency budget is charged that number),
/// and no more than a sixteenth over. Skipped when the binary does not
/// count allocations.
fn assert_snapshot_bytes<'a, R: Real>(name: &str, run: &(dyn AppRun<'a, R> + 'a)) {
    let Some((fork, allocated)) = allocated_by(|| run.fork()) else {
        return;
    };
    let claimed = fork.snapshot_bytes();
    assert!(
        allocated <= claimed && claimed <= allocated + allocated / 16 + 64,
        "{name}: snapshot_bytes() = {claimed} but a fork allocates {allocated}"
    );
}

/// Assert what an application owes the step protocol:
///
/// 1. **One code path:** stepping `start_f64` / `start_ad` by hand gives
///    the same output bits, the same captured checkpoint state and the
///    same tape (node and leaf counts, every adjoint and reachability
///    bit) as the provided `run_f64` / `run_ad`.
/// 2. **Forks are snapshots:** at every resume point — each iteration
///    boundary and each inner point an application exposes — a fork
///    resumed to the end reproduces the output bit for bit, and forking
///    leaves the run it was taken from untouched.
///    Its `snapshot_bytes` is what the fork allocates (checked when the
///    test binary installs [`CountingAlloc`](scrutiny_faultinj::CountingAlloc)).
/// 3. **Resumed re-recording is exact:** on a tape bounded to two and to
///    four residency slots (the segment length chosen so the tape has a
///    few dozen segments), sweeps that re-record every evicted window by
///    resuming forks match the unbounded sweep bit for bit — each
///    re-recorded segment digest-verified along the way.
///
/// Panics naming the application on any failure.
pub fn assert_step_contract(app: &dyn ScrutinyApp) {
    let name = app.spec().name;
    let first = *app.steps().start();

    // 1 + 2, natively.
    let mut golden_site = CaptureSite::new();
    let golden = app.run_f64(&mut golden_site).output;
    let mut by_hand_site = CaptureSite::new();
    let mut run = app.start_f64();
    let by_hand = drive_by_hand(app, &mut *run, first, false, &mut by_hand_site);
    assert_eq!(golden.to_bits(), by_hand.to_bits(), "{name}: f64 output");
    assert_eq!(golden_site.iter, by_hand_site.iter, "{name}: boundary seen");
    assert_eq!(
        golden_site.vars, by_hand_site.vars,
        "{name}: captured state"
    );

    let mut run = app.start_f64();
    for iter in app.steps() {
        for point in 0.. {
            assert_snapshot_bytes(&name, &*run);
            let mut fork = run.fork();
            let resumed = drive_by_hand(app, &mut *fork, iter, point > 0, &mut CaptureSite::new());
            assert_eq!(
                golden.to_bits(),
                resumed.to_bits(),
                "{name}: fork resumed at resume point {point} of iteration {iter}"
            );
            if run.step(iter) {
                break;
            }
        }
    }
    let at_end = run.fork();
    assert_eq!(
        golden.to_bits(),
        at_end.output().to_bits(),
        "{name}: fork at the end"
    );
    assert_eq!(
        golden.to_bits(),
        run.output().to_bits(),
        "{name}: forked-from run"
    );
    drop(at_end);

    // 1, under AD.
    let cfg = TapeConfig {
        capacity: app.tape_capacity_hint(),
        ..TapeConfig::default()
    };
    let session = TapeSession::with_config(cfg);
    let mut site = LeafSite::new();
    let out = app.run_ad(&mut site).output;
    let tape = session.finish();
    let session = TapeSession::with_config(cfg);
    let mut hand_site = LeafSite::new();
    let mut run = app.start_ad();
    assert_snapshot_bytes(&name, &*run);
    let hand_out = drive_by_hand(app, &mut *run, first, false, &mut hand_site);
    drop(run);
    let hand_tape = session.finish();
    assert_eq!(
        out.value().to_bits(),
        hand_out.value().to_bits(),
        "{name}: AD output"
    );
    assert_eq!(out.index(), hand_out.index(), "{name}: output node");
    assert_eq!(tape.len(), hand_tape.len(), "{name}: node count");
    assert_eq!(
        tape.leaf_count(),
        hand_tape.leaf_count(),
        "{name}: leaf count"
    );
    let witness = tape_witness(&tape, out);
    assert!(
        witness == tape_witness(&hand_tape, hand_out),
        "{name}: tape content"
    );

    // 3: a few dozen segments, two and four residency slots.
    let segment_len = (tape.len() / 48).next_power_of_two().max(8);
    for n in [2, 4] {
        let (outcome, leaves, bounded, resumable) = record_resumable(
            app,
            TapeConfig {
                segment_len,
                checkpoint: Some(TapeCheckpointConfig::with_ncheckpoints(n)),
                ..cfg
            },
        );
        assert_eq!(
            outcome.output.index(),
            out.index(),
            "{name}: bounded output node"
        );
        assert_eq!(leaves.iter, site.iter, "{name}: bounded boundary");
        let serial = SweepConfig::serial();
        let (grads, stats) = bounded
            .gradient_sweep_replay(outcome.output, serial, &resumable)
            .unwrap_or_else(|e| panic!("{name}: resumed value sweep (n={n}): {e}"));
        let (reach, _) = bounded
            .reachable_sweep_replay(outcome.output, serial, &resumable)
            .unwrap_or_else(|e| panic!("{name}: resumed reach sweep (n={n}): {e}"));
        let bits: Vec<u64> = (0..grads.len() as u64)
            .map(|i| grads.of_node(i).to_bits())
            .collect();
        assert!(witness == (bits, reach), "{name}: resumed sweeps (n={n})");
        assert!(
            stats.peak_resident_bytes
                <= TapeCheckpointConfig::with_ncheckpoints(n)
                    .budget_bytes(segment_len, bounded.segment_count()),
            "{name}: peak {} over budget (n={n})",
            stats.peak_resident_bytes
        );
    }
}

/// Assert FORMATS §7 over `log`, the calls a
/// [`ScriptedBackend`](scrutiny_faultinj::ScriptedBackend) logged
/// while a writer saved versions `0..` in order, each holding its own
/// version number in element `at` of variable `var`:
///
/// 1. **The marker is last:** no object of a version is put after that
///    version's commit marker.
/// 2. **Every cut recovers:** a crash just before any marker — the
///    log's successful puts and deletes up to it replayed into a fresh
///    `DirBackend` — opens as a `CheckpointStore` whose latest version
///    is the previous one, and the recovery walk restores that version
///    intact through both of its faces: `CheckpointStore::recover_latest`
///    and a `RecoveryManager` over the cut as left (before the store's
///    open sweeps it). Before the first marker both report
///    `Unrecoverable`.
///
/// Returns the committed versions in log order. Panics naming `tag` and
/// the cut on any failure.
pub fn assert_cuts_recover(log: &[Call], var: &str, at: usize, tag: &str) -> Vec<u64> {
    let mut committed = Vec::new();
    for (i, call) in log.iter().enumerate() {
        let put = call.op == Op::Put && call.ok;
        let Some(v) = names::committed_version(&call.name).filter(|_| put) else {
            continue;
        };
        committed.push(v);
        let cut = format!("{tag}: cut before {}", call.name);
        for later in log[i + 1..].iter().filter(|c| c.op == Op::Put) {
            assert_ne!(
                names::classify(&later.name).version(),
                Some(v),
                "{tag}: {} is put after version {v}'s commit marker {}",
                later.name,
                call.name
            );
        }
        let dir =
            std::env::temp_dir().join(format!("scrutiny_cut_{tag}_{i}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let files = DirBackend::open(&dir).unwrap();
        for done in log[..i].iter().filter(|c| c.ok) {
            match done.op {
                Op::Put => files.put(&done.name, &done.bytes).unwrap(),
                Op::Delete => files.delete(&done.name).unwrap(),
                Op::Get | Op::List => {}
            }
        }
        let managed =
            RecoveryManager::new(Arc::new(files), RecoveryConfig::default()).recover_latest();
        let store = CheckpointStore::open(&dir, 64).unwrap();
        assert_eq!(store.latest().unwrap(), v.checked_sub(1), "{cut}");
        match (v.checked_sub(1), store.recover_latest(), managed) {
            (Some(prev), Ok(r), Ok(m)) => {
                assert_eq!(r.version, prev, "{cut}");
                let got = r
                    .checkpoint
                    .var(var)
                    .unwrap()
                    .materialize_f64(FillPolicy::Zero);
                assert_eq!(got.unwrap()[at], prev as f64, "{cut}");
                assert!(
                    (m.version, &m.data, &m.aux) == (r.version, &r.data, &r.aux),
                    "{cut}: the store recovered version {}, RecoveryManager {}",
                    r.version,
                    m.version
                );
            }
            (
                None,
                Err(CkptError::Unrecoverable(_)),
                Err(EngineError::Ckpt(CkptError::Unrecoverable(_))),
            ) => {}
            (_, r, m) => panic!(
                "{cut}: store {:?}, RecoveryManager {:?}",
                r.map(|r| r.version),
                m.map(|m| m.version)
            ),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    committed
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scrutiny_ckpt::{
        plan_shards_with, seal_image, seal_shards, serialize_data_with, serialize_shard, Bitmap,
        Regions,
    };
    use scrutiny_core::tiny::Heat1d;
    use scrutiny_core::Analyzer;

    /// A random valid state: 0..=4 variables of every dtype under Full,
    /// Pruned and (f64 only) Tiered plans with random, fragmented regions.
    /// Most variables have length 0..160; one in four has up to 8 192
    /// elements, so many images span several of the CRC's 12 KiB blocks.
    fn random_state(seed: u64) -> (Vec<VarRecord>, Vec<VarPlan>) {
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let mut vars = Vec::new();
        let mut plans = Vec::new();
        for i in 0..next() % 5 {
            let max_len = if next() % 4 == 0 { 8192 } else { 160 };
            let n = (next() % max_len) as usize;
            let val = |bits: u64| f64::from_bits(bits).clamp(-1e300, 1e300);
            let data = match next() % 3 {
                0 => VarData::F64((0..n).map(|_| val(next())).collect()),
                1 => VarData::C128((0..n).map(|_| (val(next()), val(next()))).collect()),
                _ => VarData::I64((0..n).map(|_| next() as i64).collect()),
            };
            let kind = next() % 3;
            let mut regions =
                |density: u64| Regions::from_bitmap(&Bitmap::from_fn(n, |_| next() % 8 < density));
            plans.push(match (kind, &data) {
                (0, _) => VarPlan::Full,
                (1, VarData::F64(_)) => {
                    let hi = regions(4);
                    let lo = regions(5).intersect(&hi.complement(n as u64));
                    VarPlan::Tiered { hi, lo }
                }
                _ => VarPlan::Pruned(regions(6)),
            });
            vars.push(VarRecord::new(format!("v{i}"), data));
        }
        (vars, plans)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The format is pinned from outside the encoder: for random
        /// states × plans × lo codecs, the one-shard plan
        /// (`serialize_data_with`) and every 1..=7-shard plan, sealed as
        /// one image or as shards, are the direct oracle's bytes and
        /// payload count, and every manifest entry is the bitwise CRC of
        /// its sealed shard.
        #[test]
        fn the_one_encoder_equals_the_direct_oracle(
            seed in 0u64..1_000_000,
            target in 1usize..8,
            codec in 0u8..7,
        ) {
            let lo_codec = match codec {
                0 => LoCodec::F32,
                k => LoCodec::Trunc { keep: k + 1 },
            };
            let (vars, plans) = random_state(seed);
            let (want, want_payload) = direct_serialize_data(&vars, &plans, lo_codec);
            let (mono, payload) = serialize_data_with(&vars, &plans, lo_codec).unwrap();
            prop_assert_eq!(&mono, &want);
            prop_assert_eq!(payload, want_payload);

            let plan = plan_shards_with(&vars, &plans, target, lo_codec).unwrap();
            let mut payload = 0;
            let shards: Vec<Vec<u8>> = (0..plan.shard_count())
                .map(|i| {
                    let (bytes, p) = serialize_shard(&vars, &plans, &plan, i);
                    payload += p;
                    bytes
                })
                .collect();
            prop_assert_eq!(payload, want_payload);
            prop_assert_eq!(&seal_image(shards.clone()), &want);
            let (sealed, manifest) = seal_shards(shards);
            prop_assert_eq!(manifest.total_len as usize, want.len());
            prop_assert_eq!(&sealed.concat(), &want);
            for (i, shard) in sealed.iter().enumerate() {
                prop_assert_eq!(manifest.shard_crcs[i], crc32_bitwise(shard));
            }
        }
    }

    #[test]
    fn bitwise_crc_known_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b""), 0);
    }

    #[test]
    fn heat1d_case_is_safe_and_explained() {
        let app = Heat1d::new(16, 8, 4);
        let case = differential_case(&app, &ScrutinyOptions::default()).unwrap();
        assert_safety_invariant(&case);
        let text = explain(&case.report);
        assert!(text.contains(&case.name), "{text}");
        assert!(text.contains("0 over-approximated"), "{text}");
    }

    #[test]
    fn datadep_matrix_on_heat1d_never_fails() {
        let app = Heat1d::new(16, 10, 5);
        let dd = scrutinize_with(
            &app,
            &ScrutinyOptions {
                analyzer: Analyzer::DataDep,
                ..ScrutinyOptions::default()
            },
        )
        .unwrap();
        for (model, report) in datadep_uncritical_matrix(&app, &dd, 2) {
            assert_eq!(report.failed, 0, "{model:?}");
            assert!(report.corrupted_elems > 0, "{model:?} corrupted nothing");
        }
    }
}
