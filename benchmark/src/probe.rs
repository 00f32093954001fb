//! Per-layer probes: each kernel on the walk timed alone, through public
//! functions only, on the workload's own apps, state and codec. Kernels
//! run single-threaded unless stated; a probe is reported only on a
//! workload whose path calls that kernel, and reads 0 elsewhere.
//!
//! Bandwidths count the bytes the kernel reads: the full state for the
//! serializers, the serialized image for everything downstream of them.

use crate::metrics::Values;
use crate::stats::{median, ms, percentile};
use crate::workload::{nproc, out_dir, Rig};
use crate::Res;
use scrutiny_ad::{SweepConfig, TapeConfig, TapeSession};
use scrutiny_ckpt::compress::{compress, decompress};
use scrutiny_ckpt::delta::{apply_delta, diff_images};
use scrutiny_ckpt::format::crc32;
use scrutiny_ckpt::names::Tenant;
use scrutiny_ckpt::restore::{read_data_image_parallel, RestoreOptions};
use scrutiny_ckpt::{
    plan_shards_with, seal_shards, serialize_shard, serialize_with, AtRest, Checkpoint,
    CheckpointStore, StorageBreakdown,
};
use scrutiny_core::plan::plans_for;
use scrutiny_core::restart::capture_state;
use scrutiny_core::{
    verify_restart_from, Analyzer, DeltaPolicy, EngineHandle, LeafSite, MemBackend, Recorder,
    RestartConfig, ScrutinyApp, StorageBackend,
};
use scrutiny_npb::perturb_localized;
use scrutinyd::RemoteBackend;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, ms(t0.elapsed()))
}

/// Per-call ms of `f`, looped for `budget` with at least nine calls.
fn looped<R>(budget: Duration, mut f: impl FnMut() -> R) -> Vec<f64> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 9 || t0.elapsed() < budget {
        samples.push(timed(|| black_box(f())).1);
    }
    samples
}

fn mb_per_s(bytes: usize, per_call_ms: &[f64]) -> f64 {
    bytes as f64 / 1e6 / (median(per_call_ms) / 1e3)
}

/// One round of the `ad` and `npb` probes: every analysis app recorded
/// and swept once, times summed over the apps.
#[derive(Default)]
struct AdRound {
    run_f64_ms: f64,
    record_ms: f64,
    /// The value sweep alone at `threads = nproc`.
    value_ms: f64,
    reach_ms: f64,
    datadep_ms: f64,
    /// The value sweep alone at `threads = 1`, as every analysis runs it.
    serial_ms: f64,
    /// The sweeps as the analysis schedules them: concurrently in one
    /// scope on an unbounded tape, one after the other on a bounded one.
    together_ms: f64,
    nodes: usize,
    segments: usize,
    tape_bytes: usize,
    peak_resident: usize,
    replayed: u64,
}

fn ad_round(rig: &Rig) -> Res<AdRound> {
    let mut r = AdRound::default();
    // The value sweep alone at `nproc` threads — against the serial one
    // that is the parallel speed-up; every other sweep as the analysis
    // runs it.
    let par = SweepConfig { threads: nproc() };
    let cfg = SweepConfig {
        threads: rig.opts.threads,
    };
    let both = rig.w.analyzer == Analyzer::Both;
    for app in &rig.apps {
        let app: &dyn ScrutinyApp = app.as_ref();
        r.run_f64_ms += timed(|| black_box(capture_state(app))).1;

        let record = || {
            let session = TapeSession::with_config(TapeConfig {
                capacity: app.tape_capacity_hint(),
                segment_len: rig.opts.segment_len,
                node_limit: rig.opts.node_limit,
                checkpoint: rig.opts.tape_checkpoints,
            });
            let mut site = LeafSite::new();
            let out = app.run_ad(&mut site).output;
            (out, session.finish())
        };
        let ((out, tape), record_ms) = timed(record);
        r.record_ms += record_ms;
        let shape = tape.stats();
        r.nodes += shape.nodes;
        r.segments += shape.segments;
        r.tape_bytes += shape.bytes;

        if rig.w.bounded {
            // Must repeat the recording exactly, leaves included, or the
            // digest check refuses the re-recorded segments.
            let replay = || {
                let mut site = LeafSite::new();
                let _ = app.run_ad(&mut site);
            };
            // Value then reach on a fresh recording, as the analysis
            // runs them: the first sweep starts at the resident end of
            // the tape, the second has to replay its way back there.
            let (serial, serial_ms) = timed(|| tape.gradient_sweep_replay(out, cfg, &replay));
            let (reach, reach_ms) = timed(|| tape.reachable_sweep_replay(out, cfg, &replay));
            // The parallel sweep from the same start as the serial one.
            let (out, tape) = record();
            let (value, value_ms) = timed(|| tape.gradient_sweep_replay(out, par, &replay));
            value?;
            r.replayed += serial?.1.replayed_segments + reach?.1.replayed_segments;
            r.value_ms += value_ms;
            r.reach_ms += reach_ms;
            r.serial_ms += serial_ms;
            r.together_ms += serial_ms + reach_ms;
        } else {
            let (value, value_ms) = timed(|| tape.gradient_sweep(out, par));
            let (reach, reach_ms) = timed(|| tape.reachable_sweep(out, cfg));
            let (serial, serial_ms) = timed(|| tape.gradient_sweep(out, SweepConfig::serial()));
            value?;
            reach?;
            serial?;
            r.value_ms += value_ms;
            r.reach_ms += reach_ms;
            r.serial_ms += serial_ms;
            if both {
                let (dd, dd_ms) = timed(|| tape.datadep_sweep(out, cfg));
                dd?;
                r.datadep_ms += dd_ms;
            }
            let (swept, together_ms) = timed(|| {
                std::thread::scope(|scope| {
                    let reach = scope.spawn(|| tape.reachable_sweep(out, cfg).map(drop));
                    let dd = both.then(|| scope.spawn(|| tape.datadep_sweep(out, cfg).map(drop)));
                    let value = tape.gradient_sweep(out, cfg).map(drop);
                    let joined = |h: std::thread::ScopedJoinHandle<'_, _>| {
                        h.join().expect("a sweep panicked")
                    };
                    value.and(joined(reach)).and(dd.map_or(Ok(()), joined))
                })
            });
            swept?;
            r.together_ms += together_ms;
        }
        r.peak_resident = r.peak_resident.max(tape.peak_resident_bytes());
    }
    Ok(r)
}

/// `ad`, `npb` and the `core` analysis share: rounds of [`ad_round`]
/// until `budget` is spent (one to nine), medians over the rounds.
/// `analyze_ms` is the untraced analyze phase's median.
fn ad_probes(rig: &Rig, budget: Duration, analyze_ms: f64, v: &mut Values) -> Res<()> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || (rounds.len() < 9 && t0.elapsed() < budget) {
        rounds.push(ad_round(rig)?);
    }
    let med = |f: fn(&AdRound) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let last = rounds.last().expect("at least one round");
    let record_ms = med(|r| r.record_ms);
    let value_ms = med(|r| r.value_ms);
    let serial_ms = med(|r| r.serial_ms);
    let run_f64_ms = med(|r| r.run_f64_ms);

    v.set_n("ad.record_ms", record_ms, rounds.len());
    v.set(
        "ad.record_mnodes_s",
        last.nodes as f64 / 1e6 / (record_ms / 1e3),
    );
    v.set("ad.tape_nodes", last.nodes as f64);
    v.set("ad.tape_segments", last.segments as f64);
    v.set("ad.tape_mb", last.tape_bytes as f64 / 1e6);
    v.set_n("ad.sweep_value_ms", value_ms, rounds.len());
    v.set_n("ad.sweep_reach_ms", med(|r| r.reach_ms), rounds.len());
    v.set_n("ad.sweep_datadep_ms", med(|r| r.datadep_ms), rounds.len());
    v.set_n("ad.sweep_value_serial_ms", serial_ms, rounds.len());
    v.set("ad.sweep_par_speedup", serial_ms / value_ms);
    v.set(
        "ad.sweep_us_per_segment",
        serial_ms * 1e3 / last.segments as f64,
    );
    v.set("ad.peak_resident_mb", last.peak_resident as f64 / 1e6);
    v.set("ad.replayed_segments", last.replayed as f64);
    v.set(
        "ad.replay_ratio",
        last.replayed as f64 / last.segments as f64,
    );
    v.set("npb.run_f64_ms", run_f64_ms);
    v.set("npb.ad_slowdown", record_ms / run_f64_ms);
    v.set(
        "core.analysis_other_ms",
        analyze_ms - record_ms - med(|r| r.together_ms),
    );
    Ok(())
}

fn core_probes(rig: &Rig, each: Duration, v: &mut Values) -> Res<()> {
    let plan = looped(each, || plans_for(rig.mg_analysis(), rig.w.policy));
    v.set_n("core.plan_us", median(&plan) * 1e3, plan.len());
    let uncritical: usize = rig.reference[..rig.apps.len()]
        .iter()
        .map(|r| r.total_uncritical())
        .sum();
    v.set("core.uncritical_elems", uncritical as f64);

    let image = serialize_with(&rig.vars, &rig.plans, rig.codec.lo)?;
    let checkpoint = Checkpoint::from_bytes(&image.data, &image.aux)?;
    let cfg = RestartConfig {
        policy: rig.w.policy,
        fill: rig.fill(),
        store_dir: None,
    };
    let mut verify_ms = Vec::new();
    for _ in 0..3 {
        let (report, ms) = timed(|| {
            verify_restart_from(
                &rig.mg,
                rig.mg_analysis(),
                &cfg,
                &checkpoint,
                StorageBreakdown::default(),
            )
        });
        if !report?.verified {
            return Err("the restart-verify probe did not verify".into());
        }
        verify_ms.push(ms);
    }
    v.set_n(
        "core.restart_verify_ms",
        median(&verify_ms),
        verify_ms.len(),
    );
    Ok(())
}

/// The workload's engine over a private `MemBackend`, holding `epochs`
/// epochs of the (perturbed, on a delta workload) state: what the
/// restore probe reads back.
fn private_store(rig: &Rig, epochs: usize) -> Res<(Arc<MemBackend>, u64)> {
    let mem = Arc::new(MemBackend::new());
    let engine = EngineHandle::open(mem.clone(), rig.w.engine_config(Recorder::disabled()))?;
    let mut vars = rig.vars.clone();
    let mut newest = 0;
    for epoch in 0..epochs {
        if epoch > 0 {
            perturb_localized(&mut vars, epoch);
        }
        let ticket = engine.submit(&vars, &rig.plans)?;
        newest = ticket.version();
        engine.wait(ticket)?;
    }
    Ok((mem, newest))
}

fn ckpt_probes(rig: &Rig, each: Duration, v: &mut Values) -> Res<()> {
    let lo = rig.codec.lo;
    let image = serialize_with(&rig.vars, &rig.plans, lo)?.data;

    let t = looped(each, || serialize_with(&rig.vars, &rig.plans, lo));
    v.set_n(
        "ckpt.serialize_mb_s",
        mb_per_s(rig.state_bytes, &t),
        t.len(),
    );
    let t = looped(each, || crc32(&image));
    v.set_n("ckpt.crc_mb_s", mb_per_s(image.len(), &t), t.len());

    if rig.w.sharded {
        let t = looped(each, || {
            let plan = plan_shards_with(&rig.vars, &rig.plans, 4, lo).expect("valid plans");
            let shards = (0..plan.shard_count())
                .map(|i| serialize_shard(&rig.vars, &rig.plans, &plan, i).0)
                .collect();
            seal_shards(shards)
        });
        v.set_n(
            "ckpt.shard_serialize_mb_s",
            mb_per_s(rig.state_bytes, &t),
            t.len(),
        );
    }
    if rig.w.delta {
        let mut next = rig.vars.clone();
        perturb_localized(&mut next, 1);
        let next_image = serialize_with(&next, &rig.plans, lo)?.data;
        let page = DeltaPolicy::default().page_bytes;
        let (delta, stats) = diff_images(&image, &next_image, 0, page)?;
        let t = looped(each, || diff_images(&image, &next_image, 0, page));
        v.set_n("ckpt.diff_mb_s", mb_per_s(next_image.len(), &t), t.len());
        v.set(
            "ckpt.dirty_pages_pct",
            100.0 * stats.dirty_pages as f64 / stats.total_pages as f64,
        );
        let t = looped(each, || apply_delta(&image, &delta));
        v.set_n("ckpt.apply_delta_mb_s", mb_per_s(image.len(), &t), t.len());
    }
    if rig.codec.at_rest != AtRest::None {
        let stored = compress(&image, rig.codec.at_rest);
        let t = looped(each, || compress(&image, rig.codec.at_rest));
        v.set_n("ckpt.compress_mb_s", mb_per_s(image.len(), &t), t.len());
        let t = looped(each, || decompress(&stored));
        v.set_n("ckpt.decompress_mb_s", mb_per_s(image.len(), &t), t.len());
        v.set(
            "ckpt.compress_ratio",
            stored.len() as f64 / image.len() as f64,
        );
    }

    let (mem, newest) = private_store(rig, if rig.w.delta { 5 } else { 1 })?;
    let fetch = |name: &str| mem.get(name);
    for (name, threads) in [
        ("ckpt.restore_mb_s", nproc()),
        ("ckpt.restore_serial_mb_s", 1),
    ] {
        let opts = RestoreOptions { threads };
        let bytes = read_data_image_parallel(newest, &fetch, &opts)?.0.len();
        let t = looped(each, || read_data_image_parallel(newest, &fetch, &opts));
        v.set_n(name, mb_per_s(bytes, &t), t.len());
    }
    Ok(())
}

/// A blocking `CheckpointStore::save` of the same state, per call in ms:
/// what `submit` is budgeted against (< 10 %).
fn blocking_save_ms(rig: &Rig, budget: Duration) -> Res<f64> {
    let dir = out_dir().join(format!("tmp-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let saved = (|| -> Res<Vec<f64>> {
        let mut store = CheckpointStore::open(&dir, 2)?.with_codec(rig.codec)?;
        store.save(&rig.vars, &rig.plans)?;
        Ok(looped(budget, || {
            store.save(&rig.vars, &rig.plans).expect("blocking save")
        }))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(median(&saved?))
}

/// Wire probes against the workload's live daemon (if it has one), as a
/// tenant of their own so the benchmark's chain is untouched.
fn scrutinyd_probes(rig: &Rig, each: Duration, v: &mut Values) -> Res<()> {
    let Some(endpoint) = rig.endpoint.clone() else {
        return Ok(());
    };
    let remote = RemoteBackend::connect(endpoint, Some(Tenant::new("probe")?))?;
    let t = looped(each, || remote.ping().expect("ping"));
    v.set_n("scrutinyd.ping_p50_us", median(&t) * 1e3, t.len());
    v.set_n("scrutinyd.ping_p99_us", percentile(&t, 99.0) * 1e3, t.len());

    let small = [0xA5u8; 64];
    let t = looped(each, || {
        remote.put("probe_small.aux.tmp", &small).expect("put")
    });
    v.set_n("scrutinyd.put_small_p50_us", median(&t) * 1e3, t.len());
    v.set_n(
        "scrutinyd.put_small_p99_us",
        percentile(&t, 99.0) * 1e3,
        t.len(),
    );
    remote.delete("probe_small.aux.tmp")?;

    let big = vec![0xA5u8; 4 << 20];
    let t = looped(each, || remote.put("probe_big.aux.tmp", &big).expect("put"));
    v.set_n("scrutinyd.put_4mib_mb_s", mb_per_s(big.len(), &t), t.len());
    let t = looped(each, || remote.get("probe_big.aux.tmp").expect("get"));
    v.set_n("scrutinyd.get_4mib_mb_s", mb_per_s(big.len(), &t), t.len());
    remote.delete("probe_big.aux.tmp")?;
    Ok(())
}

/// Run every probe within roughly `budget`; `analyze_ms` and
/// `submit_p50_us` come from the untraced phases of the same run.
pub fn run(
    rig: &Rig,
    budget: Duration,
    analyze_ms: f64,
    submit_p50_us: f64,
    v: &mut Values,
) -> Res<()> {
    // ~20 looped kernels share half the budget; the AD rounds, whose
    // single calls are the longest, get the other half.
    let each = budget / 40;
    ad_probes(rig, budget / 2, analyze_ms, v)?;
    core_probes(rig, each, v)?;
    ckpt_probes(rig, each, v)?;
    let save_ms = blocking_save_ms(rig, each)?;
    v.set(
        "engine.submit_pct_of_blocking_save",
        100.0 * (submit_p50_us / 1e3) / save_ms,
    );
    scrutinyd_probes(rig, each, v)
}
