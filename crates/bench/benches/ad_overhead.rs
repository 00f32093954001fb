//! A3 bench: what tape recording costs relative to a native run, what
//! constant folding buys (EP's random stream stays off the tape), and —
//! since the segmented-tape refactor — what segmentation costs at record
//! time and what the parallel frontier-merge sweep buys over the serial
//! seed sweep.
//!
//! The explicit section at the end reports measured numbers directly:
//! record throughput (nodes/s) for the seed-like monolithic layout vs the
//! segmented default, and value-sweep time serial vs parallel (the two are
//! bit-identical, so the delta is pure scheduling). On a single-core
//! container the parallel sweep degenerates to a measurement of frontier
//! overhead; on multi-core hardware it reports the real speedup.
//!
//! Run with: `cargo bench -p scrutiny-bench --bench ad_overhead`

use criterion::{criterion_group, Criterion};
use scrutiny_ad::{SweepConfig, Tape, TapeCheckpointConfig, TapeConfig, TapeReplay, TapeSession};
use scrutiny_core::site::NoopSite;
use scrutiny_core::{record_resumable, LeafSite, ScrutinyApp};
use scrutiny_npb::{Bt, Ep};
use std::time::Instant;

/// Record `app` once and return its tape plus the output node.
fn record(app: &dyn ScrutinyApp, segment_len: usize) -> (scrutiny_ad::Adj, Tape) {
    record_bounded(app, segment_len, None)
}

/// [`record`] under an optional tape residency budget.
fn record_bounded(
    app: &dyn ScrutinyApp,
    segment_len: usize,
    checkpoint: Option<TapeCheckpointConfig>,
) -> (scrutiny_ad::Adj, Tape) {
    let s = TapeSession::with_config(TapeConfig {
        capacity: app.tape_capacity_hint(),
        segment_len,
        checkpoint,
        ..TapeConfig::default()
    });
    let mut site = LeafSite::new();
    let out = app.run_ad(&mut site);
    (out.output, s.finish())
}

fn bench(c: &mut Criterion) {
    let bt = Bt::mini();
    let mut g = c.benchmark_group("ad_overhead");
    g.sample_size(10);
    g.bench_function("bt_mini_f64", |b| b.iter(|| bt.run_f64(&mut NoopSite)));
    g.bench_function("bt_mini_record", |b| {
        b.iter(|| {
            let s = TapeSession::with_capacity(bt.tape_capacity_hint());
            let out = bt.run_ad(&mut NoopSite);
            let tape = s.finish();
            (out.output.value(), tape.len())
        })
    });
    g.bench_function("bt_mini_record_and_sweep", |b| {
        b.iter(|| {
            let s = TapeSession::with_capacity(bt.tape_capacity_hint());
            let mut site = scrutiny_core::LeafSite::new();
            let out = bt.run_ad(&mut site);
            let tape = s.finish();
            tape.gradient(out.output).unwrap().len()
        })
    });
    let (out, tape) = record(&bt, scrutiny_ad::DEFAULT_SEGMENT_LEN.min(1 << 14));
    g.bench_function("bt_mini_sweep_serial", |b| {
        b.iter(|| {
            tape.gradient_sweep(out, SweepConfig::serial())
                .unwrap()
                .0
                .len()
        })
    });
    g.bench_function("bt_mini_sweep_parallel", |b| {
        b.iter(|| {
            tape.gradient_sweep(out, SweepConfig::default())
                .unwrap()
                .0
                .len()
        })
    });
    let ep = Ep::mini();
    g.bench_function("ep_mini_f64", |b| b.iter(|| ep.run_f64(&mut NoopSite)));
    g.bench_function("ep_mini_record_constfold", |b| {
        b.iter(|| {
            let s = TapeSession::new();
            let out = ep.run_ad(&mut NoopSite);
            let tape = s.finish();
            (out.output.value(), tape.len())
        })
    });
    g.finish();
}

/// Median-of-N wall-clock seconds for `f`.
fn measure<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The explicit measured comparison the segmented-tape refactor is judged
/// by: record throughput segmented vs seed-like monolithic layout, and
/// sweep time parallel vs serial.
fn report_segmented_vs_seed() {
    let bt = Bt::mini();
    let hint = bt.tape_capacity_hint();

    // Seed-equivalent layout: one monolithic segment, fully pre-reserved —
    // the best case the contiguous seed tape could ever achieve (its worst
    // case, a mid-kernel realloc copy, cannot happen on the segmented tape
    // at all).
    let t_mono = measure(5, || {
        let s = TapeSession::with_config(TapeConfig {
            capacity: hint,
            segment_len: hint.next_power_of_two(),
            ..TapeConfig::default()
        });
        bt.run_ad(&mut NoopSite);
        s.finish().len()
    });
    let t_seg = measure(5, || {
        let s = TapeSession::with_capacity(hint);
        bt.run_ad(&mut NoopSite);
        s.finish().len()
    });

    let (out, tape) = record(&bt, 1 << 14);
    let nodes = tape.len();
    let t_serial = measure(5, || {
        tape.gradient_sweep(out, SweepConfig::serial())
            .unwrap()
            .0
            .len()
    });
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2);
    let (_, stats) = tape
        .gradient_sweep(out, SweepConfig::with_threads(threads))
        .unwrap();
    let t_par = measure(5, || {
        tape.gradient_sweep(out, SweepConfig::with_threads(threads))
            .unwrap()
            .0
            .len()
    });

    println!("\n== segmented tape vs seed layout (BT mini, {nodes} nodes) ==");
    println!(
        "record throughput  monolithic {:>8.1} Mnodes/s   segmented {:>8.1} Mnodes/s   ({:+.1}%)",
        nodes as f64 / t_mono / 1e6,
        nodes as f64 / t_seg / 1e6,
        100.0 * (t_mono / t_seg - 1.0),
    );
    println!(
        "value sweep        serial     {:>8.2} ms         parallel  {:>8.2} ms         speedup {:.2}x",
        t_serial * 1e3,
        t_par * 1e3,
        t_serial / t_par,
    );
    println!(
        "parallel sweep: {} segments, {} threads, {} cross-segment frontier contributions",
        stats.segments, stats.threads, stats.cross_contribs
    );
}

/// What bounded tape residency costs: record throughput and value-sweep
/// time at a few checkpoint budgets against the unbounded tape, with the
/// peak resident bytes each budget actually reached — once replaying
/// evicted windows by re-running the app from its start (a closure), once
/// by resuming the step snapshots `record_resumable` keeps inside the
/// same budget. `replayed_nodes / nodes` is the recompute each schedule
/// pays for the O(ncheckpoints · segment) memory bound, `sweep gap` its
/// price in time against the unbounded sweep.
fn report_checkpointed(summary: &scrutiny_bench::BenchSummary) {
    const SEG: usize = 1 << 14;
    let bt = Bt::mini();
    // Must mirror the recording run exactly (leaves included), or the
    // digest check will refuse the re-recorded segments.
    let program_start = || {
        let mut site = LeafSite::new();
        bt.run_ad(&mut site);
    };

    let (out, full) = record(&bt, SEG);
    let nodes = full.len();
    let segments = full.segment_count();
    let t_record_full = measure(5, || record(&bt, SEG).1.len());
    let t_sweep_full = measure(5, || {
        full.gradient_sweep(out, SweepConfig::serial())
            .unwrap()
            .0
            .len()
    });
    summary.set_value(
        "ad.ckpt.unbounded.peak_resident_bytes",
        full.peak_resident_bytes() as i64,
    );
    summary.set_value("ad.ckpt.unbounded.sweep_us", (t_sweep_full * 1e6) as i64);

    println!("\n== bounded-memory tape (BT mini, {nodes} nodes, {segments} segments) ==");
    println!(
        "unbounded          record {:>8.1} Mnodes/s   sweep {:>8.2} ms   peak {:>10} B",
        nodes as f64 / t_record_full / 1e6,
        t_sweep_full * 1e3,
        full.peak_resident_bytes(),
    );
    for (label, ckpt) in [
        ("auto", TapeCheckpointConfig::auto()),
        ("n=4", TapeCheckpointConfig::with_ncheckpoints(4)),
        ("n=2", TapeCheckpointConfig::with_ncheckpoints(2)),
    ] {
        let cfg = TapeConfig {
            capacity: bt.tape_capacity_hint(),
            segment_len: SEG,
            checkpoint: Some(ckpt),
            ..TapeConfig::default()
        };
        let n = ckpt.resolved(segments);
        let t_record = measure(5, || record_resumable(&bt, cfg).2.len());
        let (outcome, _, tape, resumable) = record_resumable(&bt, cfg);
        let (_, closure_tape) = record_bounded(&bt, SEG, Some(ckpt));
        let replayers: [(&str, &Tape, &dyn TapeReplay); 2] = [
            ("", &closure_tape, &program_start),
            (".resumable", &tape, &resumable),
        ];
        for (suffix, tape, replay) in replayers {
            let sweep = || {
                tape.gradient_sweep_replay(outcome.output, SweepConfig::serial(), replay)
                    .unwrap()
                    .1
            };
            let stats = sweep();
            let t_sweep = measure(3, || sweep().segments);
            println!(
                "ncheckpoints={n:<3} ({label}{suffix:<10}) record {:>6.1} Mnodes/s   sweep {:>8.2} ms   \
                 gap {:>5.2}x   peak {:>9} B   replayed {:>5.2}x nodes, {} segments",
                nodes as f64 / t_record / 1e6,
                t_sweep * 1e3,
                t_sweep / t_sweep_full,
                stats.peak_resident_bytes,
                stats.replayed_nodes as f64 / nodes as f64,
                stats.replayed_segments,
            );
            let key = |m: &str| format!("ad.ckpt.{label}{suffix}.{m}");
            summary.set_value(
                &key("peak_resident_bytes"),
                stats.peak_resident_bytes as i64,
            );
            summary.set_value(
                &key("record_nodes_per_sec"),
                (nodes as f64 / t_record) as i64,
            );
            summary.set_value(&key("sweep_us"), (t_sweep * 1e6) as i64);
            summary.set_value(&key("replayed_segments"), stats.replayed_segments as i64);
            summary.set_value(&key("replayed_nodes"), stats.replayed_nodes as i64);
        }
    }
}

criterion_group!(benches, bench);

fn main() {
    benches();
    let summary = scrutiny_bench::BenchSummary::new("ad_overhead");
    summary.absorb_criterion();
    // The explicit measurement is expensive (several full records and
    // sweeps); skip it when the harness is only being enumerated or run
    // in test mode (`cargo bench -- --list`, `cargo test --benches`).
    let enumerating = std::env::args().any(|a| a == "--list" || a == "--test");
    if !enumerating {
        report_segmented_vs_seed();
        report_checkpointed(&summary);
    }
    summary.write_and_report();
}
