//! Ablation A3: three AD-layer comparisons no `BENCHMARK.json` metric
//! carries, as plain text — what constant folding keeps off EP's tape,
//! what segmentation costs at record time against one monolithic segment,
//! and what a bounded tape residency costs (peak resident bytes, sweep gap
//! against the unbounded sweep, replayed nodes) when evicted windows are
//! replayed from program start vs from `record_resumable`'s step snapshots,
//! on BT's many short steps and on CG's few long ones.

use scrutiny_ad::{
    Adj, Kernel, SweepRequest, SweepStats, Tape, TapeCheckpointConfig, TapeConfig, TapeReplay,
    TapeSession,
};
use scrutiny_core::site::NoopSite;
use scrutiny_core::{record_resumable, LeafSite, ScrutinyApp};
use scrutiny_npb::{Bt, Cg, Ep};
use std::time::Instant;

const SEG: usize = 1 << 14;

/// Median-of-`reps` wall-clock seconds for `f`.
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

/// Record `app`, leaves planted, by running it from its start.
fn record(app: &dyn ScrutinyApp, cfg: TapeConfig) -> (Adj, Tape) {
    let s = TapeSession::with_config(cfg);
    let out = app.run_ad(&mut LeafSite::new());
    (out.output, s.finish())
}

/// Serial value sweep of `tape`, re-recording evicted windows with `replay`.
fn sweep(tape: &Tape, output: Adj, replay: Option<&dyn TapeReplay>) -> SweepStats {
    let req = SweepRequest {
        kernels: &[Kernel::Value],
        threads: 1,
        replay,
        ..SweepRequest::default()
    };
    let swept = tape.sweep(output, &req).expect("sweep");
    swept.value.expect("value kernel was requested").1
}

fn main() {
    let ep = Ep::mini();
    let t_f64 = measure(5, || ep.run_f64(&mut NoopSite));
    let t_ad = measure(5, || record(&ep, TapeConfig::default()).1.len());
    println!(
        "EP mini constant folding: f64 run {:.2} ms, AD run {:.2} ms recording {} nodes",
        t_f64 * 1e3,
        t_ad * 1e3,
        record(&ep, TapeConfig::default()).1.len(),
    );

    let bt = Bt::mini();
    let config = |segment_len, checkpoint| TapeConfig {
        capacity: bt.tape_capacity_hint(),
        segment_len,
        checkpoint,
        ..TapeConfig::default()
    };
    let (out, full) = record(&bt, config(SEG, None));
    let (nodes, segments) = (full.len(), full.segment_count());
    let mnodes_s = |secs: f64| nodes as f64 / secs / 1e6;

    // One monolithic, fully pre-reserved segment is the best case a
    // contiguous tape could achieve; the segmented default never reallocs.
    let record_with = |seg: usize| measure(5, || record(&bt, config(seg, None)).1.len());
    let t_mono = record_with(bt.tape_capacity_hint().next_power_of_two());
    let t_seg = record_with(scrutiny_ad::DEFAULT_SEGMENT_LEN);
    println!("\n== segmented tape vs one monolithic segment (BT mini, {nodes} nodes) ==");
    println!(
        "record throughput  monolithic {:>8.1} Mnodes/s   segmented {:>8.1} Mnodes/s   ({:+.1}%)",
        mnodes_s(t_mono),
        mnodes_s(t_seg),
        100.0 * (t_mono / t_seg - 1.0),
    );

    let t_record_full = record_with(SEG);
    let t_sweep_full = measure(5, || sweep(&full, out, None).segments);
    println!("\n== bounded-memory tape (BT mini, {nodes} nodes, {segments} segments) ==");
    println!(
        "unbounded          record {:>8.1} Mnodes/s   sweep {:>8.2} ms   peak {:>10} B",
        mnodes_s(t_record_full),
        t_sweep_full * 1e3,
        full.peak_resident_bytes(),
    );
    // Must mirror `record` exactly (leaves included), or the digest check
    // refuses the re-recorded segments.
    let program_start = || {
        bt.run_ad(&mut LeafSite::new());
    };
    for (label, ckpt) in [
        ("auto", TapeCheckpointConfig::auto()),
        ("n=4", TapeCheckpointConfig::with_ncheckpoints(4)),
        ("n=2", TapeCheckpointConfig::with_ncheckpoints(2)),
    ] {
        let cfg = config(SEG, Some(ckpt));
        let t_record = measure(5, || record_resumable(&bt, cfg).2.len());
        let (outcome, _, ladder_tape, ladder) = record_resumable(&bt, cfg);
        let (_, closure_tape) = record(&bt, cfg);
        let replayers: [(&str, &Tape, &dyn TapeReplay); 2] = [
            ("", &closure_tape, &program_start),
            (".resumable", &ladder_tape, &ladder),
        ];
        for (suffix, tape, replay) in replayers {
            let stats = sweep(tape, outcome.output, Some(replay));
            let t_sweep = measure(3, || sweep(tape, outcome.output, Some(replay)).segments);
            println!(
                "ncheckpoints={:<3} ({label}{suffix:<10}) record {:>6.1} Mnodes/s   sweep {:>8.2} ms   \
                 gap {:>5.2}x   peak {:>9} B   replayed {:>5.2}x nodes, {} segments",
                ckpt.resolved(segments),
                mnodes_s(t_record),
                t_sweep * 1e3,
                t_sweep / t_sweep_full,
                stats.peak_resident_bytes,
                stats.replayed_nodes as f64 / nodes as f64,
                stats.replayed_segments,
            );
        }
    }

    // CG's few long steps: one outer step spans about 22 default-length
    // segments of the class-S tape, and its inner conjugate-gradient
    // iterations are the resume points that keep a window's replay short.
    let cg = Cg::class_s();
    let config = |checkpoint| TapeConfig {
        capacity: cg.tape_capacity_hint(),
        checkpoint,
        ..TapeConfig::default()
    };
    let (out, full) = record(&cg, config(None));
    let t_sweep_full = measure(3, || sweep(&full, out, None).segments);
    let ckpt = TapeCheckpointConfig::with_ncheckpoints(2);
    let (outcome, _, tape, ladder) = record_resumable(&cg, config(Some(ckpt)));
    let stats = sweep(&tape, outcome.output, Some(&ladder));
    let t_sweep = measure(3, || sweep(&tape, outcome.output, Some(&ladder)).segments);
    println!(
        "\n== bounded-memory tape (CG class S, {} nodes, {} segments) ==",
        tape.len(),
        tape.segment_count()
    );
    println!(
        "ncheckpoints=2   (n=2.resumable) sweep {:>8.2} ms   gap {:>5.2}x   peak {:>9} B   \
         replayed {:>5.2}x nodes, {} segments",
        t_sweep * 1e3,
        t_sweep / t_sweep_full,
        stats.peak_resident_bytes,
        stats.replayed_nodes as f64 / tape.len() as f64,
        stats.replayed_segments,
    );
}
