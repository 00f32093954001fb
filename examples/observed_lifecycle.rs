//! The whole lifecycle — record → sweep → analyze → submit → publish →
//! corrupt → recover — under one live recorder, exported three ways:
//! a JSONL event log (`obs_events.jsonl`, the machine-readable form the
//! CI schema gate validates), an SVG span timeline
//! (`obs_timeline.svg`), and the one-page text snapshot on stdout.
//!
//! Run with: `cargo run --release --example observed_lifecycle [out_dir]`

use scrutiny_core::{
    scrutinize_with, EngineConfig, EngineHandle, MemBackend, Policy, RecoveryWalk, ScrutinyOptions,
};
use scrutiny_faultinj::StorageScenario;
use scrutiny_npb::{burn_in, BurnIn, Cg, Drift};
use scrutiny_obs::Recorder;
use scrutiny_viz::timeline_svg;
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let out: PathBuf = std::env::args().nth(1).unwrap_or_else(|| ".".into()).into();
    let rec = Recorder::with_capacity(1 << 16);

    // Record → sweep → analyze, reporting into the shared recorder.
    let app = Cg::mini();
    let analysis = scrutinize_with(
        &app,
        &ScrutinyOptions {
            recorder: rec.clone(),
            ..Default::default()
        },
    )
    .unwrap();

    // Burn in a few epochs through the async engine...
    let engine = EngineHandle::open(
        Arc::new(MemBackend::new()),
        EngineConfig {
            recorder: rec.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    // ...then damage the newest checkpoint and recover through the
    // fallback scan. Every step lands in the same event ring.
    let run = BurnIn {
        drift: Drift::Uncritical,
        fault: Some(StorageScenario::FlippedPayloadByte),
        recorder: rec.clone(),
        ..BurnIn::new(3, Policy::PrunedValue)
    };
    let report = burn_in(&app, &analysis, &engine, &run).unwrap();
    let recovery = report.recovery.expect("a fault was injected");

    let snap = rec.snapshot();
    std::fs::create_dir_all(&out).unwrap();
    let jsonl_path = out.join("obs_events.jsonl");
    snap.write_jsonl(&jsonl_path).unwrap();
    let svg_path = out.join("obs_timeline.svg");
    std::fs::write(&svg_path, timeline_svg(&snap.spans(), 1200)).unwrap();

    print!("{}", snap.render_text());
    let walk = RecoveryWalk::from_snapshot(&snap);
    println!(
        "damaged {}; recovery walked {:?}, rejected {:?}, recovered v{}",
        recovery.damaged, walk.candidates, walk.rejected, recovery.recovered_version
    );
    println!(
        "restart verified: {} (rel_err {:.2e})",
        report.verified, report.rel_err
    );
    println!("wrote {} and {}", jsonl_path.display(), svg_path.display());
}
