//! Full pipeline (analyze → plan → checkpoint → restart → verify) for
//! every AD-analyzable NPB benchmark at reduced scale.

use scrutiny_core::{
    checkpoint_restart_cycle, scrutinize, EngineConfig, EngineHandle, FillPolicy, MemBackend,
    Policy, RestartConfig, ScrutinyApp, ScrutinyOptions, TapeCheckpointConfig,
};
use scrutiny_integration::{first_divergence, scrutinize_bounded_vs_unbounded};
use scrutiny_npb::{burn_in, Bt, BurnIn, Cg, Ep, Ft, Lu, Mg, Sp};
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

#[test]
fn every_benchmark_restarts_from_pruned_checkpoint() {
    for app in minis() {
        let analysis = scrutinize(app.as_ref()).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedValue,
            fill: FillPolicy::Garbage(1),
            store_dir: None,
        };
        let report = checkpoint_restart_cycle(app.as_ref(), &analysis, &cfg).unwrap();
        assert!(
            report.verified,
            "{} failed to verify after restart (rel err {})",
            analysis.app.name, report.rel_err
        );
    }
}

#[test]
fn structural_policy_also_restarts() {
    for app in minis() {
        let analysis = scrutinize(app.as_ref()).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedStructural,
            fill: FillPolicy::Sentinel(1e20),
            store_dir: None,
        };
        let report = checkpoint_restart_cycle(app.as_ref(), &analysis, &cfg).unwrap();
        assert!(report.verified, "{}", analysis.app.name);
    }
}

#[test]
fn pruned_is_never_larger_in_payload() {
    for app in minis() {
        let analysis = scrutinize(app.as_ref()).unwrap();
        let cfg = RestartConfig::default();
        let report = checkpoint_restart_cycle(app.as_ref(), &analysis, &cfg).unwrap();
        assert!(
            report.storage.payload_bytes <= report.full_storage.payload_bytes,
            "{}",
            analysis.app.name
        );
    }
}

#[test]
fn forced_eviction_burn_in_is_bit_identical_to_unbounded() {
    // The ISSUE's acceptance bar: a burn-in whose analysis tape budget is
    // less than a tenth of the unbounded recording — so the sweeps MUST
    // evict and replay — still produces a bit-identical analysis and a
    // verifying multi-epoch restart. CG mini records ~5·10⁴ nodes; two
    // resident segments of 256 nodes is a 12.8 kB budget against a
    // recording of over half a megabyte.
    let app = Cg::mini();
    let engine = EngineHandle::open(Arc::new(MemBackend::new()), EngineConfig::default()).unwrap();
    let opts = ScrutinyOptions {
        segment_len: 256,
        ..ScrutinyOptions::default()
    };
    let ckpt = TapeCheckpointConfig::with_ncheckpoints(2);
    let (unbounded, bounded) = scrutinize_bounded_vs_unbounded(&app, &opts, ckpt).unwrap();
    assert_eq!(first_divergence(&unbounded, &bounded), None);
    let budget_bytes = ckpt.budget_bytes(256, bounded.tape_stats.segments);
    // The budget is charged by segment reservation; the recording is
    // measured encoded, which is smaller still.
    assert!(
        budget_bytes * 10 < unbounded.tape_stats.bytes,
        "budget ({}) must be under a tenth of the encoded recording ({})",
        budget_bytes,
        unbounded.tape_stats.bytes
    );
    assert!(
        bounded.tape_stats.peak_resident_bytes <= budget_bytes,
        "peak residency ({}) exceeded the budget ({})",
        bounded.tape_stats.peak_resident_bytes,
        budget_bytes
    );
    assert!(
        bounded.tape_stats.replayed_segments > 0,
        "eviction must force replays"
    );
    // The bounded maps drive the ordinary multi-epoch engine burn-in.
    let run = BurnIn::new(3, Policy::PrunedValue);
    let report = burn_in(&app, &bounded, &engine, &run).unwrap();
    assert!(
        report.verified,
        "restart from bounded-analysis maps failed (rel err {})",
        report.rel_err
    );
}

#[test]
fn uninterrupted_equals_restarted_bit_exactly_for_full_policy() {
    for app in minis() {
        let analysis = scrutinize(app.as_ref()).unwrap();
        let cfg = RestartConfig {
            policy: Policy::Full,
            ..Default::default()
        };
        let report = checkpoint_restart_cycle(app.as_ref(), &analysis, &cfg).unwrap();
        assert_eq!(report.abs_err, 0.0, "{}", analysis.app.name);
    }
}
