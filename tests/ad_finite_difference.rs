//! End-to-end gradient validation: the reverse-mode derivative of each
//! benchmark's output with respect to a checkpointed element must match
//! central finite differences computed through the *restart* machinery —
//! the strongest cross-check of analysis + capture + restore together.

use scrutiny_core::{
    restart_cycle, scrutinize, CheckpointSource, FillPolicy, Policy, RestartConfig, ScrutinyApp,
    VarData,
};
use scrutiny_npb::{Bt, Cg};

/// Output after perturbing element `idx` of float variable `var_i` by `d`.
fn perturbed_output(
    app: &dyn ScrutinyApp,
    analysis: &scrutiny_core::AnalysisReport,
    var_i: usize,
    idx: usize,
    d: f64,
) -> f64 {
    let cfg = RestartConfig {
        policy: Policy::Full,
        fill: FillPolicy::Zero,
        store_dir: None,
    };
    let report = restart_cycle(
        app,
        analysis,
        &cfg,
        CheckpointSource::Blocking,
        |bufs, _| {
            if let VarData::F64(v) = &mut bufs[var_i] {
                v[idx] += d;
            }
        },
    )
    .unwrap();
    report.restarted
}

fn check_gradients(app: &dyn ScrutinyApp, var_i: usize, indices: &[usize], tol: f64) {
    let analysis = scrutinize(app).unwrap();
    let crit = &analysis.vars[var_i];
    for &idx in indices {
        let g = crit.grad_mag[idx];
        let h = 1e-5;
        let plus = perturbed_output(app, &analysis, var_i, idx, h);
        let minus = perturbed_output(app, &analysis, var_i, idx, -h);
        let fd = ((plus - minus) / (2.0 * h)).abs();
        let denom = fd.abs().max(g).max(1e-12);
        assert!(
            (fd - g).abs() / denom < tol,
            "{}[{}][{}]: reverse {g:.6e} vs finite difference {fd:.6e}",
            analysis.app.name,
            crit.spec.name,
            idx
        );
    }
}

#[test]
fn bt_gradients_match_finite_differences() {
    // A few interior u elements plus one uncritical padding element.
    let app = Bt::mini();
    let interior = ((6 * 13 + 6) * 13 + 6) * 5; // u[6][6][6][0]
    let pad = ((6 * 13 + 12) * 13 + 3) * 5; // u[6][12][3][0] — dead plane
    check_gradients(&app, 0, &[interior, interior + 4, pad], 1e-3);
}

#[test]
fn cg_gradients_match_finite_differences() {
    let app = Cg::mini();
    let na = app.na;
    check_gradients(&app, 0, &[0, na / 2, na, na + 1], 1e-3);
}
