//! Adversarial non-smooth regression cases: the AD pitfalls catalogued by
//! Hückelheim et al. (PAPERS.md), each as a tiny `ScrutinyApp` with
//! hand-derived expected verdicts for *both* analyzers.
//!
//! Every case documents one divergence mode by name:
//!
//! * `max_loser` / `min_loser` — the losing operand of `rmax`/`rmin` gets
//!   a zero partial but a recorded edge: AD drops it, datadep keeps it.
//! * `tracked_zero_factor` — multiplying by a tracked zero value kills
//!   the adjoint, not the dependence.
//! * `exact_cancellation` — `x·y − y·x` style cancellation zeroes the
//!   adjoint along two live paths.
//! * `abs_kink` — `|x|` at exactly 0 records a zero partial at the kink.
//! * `branch_untaken_arm` — a primal-value branch is invisible to BOTH
//!   analyzers: the untaken arm records nothing and the steering value is
//!   read outside the tape. The test demonstrates the shared blind spot
//!   by corrupting the steering element and watching restart verification
//!   fail — the reason the paper freezes control flow and this repo pins
//!   integer control state as always-critical.
//!
//! In every divergent case the datadep verdict errs toward keeping data
//! (the safe direction), which `assert_safety_invariant` re-proves here
//! on tapes where the expected disagreement is known exactly.

use scrutiny_core::{
    checkpoint_restart_cycle, restart_cycle, scrutinize, scrutinize_with, Analyzer, AppRun,
    AppSpec, Bitmap, CheckpointSource, DisagreementKind, FillPolicy, Policy, Real, RestartConfig,
    ScrutinyApp, ScrutinyOptions, VarData, VarRefMut, VarSpec,
};
use scrutiny_faultinj::CountingAlloc;
use scrutiny_integration::{
    assert_safety_invariant, assert_step_contract, differential_case, explain,
};

/// Lets the step contract weigh every fork against its `snapshot_bytes`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Which pitfall dataflow the app records.
#[derive(Clone, Copy, Debug)]
enum Kind {
    MaxLoser,
    MinLoser,
    TrackedZeroFactor,
    ExactCancellation,
    AbsKink,
    BranchUntakenArm,
}

/// A single-variable app whose entire run is one pitfall-shaped
/// expression over the checkpointed elements.
struct Pitfall {
    kind: Kind,
}

impl Pitfall {
    fn init(&self) -> Vec<f64> {
        match self.kind {
            Kind::MaxLoser => vec![5.0, 2.0, 1.0],
            Kind::MinLoser => vec![5.0, 2.0],
            Kind::TrackedZeroFactor => vec![3.0, 0.0],
            Kind::ExactCancellation => vec![2.0, 3.0],
            Kind::AbsKink => vec![0.0, 1.0],
            Kind::BranchUntakenArm => vec![1.0, 2.0, 3.0],
        }
    }

    fn start<R: Real>(&self) -> Box<PitfallRun<R>> {
        Box::new(PitfallRun {
            kind: self.kind,
            x: self.init().iter().map(|&v| R::lit(v)).collect(),
            output: R::zero(),
        })
    }
}

/// The degenerate step protocol: one step, which is the whole expression.
#[derive(Clone)]
struct PitfallRun<R> {
    kind: Kind,
    x: Vec<R>,
    output: R,
}

impl<'a, R: Real + 'a> AppRun<'a, R> for PitfallRun<R> {
    fn step(&mut self, _iter: usize) -> bool {
        let x = &self.x;
        self.output = match self.kind {
            // max(5, 2): x[1] loses — zero partial, recorded edge.
            Kind::MaxLoser => x[0].rmax(x[1]) * 2.0 + x[2],
            // min(5, 2): x[0] loses.
            Kind::MinLoser => x[0].rmin(x[1]) * 3.0 + 1.0,
            // ∂/∂x0 = x1 = 0: the dependence survives, the adjoint dies.
            Kind::TrackedZeroFactor => x[0] * x[1] + x[1],
            // ∂/∂x0 = x1 − x1 = 0 exactly, along two live paths.
            Kind::ExactCancellation => x[0] * x[1] - x[1] * x[0] + x[1],
            // |x| at the kink records partial 0.
            Kind::AbsKink => x[0].abs() + x[1],
            // The branch reads a primal value: nothing of x[0] is on the
            // tape, and the untaken arm (x[2]) records nothing at all.
            Kind::BranchUntakenArm => {
                if x[0].value() > 0.0 {
                    x[1] * 2.0
                } else {
                    x[2] * 3.0
                }
            }
        };
        true
    }

    fn vars(&mut self, _iter: usize) -> Vec<VarRefMut<'_, R>> {
        vec![VarRefMut::F64(&mut self.x)]
    }

    fn output(&self) -> R {
        self.output
    }

    fn fork(&self) -> Box<dyn AppRun<'a, R> + 'a> {
        Box::new(self.clone())
    }

    fn snapshot_bytes(&self) -> usize {
        std::mem::size_of_val(self) + std::mem::size_of_val(&self.x[..])
    }
}

impl ScrutinyApp for Pitfall {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: format!("{:?}", self.kind).to_uppercase(),
            class: "pitfall".into(),
            vars: vec![VarSpec::f64("x", &[self.init().len()])],
        }
    }

    fn steps(&self) -> std::ops::RangeInclusive<usize> {
        0..=0
    }

    fn checkpoint_iter(&self) -> usize {
        0
    }

    fn start_f64(&self) -> Box<dyn AppRun<'_, f64> + '_> {
        self.start()
    }

    fn start_ad(&self) -> Box<dyn AppRun<'_, scrutiny_core::Adj> + '_> {
        self.start()
    }
}

/// The one-step apps honour the step protocol like any other.
#[test]
fn pitfall_apps_honour_the_step_contract() {
    for kind in [
        Kind::MaxLoser,
        Kind::MinLoser,
        Kind::TrackedZeroFactor,
        Kind::ExactCancellation,
        Kind::AbsKink,
        Kind::BranchUntakenArm,
    ] {
        assert_step_contract(&Pitfall { kind });
    }
}

fn bits(map: &Bitmap) -> Vec<bool> {
    map.iter().collect()
}

/// Run the differential analysis and check both analyzers' per-element
/// verdicts against the hand-derived tables, plus the typed disagreement.
fn check_case(kind: Kind, ad_expect: &[bool], dd_expect: &[bool], disagree_elems: &[usize]) {
    let app = Pitfall { kind };
    let case = differential_case(&app, &ScrutinyOptions::default()).unwrap();
    assert_safety_invariant(&case);
    let rep = &case.report;
    assert_eq!(
        bits(&rep.ad.vars[0].value_map),
        ad_expect,
        "{kind:?}: AD verdict\n{}",
        explain(rep)
    );
    assert_eq!(
        bits(&rep.datadep.vars[0].value_map),
        dd_expect,
        "{kind:?}: datadep verdict\n{}",
        explain(rep)
    );
    if disagree_elems.is_empty() {
        assert!(rep.disagreements.is_empty(), "{kind:?}\n{}", explain(rep));
    } else {
        assert_eq!(rep.disagreements.len(), 1, "{kind:?}\n{}", explain(rep));
        let d = &rep.disagreements[0];
        assert_eq!(d.kind, DisagreementKind::ValueDeadStructurallyLive);
        assert_eq!(d.var, "x");
        assert_eq!(d.elems, disagree_elems, "{kind:?}");
        let w = d.witness.as_ref().expect("over-approximation has a path");
        assert!(w.hops >= 1, "{kind:?}: witness reaches the output");
    }
}

#[test]
fn max_loser_value_dead_structurally_live() {
    // out = max(x0, x1)·2 + x2 with x0 = 5 > x1 = 2: the loser x1 has a
    // recorded edge with partial 0. AD prunes it; datadep keeps it.
    check_case(
        Kind::MaxLoser,
        &[true, false, true],
        &[true, true, true],
        &[1],
    );
}

#[test]
fn min_loser_value_dead_structurally_live() {
    // out = min(x0, x1)·3 + 1 with x1 = 2 winning: x0 is the loser.
    check_case(Kind::MinLoser, &[false, true], &[true, true], &[0]);
}

#[test]
fn tracked_zero_factor_kills_adjoint_not_dependence() {
    // out = x0·x1 + x1 with x1 = 0: ∂out/∂x0 = 0 although x0 flows in.
    // At *this* state the AD verdict is right (garbage in x0 is erased by
    // the zero multiply); datadep refuses to bet on the value staying 0.
    check_case(Kind::TrackedZeroFactor, &[false, true], &[true, true], &[0]);
}

#[test]
fn exact_cancellation_zeroes_both_paths() {
    // out = x0·x1 − x1·x0 + x1: two live paths whose adjoints cancel to
    // exactly 0.0 in IEEE arithmetic.
    check_case(Kind::ExactCancellation, &[false, true], &[true, true], &[0]);
}

#[test]
fn abs_kink_at_zero_records_zero_partial() {
    // out = |x0| + x1 at x0 = 0: the subgradient convention records
    // partial 0 at the kink, so AD calls the element uncritical even
    // though any perturbation changes the output — the sharpest of the
    // non-smooth pitfalls. The static analyzer keeps it.
    check_case(Kind::AbsKink, &[false, true], &[true, true], &[0]);
}

#[test]
fn branch_untaken_arm_is_invisible_to_both_analyzers() {
    // Control flow is the shared blind spot: x0 only steers the branch
    // (read as a primal value, never recorded) and x2 lives in the arm
    // that never executes. BOTH analyzers agree both are uncritical —
    // there is no disagreement for the harness to flag.
    check_case(
        Kind::BranchUntakenArm,
        &[false, true, false],
        &[false, true, false],
        &[],
    );
}

#[test]
fn branch_blind_spot_breaks_restart_when_steering_value_is_corrupted() {
    // ...and the blind spot is real: corrupt the branch-steering element
    // in an otherwise-full checkpoint and the restarted run takes the
    // other arm (golden 2·2 = 4 vs restarted 3·3 = 9). This is why the
    // paper freezes control flow during scrutiny and why integer control
    // state is pinned always-critical; for float steering values like
    // this one, neither analyzer can save the restart.
    let app = Pitfall {
        kind: Kind::BranchUntakenArm,
    };
    let analysis = scrutinize(&app).unwrap();
    let cfg = RestartConfig {
        policy: Policy::Full,
        fill: FillPolicy::Garbage(7),
        store_dir: None,
    };
    let source = CheckpointSource::Blocking;
    let report = restart_cycle(&app, &analysis, &cfg, source, |bufs, _| {
        match &mut bufs[0] {
            VarData::F64(v) => v[0] = -1.0,
            _ => unreachable!("single f64 variable"),
        }
    })
    .unwrap();
    assert!(!report.verified, "branch flip must break verification");
    assert_eq!(report.golden, 4.0);
    assert_eq!(report.restarted, 9.0);
}

#[test]
fn datadep_plan_checkpoints_the_loser_and_still_restarts() {
    // A checkpoint planned from the datadep verdict stores the max-loser
    // element the AD plan would prune. Garbage-filled restarts verify
    // either way — the over-approximation costs bytes, never correctness.
    let app = Pitfall {
        kind: Kind::MaxLoser,
    };
    let dd = scrutinize_with(
        &app,
        &ScrutinyOptions {
            analyzer: Analyzer::DataDep,
            ..ScrutinyOptions::default()
        },
    )
    .unwrap();
    let cfg = RestartConfig {
        policy: Policy::PrunedValue,
        fill: FillPolicy::Garbage(99),
        store_dir: None,
    };
    let report = checkpoint_restart_cycle(&app, &dd, &cfg).unwrap();
    assert!(report.verified);
    // All three elements are datadep-live, so nothing was pruned here;
    // the AD plan would have dropped the loser.
    assert_eq!(dd.total_uncritical(), 0);
    let ad = scrutinize(&app).unwrap();
    assert_eq!(ad.total_uncritical(), 1);
    let ad_report = checkpoint_restart_cycle(&app, &ad, &cfg).unwrap();
    assert!(ad_report.verified);
    // The AD plan prunes the loser's payload; at this tiny scale the
    // pruned region table can outweigh the 8 bytes saved, so compare
    // payload (the quantity the verdict controls), not file totals.
    assert!(ad_report.storage.payload_bytes < report.storage.payload_bytes);
}
