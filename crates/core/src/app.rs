//! The application contract for scrutiny analysis.

use crate::site::{CkptSite, VarRefMut};
use crate::spec::AppSpec;
use scrutiny_ad::{Adj, Real};
use std::ops::RangeInclusive;

/// Result of one application run.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome<R> {
    /// The scalar the application's own verification inspects — the
    /// "output" whose derivative defines criticality (paper §III.A).
    pub output: R,
}

/// One run of an application in progress, for one scalar type: the state
/// at a resume point, advanced one resume point at a time.
///
/// Every boundary between two main-loop iterations is a resume point; an
/// application may expose more inside an iteration (CG: each of its inner
/// conjugate-gradient iterations). [`AppRun::fork`] snapshots the run at
/// any of them, and the bounded-memory analysis re-records evicted tape
/// segments from the nearest such snapshot instead of from the program
/// start. An application with a single iteration and no inner points is
/// the degenerate case.
pub trait AppRun<'a, R: Real> {
    /// Run main-loop iteration `iter` to its next resume point; `true` once
    /// the iteration is complete. Iterations are run in order over
    /// [`ScrutinyApp::steps`], each called until it returns `true`. An
    /// application without inner resume points runs the whole iteration
    /// and returns `true`.
    fn step(&mut self, iter: usize) -> bool;

    /// Mutable views of every checkpoint variable, in [`AppSpec`] order,
    /// as they stand at the boundary before iteration `iter` — what a
    /// [`CkptSite`] is shown.
    fn vars(&mut self, iter: usize) -> Vec<VarRefMut<'_, R>>;

    /// The application's verification scalar, from the state after the
    /// last iteration. Under AD this records onto the tape like any other
    /// arithmetic, so it is evaluated once per run.
    fn output(&self) -> R;

    /// An independent copy of this run at the current resume point.
    fn fork(&self) -> Box<dyn AppRun<'a, R> + 'a>;

    /// Bytes a fork allocates, the boxed run itself included — what
    /// keeping one as a replay snapshot costs the tape's residency budget.
    /// Must not undercount.
    fn snapshot_bytes(&self) -> usize;
}

/// An application whose checkpoint variables can be scrutinized.
///
/// An application exposes its main loop through the step protocol:
/// [`ScrutinyApp::start_f64`] / [`ScrutinyApp::start_ad`] set up the state
/// before the first iteration (implementations typically return one struct
/// generic over the scalar), and the provided [`ScrutinyApp::run_f64`] /
/// [`ScrutinyApp::run_ad`] drive it: every iteration of
/// [`ScrutinyApp::steps`] in order, each stepped until it is complete,
/// calling the site exactly once, at the boundary before
/// [`ScrutinyApp::checkpoint_iter`], with the checkpoint variables in
/// [`AppSpec`] order.
pub trait ScrutinyApp {
    /// Name, class and checkpoint variables (the paper's Table I row).
    fn spec(&self) -> AppSpec;

    /// The main loop's iteration indices, first to last.
    fn steps(&self) -> RangeInclusive<usize>;

    /// Main-loop iteration at whose boundary the checkpoint is taken.
    fn checkpoint_iter(&self) -> usize;

    /// The native run, before its first iteration (golden, capture and
    /// restart paths).
    fn start_f64(&self) -> Box<dyn AppRun<'_, f64> + '_>;

    /// The recording run for the AD analysis, before its first iteration.
    /// Must follow the identical code path as [`ScrutinyApp::start_f64`]
    /// (same control flow for the same state), instantiated with the tape
    /// scalar.
    fn start_ad(&self) -> Box<dyn AppRun<'_, Adj> + '_>;

    /// Native run, start to output.
    fn run_f64(&self, site: &mut dyn CkptSite<f64>) -> RunOutcome<f64> {
        drive(self, self.start_f64(), site)
    }

    /// Recording run, start to output.
    fn run_ad(&self, site: &mut dyn CkptSite<Adj>) -> RunOutcome<Adj> {
        drive(self, self.start_ad(), site)
    }

    /// Tape-node capacity hint for the AD run (pre-reserves the tape).
    fn tape_capacity_hint(&self) -> usize {
        1 << 20
    }

    /// Relative tolerance when comparing a restarted output against the
    /// golden output (the application's own "verification").
    fn tolerance(&self) -> f64 {
        1e-9
    }
}

/// Run `app`'s iteration `iter` on `run` to its next resume point,
/// presenting the checkpoint variables to `site` first if this is the
/// first call of the checkpoint iteration (`started` is whether `iter`
/// already ran to an inner resume point) — the one loop body every driver
/// of the step protocol shares. `true` once the iteration is complete.
pub(crate) fn step_with_site<'a, R: Real>(
    app: &(impl ScrutinyApp + ?Sized),
    run: &mut (dyn AppRun<'a, R> + 'a),
    iter: usize,
    started: bool,
    site: &mut dyn CkptSite<R>,
) -> bool {
    if !started && iter == app.checkpoint_iter() {
        site.at_boundary(iter, &mut run.vars(iter));
    }
    run.step(iter)
}

fn drive<'a, R: Real>(
    app: &(impl ScrutinyApp + ?Sized),
    mut run: Box<dyn AppRun<'a, R> + 'a>,
    site: &mut dyn CkptSite<R>,
) -> RunOutcome<R> {
    for iter in app.steps() {
        let mut started = false;
        while !step_with_site(app, &mut *run, iter, started, site) {
            started = true;
        }
    }
    RunOutcome {
        output: run.output(),
    }
}
