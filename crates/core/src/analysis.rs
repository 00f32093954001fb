//! The scrutinizer: one AD run + reverse sweeps ⇒ per-element criticality
//! for every checkpoint variable.
//!
//! The AD pass is the method's bottleneck, so this layer drives the
//! segmented tape through the one entry point [`Tape::sweep`]: the
//! value-gradient sweep, the structural-reachability sweep and the
//! data-dependency bits are fed by one reverse walk that reads each
//! segment once and may merge cross-segment adjoint frontiers on worker
//! threads (see `scrutiny_ad::sweep`); on a bounded-memory tape
//! ([`ScrutinyOptions::tape_checkpoints`]) the same walk re-records its
//! evicted windows by resuming the application at the nearest step
//! boundary. Results are bit-identical to the serial seed sweep by
//! construction. Recording failures (tape overflow) and bad sweep seeds
//! surface as typed [`AdError`]s instead of aborting a long NPB record.
//!
//! Two analyzers share this front door, selected by
//! [`ScrutinyOptions::analyzer`]:
//!
//! * [`Analyzer::Ad`] — the paper's method: zero adjoint ⇔ uncritical.
//! * [`Analyzer::DataDep`] — static data-dependency scrutiny
//!   (`scrutiny_ad::datadep`): an element is critical iff a chain of
//!   recorded edges connects it to the output, no derivative values
//!   consulted. It may over-approximate (mark extra elements critical) but
//!   can never under-approximate — a non-zero adjoint only flows along
//!   recorded edges — so its error direction is safe for checkpointing.
//! * [`Analyzer::Both`] — run both over one walk and cross-check. The full
//!   differential result, including a typed [`Disagreement`] list with
//!   witness paths, comes from [`scrutinize_differential`].

use crate::app::{step_with_site, AppRun, RunOutcome, ScrutinyApp};
use crate::site::{LeafRange, LeafSite};
use crate::spec::{AppSpec, VarSpec};
use scrutiny_ad::tape::TapeStats;
use scrutiny_ad::{
    AdError, Adj, DataDep, Kernel, Ladder, Resume, SweepRequest, SweepStats, Swept, Tape,
    TapeCheckpointConfig, TapeConfig, TapeReplay, Witness,
};
use scrutiny_ckpt::{Bitmap, DType, Regions};
use scrutiny_obs::Recorder;
use std::collections::HashMap;
use std::time::Instant;

/// Criticality classification of one checkpoint variable.
#[derive(Debug)]
pub struct VarCriticality {
    /// The variable's spec (name, dtype, shape).
    pub spec: VarSpec,
    /// Criticality under the selected analyzer's criterion: for
    /// [`Analyzer::Ad`], bit set ⇔ `∂output/∂element ≠ 0` (the paper's
    /// criterion); for [`Analyzer::DataDep`], bit set ⇔ structurally
    /// live. Integer variables are control state: always critical.
    pub value_map: Bitmap,
    /// Structural criticality: bit set ⇔ a data-flow path reaches the
    /// output (superset of `value_map`; equal to it for
    /// [`Analyzer::DataDep`] reports, whose criterion *is* structural).
    pub structural_map: Bitmap,
    /// Per-element gradient magnitude (max over components for complex;
    /// `+∞` for integer control state). Drives precision tiering. The
    /// data-dependency analyzer has no magnitudes: it reports `+∞` for
    /// live elements and `0` for dead ones, so tiering degenerates to
    /// full precision for everything it keeps — the safe direction.
    pub grad_mag: Vec<f64>,
}

impl VarCriticality {
    /// Total elements.
    pub fn total(&self) -> usize {
        self.value_map.len()
    }

    /// Uncritical element count under the value criterion (Table II).
    pub fn uncritical(&self) -> usize {
        self.value_map.count_zeros()
    }

    /// Critical element count under the value criterion.
    pub fn critical(&self) -> usize {
        self.value_map.count_ones()
    }

    /// Uncritical rate (Table II's last column).
    pub fn uncritical_rate(&self) -> f64 {
        self.value_map.uncritical_rate()
    }

    /// Critical regions (the auxiliary-file form) under the value
    /// criterion.
    pub fn regions(&self) -> Regions {
        Regions::from_bitmap(&self.value_map)
    }

    /// Elements where the two analyses disagree (structurally reachable
    /// but value-gradient exactly zero).
    pub fn cancellation_only(&self) -> Vec<usize> {
        self.structural_map.diff_indices(&self.value_map)
    }
}

/// Which analysis backend [`scrutinize_with`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Analyzer {
    /// The paper's AD value criterion: uncritical ⇔ zero adjoint.
    #[default]
    Ad,
    /// Static data-dependency scrutiny: uncritical ⇔ no recorded
    /// data-flow path to the output. Over-approximates [`Analyzer::Ad`]
    /// in the safe direction; needs no adjoint values (2 bytes/node of
    /// sweep state — the liveness and def-use `Vec<bool>`s — instead of
    /// [`Analyzer::Ad`]'s 9: an `f64` adjoint and a reach flag).
    DataDep,
    /// Run both over one walk and cross-check; [`scrutinize_with`] then
    /// returns the AD report, while [`scrutinize_differential`] exposes
    /// both reports plus the typed disagreement list.
    Both,
}

/// Everything the analysis learned about one application.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The application's checkpoint spec.
    pub app: AppSpec,
    /// The backend that produced this report's verdicts.
    pub analyzer: Analyzer,
    /// Iteration at whose boundary the analysis checkpoint was placed.
    pub ckpt_iter: usize,
    /// Primal output value of the AD run.
    pub output_value: f64,
    /// Size and segmentation of the recorded tape (`bytes` is what the
    /// encoded nodes occupy; `sweep_bytes` the transient sweep memory).
    pub tape_stats: TapeStats,
    /// What the criterion sweep did: segments visited, threads used,
    /// contributions routed through cross-segment frontiers. The value
    /// sweep for [`Analyzer::Ad`] reports, the structural sweep for
    /// [`Analyzer::DataDep`].
    pub sweep: SweepStats,
    /// Same, for the structural-reachability sweep.
    pub reach_sweep: SweepStats,
    /// Wall-clock seconds for record + sweeps.
    pub analysis_seconds: f64,
    /// Per-variable criticality, in spec order.
    pub vars: Vec<VarCriticality>,
    /// Variable index by name, so [`AnalysisReport::var`] is O(1).
    by_name: HashMap<String, usize>,
}

impl AnalysisReport {
    /// Look up one variable's criticality by name.
    pub fn var(&self, name: &str) -> Option<&VarCriticality> {
        self.by_name.get(name).map(|&i| &self.vars[i])
    }

    /// Aggregate uncritical elements across all variables.
    pub fn total_uncritical(&self) -> usize {
        self.vars.iter().map(VarCriticality::uncritical).sum()
    }

    /// Aggregate elements across all variables.
    pub fn total_elems(&self) -> usize {
        self.vars.iter().map(VarCriticality::total).sum()
    }
}

/// Tuning knobs for [`scrutinize_with`].
#[derive(Clone, Debug)]
pub struct ScrutinyOptions {
    /// Tape-node capacity hint; `None` uses the app's own
    /// [`ScrutinyApp::tape_capacity_hint`].
    pub capacity: Option<usize>,
    /// Tape segment length (power of two). Smaller segments expose more
    /// sweep parallelism; the default suits the NPB kernels.
    pub segment_len: usize,
    /// Threads of the reverse walk (`0` = one per available core, `1` =
    /// serial).
    pub threads: usize,
    /// Recording budget in tape nodes; exceeding it yields
    /// [`AdError::TapeOverflow`].
    pub node_limit: u64,
    /// Analysis backend: the AD value criterion (default), the static
    /// data-dependency analyzer, or both cross-checked.
    pub analyzer: Analyzer,
    /// Bounded-memory tape checkpointing: keep at most `ncheckpoints`
    /// segments' bytes resident (0 = auto ≈ log2(segments)) — tape
    /// segments plus the step snapshots of the application that share the
    /// budget — discarding the rest during recording and re-recording
    /// segments on demand during the sweeps, by resuming the application
    /// at the nearest snapshot. Verdicts stay bit-identical to the
    /// unbounded analysis; peak tape residency drops from the full
    /// recording to `ncheckpoints × segment` bytes. Requires the
    /// application's AD run to be deterministic (every NPB kernel is);
    /// nondeterminism is caught as [`AdError::ReplayDivergence`].
    pub tape_checkpoints: Option<TapeCheckpointConfig>,
    /// Observability sink: record/sweep phase spans and the sweep gauges
    /// mirroring the report's [`SweepStats`]. The default is
    /// [`Recorder::disabled`].
    pub recorder: Recorder,
}

impl Default for ScrutinyOptions {
    fn default() -> Self {
        let tape = TapeConfig::default();
        ScrutinyOptions {
            capacity: None,
            segment_len: tape.segment_len,
            threads: 0,
            node_limit: tape.node_limit,
            analyzer: Analyzer::Ad,
            tape_checkpoints: None,
            recorder: Recorder::disabled(),
        }
    }
}

/// How one analyzer disagreement is classified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisagreementKind {
    /// The adjoint is exactly zero but a data-flow path reaches the
    /// output: exact cancellation, multiplication by a tracked zero, or a
    /// min/max loser's zero partial. The static analyzer keeps the
    /// element; checkpoints grow but restarts stay correct — the safe
    /// over-approximation.
    ValueDeadStructurallyLive,
    /// The AD sweep found a non-zero adjoint on an element the static
    /// analyzer calls dead. Impossible by construction (adjoints flow
    /// only along recorded edges); its presence is a bug in one analyzer,
    /// and the differential harness asserts it never occurs.
    AdCriticalDataDepDead,
}

/// One group of per-element verdict mismatches between the two analyzers,
/// for a single variable and direction.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// The checkpoint variable the mismatching elements belong to.
    pub var: String,
    /// Which way the analyzers disagree.
    pub kind: DisagreementKind,
    /// Element indices (within the variable) whose verdicts differ.
    pub elems: Vec<usize>,
    /// For structurally-live disagreements: the recorded data-flow path
    /// that keeps the first mismatching element alive, from its leaf node
    /// to the output. `None` when no path exists (violations).
    pub witness: Option<Witness>,
}

/// Both analyzers' reports over one recording, plus every classified
/// verdict mismatch. Produced by [`scrutinize_differential`].
#[derive(Debug)]
pub struct DifferentialReport {
    /// The AD value-criterion report.
    pub ad: AnalysisReport,
    /// The static data-dependency report over the *same* tape.
    pub datadep: AnalysisReport,
    /// Every per-variable verdict mismatch, classified and witnessed.
    pub disagreements: Vec<Disagreement>,
}

impl DifferentialReport {
    /// Disagreements that violate the safety invariant (AD-critical but
    /// datadep-dead). Always empty unless an analyzer is broken.
    pub fn safety_violations(&self) -> Vec<&Disagreement> {
        self.disagreements
            .iter()
            .filter(|d| d.kind == DisagreementKind::AdCriticalDataDepDead)
            .collect()
    }

    /// True when datadep-critical ⊇ ad-critical holds everywhere.
    pub fn is_safe(&self) -> bool {
        self.safety_violations().is_empty()
    }

    /// Total elements the static analyzer keeps beyond the AD verdict.
    pub fn over_approximated_elems(&self) -> usize {
        self.disagreements
            .iter()
            .filter(|d| d.kind == DisagreementKind::ValueDeadStructurallyLive)
            .map(|d| d.elems.len())
            .sum()
    }
}

/// Scrutinize every element of every checkpoint variable of `app`.
///
/// Runs the application once under AD with leaves injected at the
/// checkpoint boundary, then performs the reverse value sweep and the
/// structural sweep in one walk of the tape (possibly parallel
/// internally). See the crate docs for the method.
pub fn scrutinize(app: &dyn ScrutinyApp) -> Result<AnalysisReport, AdError> {
    scrutinize_with(app, &ScrutinyOptions::default())
}

/// [`scrutinize`] with full control over segmentation, sweep threads and
/// the analysis backend.
pub fn scrutinize_with(
    app: &dyn ScrutinyApp,
    opts: &ScrutinyOptions,
) -> Result<AnalysisReport, AdError> {
    let t0 = Instant::now();
    match opts.analyzer {
        Analyzer::Both => scrutinize_differential(app, opts).map(|d| d.ad),
        Analyzer::Ad => {
            let (rec, swept) = record_and_sweep(app, opts, &[Kernel::Value, Kernel::Reach])?;
            Ok(rec.ad_report(opts, &swept, t0))
        }
        Analyzer::DataDep => {
            let (rec, swept) = record_and_sweep(app, opts, &[Kernel::DataDep])?;
            Ok(rec.datadep_report(opts, &swept, t0))
        }
    }
}

/// Run *both* analyzers over one recording (value, reachability and
/// datadep kernels fused into one reverse walk, which on a bounded-memory
/// tape also re-records the evicted windows) and classify every verdict
/// mismatch into a typed, witnessed [`Disagreement`].
pub fn scrutinize_differential(
    app: &dyn ScrutinyApp,
    opts: &ScrutinyOptions,
) -> Result<DifferentialReport, AdError> {
    let t0 = Instant::now();
    let kernels = [Kernel::Value, Kernel::Reach, Kernel::DataDep];
    let (rec, swept) = record_and_sweep(app, opts, &kernels)?;
    let datadep = rec.datadep_report(opts, &swept, t0);
    let ad = rec.ad_report(opts, &swept, t0);
    let dd = swept
        .datadep
        .as_ref()
        .expect("datadep kernel was requested");
    let disagreements = classify_disagreements(&rec, &ad.vars, &datadep.vars, dd);
    Ok(DifferentialReport {
        ad,
        datadep,
        disagreements,
    })
}

/// Maximum witness-path nodes attached to a disagreement; the hop count
/// stays exact beyond it.
const WITNESS_MAX_NODES: usize = 16;

/// One finished recording, before any sweep interpretation.
struct Recorded {
    spec: AppSpec,
    ckpt_iter: usize,
    tape: Tape,
    output: Adj,
    ranges: Vec<LeafRange>,
}

impl Recorded {
    /// The value and reach kernels' results as the AD report.
    fn ad_report(&self, opts: &ScrutinyOptions, swept: &Swept, t0: Instant) -> AnalysisReport {
        let (grads, value_stats) = swept.value.as_ref().expect("value kernel was requested");
        let (reach, reach_stats) = swept.reach.as_ref().expect("reach kernel was requested");
        let vars = ad_vars(self, grads, reach);
        self.report(opts, Analyzer::Ad, vars, (*value_stats, *reach_stats), t0)
    }

    /// The datadep kernel's result as the data-dependency report.
    fn datadep_report(&self, opts: &ScrutinyOptions, swept: &Swept, t0: Instant) -> AnalysisReport {
        let dd = swept
            .datadep
            .as_ref()
            .expect("datadep kernel was requested");
        let vars = datadep_vars(self, dd);
        self.report(opts, Analyzer::DataDep, vars, (dd.stats(), dd.stats()), t0)
    }

    /// Interpret one analyzer's verdicts as an [`AnalysisReport`] over this
    /// recording. Borrowing lets the differential path build two reports
    /// over the same tape. `stats` are those of the criterion sweep and of
    /// the structural sweep.
    fn report(
        &self,
        opts: &ScrutinyOptions,
        analyzer: Analyzer,
        vars: Vec<VarCriticality>,
        stats: (SweepStats, SweepStats),
        t0: Instant,
    ) -> AnalysisReport {
        let by_name = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.spec.name.clone(), i))
            .collect();
        let analysis_seconds = t0.elapsed().as_secs_f64();
        opts.recorder
            .record("core.analysis_us", (analysis_seconds * 1e6) as u64);
        AnalysisReport {
            app: self.spec.clone(),
            analyzer,
            ckpt_iter: self.ckpt_iter,
            output_value: self.output.value(),
            tape_stats: self.tape.stats(),
            sweep: stats.0,
            reach_sweep: stats.1,
            analysis_seconds,
            vars,
            by_name,
        }
    }
}

/// An application's AD run as the tape layer sees it: a computation that
/// advances from one resumable boundary to the next. The boundaries are
/// the program start, the checkpoint boundary (reached in one go — the
/// iterations before it record nothing, so there is nothing to resume in
/// between), every resume point after it (iteration boundaries and an
/// application's inner points alike), and the program's end once the
/// output has been evaluated.
struct AdRun<'a> {
    app: &'a dyn ScrutinyApp,
    run: Box<dyn AppRun<'a, Adj> + 'a>,
    site: LeafSite,
    /// Next main-loop iteration to run, or the one in progress.
    next: usize,
    /// Whether iteration `next` already ran to an inner resume point.
    started: bool,
    output: Option<Adj>,
}

impl<'a> AdRun<'a> {
    fn start(app: &'a dyn ScrutinyApp) -> AdRun<'a> {
        AdRun {
            app,
            run: app.start_ad(),
            site: LeafSite::new(),
            next: *app.steps().start(),
            started: false,
            output: None,
        }
    }
}

impl Clone for AdRun<'_> {
    fn clone(&self) -> Self {
        AdRun {
            app: self.app,
            run: self.run.fork(),
            site: self.site.clone(),
            next: self.next,
            started: self.started,
            output: self.output,
        }
    }
}

impl Resume for AdRun<'_> {
    fn advance(&mut self) -> bool {
        if self.next > *self.app.steps().end() {
            self.output = Some(self.run.output());
            return false;
        }
        // A checkpoint boundary past the last iteration is never reached
        // (as in the provided `run_ad`): the prefix ends with the loop.
        let end = *self.app.steps().end();
        loop {
            let done = step_with_site(
                self.app,
                &mut *self.run,
                self.next,
                self.started,
                &mut self.site,
            );
            self.started = !done;
            self.next += usize::from(done);
            if self.next >= self.app.checkpoint_iter() || self.next > end {
                return true;
            }
        }
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(self)
            + self.run.snapshot_bytes()
            + std::mem::size_of_val(&self.site.ranges[..])
    }
}

/// Record `app`'s AD run — leaves injected at the checkpoint boundary — on
/// a tape configured by `cfg`, stepping it through the [`AppRun`] protocol.
/// Returns the run's outcome, the leaf layout the site saw, the tape, and
/// the tape's replayer. When `cfg.checkpoint` bounds the tape, forks of the
/// run at resume points share the residency budget, and a sweep given
/// the replayer re-records evicted segments from the nearest one; on an
/// unbounded tape nothing is forked.
pub fn record_resumable<'a>(
    app: &'a dyn ScrutinyApp,
    cfg: TapeConfig,
) -> (RunOutcome<Adj>, LeafSite, Tape, impl TapeReplay + 'a) {
    let (tape, end, ladder) = Ladder::record(cfg, move || AdRun::start(app));
    let output = end
        .output
        .expect("a finished recording evaluated the output");
    (RunOutcome { output }, end.site, tape, ladder)
}

/// Record `app` once under AD, then sweep the tape with `kernels` — every
/// analysis pass, whichever analyzer it serves.
fn record_and_sweep(
    app: &dyn ScrutinyApp,
    opts: &ScrutinyOptions,
    kernels: &[Kernel],
) -> Result<(Recorded, Swept), AdError> {
    let obs = &opts.recorder;
    let spec = app.spec();
    let record_span = scrutiny_obs::span!(obs, "core.analysis.record", app = spec.name.as_str());
    let (outcome, site, tape, replay) = record_resumable(
        app,
        TapeConfig {
            capacity: opts.capacity.unwrap_or_else(|| app.tape_capacity_hint()),
            segment_len: opts.segment_len,
            node_limit: opts.node_limit,
            checkpoint: opts.tape_checkpoints,
        },
    );
    let shape = tape.stats();
    obs.set_gauge("core.tape.nodes", shape.nodes as i64);
    obs.set_gauge("core.tape.leaves", shape.leaves as i64);
    obs.set_gauge("core.tape.segments", shape.segments as i64);
    obs.set_gauge("core.tape.bytes", shape.bytes as i64);
    drop(record_span);
    let ckpt_iter = site
        .iter
        .expect("the application never reached its checkpoint boundary");
    assert_eq!(
        site.ranges.len(),
        spec.vars.len(),
        "checkpoint site saw {} variables but the spec declares {}",
        site.ranges.len(),
        spec.vars.len()
    );
    for (vspec, range) in spec.vars.iter().zip(&site.ranges) {
        assert_eq!(
            vspec.elems(),
            range.elems,
            "variable {:?}: spec says {} elements, site saw {}",
            vspec.name,
            vspec.elems(),
            range.elems
        );
    }
    let rec = Recorded {
        spec,
        ckpt_iter,
        tape,
        output: outcome.output,
        ranges: site.ranges,
    };
    // The kernels share one walk; a bounded tape also hands it the
    // replayer that re-records evicted windows.
    let _sweeps_span = scrutiny_obs::span!(obs, "core.analysis.sweeps");
    let swept = rec.tape.sweep(
        rec.output,
        &SweepRequest {
            kernels,
            threads: opts.threads,
            replay: opts
                .tape_checkpoints
                .is_some()
                .then_some(&replay as &dyn TapeReplay),
            recorder: obs.clone(),
        },
    )?;
    Ok((rec, swept))
}

/// Build the per-variable maps from per-node predicates, shared by both
/// analyzers: `value_bit`/`struct_bit`/`magnitude` are evaluated on each
/// element's leaf node(s); complex elements OR the bits and max the
/// magnitudes of their two components.
fn classify_vars(
    spec: &AppSpec,
    ranges: &[LeafRange],
    mut value_bit: impl FnMut(u64) -> bool,
    mut struct_bit: impl FnMut(u64) -> bool,
    mut magnitude: impl FnMut(u64) -> f64,
) -> Vec<VarCriticality> {
    let mut vars = Vec::with_capacity(spec.vars.len());
    for (vspec, range) in spec.vars.iter().zip(ranges) {
        let n = range.elems;
        let (value_map, structural_map, grad_mag) = match vspec.dtype {
            DType::I64 => {
                // Control state: the paper classifies loop indices and sort
                // keys as critical by definition (they steer execution).
                (Bitmap::full(n), Bitmap::full(n), vec![f64::INFINITY; n])
            }
            DType::F64 => {
                let mut vm = Bitmap::new(n);
                let mut sm = Bitmap::new(n);
                let mut gm = vec![0.0; n];
                for (i, g) in gm.iter_mut().enumerate() {
                    let node = range.start + i as u64;
                    *g = magnitude(node);
                    if value_bit(node) {
                        vm.set(i, true);
                    }
                    if struct_bit(node) {
                        sm.set(i, true);
                    }
                }
                (vm, sm, gm)
            }
            DType::C128 => {
                let mut vm = Bitmap::new(n);
                let mut sm = Bitmap::new(n);
                let mut gm = vec![0.0; n];
                for (i, g) in gm.iter_mut().enumerate() {
                    let re = range.start + 2 * i as u64;
                    let im = re + 1;
                    *g = magnitude(re).max(magnitude(im));
                    if value_bit(re) || value_bit(im) {
                        vm.set(i, true);
                    }
                    if struct_bit(re) || struct_bit(im) {
                        sm.set(i, true);
                    }
                }
                (vm, sm, gm)
            }
        };
        vars.push(VarCriticality {
            spec: vspec.clone(),
            value_map,
            structural_map,
            grad_mag,
        });
    }
    vars
}

/// AD verdicts: value bit from the adjoint, structural bit from
/// reachability, magnitude from |adjoint|.
fn ad_vars(rec: &Recorded, grads: &scrutiny_ad::Gradient, reach: &[bool]) -> Vec<VarCriticality> {
    classify_vars(
        &rec.spec,
        &rec.ranges,
        |n| grads.of_node(n) != 0.0,
        |n| reach[n as usize],
        |n| grads.of_node(n).abs(),
    )
}

/// Data-dependency verdicts: liveness is both the value criterion and the
/// structural map; magnitudes are `+∞` for live elements (no adjoints).
fn datadep_vars(rec: &Recorded, dd: &DataDep) -> Vec<VarCriticality> {
    classify_vars(
        &rec.spec,
        &rec.ranges,
        |n| dd.live(n),
        |n| dd.live(n),
        |n| if dd.live(n) { f64::INFINITY } else { 0.0 },
    )
}

/// Compare the two analyzers' `value_map`s and group every differing
/// element into a per-variable, per-direction [`Disagreement`], attaching
/// a witness path for the first structurally-live element of each group.
fn classify_disagreements(
    rec: &Recorded,
    ad: &[VarCriticality],
    dd_vars: &[VarCriticality],
    dd: &DataDep,
) -> Vec<Disagreement> {
    let mut out = Vec::new();
    for ((a, d), range) in ad.iter().zip(dd_vars).zip(&rec.ranges) {
        let mut over = Vec::new();
        let mut viol = Vec::new();
        for i in d.value_map.diff_indices(&a.value_map) {
            if d.value_map.get(i) {
                over.push(i);
            } else {
                viol.push(i);
            }
        }
        if let Some(&first) = over.first() {
            let witness = live_leaf_node(range, first, dd)
                .and_then(|node| dd.witness_path(&rec.tape, node, WITNESS_MAX_NODES));
            out.push(Disagreement {
                var: a.spec.name.clone(),
                kind: DisagreementKind::ValueDeadStructurallyLive,
                elems: over,
                witness,
            });
        }
        if !viol.is_empty() {
            out.push(Disagreement {
                var: a.spec.name.clone(),
                kind: DisagreementKind::AdCriticalDataDepDead,
                elems: viol,
                witness: None,
            });
        }
    }
    out
}

/// The live leaf node backing element `i` of a variable (for complex
/// elements, whichever component is live).
fn live_leaf_node(range: &LeafRange, i: usize, dd: &DataDep) -> Option<u64> {
    match range.per_elem {
        1 => Some(range.start + i as u64),
        2 => {
            let re = range.start + 2 * i as u64;
            if dd.live(re) {
                Some(re)
            } else {
                Some(re + 1)
            }
        }
        _ => None, // integer control state records no leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny::Heat1d;

    #[test]
    fn a_checkpoint_boundary_past_the_loop_is_never_reached() {
        // Stepped through `AdRun`, like driven by the provided `run_ad`:
        // the loop runs its iterations and no more, the site sees nothing.
        let app = Heat1d {
            n: 8,
            niter: 3,
            ckpt_at: 7,
        };
        let (outcome, site, tape, _) = record_resumable(&app, TapeConfig::default());
        assert_eq!(site.iter, None);
        let session = scrutiny_ad::TapeSession::new();
        let driven = app.run_ad(&mut LeafSite::new()).output;
        assert_eq!(driven.index(), outcome.output.index());
        assert_eq!(driven.value().to_bits(), outcome.output.value().to_bits());
        assert_eq!(session.finish().len(), tape.len());
    }

    #[test]
    fn heat1d_criticality_matches_construction() {
        let app = Heat1d::new(16, 8, 4);
        let report = scrutinize(&app).unwrap();
        assert_eq!(report.analyzer, Analyzer::Ad);
        // temp: interior + both boundary cells read; the 2 tail pad cells
        // are never read.
        let temp = report.var("temp").unwrap();
        assert_eq!(temp.total(), 16 + 2 + 2);
        assert_eq!(temp.uncritical(), 2);
        assert!(!temp.value_map.get(18));
        assert!(!temp.value_map.get(19));
        // workspace: overwritten each step before any read => uncritical.
        let ws = report.var("workspace").unwrap();
        assert_eq!(ws.uncritical(), ws.total());
        // step index is control state.
        let it = report.var("it").unwrap();
        assert_eq!(it.uncritical(), 0);
        // Unknown names are None, not a panic.
        assert!(report.var("no_such_var").is_none());
    }

    #[test]
    fn structural_map_is_superset() {
        let app = Heat1d::new(12, 6, 3);
        let report = scrutinize(&app).unwrap();
        for v in &report.vars {
            for i in 0..v.total() {
                if v.value_map.get(i) {
                    assert!(
                        v.structural_map.get(i),
                        "{}[{}] value-critical but not structural",
                        v.spec.name,
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn report_aggregates() {
        let app = Heat1d::new(8, 4, 2);
        let report = scrutinize(&app).unwrap();
        assert_eq!(report.ckpt_iter, 2);
        assert_eq!(
            report.total_elems(),
            report.vars.iter().map(|v| v.total()).sum::<usize>()
        );
        assert!(report.tape_stats.nodes > 0);
        assert!(report.tape_stats.segments > 0);
        // At least a kind byte per node, at most the segment reservation.
        let stats = report.tape_stats;
        assert!(stats.bytes >= stats.nodes);
        assert!(stats.bytes <= stats.nodes * scrutiny_ad::NODE_BYTES);
        assert!(report.sweep.segments > 0);
        assert!(report.output_value.is_finite());
    }

    #[test]
    fn criticality_independent_of_checkpoint_position() {
        // The access pattern is iteration-invariant, so the maps must not
        // depend on where the checkpoint lands (mirrors the NPB reality).
        let a = scrutinize(&Heat1d::new(16, 8, 2)).unwrap();
        let b = scrutinize(&Heat1d::new(16, 8, 6)).unwrap();
        for (va, vb) in a.vars.iter().zip(&b.vars) {
            assert_eq!(va.value_map, vb.value_map, "map for {}", va.spec.name);
        }
    }

    #[test]
    fn forced_segmentation_and_parallel_sweeps_match_defaults() {
        // Drive the analysis through many tiny segments with parallel
        // sweeps; criticality must be identical to the default path.
        let app = Heat1d::new(16, 8, 4);
        let base = scrutinize(&app).unwrap();
        let seg = scrutinize_with(
            &app,
            &ScrutinyOptions {
                segment_len: 64,
                threads: 4,
                ..ScrutinyOptions::default()
            },
        )
        .unwrap();
        assert!(seg.tape_stats.segments > 1);
        assert!(seg.sweep.parallel);
        assert_eq!(seg.sweep.threads, 4);
        for (va, vb) in base.vars.iter().zip(&seg.vars) {
            assert_eq!(va.value_map, vb.value_map);
            assert_eq!(va.structural_map, vb.structural_map);
            for (ga, gb) in va.grad_mag.iter().zip(&vb.grad_mag) {
                assert_eq!(
                    ga.to_bits(),
                    gb.to_bits(),
                    "gradients must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn checkpointed_tape_matches_unbounded_bit_for_bit() {
        // Bounded-memory scrutiny: evict all but a couple of segments
        // during recording and replay them on demand in the sweeps. The
        // criticality maps and every gradient bit must match the
        // unbounded analysis exactly.
        let app = Heat1d::new(16, 8, 4);
        for analyzer in [Analyzer::Ad, Analyzer::DataDep] {
            let base = scrutinize_with(
                &app,
                &ScrutinyOptions {
                    segment_len: 64,
                    analyzer,
                    ..ScrutinyOptions::default()
                },
            )
            .unwrap();
            let bounded = scrutinize_with(
                &app,
                &ScrutinyOptions {
                    segment_len: 64,
                    analyzer,
                    tape_checkpoints: Some(TapeCheckpointConfig::with_ncheckpoints(2)),
                    ..ScrutinyOptions::default()
                },
            )
            .unwrap();
            assert!(
                bounded.tape_stats.replayed_segments > 0,
                "eviction must have forced replays ({analyzer:?})"
            );
            // Both sides of the comparison charge the segment reservation.
            let stats = bounded.tape_stats;
            let unbounded_reservation =
                stats.segments * stats.segment_len * scrutiny_ad::NODE_BYTES;
            assert!(
                stats.peak_resident_bytes < unbounded_reservation,
                "peak residency must stay below the full tape ({analyzer:?})"
            );
            for (va, vb) in base.vars.iter().zip(&bounded.vars) {
                assert_eq!(va.value_map, vb.value_map, "map for {}", va.spec.name);
                assert_eq!(va.structural_map, vb.structural_map);
                for (ga, gb) in va.grad_mag.iter().zip(&vb.grad_mag) {
                    assert_eq!(
                        ga.to_bits(),
                        gb.to_bits(),
                        "gradients must be bit-identical under replay"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpointed_differential_report_agrees_with_unbounded() {
        // The differential harness (value + structural + datadep, one
        // walk under one residency budget) must reach the same verdicts
        // as its unbounded form.
        let app = Heat1d::new(16, 8, 4);
        let base = scrutinize_differential(
            &app,
            &ScrutinyOptions {
                segment_len: 64,
                ..ScrutinyOptions::default()
            },
        )
        .unwrap();
        let bounded = scrutinize_differential(
            &app,
            &ScrutinyOptions {
                segment_len: 64,
                tape_checkpoints: Some(TapeCheckpointConfig::auto()),
                ..ScrutinyOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            base.disagreements.len(),
            bounded.disagreements.len(),
            "replay must not change the differential verdicts"
        );
        for (va, vb) in base.ad.vars.iter().zip(&bounded.ad.vars) {
            assert_eq!(va.value_map, vb.value_map);
            assert_eq!(va.structural_map, vb.structural_map);
        }
        for (va, vb) in base.datadep.vars.iter().zip(&bounded.datadep.vars) {
            assert_eq!(va.value_map, vb.value_map);
        }
    }

    #[test]
    fn tape_overflow_is_an_error_not_an_abort() {
        let app = Heat1d::new(16, 8, 4);
        for analyzer in [Analyzer::Ad, Analyzer::DataDep, Analyzer::Both] {
            let err = scrutinize_with(
                &app,
                &ScrutinyOptions {
                    node_limit: 100,
                    analyzer,
                    ..ScrutinyOptions::default()
                },
            )
            .unwrap_err();
            assert_eq!(err, AdError::TapeOverflow { limit: 100 });
        }
    }

    #[test]
    fn datadep_report_equals_ad_structural_map() {
        let app = Heat1d::new(16, 8, 4);
        let ad = scrutinize(&app).unwrap();
        let dd = scrutinize_with(
            &app,
            &ScrutinyOptions {
                analyzer: Analyzer::DataDep,
                ..ScrutinyOptions::default()
            },
        )
        .unwrap();
        assert_eq!(dd.analyzer, Analyzer::DataDep);
        for (va, vd) in ad.vars.iter().zip(&dd.vars) {
            // The datadep criterion is exactly the structural map the AD
            // report computes as its second opinion.
            assert_eq!(vd.value_map, va.structural_map, "{}", va.spec.name);
            assert_eq!(vd.structural_map, vd.value_map);
            assert!(vd.cancellation_only().is_empty());
            // Magnitudes are ∞ on live elements, 0 on dead ones.
            for i in 0..vd.total() {
                let expect = if vd.value_map.get(i) {
                    f64::INFINITY
                } else {
                    0.0
                };
                assert_eq!(vd.grad_mag[i], expect);
            }
        }
    }

    #[test]
    fn differential_report_cross_checks_heat1d() {
        let app = Heat1d::new(16, 8, 4);
        let diff = scrutinize_differential(&app, &ScrutinyOptions::default()).unwrap();
        assert!(diff.is_safe());
        assert_eq!(diff.ad.analyzer, Analyzer::Ad);
        assert_eq!(diff.datadep.analyzer, Analyzer::DataDep);
        // Heat1d's dataflow has no cancellation: the analyzers agree
        // exactly, so there is nothing to disagree about.
        assert!(diff.disagreements.is_empty());
        assert_eq!(diff.over_approximated_elems(), 0);
        // Both reports describe the same recording.
        assert_eq!(diff.ad.tape_stats.nodes, diff.datadep.tape_stats.nodes);
        assert_eq!(diff.ad.ckpt_iter, diff.datadep.ckpt_iter);
        assert_eq!(diff.ad.output_value, diff.datadep.output_value);
    }

    #[test]
    fn analyzer_both_returns_the_ad_report() {
        let app = Heat1d::new(16, 8, 4);
        let base = scrutinize(&app).unwrap();
        let both = scrutinize_with(
            &app,
            &ScrutinyOptions {
                analyzer: Analyzer::Both,
                ..ScrutinyOptions::default()
            },
        )
        .unwrap();
        assert_eq!(both.analyzer, Analyzer::Ad);
        for (va, vb) in base.vars.iter().zip(&both.vars) {
            assert_eq!(va.value_map, vb.value_map);
            assert_eq!(va.structural_map, vb.structural_map);
        }
    }
}
