//! Deterministic re-recording of evicted tape segments.
//!
//! Under a [`crate::TapeCheckpointConfig`] most of the tape is not kept in
//! memory: evicted segments survive only as `(len, digest)` summaries (see
//! [`crate::segment`]). When a sweep needs one, the *same computation that
//! produced the tape* is run again with a replay sink installed in
//! place of the recording tape: the sink counts every node so ids come out
//! identical, but materializes nodes only for the window of segments the
//! sweep asked for. The re-recorded bytes are then checked against the
//! stored digests — any nondeterminism in the replayed computation is a
//! typed [`crate::AdError::ReplayDivergence`], never a silently wrong
//! gradient.
//!
//! A plain closure can only be re-run from the program start, so every
//! window costs the whole computation. A computation that exposes its
//! resume points ([`Resume`]) is recorded through a [`Ladder`] instead:
//! it notes the node count at every resume point (on an unbounded tape
//! that is all it does: one `Vec::push` each, nothing forked), keeps
//! snapshots of the computation at some of them — inside the tape's own
//! residency budget — and re-records a window from the newest snapshot
//! at or before it, up to the first resume point past it. Snapshots are
//! thinned while recording and re-densified by bisection while
//! replaying, which makes the replay work of a reverse walk `O(n log n)`
//! in the number of resume points (Siskind & Pearlmutter's
//! divide-and-conquer schedule) instead of `O(n · windows)`.
//!
//! So the work of a window is bounded by the distance between resume
//! points, not by the length of an application's steps: an application
//! whose iterations are long exposes points inside them (the core
//! crate's step protocol lets `AppRun::step` return at any of them; CG
//! returns after each inner conjugate-gradient iteration), and each one
//! is simply one more mark on the ladder.

use crate::error::AdError;
use crate::segment::{Charge, MemCounters, SegGuard};
use crate::tape::{self, Tape, TapeConfig, TapeSession};
use scrutiny_obs::Recorder;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A deterministic re-run of the computation that recorded the tape.
///
/// The contract is strict determinism: called any number of times, the
/// replayer must perform the *exact same* sequence of tracked operations
/// (same order, same operands, same partials) as the original recording.
/// Every re-recorded segment is digest-verified, so a violation surfaces
/// as [`crate::AdError::ReplayDivergence`] rather than a wrong result.
///
/// Any `Fn()` closure implements this as "the only resume point is the
/// program start"; it is invoked with a replay sink installed on the
/// thread, so the tracked arithmetic inside needs no changes — and must
/// *not* open its own [`crate::TapeSession`]. A [`Ladder`] implements it
/// with snapshots to resume from.
pub trait TapeReplay {
    /// Re-run the recorded computation far enough that every node id in
    /// `nodes` has been pushed again. Returns the node count the re-run
    /// resumed from and whether it ran to the program's end. Resuming
    /// anywhere but the program start (`0`) takes a [`Ladder`]; a reverse
    /// walk asks for windows in decreasing order, and a replayer may rely
    /// on that to discard what lies behind the walk.
    fn replay(&self, nodes: Range<u64>) -> Result<(u64, bool), AdError>;
}

impl<F: Fn()> TapeReplay for F {
    fn replay(&self, _nodes: Range<u64>) -> Result<(u64, bool), AdError> {
        self();
        Ok((0, true))
    }
}

/// One position in a computation that can be run step by step and
/// snapshotted (`Clone`) at the boundaries between steps.
///
/// Like a replay closure, a `Resume` must be deterministic: a clone
/// advanced later performs exactly the tracked operations the original
/// performed from the same boundary.
pub trait Resume: Clone {
    /// Run to the next step boundary. `false` once the computation has
    /// run to its end (there is no boundary to resume from after it).
    fn advance(&mut self) -> bool;

    /// Heap bytes a clone of this position holds — what keeping it as a
    /// snapshot costs the tape's residency budget.
    fn bytes(&self) -> usize;
}

/// The resumable replayer of one recording: the node count at every step
/// boundary, plus snapshots ("rungs") of the computation at as many
/// boundaries as fit in the share of the tape's residency budget that a
/// [`crate::TapeCheckpointConfig`] leaves beside the segment window.
///
/// The share is `⌊ncheckpoints/2⌋` segments' bytes, and is taken only when
/// it holds three snapshots — the run a replay is advancing, which is
/// charged to the budget like a rung, and two rungs. A snapshot larger
/// than that (or `ncheckpoints = 1`) leaves the segments the whole window;
/// replay then starts at the program start, like a closure.
pub struct Ladder<S, F> {
    start: F,
    state: RefCell<Rungs<S>>,
}

struct Rung<S> {
    /// Index of the boundary this snapshot was taken at.
    at: usize,
    state: S,
    charge: Charge,
}

struct Rungs<S> {
    /// Node count at every step boundary of the recording: `marks[0]` at
    /// the program start, the last entry at the program's end. Every
    /// replay is checked against these, step by step.
    marks: Vec<u64>,
    /// Snapshots, ascending by boundary.
    rungs: Vec<Rung<S>>,
    /// While recording, only boundaries `1 + k · stride` are kept; doubles
    /// whenever the rungs outgrow their room.
    stride: usize,
    /// Bytes of the budget set aside for snapshots: the rungs and the run
    /// a replay is advancing. `0` when the ladder has no share.
    capacity: usize,
    /// The whole residency budget, segments included: no snapshot is
    /// taken that would lift the tape's resident bytes past it.
    budget: usize,
    held: usize,
    /// The tape's residency counters; `None` on an unbounded tape, which
    /// takes no snapshots at all.
    mem: Option<Arc<MemCounters>>,
}

impl<S: Resume> Rungs<S> {
    fn pop(&mut self) {
        if let Some(rung) = self.rungs.pop() {
            self.held -= rung.charge.bytes();
        }
    }

    /// Keep a snapshot of `run` at boundary `at` if the budget has room
    /// for it beside the run a replay will be advancing.
    fn offer(&mut self, at: usize, run: &S) -> bool {
        let Some(mem) = self.mem.clone() else {
            return false;
        };
        // Same resume node, later state: the newer rung replaces the older.
        if self
            .rungs
            .last()
            .is_some_and(|r| self.marks[r.at] == self.marks[at])
        {
            self.pop();
        }
        let bytes = run.bytes();
        if self.held + 2 * bytes > self.capacity {
            return false;
        }
        let Some(charge) = Charge::within(bytes, mem, self.budget) else {
            return false;
        };
        self.held += bytes;
        self.rungs.push(Rung {
            at,
            state: run.clone(),
            charge,
        });
        true
    }

    /// A step boundary of the original recording.
    fn mark_recording(&mut self, run: &S) {
        let at = self.marks.len();
        self.marks.push(tape::position());
        // The program start needs no rung: `start()` rebuilds it for free.
        if at == 0 || self.mem.is_none() {
            return;
        }
        // Under the auto policy the budget grows with the recording.
        (self.capacity, self.budget) = tape::ladder_room();
        while (at - 1) % self.stride == 0 && !self.offer(at, run) && self.rungs.len() >= 2 {
            // Full: thin to every other kept boundary and try again.
            self.stride *= 2;
            let stride = self.stride;
            let mut held = 0;
            self.rungs.retain(|r| {
                let keep = (r.at - 1) % stride == 0;
                held += if keep { r.charge.bytes() } else { 0 };
                keep
            });
            self.held = held;
        }
    }

    /// Boundaries in `(from, base]` worth a rung while replaying forward
    /// from `from` for a window whose leg starts at `base`: `base` itself
    /// (the walk's next windows resume there) and the bisection points
    /// `from + d/2, from + 3d/4, …` before it, as far as free room goes.
    fn plan(&self, from: usize, base: usize, bytes: usize) -> Vec<usize> {
        // One snapshot's room belongs to the run being advanced.
        let mut free = (self.capacity.saturating_sub(self.held) / bytes.max(1)).saturating_sub(1);
        let mut points = Vec::new();
        if free == 0 || base <= from {
            return points;
        }
        points.push(base);
        free -= 1;
        let mut lo = from;
        while free > 0 {
            let mid = lo + (base - lo) / 2;
            if mid == lo {
                break;
            }
            points.push(mid);
            free -= 1;
            lo = mid;
        }
        points
    }
}

impl<S: Resume, F: Fn() -> S> Ladder<S, F> {
    /// Record the computation that begins at `start()` onto a fresh tape
    /// configured by `cfg`, advancing it boundary by boundary. Returns the
    /// tape, the computation's final position, and the replayer for that
    /// tape. With `cfg.checkpoint` unset nothing is ever cloned: the
    /// ladder only notes the boundaries.
    pub fn record(cfg: TapeConfig, start: F) -> (Tape, S, Ladder<S, F>) {
        let session = TapeSession::with_config(cfg);
        let mut run = start();
        let mut rungs = Rungs {
            marks: Vec::new(),
            rungs: Vec::new(),
            stride: 1,
            capacity: 0,
            budget: 0,
            held: 0,
            mem: cfg.checkpoint.map(|_| tape::reserve_snapshots(run.bytes())),
        };
        rungs.mark_recording(&run);
        while run.advance() {
            rungs.mark_recording(&run);
        }
        rungs.marks.push(tape::position());
        let tape = session.finish();
        (rungs.capacity, rungs.budget) = tape.store().ladder_room();
        let ladder = Ladder {
            start,
            state: RefCell::new(rungs),
        };
        (tape, run, ladder)
    }
}

impl<S: Resume, F: Fn() -> S> TapeReplay for Ladder<S, F> {
    fn replay(&self, nodes: Range<u64>) -> Result<(u64, bool), AdError> {
        let mut state = self.state.borrow_mut();
        let st = &mut *state;
        let diverged = |expected: u64, actual: u64| AdError::ReplayDivergence {
            segment: u64::MAX,
            expected,
            actual,
        };
        // Rungs above the window's first node lie behind a reverse walk.
        while st
            .rungs
            .last()
            .is_some_and(|r| st.marks[r.at] > nodes.start)
        {
            st.pop();
        }
        let (mut at, mut run) = match st.rungs.last() {
            Some(rung) => {
                tape::replay_seek(st.marks[rung.at]);
                (rung.at, rung.state.clone())
            }
            None => {
                let run = (self.start)();
                if tape::position() != st.marks[0] {
                    return Err(diverged(st.marks[0], tape::position()));
                }
                (0, run)
            }
        };
        // The run being advanced is resident like any rung, and its room
        // was held back from them.
        let _advancing = st
            .mem
            .clone()
            .filter(|_| st.capacity > 0)
            .map(|mem| Charge::new(run.bytes(), mem));
        let from = if at == 0 { 0 } else { st.marks[at] };
        let end_at = st.marks.len() - 1;
        // The last boundary at or before the window's first node.
        let base = st.marks.partition_point(|&m| m <= nodes.start).max(1) - 1;
        let plan = st.plan(at, base, run.bytes());
        while tape::position() < nodes.end {
            let more = run.advance();
            at += 1;
            let pos = tape::position();
            let expected = st.marks.get(at).copied();
            if expected != Some(pos) || more != (at < end_at) {
                return Err(diverged(expected.unwrap_or(st.marks[end_at]), pos));
            }
            if !more {
                return Ok((from, true));
            }
            if plan.contains(&at) {
                st.offer(at, &run);
            }
        }
        Ok((from, false))
    }
}

/// The thread-local recording target during a replay: assigns ids by
/// counting (so they match the original recording) and stores nodes only
/// for segments inside the requested window.
pub(crate) struct ReplaySink {
    /// Next node id (== nodes of the original recording replayed or
    /// skipped so far).
    next: u64,
    shift: u32,
    win_start: usize,
    segs: Vec<SegGuard>,
}

impl ReplaySink {
    /// A sink materializing the `segs.len()` segments from `win_start` on
    /// into the given (empty) arenas.
    pub(crate) fn new(shift: u32, win_start: usize, segs: Vec<SegGuard>) -> ReplaySink {
        ReplaySink {
            next: 0,
            shift,
            win_start,
            segs,
        }
    }

    /// Nodes counted so far.
    pub(crate) fn position(&self) -> u64 {
        self.next
    }

    /// Start counting at `node`: the replay resumes a snapshot taken when
    /// the original recording held that many nodes.
    pub(crate) fn seek(&mut self, node: u64) {
        debug_assert_eq!(self.next, 0, "seek after nodes were replayed");
        self.next = node;
    }

    /// Counterpart of the tape's push: always advances the id counter,
    /// materializes only inside the window.
    #[inline]
    pub(crate) fn push(&mut self, p1: u64, d1: f64, p2: u64, d2: f64) -> u64 {
        let idx = self.next;
        self.next += 1;
        let s = (idx >> self.shift) as usize;
        if let Some(local) = s.checked_sub(self.win_start) {
            if let Some(seg) = self.segs.get_mut(local) {
                seg.push(idx, p1, d1, p2, d2);
            }
        }
        idx
    }
}

/// What one window re-recording produced.
pub(crate) struct Rerecorded {
    /// The window's segments, in order.
    pub(crate) segs: Vec<SegGuard>,
    /// Node count the replay resumed from.
    pub(crate) from: u64,
    /// Node count it stopped at.
    pub(crate) pos: u64,
    /// Whether it ran to the program's end.
    pub(crate) ended: bool,
}

/// Re-record the window `sink` was built for by running `replayer` over
/// the node range `nodes`. The sink is installed on this thread for the
/// duration and removed again even if the replayer fails or panics.
pub(crate) fn rerecord(
    replayer: &dyn TapeReplay,
    sink: ReplaySink,
    nodes: Range<u64>,
) -> Result<Rerecorded, AdError> {
    tape::begin_replay(sink);
    // Clear the thread-local sink even on unwind, so a panicking replay
    // closure cannot leave a poisoned recording slot behind.
    struct Cleanup;
    impl Drop for Cleanup {
        fn drop(&mut self) {
            tape::abort_replay();
        }
    }
    let cleanup = Cleanup;
    let (from, ended) = replayer.replay(nodes)?;
    std::mem::forget(cleanup);
    let sink = tape::take_replay();
    Ok(Rerecorded {
        segs: sink.segs,
        from,
        pos: sink.next,
        ended,
    })
}

/// Sweep-side replay context: the registered replayer (if any), the obs
/// recorder `ad.replay` spans go to, and counters of what was re-recorded
/// during this sweep (reported in [`crate::SweepStats`]).
pub(crate) struct ReplayCtx<'a> {
    pub(crate) replayer: Option<&'a dyn TapeReplay>,
    pub(crate) rec: Recorder,
    segments: AtomicU64,
    nodes: AtomicU64,
}

impl<'a> ReplayCtx<'a> {
    /// No replayer: sweeps fail with a typed error on any evicted segment.
    pub(crate) fn none() -> ReplayCtx<'static> {
        ReplayCtx {
            replayer: None,
            rec: Recorder::disabled(),
            segments: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
        }
    }

    /// Replay through `replayer`, reporting spans to `rec`.
    pub(crate) fn new(replayer: &'a dyn TapeReplay, rec: Recorder) -> ReplayCtx<'a> {
        ReplayCtx {
            replayer: Some(replayer),
            rec,
            segments: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
        }
    }

    /// Account one window replay: segments materialized, nodes re-run.
    pub(crate) fn count_replay(&self, segments: u64, nodes: u64) {
        self.segments.fetch_add(segments, Ordering::Relaxed);
        self.nodes.fetch_add(nodes, Ordering::Relaxed);
    }

    /// `(segments, nodes)` re-recorded so far under this context.
    pub(crate) fn replayed(&self) -> (u64, u64) {
        (
            self.segments.load(Ordering::Relaxed),
            self.nodes.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adj, SweepConfig, TapeCheckpointConfig, NODE_BYTES};
    use std::cell::Cell;
    use std::rc::Rc;

    /// 64 steps of 24 nodes each over one leaf.
    #[derive(Clone)]
    struct Chain {
        x: Adj,
        acc: Adj,
        step: usize,
    }

    impl Resume for Chain {
        fn advance(&mut self) -> bool {
            for _ in 0..12 {
                self.acc = self.acc * 1.001 + self.x;
            }
            self.step += 1;
            self.step < 64
        }

        fn bytes(&self) -> usize {
            std::mem::size_of::<Chain>()
        }
    }

    fn start() -> Chain {
        let x = Adj::leaf(1.25);
        Chain {
            x,
            acc: x * 2.0,
            step: 0,
        }
    }

    #[test]
    fn rungs_are_charged_to_the_tape_budget_and_released() {
        let cfg = TapeConfig {
            segment_len: 32,
            checkpoint: Some(TapeCheckpointConfig::with_ncheckpoints(4)),
            ..TapeConfig::default()
        };
        let (tape, end, ladder) = Ladder::record(cfg, start);
        let mem = tape.store().mem().clone();
        let seg_bytes = 32 * NODE_BYTES;
        let held = ladder.state.borrow().held;
        assert!(held > 0, "snapshots were kept");
        assert!(
            held <= 2 * seg_bytes,
            "within the ladder's half of the budget"
        );
        // Two of the four slots hold segments, the rest of the residency
        // is snapshot bytes.
        assert_eq!(tape.resident_bytes(), 2 * seg_bytes + held);
        tape.gradient_sweep_replay(end.acc, SweepConfig::serial(), &ladder)
            .unwrap();
        assert!(tape.peak_resident_bytes() <= 4 * seg_bytes);
        assert_eq!(mem.resident(), tape.resident_bytes(), "one set of counters");
        let held = ladder.state.borrow().held;
        drop(ladder);
        assert_eq!(mem.resident(), tape.resident_bytes());
        assert_eq!(
            tape.resident_bytes() % seg_bytes,
            0,
            "{held} B of rungs gone"
        );
        drop(tape);
        assert_eq!(mem.resident(), 0);
    }

    /// [`Chain`], noting the least snapshot residency (resident bytes
    /// beyond whole segments) any replaying step sees.
    #[derive(Clone)]
    struct Probe {
        chain: Chain,
        mem: Rc<RefCell<Option<Arc<MemCounters>>>>,
        least: Rc<Cell<usize>>,
    }

    const PROBE_SEG: usize = 256 * NODE_BYTES;

    impl Resume for Probe {
        fn advance(&mut self) -> bool {
            if let Some(mem) = self.mem.borrow().as_ref() {
                let snapshots = mem.resident() % PROBE_SEG;
                self.least.set(self.least.get().min(snapshots));
            }
            self.chain.advance()
        }

        fn bytes(&self) -> usize {
            std::mem::size_of::<Probe>()
        }
    }

    #[test]
    fn the_advancing_run_is_charged_like_a_rung() {
        let mem = Rc::new(RefCell::new(None));
        let least = Rc::new(Cell::new(usize::MAX));
        let cfg = TapeConfig {
            segment_len: 256,
            checkpoint: Some(TapeCheckpointConfig::with_ncheckpoints(4)),
            ..TapeConfig::default()
        };
        let (tape, end, ladder) = Ladder::record(cfg, || Probe {
            chain: start(),
            mem: mem.clone(),
            least: least.clone(),
        });
        // All 64 snapshots together are smaller than one segment, so the
        // bytes beyond whole segments are exactly the snapshots.
        let one = std::mem::size_of::<Probe>();
        assert!(65 * one < PROBE_SEG);
        *mem.borrow_mut() = Some(tape.store().mem().clone());
        tape.gradient_sweep_replay(end.chain.acc, SweepConfig::serial(), &ladder)
            .unwrap();
        // The windows nearest the program start resume no rung: what is
        // resident then, beside the segments, is the run itself.
        assert_eq!(least.get(), one);
        assert!(tape.peak_resident_bytes() <= 4 * PROBE_SEG);
        *mem.borrow_mut() = None;
        drop(ladder);
        assert_eq!(tape.resident_bytes() % PROBE_SEG, 0);
    }
}
