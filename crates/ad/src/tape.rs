//! The Wengert list (tape) and its recording session.
//!
//! The tape is an append-only record of every tracked arithmetic operation
//! executed by the program between the checkpoint boundary and the output.
//! Checkpointed elements enter as *leaves*; a reverse sweep (see
//! [`crate::sweep`]) then computes `∂output/∂leaf` for all leaves at once —
//! the quantity the paper uses to classify elements as critical (non-zero)
//! or uncritical (zero).
//!
//! Storage is **segmented** ([`crate::segment`]): fixed-size arenas that
//! never reallocate, `u64` node ids with segment-local indexing, and a
//! typed [`AdError`] instead of a panic when the recording budget is
//! exhausted. The segments are also the unit of parallelism for the
//! reverse sweeps — and of *eviction* under a [`TapeCheckpointConfig`],
//! where interior segments are discarded during recording and re-recorded
//! on demand by the sweeps through a [`TapeReplay`] ([`crate::replay`]).

use crate::datadep::DataDep;
use crate::error::AdError;
use crate::replay::{ReplayCtx, ReplaySink, TapeReplay};
use crate::segment::{
    MemCounters, SegmentStore, TapeCheckpointConfig, DEFAULT_NODE_LIMIT, DEFAULT_SEGMENT_LEN,
};
use crate::sweep::{self, Gradient, Kernels, SweepConfig, SweepStats};
use scrutiny_obs::Recorder;
use std::cell::RefCell;
use std::sync::Arc;

pub(crate) use crate::segment::NONE;

/// Construction parameters for a [`Tape`].
#[derive(Clone, Copy, Debug)]
pub struct TapeConfig {
    /// Nodes to pre-reserve spine room for. Segments themselves are
    /// allocated on demand and never copied, so this is a soft hint (it
    /// avoids growing the small segment-pointer vector), not the hard
    /// reallocation cliff it was for the seed's contiguous tape.
    pub capacity: usize,
    /// Nodes per segment; rounded up to a power of two in `[8, 2^31]`.
    /// Smaller segments expose more sweep parallelism (and are used by the
    /// boundary tests); the default keeps per-segment overhead negligible.
    pub segment_len: usize,
    /// Recording budget in nodes. Exceeding it poisons the tape with
    /// [`AdError::TapeOverflow`] instead of aborting the run.
    pub node_limit: u64,
    /// Bounded-residency policy: keep at most `ncheckpoints` segments in
    /// memory, evicting the rest to digests that are re-recorded on
    /// demand during sweeps. `None` (the default) keeps every segment
    /// resident; a checkpointed tape must be swept with a replayer
    /// ([`SweepRequest::replay`]).
    pub checkpoint: Option<TapeCheckpointConfig>,
}

impl Default for TapeConfig {
    fn default() -> Self {
        TapeConfig {
            capacity: 1024,
            segment_len: DEFAULT_SEGMENT_LEN,
            node_limit: DEFAULT_NODE_LIMIT,
            checkpoint: None,
        }
    }
}

/// A recorded computation graph in segmented, variable-length storage.
///
/// Node `i` has up to two parents, each with the local partial derivative
/// computed when the node was recorded; leaves have no parents. Each
/// parent is stored as a `u32` backward distance and each partial as a
/// 2-bit code when it is ±1, as an `f64` otherwise — ≈ 11 bytes per node
/// on the NPB tapes ([`crate::segment`]). Values are *not* stored because
/// the reverse sweep only needs partials.
pub struct Tape {
    store: SegmentStore,
    leaves: usize,
}

impl Default for Tape {
    fn default() -> Self {
        Tape::with_config(TapeConfig::default())
    }
}

impl Tape {
    /// Create an empty tape with spine room reserved for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        Tape::with_config(TapeConfig {
            capacity,
            ..TapeConfig::default()
        })
    }

    /// Create an empty tape with explicit segmentation and budget.
    pub fn with_config(cfg: TapeConfig) -> Self {
        Tape {
            store: SegmentStore::new(
                cfg.capacity,
                cfg.segment_len,
                cfg.node_limit,
                cfg.checkpoint,
            ),
            leaves: 0,
        }
    }

    /// Number of recorded nodes (leaves included).
    pub fn len(&self) -> usize {
        self.store.len() as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Number of leaf (input) nodes registered on this tape.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Nodes per segment (a power of two).
    pub fn segment_len(&self) -> usize {
        self.store.segment_len()
    }

    /// Segments recorded (resident and evicted alike).
    pub fn segment_count(&self) -> usize {
        self.store.seg_count()
    }

    /// The recording budget this tape was configured with.
    pub fn node_limit(&self) -> u64 {
        self.store.limit()
    }

    /// Arena bytes currently resident. Without a checkpoint policy this
    /// equals the full allocated footprint; under one, evicted segments
    /// are not counted (their memory is freed).
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// High-water mark of [`Tape::resident_bytes`] over the tape's
    /// lifetime — recording *and* every sweep/replay so far. The
    /// measurable form of the bounded-memory guarantee.
    pub fn peak_resident_bytes(&self) -> usize {
        self.store.peak_resident_bytes()
    }

    /// True once recording was dropped because the budget was exhausted.
    /// Every sweep on a poisoned tape fails with
    /// [`AdError::TapeOverflow`].
    pub fn overflowed(&self) -> bool {
        self.store.overflowed()
    }

    pub(crate) fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Seal the open recording segment into the sweepable slot table.
    /// Called by [`TapeSession::finish`]; idempotent.
    pub(crate) fn seal(&mut self) {
        self.store.seal_open();
    }

    /// Size and composition counters, for memory accounting in reports.
    pub fn stats(&self) -> TapeStats {
        let nodes = self.len();
        TapeStats {
            nodes,
            leaves: self.leaves,
            segments: self.segment_count(),
            segment_len: self.segment_len(),
            bytes: self.store.encoded_bytes(),
            resident_bytes: self.store.resident_bytes(),
            peak_resident_bytes: self.store.peak_resident_bytes(),
            evicted_segments: self.store.evicted_count(),
            replayed_segments: self.store.replayed_total(),
            sweep_bytes: nodes * (8 + 1),
        }
    }

    /// Append a node. Returns [`NONE`] once the budget is exhausted — the
    /// caller's `Adj` then folds to a constant and the poisoning surfaces
    /// as a typed error at sweep time, not as an abort mid-record.
    #[inline]
    pub(crate) fn push(&mut self, p1: u64, d1: f64, p2: u64, d2: f64) -> u64 {
        self.store.push(p1, d1, p2, d2)
    }

    #[inline]
    pub(crate) fn push_leaf(&mut self) -> u64 {
        let idx = self.push(NONE, 0.0, NONE, 0.0);
        if idx != NONE {
            self.leaves += 1;
        }
        idx
    }

    // ---- sweeps ----------------------------------------------------------

    /// The one sweep entry point: run every kernel `req` names, seeded at
    /// `output`, and return each one's result.
    ///
    /// All of them are fed by **one** reverse walk that fetches each
    /// segment window once; each kernel's result is bit-identical to
    /// running it alone. With a replayer (a checkpointed tape) evicted
    /// windows are re-recorded on the way; without one every segment must
    /// be resident, or the sweep fails with [`AdError::SegmentEvicted`].
    ///
    /// A constant output (an [`crate::Adj`] that never touched the tape)
    /// yields all-zero results: nothing influenced it. A poisoned
    /// (overflowed) tape yields [`AdError::TapeOverflow`]; an output from
    /// another, longer recording [`AdError::NodeOutOfRange`]; a diverging
    /// replay [`AdError::ReplayDivergence`].
    ///
    /// Reports through `req.recorder`: the `ad.sweep.fused` span of the
    /// walk, one `ad.replay` span per re-recorded window, and the
    /// `ad.sweep.<kind>.*` gauges of every kernel's [`SweepStats`].
    pub fn sweep(&self, output: crate::Adj, req: &SweepRequest<'_>) -> Result<Swept, AdError> {
        let seed = output.index();
        let cfg = SweepConfig {
            threads: req.threads,
        };
        let rec = &req.recorder;
        let wants = |k: Kernel| req.kernels.contains(&k);
        let (reach, datadep) = (wants(Kernel::Reach), wants(Kernel::DataDep));
        let shape = self.stats();
        let _span = scrutiny_obs::span!(
            rec,
            "ad.sweep.fused",
            nodes = shape.nodes,
            segments = shape.segments,
            kernels = req.kernels.len()
        );
        let ctx = match req.replay {
            Some(replay) => ReplayCtx::new(replay, rec.clone()),
            None => ReplayCtx::none(),
        };
        let kernels = Kernels {
            value: wants(Kernel::Value),
            reach: reach || datadep,
            used: datadep,
        };
        let mut walked = sweep::walk(self, seed, kernels, cfg, &ctx)?;
        let mut swept = Swept {
            value: walked.value.take(),
            ..Swept::default()
        };
        if datadep {
            // Liveness *is* the reach kernel's result: both share the one
            // vector the walk produced.
            let dd = DataDep::from_walk(walked, seed);
            swept.reach = reach.then(|| dd.shared_live());
            swept.datadep = Some(dd);
        } else {
            swept.reach = walked.reach.map(|(bits, stats)| (Arc::new(bits), stats));
        }
        for (kind, stats) in [
            ("value", swept.value.as_ref().map(|v| v.1)),
            ("reach", swept.reach.as_ref().map(|r| r.1)),
            ("datadep", swept.datadep.as_ref().map(DataDep::stats)),
        ] {
            if let Some(stats) = stats {
                stats.emit(rec, kind);
            }
        }
        Ok(swept)
    }

    /// Reverse (adjoint) sweep: derivative of the node `output` with
    /// respect to every node on the tape. Chooses the parallel sweep when
    /// segments and cores allow; results are bit-identical either way.
    /// Same error contract as [`Tape::sweep`]; a checkpointed tape with
    /// evicted segments yields [`AdError::SegmentEvicted`] (use
    /// [`Tape::gradient_sweep_replay`]).
    pub fn gradient(&self, output: crate::Adj) -> Result<Gradient, AdError> {
        self.gradient_sweep(output, SweepConfig::default())
            .map(|(g, _)| g)
    }

    /// Reverse sweep with an explicit [`SweepConfig`], also reporting
    /// [`SweepStats`] (segments visited, threads, frontier traffic).
    pub fn gradient_sweep(
        &self,
        output: crate::Adj,
        cfg: SweepConfig,
    ) -> Result<(Gradient, SweepStats), AdError> {
        self.value_walk(output, cfg, &ReplayCtx::none())
    }

    /// [`Tape::gradient_sweep`] on a checkpointed tape: evicted segments
    /// are re-recorded on demand by `replay` (which must deterministically
    /// repeat the recorded computation), keeping residency within the
    /// [`TapeCheckpointConfig`] budget. Bit-identical to the unbounded
    /// sweep; a diverging replay is [`AdError::ReplayDivergence`].
    pub fn gradient_sweep_replay(
        &self,
        output: crate::Adj,
        cfg: SweepConfig,
        replay: &dyn TapeReplay,
    ) -> Result<(Gradient, SweepStats), AdError> {
        self.value_walk(output, cfg, &ReplayCtx::new(replay, Recorder::disabled()))
    }

    fn value_walk(
        &self,
        output: crate::Adj,
        cfg: SweepConfig,
        ctx: &ReplayCtx<'_>,
    ) -> Result<(Gradient, SweepStats), AdError> {
        let walked = sweep::walk(self, output.index(), Kernels::VALUE, cfg, ctx)?;
        Ok(walked.value.expect("value kernel was requested"))
    }

    /// Structural activity sweep: marks every node from which a data-flow
    /// path reaches `output`, ignoring partial-derivative *values*.
    ///
    /// This over-approximates [`Tape::gradient`]-based criticality: a node
    /// whose derivative cancels to exactly zero (e.g. `x - x`, or a
    /// multiplication by a tracked zero) is still structurally reachable.
    /// The paper's discussion section hopes for such an "algorithmic
    /// analysis"; the ablation benches quantify how often the two differ.
    pub fn reachable(&self, output: crate::Adj) -> Result<Vec<bool>, AdError> {
        self.reachable_sweep(output, SweepConfig::default())
            .map(|(r, _)| r)
    }

    /// Structural sweep with an explicit [`SweepConfig`] and stats.
    pub fn reachable_sweep(
        &self,
        output: crate::Adj,
        cfg: SweepConfig,
    ) -> Result<(Vec<bool>, SweepStats), AdError> {
        self.reach_walk(output, cfg, &ReplayCtx::none())
    }

    /// [`Tape::reachable_sweep`] on a checkpointed tape, re-recording
    /// evicted segments through `replay`. See
    /// [`Tape::gradient_sweep_replay`] for the contract.
    pub fn reachable_sweep_replay(
        &self,
        output: crate::Adj,
        cfg: SweepConfig,
        replay: &dyn TapeReplay,
    ) -> Result<(Vec<bool>, SweepStats), AdError> {
        self.reach_walk(output, cfg, &ReplayCtx::new(replay, Recorder::disabled()))
    }

    fn reach_walk(
        &self,
        output: crate::Adj,
        cfg: SweepConfig,
        ctx: &ReplayCtx<'_>,
    ) -> Result<(Vec<bool>, SweepStats), AdError> {
        let walked = sweep::walk(self, output.index(), Kernels::REACH, cfg, ctx)?;
        Ok(walked.reach.expect("reach kernel was requested"))
    }

    /// Static data-dependency analysis ([`crate::datadep`]): structural
    /// liveness plus def-use bits and witness-path extraction, never
    /// touching adjoint values. The AutoCheck-style second analyzer the
    /// differential harness cross-checks [`Tape::gradient`] against.
    ///
    /// Same error contract as the sweeps: a constant output yields an
    /// all-dead result, a poisoned tape [`AdError::TapeOverflow`].
    pub fn datadep(&self, output: crate::Adj) -> Result<DataDep, AdError> {
        self.datadep_sweep(output, SweepConfig::default())
    }

    /// Data-dependency analysis with an explicit [`SweepConfig`]. On a
    /// checkpointed tape, request [`Kernel::DataDep`] from [`Tape::sweep`]
    /// with a replayer.
    pub fn datadep_sweep(&self, output: crate::Adj, cfg: SweepConfig) -> Result<DataDep, AdError> {
        let seed = output.index();
        let walked = sweep::walk(self, seed, Kernels::DATADEP, cfg, &ReplayCtx::none())?;
        Ok(DataDep::from_walk(walked, seed))
    }
}

/// One reverse kernel [`Tape::sweep`] can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// The adjoint (value-gradient) sweep: [`Swept::value`].
    Value,
    /// Structural reachability: [`Swept::reach`].
    Reach,
    /// The static data-dependency analysis — liveness plus def-use bits:
    /// [`Swept::datadep`].
    DataDep,
}

/// What [`Tape::sweep`] should compute, and how.
#[derive(Clone, Default)]
pub struct SweepRequest<'a> {
    /// The kernels to run.
    pub kernels: &'a [Kernel],
    /// Threads per walk (`0` = one per available core, `1` = serial);
    /// see [`SweepConfig::threads`].
    pub threads: usize,
    /// Re-records evicted segments of a checkpointed tape.
    pub replay: Option<&'a dyn TapeReplay>,
    /// Where spans and gauges go; disabled by default.
    pub recorder: Recorder,
}

/// The results of one [`Tape::sweep`]: `Some` for every kernel requested.
#[derive(Debug, Default)]
pub struct Swept {
    /// [`Kernel::Value`]: the adjoint of every node.
    pub value: Option<(Gradient, SweepStats)>,
    /// [`Kernel::Reach`]: one reachability bit per node — the same vector
    /// [`Swept::datadep`] holds as its liveness when both were requested.
    pub reach: Option<(Arc<Vec<bool>>, SweepStats)>,
    /// [`Kernel::DataDep`]: liveness, def-use bits, witness paths.
    pub datadep: Option<DataDep>,
}

/// Memory/size counters for a recorded tape.
///
/// `bytes` is what the recorded nodes occupy in their encoding, whether
/// currently resident or evicted — the memory an unbounded tape actually
/// touches. Residency is charged by reservation instead: every resident
/// segment counts [`crate::NODE_BYTES`] per node of capacity. Under a
/// [`TapeCheckpointConfig`] the memory held is `resident_bytes`, and the
/// bounded-memory guarantee is stated over `peak_resident_bytes` — the
/// high-water mark across recording and every sweep, which eviction keeps
/// at `O(ncheckpoints · segment)` instead of `O(nodes)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeStats {
    /// Total nodes recorded (leaves included).
    pub nodes: usize,
    /// Leaf (input) nodes.
    pub leaves: usize,
    /// Segments recorded (resident and evicted alike).
    pub segments: usize,
    /// Nodes per segment.
    pub segment_len: usize,
    /// Encoded bytes of every recorded node, evicted or not: what an
    /// unbounded tape writes (≈ 11 per node on the NPB tapes).
    pub bytes: usize,
    /// Arena bytes currently resident, at [`crate::NODE_BYTES`] per node
    /// of segment capacity (evicted segments excluded).
    pub resident_bytes: usize,
    /// High-water mark of resident arena bytes over the tape's lifetime.
    pub peak_resident_bytes: usize,
    /// Segments currently evicted to `(len, digest)` summaries.
    pub evicted_segments: usize,
    /// Segments re-recorded by replay over the tape's lifetime.
    pub replayed_segments: u64,
    /// Additional transient heap a full AD analysis needs while sweeping:
    /// the dense adjoint vector (8 bytes/node) plus the reachability
    /// vector (a `Vec<bool>`, 1 byte/node) the serial walk allocates.
    pub sweep_bytes: usize,
}

/// The thread-local recording target: a [`Tape`] during a normal session,
/// a [`ReplaySink`] while re-recording evicted segments.
enum Active {
    Record(Tape),
    Replay(ReplaySink),
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

/// RAII guard for the thread-local recording session.
///
/// Creating a session installs a fresh tape; all [`crate::Adj`] arithmetic
/// on this thread records onto it until [`TapeSession::finish`] extracts
/// the tape (or the guard is dropped, which discards the recording).
/// Sessions do not nest: starting one while another is active panics,
/// because silently splicing two recordings would corrupt both gradients.
pub struct TapeSession {
    finished: bool,
}

impl TapeSession {
    /// Start recording on this thread with the default configuration.
    pub fn new() -> Self {
        Self::with_config(TapeConfig::default())
    }

    /// Start recording with spine room for `capacity` nodes. Thanks to
    /// segmented storage this is a soft hint — an under-estimate no longer
    /// triggers whole-tape reallocation copies mid-kernel.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(TapeConfig {
            capacity,
            ..TapeConfig::default()
        })
    }

    /// Start recording with an explicit [`TapeConfig`] (segment length,
    /// node budget, and checkpoint policy included).
    pub fn with_config(cfg: TapeConfig) -> Self {
        ACTIVE.with(|slot| {
            let mut slot = slot.borrow_mut();
            assert!(
                slot.is_none(),
                "a TapeSession is already active on this thread; sessions do not nest"
            );
            *slot = Some(Active::Record(Tape::with_config(cfg)));
        });
        TapeSession { finished: false }
    }

    /// Stop recording and take ownership of the tape (sealed: the open
    /// segment joins the sweepable slot table, and under a checkpoint
    /// policy the residency budget is enforced one final time).
    pub fn finish(mut self) -> Tape {
        self.finished = true;
        let active = ACTIVE
            .with(|slot| slot.borrow_mut().take())
            .expect("active tape vanished while the session guard was alive");
        match active {
            Active::Record(mut tape) => {
                tape.seal();
                tape
            }
            Active::Replay(_) => {
                unreachable!("a TapeSession cannot be active during a replay")
            }
        }
    }

    /// Nodes recorded so far (useful for progress/capacity diagnostics).
    pub fn recorded(&self) -> usize {
        ACTIVE.with(|slot| match slot.borrow().as_ref() {
            Some(Active::Record(t)) => t.len(),
            _ => 0,
        })
    }
}

impl Default for TapeSession {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TapeSession {
    fn drop(&mut self) {
        if !self.finished {
            ACTIVE.with(|slot| slot.borrow_mut().take());
        }
    }
}

/// True if a recording session is active on this thread.
pub fn recording() -> bool {
    ACTIVE.with(|slot| matches!(slot.borrow().as_ref(), Some(Active::Record(_))))
}

/// Nodes the thread's recording target holds: the tape's length while
/// recording, the sink's counter during a replay.
pub(crate) fn position() -> u64 {
    ACTIVE.with(|slot| match slot.borrow().as_ref() {
        Some(Active::Record(tape)) => tape.store.len(),
        Some(Active::Replay(sink)) => sink.position(),
        None => panic!("no recording or replay is active on this thread"),
    })
}

fn with_recording<T>(f: impl FnOnce(&mut Tape) -> T) -> T {
    ACTIVE.with(|slot| match slot.borrow_mut().as_mut() {
        Some(Active::Record(tape)) => f(tape),
        _ => panic!("no TapeSession is recording on this thread"),
    })
}

/// Announce a ladder whose snapshots take `bytes` each to the recording
/// tape; returns the counters to charge them to.
pub(crate) fn reserve_snapshots(bytes: usize) -> Arc<MemCounters> {
    with_recording(|tape| tape.store.reserve_snapshots(bytes))
}

/// The recording tape's [`SegmentStore::ladder_room`].
pub(crate) fn ladder_room() -> (usize, usize) {
    with_recording(|tape| tape.store.ladder_room())
}

/// Preset the replay sink's node counter (a replay resuming a snapshot).
pub(crate) fn replay_seek(node: u64) {
    ACTIVE.with(|slot| match slot.borrow_mut().as_mut() {
        Some(Active::Replay(sink)) => sink.seek(node),
        _ => panic!("no replay is active on this thread"),
    })
}

/// Install a replay sink on this thread (see [`crate::replay`]). Panics
/// if a recording session or another replay is active — replays run on
/// sweep threads, never inside a session.
pub(crate) fn begin_replay(sink: ReplaySink) {
    ACTIVE.with(|slot| {
        let mut slot = slot.borrow_mut();
        assert!(
            slot.is_none(),
            "cannot replay while a TapeSession or another replay is active on this thread"
        );
        *slot = Some(Active::Replay(sink));
    });
}

/// Remove and return the replay sink installed by [`begin_replay`].
pub(crate) fn take_replay() -> ReplaySink {
    ACTIVE.with(|slot| match slot.borrow_mut().take() {
        Some(Active::Replay(sink)) => sink,
        _ => unreachable!("take_replay without an installed replay sink"),
    })
}

/// Clear the replay sink unconditionally (unwind path: a panicking replay
/// closure must not leave the thread's recording slot poisoned).
pub(crate) fn abort_replay() {
    ACTIVE.with(|slot| {
        let mut slot = slot.borrow_mut();
        if matches!(slot.as_ref(), Some(Active::Replay(_))) {
            *slot = None;
        }
    });
}

#[inline]
pub(crate) fn record_node(p1: u64, d1: f64, p2: u64, d2: f64) -> u64 {
    ACTIVE.with(|slot| {
        match slot
            .borrow_mut()
            .as_mut()
            .expect("arithmetic on tracked Adj values requires an active TapeSession")
        {
            Active::Record(tape) => tape.push(p1, d1, p2, d2),
            Active::Replay(sink) => sink.push(p1, d1, p2, d2),
        }
    })
}

#[inline]
pub(crate) fn record_leaf() -> u64 {
    ACTIVE.with(|slot| {
        match slot
            .borrow_mut()
            .as_mut()
            .expect("Adj::leaf requires an active TapeSession")
        {
            Active::Record(tape) => tape.push_leaf(),
            Active::Replay(sink) => sink.push(NONE, 0.0, NONE, 0.0),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::NODE_BYTES;
    use crate::Adj;

    #[test]
    fn empty_tape_stats() {
        let t = Tape::default();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.stats().bytes, 0);
        assert_eq!(t.stats().segments, 0);
    }

    #[test]
    fn stats_account_allocated_capacity() {
        let s = TapeSession::with_config(TapeConfig {
            segment_len: 8,
            ..TapeConfig::default()
        });
        let x = Adj::leaf(1.0);
        let mut y = x;
        for _ in 0..10 {
            y *= 2.0;
        }
        let tape = s.finish();
        let stats = tape.stats();
        assert_eq!(stats.nodes, 11);
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.segment_len, 8);
        // Encoded: a kind byte per node, and one distance per product
        // plus its explicit 2.0 partial (the constant's edge is absent).
        assert_eq!(stats.bytes, 11 + 10 * (4 + 8));
        // An adjoint (8 B) and a reach flag (1 B) per node: what the
        // serial walk allocates for a value + reach analysis.
        let walked = sweep::walk(
            &tape,
            y.index(),
            Kernels {
                value: true,
                reach: true,
                used: false,
            },
            SweepConfig::serial(),
            &ReplayCtx::none(),
        )
        .unwrap();
        let (grad, reach) = (walked.value.unwrap().0, walked.reach.unwrap().0);
        let allocated = grad.adj.capacity() * 8 + reach.capacity();
        assert_eq!(stats.sweep_bytes, allocated);
        // Both segments are reserved in full even though the second holds
        // only 3 nodes, and nothing is evicted without a checkpoint
        // policy: resident is the whole reservation and already the peak.
        assert_eq!(stats.resident_bytes, 2 * 8 * NODE_BYTES);
        assert_eq!(stats.peak_resident_bytes, stats.resident_bytes);
        assert_eq!(stats.evicted_segments, 0);
        assert_eq!(stats.replayed_segments, 0);
    }

    #[test]
    fn session_drop_discards() {
        {
            let _s = TapeSession::new();
            let _x = Adj::leaf(1.0);
        }
        assert!(!recording());
        // A new session can start after the old one was dropped.
        let s = TapeSession::new();
        assert!(recording());
        drop(s);
        assert!(!recording());
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn nested_sessions_panic() {
        let _a = TapeSession::new();
        let _b = TapeSession::new();
    }

    #[test]
    fn gradient_of_constant_output_is_zero() {
        let s = TapeSession::new();
        let x = Adj::leaf(5.0);
        let c = Adj::constant(2.0) * 3.0; // never touches the tape
        let tape = s.finish();
        let g = tape.gradient(c).unwrap();
        assert_eq!(g.wrt(x), 0.0);
    }

    #[test]
    fn linear_chain_gradient() {
        let s = TapeSession::new();
        let x = Adj::leaf(3.0);
        let mut y = x;
        for _ in 0..10 {
            y *= 2.0;
        }
        let tape = s.finish();
        assert_eq!(tape.gradient(y).unwrap().wrt(x), 1024.0);
    }

    #[test]
    fn overflow_poisons_instead_of_aborting() {
        let s = TapeSession::with_config(TapeConfig {
            segment_len: 8,
            node_limit: 6,
            ..TapeConfig::default()
        });
        let x = Adj::leaf(2.0);
        let mut y = x;
        for _ in 0..20 {
            y = y * 2.0 + 1.0; // blows the 6-node budget mid-loop
        }
        // The record keeps running (no abort); the value is still exact.
        let expected = {
            let mut v = 2.0f64;
            for _ in 0..20 {
                v = v * 2.0 + 1.0;
            }
            v
        };
        assert_eq!(y.value(), expected);
        let tape = s.finish();
        assert!(tape.overflowed());
        assert_eq!(
            tape.gradient(y).unwrap_err(),
            AdError::TapeOverflow { limit: 6 }
        );
        assert_eq!(
            tape.reachable(y).unwrap_err(),
            AdError::TapeOverflow { limit: 6 }
        );
    }

    #[test]
    fn out_of_range_seed_is_a_typed_error() {
        // An output from another, longer recording.
        let s = TapeSession::new();
        let mut foreign = Adj::leaf(1.0);
        while foreign.index() != Some(5) {
            foreign += 1.0;
        }
        drop(s);
        let s = TapeSession::new();
        let _x = Adj::leaf(1.0);
        let tape = s.finish();
        assert_eq!(
            tape.gradient(foreign).unwrap_err(),
            AdError::NodeOutOfRange { node: 5, len: 1 }
        );
        assert_eq!(
            tape.reachable(foreign).unwrap_err(),
            AdError::NodeOutOfRange { node: 5, len: 1 }
        );
    }

    #[test]
    fn reachability_superset_of_nonzero_gradient() {
        let s = TapeSession::new();
        let x = Adj::leaf(3.0);
        let y = Adj::leaf(4.0);
        let cancel = x - x; // structurally reachable, zero derivative
        let out = cancel * y;
        let tape = s.finish();
        let g = tape.gradient(out).unwrap();
        let r = tape.reachable(out).unwrap();
        assert_eq!(g.wrt(x), 0.0, "x-x cancels exactly");
        assert!(r[x.index().unwrap() as usize], "x is structurally active");
        // y's gradient is zero too (multiplied by a zero value) but reachable.
        assert_eq!(g.wrt(y), 0.0);
        assert!(r[y.index().unwrap() as usize]);
    }

    #[test]
    fn leaf_count_tracks_leaves() {
        let s = TapeSession::new();
        let a = Adj::leaf(1.0);
        let b = Adj::leaf(2.0);
        let _ = a + b;
        let tape = s.finish();
        assert_eq!(tape.leaf_count(), 2);
        assert_eq!(tape.len(), 3);
    }

    #[test]
    fn sweep_stats_round_trip_through_gauges() {
        let rec = Recorder::new();
        let stats = SweepStats {
            segments: 3,
            threads: 2,
            cross_contribs: 7,
            parallel: true,
            replayed_segments: 5,
            replayed_nodes: 11,
            peak_resident_bytes: 4096,
        };
        stats.emit(&rec, "value");
        let snap = rec.snapshot();
        let gauge = |name: &str| snap.gauge(&format!("ad.sweep.value.{name}"));
        assert_eq!(gauge("segments"), Some(3));
        assert_eq!(gauge("threads"), Some(2));
        assert_eq!(gauge("cross_contribs"), Some(7));
        assert_eq!(gauge("parallel"), Some(1));
        assert_eq!(gauge("replayed_segments"), Some(5));
        assert_eq!(gauge("replayed_nodes"), Some(11));
        assert_eq!(gauge("peak_resident_bytes"), Some(4096));
        assert_eq!(snap.gauges.len(), 7, "no other sweep kind was emitted");
    }

    // ----- checkpointed tapes ----------------------------------------

    /// A deterministic multi-segment computation usable both as the
    /// original recording and as its own replay closure.
    fn chain_computation() -> (Adj, Adj) {
        let x = Adj::leaf(1.5);
        let y = Adj::leaf(-0.25);
        let mut acc = x * 2.0 + y;
        for i in 0..200 {
            acc = acc * 1.001 + x * (i as f64 * 0.01) - y;
        }
        (x, acc)
    }

    fn checkpointed_cfg(n: usize) -> TapeConfig {
        TapeConfig {
            segment_len: 32,
            checkpoint: Some(TapeCheckpointConfig::with_ncheckpoints(n)),
            ..TapeConfig::default()
        }
    }

    #[test]
    fn checkpointed_gradient_is_bit_identical_to_unbounded() {
        let s = TapeSession::with_config(TapeConfig {
            segment_len: 32,
            ..TapeConfig::default()
        });
        let (x, out) = chain_computation();
        let tape = s.finish();
        let unbounded = tape.gradient(out).unwrap();

        let s = TapeSession::with_config(checkpointed_cfg(2));
        let (cx, cout) = chain_computation();
        let ctape = s.finish();
        assert!(ctape.stats().evicted_segments > 0, "eviction happened");
        // Ids line up: the replay is the same computation.
        assert_eq!(x.index(), cx.index());
        let replay = || {
            let _ = chain_computation();
        };
        let (g, stats) = ctape
            .gradient_sweep_replay(cout, SweepConfig::serial(), &replay)
            .unwrap();
        assert_eq!(g.wrt(cx).to_bits(), unbounded.wrt(x).to_bits());
        assert!(stats.replayed_segments > 0, "replay actually ran");
        // Residency never exceeded the configured budget.
        let budget = 2 * 32 * NODE_BYTES;
        assert!(
            ctape.peak_resident_bytes() <= budget,
            "peak {} > budget {}",
            ctape.peak_resident_bytes(),
            budget
        );
    }

    #[test]
    fn arenas_are_recycled_and_accounting_returns_to_zero() {
        // Recording and two replaying sweeps over ~20 segments allocate
        // a budget's worth of arenas, not one per segment or window …
        let s = TapeSession::with_config(checkpointed_cfg(2));
        let (_, out) = chain_computation();
        let tape = s.finish();
        assert!(tape.segment_count() >= 16);
        let mem = tape.store().mem().clone();
        assert!(mem.arenas() <= 2, "recording allocated {}", mem.arenas());
        let replay = || {
            let _ = chain_computation();
        };
        for _ in 0..2 {
            tape.gradient_sweep_replay(out, SweepConfig::serial(), &replay)
                .unwrap();
        }
        assert!(tape.stats().replayed_segments >= 16);
        assert!(mem.arenas() <= 4, "sweeps allocated {}", mem.arenas());
        assert!(tape.peak_resident_bytes() <= 2 * 32 * NODE_BYTES);
        // … and every byte charged is credited back, spares included.
        assert_eq!(mem.resident(), tape.resident_bytes());
        drop(tape);
        assert_eq!(mem.resident(), 0);
    }

    #[test]
    fn evicted_sweep_without_replayer_is_a_typed_error() {
        let s = TapeSession::with_config(checkpointed_cfg(1));
        let (_, out) = chain_computation();
        let tape = s.finish();
        assert!(matches!(
            tape.gradient(out).unwrap_err(),
            AdError::SegmentEvicted { .. }
        ));
    }

    #[test]
    fn divergent_replay_is_a_typed_error() {
        let s = TapeSession::with_config(checkpointed_cfg(1));
        let (_, out) = chain_computation();
        let tape = s.finish();
        // A replay that records *different* arithmetic diverges.
        let bad = || {
            let x = Adj::leaf(99.0);
            let mut acc = x;
            for _ in 0..500 {
                acc *= 1.5;
            }
        };
        assert!(matches!(
            tape.gradient_sweep_replay(out, SweepConfig::serial(), &bad)
                .unwrap_err(),
            AdError::ReplayDivergence { .. }
        ));
    }
}
