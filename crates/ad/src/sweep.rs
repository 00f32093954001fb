//! Reverse sweeps over the segmented tape: serial and parallel, always
//! bit-identical.
//!
//! A reverse sweep visits nodes in decreasing id order; node `i`'s adjoint
//! is complete only after every node `j > i` has contributed, so the sweep
//! is sequential *across* segments. The parallelism here is in the
//! **merge**: while the single sweep thread walks segment `s`, its adjoint
//! contributions to earlier segments are not scattered into a huge adjoint
//! vector (a cache-miss per contribution on NPB-sized tapes) but appended
//! to per-target *frontier buffers* — ordered lists of
//! `(offset, contribution)` pairs. Worker threads own disjoint target
//! segments and replay those buffers into the per-segment adjoint chunks
//! concurrently with the sweep of later segments.
//!
//! **Determinism.** Floating-point addition is not associative, so
//! bit-identity with the serial sweep requires that every adjoint slot
//! receive *the same contributions in the same order*. The serial order
//! for slot `k` is decreasing contributor id: all contributions from
//! segment `N`, then all from `N−1`, … each group internally in decreasing
//! id. The parallel sweep preserves exactly that order: frontier buffers
//! are emitted in decreasing-id order within a segment, each `(source s,
//! target t)` buffer is sent at most once, sources sweep in decreasing
//! order, and the worker owning `t` replays its queue FIFO — so slot `k`'s
//! additions happen in serial order even though *different* slots merge
//! concurrently. That schedule lives in one place — the private
//! `walk_parallel`. The property suite (`crates/ad/tests/segmented.rs`)
//! checks `to_bits`-equality on random tapes; the root
//! `tests/sweep_equivalence.rs` checks it on real NPB recordings.
//!
//! **One walk, several kernels.** A walk feeds every requested kernel from
//! each segment it fetches: the value kernel, the structural reachability
//! kernel (per-segment **bitsets** under the same schedule; a monotone OR,
//! so its merge order could not matter anyway) and the data-dependency
//! analyzer's def-use bits. The kernels keep separate accumulators and
//! separate frontier buffers, so each one's result is bit-identical to a
//! walk of its own — and on a checkpointed tape every evicted window is
//! re-recorded once per walk instead of once per kernel. Nodes are read
//! through the segment's reverse cursor ([`crate::segment`] alone knows
//! the encoding); the serial walk decodes each node once for every
//! kernel.
//!
//! **Bounded memory.** Under a [`crate::TapeCheckpointConfig`] the sweep
//! thread fetches each segment through [`crate::segment`]'s windowed
//! `view` instead of a resident slice: evicted segments are re-recorded
//! (and digest-verified) on demand through the replay context, and
//! segments behind the sweep are demoted again, so tape residency stays at
//! `O(ncheckpoints · segment)` for the whole walk. Only the single sweep
//! thread decodes segments — the merge workers operate on adjoint
//! chunks alone — so the frontier schedule (and its bit-identity argument)
//! is untouched by eviction.

use crate::error::AdError;
use crate::replay::ReplayCtx;
use crate::segment::{Node, Segment, NONE};
use crate::tape::Tape;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

/// How a reverse sweep should run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepConfig {
    /// Total threads the sweep may use (the sweep thread itself plus merge
    /// workers). `0` means one thread per available core; `1` forces the
    /// serial sweep. Results are bit-identical for every value.
    pub threads: usize,
}

impl SweepConfig {
    /// Force the serial (seed-equivalent) sweep.
    pub fn serial() -> SweepConfig {
        SweepConfig { threads: 1 }
    }

    /// Use exactly `threads` threads (sweep thread + `threads − 1` merge
    /// workers).
    pub fn with_threads(threads: usize) -> SweepConfig {
        SweepConfig { threads }
    }

    fn resolve(self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

/// What a reverse sweep did, for the analysis report and the benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Segments the sweep visited (those at or below the seed node).
    pub segments: usize,
    /// Threads used: `1` for the serial sweep, sweep thread + merge
    /// workers for the parallel sweep.
    pub threads: usize,
    /// Adjoint (or reachability) contributions that crossed a segment
    /// boundary and were routed through frontier buffers. `0` for serial
    /// sweeps, which scatter directly.
    pub cross_contribs: u64,
    /// True when the frontier-merge workers ran.
    pub parallel: bool,
    /// Segments re-recorded by replay during the walk this sweep was part
    /// of; `0` when every segment was resident. Kernels fused into one
    /// walk ([`crate::Tape::sweep`]) all report that walk's count.
    pub replayed_segments: u64,
    /// Nodes the replayer re-ran to re-record those segments (counted
    /// from the point each replay resumed at, materialized or not) — the
    /// replay *work*, against the tape's recorded node count.
    pub replayed_nodes: u64,
    /// High-water mark of resident tape-arena bytes over the tape's
    /// lifetime so far (recording included). Under a
    /// [`crate::TapeCheckpointConfig`] this is the measurable
    /// bounded-memory guarantee: it stays within
    /// `ncheckpoints × segment bytes` however long the tape is.
    pub peak_resident_bytes: usize,
}

impl SweepStats {
    /// Exports the stats as obs gauges `ad.sweep.<which>.*` (gauge *set*
    /// semantics: the most recent sweep of a given kind wins). `which` is
    /// one of the sweep kinds used by the analysis layer: `value`,
    /// `reach`, or `datadep`.
    pub fn emit(&self, rec: &scrutiny_obs::Recorder, which: &str) {
        if !rec.is_enabled() {
            return;
        }
        rec.set_gauge(&format!("ad.sweep.{which}.segments"), self.segments as i64);
        rec.set_gauge(&format!("ad.sweep.{which}.threads"), self.threads as i64);
        rec.set_gauge(
            &format!("ad.sweep.{which}.cross_contribs"),
            self.cross_contribs as i64,
        );
        rec.set_gauge(
            &format!("ad.sweep.{which}.parallel"),
            i64::from(self.parallel),
        );
        rec.set_gauge(
            &format!("ad.sweep.{which}.replayed_segments"),
            self.replayed_segments as i64,
        );
        rec.set_gauge(
            &format!("ad.sweep.{which}.replayed_nodes"),
            self.replayed_nodes as i64,
        );
        rec.set_gauge(
            &format!("ad.sweep.{which}.peak_resident_bytes"),
            self.peak_resident_bytes as i64,
        );
    }

    /// Merges stats from repeated sweeps over the same tape (burn-in
    /// aggregation): structural fields (`segments`, `threads`,
    /// `peak_resident_bytes`) take the maximum, traffic counters
    /// (`cross_contribs`, `replayed_segments`, `replayed_nodes`) **sum**,
    /// `parallel` ORs.
    pub fn merged_with(&self, other: &SweepStats) -> SweepStats {
        SweepStats {
            segments: self.segments.max(other.segments),
            threads: self.threads.max(other.threads),
            cross_contribs: self.cross_contribs + other.cross_contribs,
            parallel: self.parallel || other.parallel,
            replayed_segments: self.replayed_segments + other.replayed_segments,
            replayed_nodes: self.replayed_nodes + other.replayed_nodes,
            peak_resident_bytes: self.peak_resident_bytes.max(other.peak_resident_bytes),
        }
    }
}

/// Result of a value reverse sweep: the adjoint of every tape node.
#[derive(Debug)]
pub struct Gradient {
    pub(crate) adj: Vec<f64>,
}

impl Gradient {
    /// Derivative of the output with respect to the value `x`.
    ///
    /// Constants have zero derivative by definition.
    pub fn wrt(&self, x: crate::Adj) -> f64 {
        match x.index() {
            Some(idx) => self.adj[idx as usize],
            None => 0.0,
        }
    }

    /// Derivative of the output with respect to tape node `idx`.
    pub fn of_node(&self, idx: u64) -> f64 {
        self.adj[idx as usize]
    }

    /// Total number of adjoints (== tape length).
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the sweep covered an empty tape.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }
}

/// Which kernels one reverse walk feeds. `value` and `reach` are the two
/// reverse sweeps; `used` is the data-dependency analyzer's def-use bit
/// ("appears as a parent of some node"), which has no direction and so
/// rides along on the same walk.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Kernels {
    pub(crate) value: bool,
    pub(crate) reach: bool,
    pub(crate) used: bool,
}

impl Kernels {
    pub(crate) const VALUE: Kernels = Kernels {
        value: true,
        reach: false,
        used: false,
    };
    pub(crate) const REACH: Kernels = Kernels {
        value: false,
        reach: true,
        used: false,
    };
    pub(crate) const DATADEP: Kernels = Kernels {
        value: false,
        reach: true,
        used: true,
    };
}

/// What one walk computed: `Some` for every kernel it was asked to feed.
/// Both stats describe the same walk and differ only in `cross_contribs`.
pub(crate) struct Walked {
    pub(crate) value: Option<(Gradient, SweepStats)>,
    pub(crate) reach: Option<(Vec<bool>, SweepStats)>,
    pub(crate) used: Option<Vec<bool>>,
}

/// One reverse walk over the tape, seeded at `seed` (`None`: the output
/// folded to a constant, nothing is reachable), feeding every kernel in
/// `kernels` from each fetched segment. Chooses the parallel schedule when
/// threads and segments allow; bit-identical either way, and each kernel's
/// result bit-identical to a walk of its own.
pub(crate) fn walk(
    tape: &Tape,
    seed: Option<u64>,
    kernels: Kernels,
    cfg: SweepConfig,
    ctx: &ReplayCtx<'_>,
) -> Result<Walked, AdError> {
    if tape.overflowed() {
        return Err(AdError::TapeOverflow {
            limit: tape.node_limit(),
        });
    }
    if let Some(out) = seed.filter(|&out| out >= tape.len() as u64) {
        return Err(AdError::NodeOutOfRange {
            node: out,
            len: tape.len() as u64,
        });
    }
    let seed_seg = seed.map(|out| (out >> tape.store().shift()) as usize);
    // A single segment has no cross-segment frontier; nothing to merge.
    let workers = (cfg.resolve() - 1).min(seed_seg.unwrap_or(0));
    let mut walked = if workers == 0 {
        walk_serial(tape, seed, kernels, ctx)?
    } else {
        walk_parallel(
            tape,
            seed.expect("workers imply a seed"),
            workers,
            kernels,
            ctx,
        )?
    };
    // How much this context re-recorded, and the tape's resident
    // high-water mark (which the walk may just have raised).
    let (replayed_segments, replayed_nodes) = ctx.replayed();
    let peak_resident_bytes = tape.store().peak_resident_bytes();
    let stats = [
        walked.value.as_mut().map(|v| &mut v.1),
        walked.reach.as_mut().map(|r| &mut r.1),
    ];
    for stats in stats.into_iter().flatten() {
        stats.replayed_segments = replayed_segments;
        stats.replayed_nodes = replayed_nodes;
        stats.peak_resident_bytes = peak_resident_bytes;
    }
    Ok(walked)
}

/// `n` copies of `zero`, written rather than allocated zeroed: the pages
/// of a `vec![0.0; n]` are first read (mapping the shared zero page) and
/// then written (a second, copy-on-write fault); writing the zeros faults
/// each page once.
fn zeroed<T: Copy>(n: usize, zero: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, zero);
    v
}

/// Mark every parent `node` names as used.
#[inline]
fn mark_parents(node: &Node, used: &mut [bool]) {
    for (p, _) in node.edges {
        if p != NONE {
            used[p as usize] = true;
        }
    }
}

/// Mark every parent named in `seg` (first node id `base`) as used.
fn mark_used(seg: &Segment, base: u64, used: &mut [bool]) {
    for node in seg.rev(base) {
        mark_parents(&node, used);
    }
}

/// The serial walk (the seed algorithm, segment by segment): each node is
/// decoded once, and each kernel scatters straight into its own dense
/// per-node state.
fn walk_serial(
    tape: &Tape,
    seed: Option<u64>,
    kernels: Kernels,
    ctx: &ReplayCtx<'_>,
) -> Result<Walked, AdError> {
    let store = tape.store();
    let shift = store.shift();
    let mut adj = kernels.value.then(|| zeroed(tape.len(), 0.0f64));
    let mut reach = kernels.reach.then(|| zeroed(tape.len(), false));
    let mut used = kernels.used.then(|| zeroed(tape.len(), false));
    if let Some(out) = seed {
        if let Some(adj) = &mut adj {
            adj[out as usize] = 1.0;
        }
        if let Some(reach) = &mut reach {
            reach[out as usize] = true;
        }
    }
    // The reverse kernels start at the seed's segment; def-use bits cover
    // the whole tape.
    let seed_seg = seed.map(|out| (out >> shift) as usize);
    let segments = seed_seg.map_or(0, |s| s + 1);
    let top = if kernels.used {
        store.seg_count()
    } else {
        segments
    };
    for s in (0..top).rev() {
        let seg = store.view(s, ctx)?;
        let base = s << shift;
        // The reverse kernels sweep the offsets below `swept`: none past
        // the seed's segment, none above the seed within it.
        let swept = match seed {
            Some(out) if Some(s) == seed_seg => out as usize - base + 1,
            Some(_) if s < segments => seg.len(),
            _ => 0,
        };
        for node in seg.rev(base as u64) {
            if let Some(used) = &mut used {
                mark_parents(&node, used);
            }
            if node.off >= swept {
                continue;
            }
            let i = base + node.off;
            if let Some(adj) = &mut adj {
                let a = adj[i];
                if a != 0.0 {
                    for (p, d) in node.edges {
                        if p != NONE {
                            adj[p as usize] += a * d;
                        }
                    }
                }
            }
            if let Some(reach) = &mut reach {
                if reach[i] {
                    for (p, _) in node.edges {
                        if p != NONE {
                            reach[p as usize] = true;
                        }
                    }
                }
            }
        }
    }
    let stats = SweepStats {
        segments,
        threads: 1,
        ..SweepStats::default()
    };
    Ok(Walked {
        value: adj.map(|adj| (Gradient { adj }, stats)),
        reach: reach.map(|reach| (reach, stats)),
        used,
    })
}

// ---- the deterministic parallel schedule ---------------------------------

#[inline]
fn bit_set(words: &mut [u64], off: usize) {
    words[off >> 6] |= 1u64 << (off & 63);
}

#[inline]
fn bit_get(words: &[u64], off: usize) -> bool {
    words[off >> 6] & (1u64 << (off & 63)) != 0
}

/// Per-segment accumulators of the parallel walk: an adjoint chunk for the
/// value kernel, a bitset for the reach kernel (each empty when its kernel
/// is off).
struct Chunk {
    adj: Vec<f64>,
    bits: Vec<u64>,
}

/// The cross-segment contributions one swept segment sends to one earlier
/// segment: `(offset, a·d)` for the value kernel, offsets for the reach
/// kernel, each in emission (decreasing source id) order.
#[derive(Default)]
struct Frontier {
    adj: Vec<(u32, f64)>,
    bits: Vec<u32>,
}

impl Kernels {
    /// A zeroed accumulator for a segment holding `nodes` nodes.
    fn new_chunk(&self, nodes: usize) -> Chunk {
        Chunk {
            adj: zeroed(if self.value { nodes } else { 0 }, 0.0),
            bits: zeroed(if self.reach { nodes.div_ceil(64) } else { 0 }, 0),
        }
    }

    /// Sweep one segment in decreasing offset order, decoding each node
    /// once for both kernels: apply same-segment contributions directly to
    /// `chunk`, push cross-segment ones onto `frontier[target]` in
    /// emission order.
    fn sweep_segment(
        &self,
        seg: &Segment,
        s: usize,
        shift: u32,
        mask: u64,
        chunk: &mut Chunk,
        frontier: &mut [Frontier],
    ) {
        // Offsets above the seed (in the seed segment) hold 0 and are
        // skipped, matching the serial walk's bound.
        for node in seg.rev((s as u64) << shift) {
            let a = if self.value { chunk.adj[node.off] } else { 0.0 };
            let live = self.reach && bit_get(&chunk.bits, node.off);
            if a == 0.0 && !live {
                continue;
            }
            for (p, d) in node.edges {
                if p == NONE {
                    continue;
                }
                let (ps, po) = ((p >> shift) as usize, (p & mask) as usize);
                if a != 0.0 {
                    if ps == s {
                        chunk.adj[po] += a * d;
                    } else {
                        frontier[ps].adj.push((po as u32, a * d));
                    }
                }
                if live {
                    if ps == s {
                        bit_set(&mut chunk.bits, po);
                    } else {
                        frontier[ps].bits.push(po as u32);
                    }
                }
            }
        }
    }
}

/// Replay one frontier buffer into a target segment's chunk.
fn merge(chunk: &mut Chunk, list: &Frontier) {
    for &(off, v) in &list.adj {
        chunk.adj[off as usize] += v;
    }
    for &off in &list.bits {
        bit_set(&mut chunk.bits, off as usize);
    }
}

/// Coordination state shared between the sweep thread and merge workers.
struct Gate {
    lock: Mutex<()>,
    cvar: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            lock: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    /// Block until `applied` reaches `expected`.
    fn wait_for(&self, applied: &AtomicU64, expected: u64) {
        let mut guard = self.lock.lock().unwrap();
        while applied.load(Ordering::Acquire) < expected {
            guard = self.cvar.wait(guard).unwrap();
        }
    }

    /// Record one applied buffer and wake the sweep thread.
    fn bump(&self, applied: &AtomicU64) {
        let _guard = self.lock.lock().unwrap();
        applied.fetch_add(1, Ordering::Release);
        self.cvar.notify_all();
    }
}

/// The parallel walk: `kernels` under the deterministic frontier-merge
/// schedule.
///
/// Worker `w` owns every target segment `t` with `t % workers == w`, so
/// chunk access is disjoint; the sweep thread sends each `(source,
/// target)` buffer at most once, in decreasing source order, and waits for
/// `applied[s] == sent[s]` before sweeping segment `s` — at which point no
/// later source can send to `s` again, so per-slot merge order equals the
/// serial contribution order.
///
/// Segments are fetched through windowed views — only this thread
/// touches them, so eviction/replay composes with the merge schedule
/// without changing it. A replay failure aborts the sweep with its typed
/// error once the workers have drained.
fn walk_parallel(
    tape: &Tape,
    out: u64,
    workers: usize,
    kernels: Kernels,
    ctx: &ReplayCtx<'_>,
) -> Result<Walked, AdError> {
    let store = tape.store();
    let shift = store.shift();
    let mask = store.mask();
    let last_seg = (out >> shift) as usize;

    let chunks: Vec<Mutex<Chunk>> = (0..=last_seg)
        .map(|s| Mutex::new(kernels.new_chunk(store.seg_nodes(s))))
        .collect();
    {
        let mut seed_chunk = chunks[last_seg].lock().unwrap();
        let off = (out & mask) as usize;
        if kernels.value {
            seed_chunk.adj[off] = 1.0;
        }
        if kernels.reach {
            bit_set(&mut seed_chunk.bits, off);
        }
    }
    let applied: Vec<AtomicU64> = (0..=last_seg).map(|_| AtomicU64::new(0)).collect();
    let gate = Gate::new();
    let mut used = kernels.used.then(|| zeroed(tape.len(), false));
    let (mut cross_value, mut cross_reach) = (0u64, 0u64);
    let mut failed = None;

    let mut txs = Vec::with_capacity(workers);
    let mut rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = mpsc::channel::<(usize, Frontier)>();
        txs.push(tx);
        rxs.push(rx);
    }

    std::thread::scope(|scope| {
        for rx in rxs {
            let chunks = &chunks;
            let applied = &applied;
            let gate = &gate;
            scope.spawn(move || {
                // FIFO replay of this worker's queue preserves the
                // decreasing-source order the sweep thread sends in.
                while let Ok((t, list)) = rx.recv() {
                    merge(&mut chunks[t].lock().unwrap(), &list);
                    gate.bump(&applied[t]);
                }
            });
        }

        // The walk itself, on this thread: decreasing segment order. The
        // def-use bits need no schedule; they also cover segments past
        // the seed's.
        let mut sent = vec![0u64; last_seg + 1];
        let top = if kernels.used {
            store.seg_count()
        } else {
            last_seg + 1
        };
        for s in (0..top).rev() {
            if s <= last_seg {
                // Segment `s` may be swept once every frontier buffer sent
                // to it (all from segments > s, all already swept) is
                // merged.
                gate.wait_for(&applied[s], sent[s]);
            }
            let seg = match store.view(s, ctx) {
                Ok(seg) => seg,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            };
            if let Some(used) = &mut used {
                mark_used(&seg, (s as u64) << shift, used);
            }
            if s > last_seg {
                continue;
            }
            let mut frontier: Vec<Frontier> = (0..s).map(|_| Frontier::default()).collect();
            kernels.sweep_segment(
                &seg,
                s,
                shift,
                mask,
                &mut chunks[s].lock().unwrap(),
                &mut frontier,
            );
            for (t, list) in frontier.into_iter().enumerate() {
                if list.adj.is_empty() && list.bits.is_empty() {
                    continue;
                }
                cross_value += list.adj.len() as u64;
                cross_reach += list.bits.len() as u64;
                sent[t] += 1;
                txs[t % workers]
                    .send((t, list))
                    .expect("merge worker exited before the sweep finished");
            }
        }
        drop(txs);
    });
    if let Some(e) = failed {
        return Err(e);
    }

    let stats = SweepStats {
        segments: last_seg + 1,
        threads: workers + 1,
        parallel: true,
        ..SweepStats::default()
    };
    let mut adj = kernels.value.then(|| Vec::with_capacity(tape.len()));
    let mut reach = kernels.reach.then(|| Vec::with_capacity(tape.len()));
    for (s, chunk) in chunks.into_iter().enumerate() {
        let chunk = chunk.into_inner().unwrap();
        if let Some(adj) = &mut adj {
            adj.extend(chunk.adj);
        }
        if let Some(reach) = &mut reach {
            reach.extend((0..store.seg_nodes(s)).map(|off| bit_get(&chunk.bits, off)));
        }
    }
    Ok(Walked {
        value: adj.map(|mut adj| {
            adj.resize(tape.len(), 0.0);
            let stats = SweepStats {
                cross_contribs: cross_value,
                ..stats
            };
            (Gradient { adj }, stats)
        }),
        reach: reach.map(|mut reach| {
            reach.resize(tape.len(), false);
            let stats = SweepStats {
                cross_contribs: cross_reach,
                ..stats
            };
            (reach, stats)
        }),
        used,
    })
}
