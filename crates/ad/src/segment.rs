//! Fixed-size chunked arenas backing the tape, with optional
//! divide-and-conquer eviction.
//!
//! The seed tape was one contiguous `Vec` per column. That had two scaling
//! walls: growing past the reserved capacity copied the *entire* recording
//! (multi-hundred-MiB `memcpy` spikes mid-kernel on NPB tapes), and node
//! ids were `u32`, capping a tape at 2³²−1 nodes with an `assert!` behind
//! it. Segmented storage removes both. Nodes live in fixed-size segments
//! whose streams are allocated exactly once and never move; a node id is a
//! `u64` that splits into `segment = id >> shift` and `offset = id & mask`
//! (segment-local indexing), so capacity is bounded by the configured
//! [`node budget`](crate::TapeConfig::node_limit) rather than an index
//! type; and exhausting that budget *poisons* the store instead of
//! aborting — the error surfaces as a typed
//! [`AdError`] at sweep time.
//!
//! **Encoding.** A node is up to two `(parent, partial)` edges, stored in
//! three streams plus a side stream, and only this module knows the
//! layout:
//!
//! * one *kind* byte per node, two 2-bit codes (parent 1 in bits 0–1,
//!   parent 2 in bits 2–3): absent, partial `+1.0`, partial `−1.0`, or
//!   explicit. The codes compare bit patterns, so `−0.0` and every NaN
//!   are explicit;
//! * one `u32` backward distance (node id − parent id) per present
//!   parent; `0` escapes to a `u64` side stream, so any id fits;
//! * one `f64` per explicit partial.
//!
//! An absent parent's partial (what `x * c` records for `c`) is dropped:
//! no sweep reads it. Every reader decodes through one of two cursors —
//! `Segment::rev` for the reverse walks, `Segment::fwd` for the witness
//! scan — which hand back `u64` ids and the partials' exact bits.
//! On the NPB tapes a node takes ≈ 11 bytes instead of the 32 of four
//! fixed columns: most edges point a few nodes back and most partials are
//! ±1.
//!
//! Segments are also the unit of parallelism for the reverse sweeps in
//! [`crate::sweep`] — and, since the bounded-memory refactor, the unit of
//! **eviction**: under a [`TapeCheckpointConfig`] the store keeps at most
//! `ncheckpoints` segments resident, replacing older ones with a
//! `(len, digest)` summary. Evicted segments are *re-recorded* on demand
//! by replaying the registered deterministic computation
//! ([`crate::replay::TapeReplay`]) and verified bit-exactly against the
//! stored digest — Siskind & Pearlmutter's divide-and-conquer
//! checkpointing applied to the tape itself. When the recording was
//! driven by a [`crate::replay::Ladder`] whose snapshots are small enough
//! to repay it, the same budget also holds them: segments keep `⌈n/2⌉`
//! slots and the ladder the bytes of the other `⌊n/2⌋`.

use crate::error::AdError;
use crate::replay::{self, ReplayCtx, ReplaySink};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel node id meaning "no parent" (constant operand or leaf).
pub(crate) const NONE: u64 = u64::MAX;

/// Default nodes per segment: 1.6 MB reserved per segment (of which the
/// NPB tapes fill ≈ 0.7 MB), small enough that a dozen segments exist on
/// any interesting tape (exposing sweep parallelism) and large enough
/// that per-segment overheads vanish.
pub const DEFAULT_SEGMENT_LEN: usize = 1 << 16;

/// Default recording budget in nodes. Far beyond what fits in memory
/// (2⁴⁸ nodes ≈ 7 PB reserved); the budget exists so runaway recordings
/// become a typed error instead of an OOM kill, and so tests can shrink
/// it.
pub const DEFAULT_NODE_LIMIT: u64 = 1 << 48;

/// Bytes a segment reserves per node, and what residency budgets charge
/// per node: one kind byte, two `u32` distances and two `f64` partials —
/// room for the widest node, so a segment never reallocates (the rare
/// escaped distance aside). Encoded nodes fill ≈ 11 of them on the NPB
/// tapes; [`crate::TapeStats::bytes`] reports the encoded size.
pub const NODE_BYTES: usize = 1 + 2 * 4 + 2 * 8;

/// Bounded-memory policy for a tape: keep at most `ncheckpoints` segments
/// resident, evicting the rest to `(len, digest)` summaries that are
/// re-recorded on demand during sweeps (see the module docs).
///
/// The knob mirrors dynamiqs' `CheckpointAutograd(ncheckpoints)`: peak
/// tape residency is `O(ncheckpoints · segment)` instead of `O(n)`, at the
/// cost of re-running the recording closure once per evicted window during
/// the reverse sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapeCheckpointConfig {
    /// Maximum resident segments (the open recording segment included).
    /// `0` means *auto*: `⌈log2(segments)⌉`, the classic
    /// divide-and-conquer memory/recompute balance point.
    pub ncheckpoints: usize,
}

impl TapeCheckpointConfig {
    /// The auto policy: residency grows as `⌈log2(segments)⌉`.
    pub fn auto() -> TapeCheckpointConfig {
        TapeCheckpointConfig { ncheckpoints: 0 }
    }

    /// Keep at most `n` segments resident (`0` = auto).
    pub fn with_ncheckpoints(n: usize) -> TapeCheckpointConfig {
        TapeCheckpointConfig { ncheckpoints: n }
    }

    /// Derive the policy from a byte budget: the largest `ncheckpoints`
    /// whose resident segments fit in `budget_bytes` for the given
    /// (pre-rounding) `segment_len`. A budget smaller than one segment
    /// cannot hold even the open recording segment and is a typed
    /// [`AdError::InvalidConfig`], not a panic.
    pub fn for_budget_bytes(
        budget_bytes: usize,
        segment_len: usize,
    ) -> Result<TapeCheckpointConfig, AdError> {
        let seg_bytes = rounded_segment_len(segment_len) * NODE_BYTES;
        if budget_bytes < seg_bytes {
            return Err(AdError::InvalidConfig {
                reason: "tape checkpoint budget is smaller than one segment",
            });
        }
        Ok(TapeCheckpointConfig {
            ncheckpoints: budget_bytes / seg_bytes,
        })
    }

    /// The residency bound in segments for a tape of `segments` segments:
    /// `ncheckpoints` when explicit, `⌈log2(segments)⌉` (at least 1) for
    /// the auto policy.
    pub fn resolved(&self, segments: usize) -> usize {
        if self.ncheckpoints > 0 {
            self.ncheckpoints
        } else if segments <= 2 {
            1
        } else {
            (usize::BITS - (segments - 1).leading_zeros()) as usize
        }
    }

    /// The byte budget the resolved policy guarantees for a tape with the
    /// given (pre-rounding) segment length and segment count: resident
    /// bytes never exceed it while recording or sweeping sequentially.
    pub fn budget_bytes(&self, segment_len: usize, segments: usize) -> usize {
        self.resolved(segments) * rounded_segment_len(segment_len) * NODE_BYTES
    }
}

/// The store's segment-length rounding, shared with the budget math.
fn rounded_segment_len(segment_len: usize) -> usize {
    segment_len.next_power_of_two().clamp(8, 1 << 31)
}

/// Edge codes, two bits each in a node's kind byte.
const ABSENT: u8 = 0;
const PLUS_ONE: u8 = 1;
const MINUS_ONE: u8 = 2;
const EXPLICIT: u8 = 3;

/// One fixed-capacity arena of nodes in the variable-length encoding (see
/// the module docs).
///
/// The streams are allocated at full segment capacity on construction and
/// never reallocate (the escape stream, empty on any tape under 2³² nodes,
/// aside): a `push` into a non-full segment is a plain append, and a full
/// segment simply stops growing (the store opens a new one).
pub(crate) struct Segment {
    /// One byte per node: parent 1's code in bits 0–1, parent 2's in 2–3.
    kinds: Vec<u8>,
    /// Node id − parent id per present parent, node order, parent 1
    /// first; `0` means the distance is the next entry of `escapes`.
    dists: Vec<u32>,
    /// One partial per `EXPLICIT` code, in the same order.
    partials: Vec<f64>,
    /// The distances that do not fit a non-zero `u32`, in order.
    escapes: Vec<u64>,
}

/// One decoded node: its offset in the segment and its two `(parent id,
/// partial)` edges, parent 1 first. An absent parent reads `(NONE, 0.0)`.
pub(crate) struct Node {
    pub(crate) off: usize,
    pub(crate) edges: [(u64, f64); 2],
}

impl Segment {
    pub(crate) fn with_capacity(seg_len: usize) -> Segment {
        Segment {
            kinds: Vec::with_capacity(seg_len),
            dists: Vec::with_capacity(2 * seg_len),
            partials: Vec::with_capacity(2 * seg_len),
            escapes: Vec::new(),
        }
    }

    /// Nodes recorded into this segment.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Bytes the encoded nodes occupy (the reservation is
    /// [`NODE_BYTES`] per node of capacity).
    pub(crate) fn encoded_bytes(&self) -> usize {
        self.kinds.len() + 4 * self.dists.len() + 8 * (self.partials.len() + self.escapes.len())
    }

    /// Append node `id` with parents `p1`, `p2` ([`NONE`] when absent) and
    /// partials `d1`, `d2`.
    #[inline]
    pub(crate) fn push(&mut self, id: u64, p1: u64, d1: f64, p2: u64, d2: f64) {
        let c1 = self.push_edge(id, p1, d1);
        let c2 = self.push_edge(id, p2, d2);
        self.kinds.push(c1 | c2 << 2);
    }

    #[inline]
    fn push_edge(&mut self, id: u64, p: u64, d: f64) -> u8 {
        if p == NONE {
            return ABSENT;
        }
        // Wrapping, so that any id round-trips, even one from another
        // recording.
        let dist = id.wrapping_sub(p);
        match u32::try_from(dist) {
            Ok(near) if near != 0 => self.dists.push(near),
            _ => {
                self.dists.push(0);
                self.escapes.push(dist);
            }
        }
        let bits = d.to_bits();
        if bits == 1f64.to_bits() {
            PLUS_ONE
        } else if bits == (-1f64).to_bits() {
            MINUS_ONE
        } else {
            self.partials.push(d);
            EXPLICIT
        }
    }

    /// Empty the streams, keeping their capacity.
    fn clear(&mut self) {
        self.kinds.clear();
        self.dists.clear();
        self.partials.clear();
        self.escapes.clear();
    }

    /// The nodes in decreasing offset order, for a segment whose first
    /// node has id `base`. O(1) per node.
    pub(crate) fn rev(&self, base: u64) -> Cursor<'_, true> {
        self.cursor(base, 0)
    }

    /// The nodes from offset `off` on, in increasing order, for a segment
    /// whose first node has id `base`. Seeking costs one pass over the
    /// `off` kind bytes before it; every node after that is O(1).
    pub(crate) fn fwd(&self, base: u64, off: usize) -> Cursor<'_, false> {
        self.cursor(base, off)
    }

    /// A cursor over the nodes from offset `off` on.
    fn cursor<const BACK: bool>(&self, base: u64, off: usize) -> Cursor<'_, BACK> {
        let codes = self.kinds[..off].iter().flat_map(|&k| [k & 3, k >> 2]);
        let (dists, partials) = codes.fold((0, 0), |(n, x), c| {
            (n + usize::from(c != ABSENT), x + usize::from(c == EXPLICIT))
        });
        let escapes = self.dists[..dists].iter().filter(|&&d| d == 0).count();
        Cursor {
            base,
            len: self.len(),
            kinds: &self.kinds[off..],
            dists: &self.dists[dists..],
            partials: &self.partials[partials..],
            escapes: &self.escapes[escapes..],
        }
    }
}

/// A cursor over a [`Segment`]'s nodes: backwards from the end
/// (`BACK = true`, [`Segment::rev`]) or forwards from an offset
/// ([`Segment::fwd`]). Each stream is the slice of entries not yet
/// decoded, which decoding pops from the end the cursor moves towards.
/// Holding the slices (not the segment) keeps them in registers across
/// the walk's scattered stores.
pub(crate) struct Cursor<'a, const BACK: bool> {
    /// Id of the segment's first node.
    base: u64,
    /// Nodes in the segment.
    len: usize,
    kinds: &'a [u8],
    dists: &'a [u32],
    partials: &'a [f64],
    escapes: &'a [u64],
}

/// The entry at the `BACK` end of `stream`, which then loses it.
#[inline]
fn pop<T: Copy, const BACK: bool>(stream: &mut &[T]) -> T {
    let split = if BACK {
        stream.split_last()
    } else {
        stream.split_first()
    };
    let (&entry, rest) = split.expect("the kind bytes promise another entry");
    *stream = rest;
    entry
}

impl<const BACK: bool> Cursor<'_, BACK> {
    /// Decode one edge of node `id`, with code `code`.
    #[inline]
    fn edge(&mut self, id: u64, code: u8) -> (u64, f64) {
        if code == ABSENT {
            return (NONE, 0.0);
        }
        let dist = match pop::<_, BACK>(&mut self.dists) {
            0 => pop::<_, BACK>(&mut self.escapes),
            near => u64::from(near),
        };
        let d = match code {
            PLUS_ONE => 1.0,
            MINUS_ONE => -1.0,
            _ => pop::<_, BACK>(&mut self.partials),
        };
        (id.wrapping_sub(dist), d)
    }
}

impl<const BACK: bool> Iterator for Cursor<'_, BACK> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        if self.kinds.is_empty() {
            return None;
        }
        let kind = pop::<_, BACK>(&mut self.kinds);
        let off = if BACK {
            self.kinds.len()
        } else {
            self.len - self.kinds.len() - 1
        };
        let id = self.base + off as u64;
        // Parent 1's entries precede parent 2's in every stream.
        let edges = if BACK {
            let e2 = self.edge(id, kind >> 2);
            [self.edge(id, kind & 3), e2]
        } else {
            let e1 = self.edge(id, kind & 3);
            [e1, self.edge(id, kind >> 2)]
        };
        Some(Node { off, edges })
    }
}

/// An order-sensitive multiply-rotate fold over the segment's stream
/// lengths and streams (kind bytes eight to a word, distances two to a
/// word, `f64` partials via `to_bits`), one `u64` word per multiply — the
/// bit-exactness witness an evicted segment leaves behind. It lives only
/// in memory, next to the slot it summarizes. Re-recorded segments must
/// reproduce it exactly or the sweep fails with
/// [`AdError::ReplayDivergence`].
pub(crate) fn segment_digest(seg: &Segment) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const MUL: u64 = 0x517c_c1b7_2722_0a95;
    // The rotation carries high bits back down, so no bit position is a
    // blind spot that two flips could cancel in. Each step is a bijection
    // of `h` for a fixed word, so any one changed word changes the result.
    let eat = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(MUL);
    let lens = [
        seg.kinds.len(),
        seg.dists.len(),
        seg.partials.len(),
        seg.escapes.len(),
    ];
    let mut h = lens.iter().fold(SEED, |h, &n| eat(h, n as u64));
    for chunk in seg.kinds.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = eat(h, u64::from_le_bytes(word));
    }
    for pair in seg.dists.chunks(2) {
        h = eat(h, pair.iter().fold(0, |w, &d| w << 32 | u64::from(d)));
    }
    let words = seg.partials.iter().map(|d| d.to_bits());
    words.chain(seg.escapes.iter().copied()).fold(h, eat)
}

/// Resident-byte accounting shared by everything one store's budget
/// covers — segment arenas and ladder snapshots alike: a [`Charge`] is
/// taken on allocation and returned on drop, so `resident` tracks live
/// memory exactly and `peak` its high-water mark — the measurable form of
/// the bounded-memory claim.
pub(crate) struct MemCounters {
    resident: AtomicUsize,
    peak: AtomicUsize,
    /// Segment arenas allocated so far (recycled ones count once).
    arenas: AtomicUsize,
}

impl MemCounters {
    fn new() -> MemCounters {
        MemCounters {
            resident: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            arenas: AtomicUsize::new(0),
        }
    }

    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn arenas(&self) -> usize {
        self.arenas.load(Ordering::Relaxed)
    }
}

/// `bytes` of residency held against a store's [`MemCounters`] until drop.
pub(crate) struct Charge {
    bytes: usize,
    mem: Arc<MemCounters>,
}

impl Charge {
    pub(crate) fn new(bytes: usize, mem: Arc<MemCounters>) -> Charge {
        let now = mem.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        mem.peak.fetch_max(now, Ordering::Relaxed);
        Charge { bytes, mem }
    }

    /// [`Charge::new`], unless it would lift the resident bytes past
    /// `limit`.
    pub(crate) fn within(bytes: usize, mem: Arc<MemCounters>, limit: usize) -> Option<Charge> {
        let fits = mem.resident.load(Ordering::Relaxed) + bytes <= limit;
        fits.then(|| Charge::new(bytes, mem))
    }

    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for Charge {
    fn drop(&mut self) {
        self.mem.resident.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// A segment arena plus its accounting: allocation is charged on
/// construction and credited back when the last reference drops, so
/// eviction frees (and un-counts) memory exactly when the data dies, even
/// if a sweep still pins the segment briefly. A demoted arena that is
/// handed to the next replay window keeps its charge — it never left
/// memory.
pub(crate) struct SegGuard {
    seg: Segment,
    _charge: Charge,
}

impl SegGuard {
    fn new(seg_len: usize, mem: Arc<MemCounters>) -> SegGuard {
        mem.arenas.fetch_add(1, Ordering::Relaxed);
        SegGuard {
            seg: Segment::with_capacity(seg_len),
            _charge: Charge::new(seg_len * NODE_BYTES, mem),
        }
    }

    /// Empty the streams, keeping their capacity for the next occupant.
    fn clear(&mut self) {
        self.seg.clear();
    }
}

impl std::ops::Deref for SegGuard {
    type Target = Segment;
    fn deref(&self) -> &Segment {
        &self.seg
    }
}

impl std::ops::DerefMut for SegGuard {
    fn deref_mut(&mut self) -> &mut Segment {
        &mut self.seg
    }
}

/// One sealed segment slot: either the data itself or the summary an
/// eviction left behind. A resident segment that was re-recorded (and so
/// verified against its digest) carries that digest along, which makes
/// demoting it again O(1).
enum SlotState {
    Resident {
        seg: Arc<SegGuard>,
        digest: Option<u64>,
    },
    Evicted {
        len: usize,
        /// [`Segment::encoded_bytes`] of the evicted data.
        bytes: usize,
        digest: u64,
    },
}

impl SlotState {
    fn len(&self) -> usize {
        match self {
            SlotState::Resident { seg, .. } => seg.len(),
            SlotState::Evicted { len, .. } => *len,
        }
    }

    fn encoded_bytes(&self) -> usize {
        match self {
            SlotState::Resident { seg, .. } => seg.encoded_bytes(),
            SlotState::Evicted { bytes, .. } => *bytes,
        }
    }

    fn is_evicted(&self) -> bool {
        matches!(self, SlotState::Evicted { .. })
    }

    /// Replace a resident, unpinned segment by its summary and return the
    /// arena; `None` (and no change) when evicted already or still pinned
    /// by a sweep.
    fn demote(&mut self) -> Option<SegGuard> {
        let SlotState::Resident { seg, digest } = self else {
            return None;
        };
        if Arc::strong_count(seg) != 1 {
            return None;
        }
        let summary = SlotState::Evicted {
            len: seg.len(),
            bytes: seg.encoded_bytes(),
            digest: digest.unwrap_or_else(|| segment_digest(seg)),
        };
        match std::mem::replace(self, summary) {
            SlotState::Resident { seg, .. } => Arc::into_inner(seg),
            SlotState::Evicted { .. } => unreachable!("matched resident above"),
        }
    }
}

/// The sealed segments plus the arenas demotion freed up for reuse, behind
/// one lock.
struct Slots {
    table: Vec<SlotState>,
    /// Cleared arenas (still charged) waiting for the next open segment or
    /// replay window, so a recording or a sweep allocates O(budget) arenas
    /// rather than one per segment.
    spare: Vec<SegGuard>,
}

impl Slots {
    /// Keep `arena` for reuse if fewer than `keep` are waiting; free it
    /// otherwise.
    fn recycle(&mut self, mut arena: SegGuard, keep: usize) {
        if self.spare.len() < keep {
            arena.clear();
            self.spare.push(arena);
        }
    }
}

/// The segmented node store: an append-only sequence of segments.
///
/// Sealed segments live behind a single `Mutex` so sweeps (which take
/// `&self`) can demote and re-materialize them; the *open* segment is a
/// plain field, keeping the record hot path lock-free.
pub(crate) struct SegmentStore {
    slots: Mutex<Slots>,
    open: Option<SegGuard>,
    /// log2 of the segment length.
    shift: u32,
    /// `segment_len - 1`, for offset extraction.
    mask: u64,
    /// Total nodes recorded.
    len: u64,
    /// Recording budget; reaching it sets `overflowed`.
    limit: u64,
    /// True once a push was dropped because the budget was exhausted.
    overflowed: bool,
    /// Bounded-residency policy; `None` keeps every segment resident.
    ckpt: Option<TapeCheckpointConfig>,
    /// Bytes of one snapshot of the [`crate::replay::Ladder`] recording on
    /// this store (`0`: none) — what decides whether snapshots share the
    /// budget, see [`SegmentStore::budget_split`].
    snapshot_bytes: usize,
    mem: Arc<MemCounters>,
    /// Segments re-recorded over this store's lifetime.
    replayed: AtomicU64,
}

impl SegmentStore {
    /// Create a store with `segment_len` nodes per segment (rounded up to
    /// a power of two in `[8, 2^31]`) and room pre-reserved in the segment
    /// spine for `capacity` nodes. No segment memory is allocated until
    /// the first push.
    pub(crate) fn new(
        capacity: usize,
        segment_len: usize,
        limit: u64,
        ckpt: Option<TapeCheckpointConfig>,
    ) -> SegmentStore {
        let seg_len = rounded_segment_len(segment_len);
        SegmentStore {
            slots: Mutex::new(Slots {
                table: Vec::with_capacity(capacity.div_ceil(seg_len)),
                spare: Vec::new(),
            }),
            open: None,
            shift: seg_len.trailing_zeros(),
            mask: (seg_len - 1) as u64,
            len: 0,
            limit: limit.min(NONE - 1),
            overflowed: false,
            ckpt,
            snapshot_bytes: 0,
            mem: Arc::new(MemCounters::new()),
            replayed: AtomicU64::new(0),
        }
    }

    /// Total nodes recorded.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Nodes per segment.
    pub(crate) fn segment_len(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// log2 of the segment length.
    pub(crate) fn shift(&self) -> u32 {
        self.shift
    }

    /// Offset-extraction mask (`segment_len - 1`).
    pub(crate) fn mask(&self) -> u64 {
        self.mask
    }

    /// The recording budget.
    pub(crate) fn limit(&self) -> u64 {
        self.limit
    }

    /// True once a node was dropped because the budget was exhausted.
    pub(crate) fn overflowed(&self) -> bool {
        self.overflowed
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, Slots> {
        self.slots
            .lock()
            .expect("a sweep panicked while holding the segment table")
    }

    /// Total segments ever opened (resident, evicted, and the open one).
    pub(crate) fn seg_count(&self) -> usize {
        self.slots().table.len() + usize::from(self.open.is_some())
    }

    /// Nodes recorded into segment `s` (known even when evicted).
    pub(crate) fn seg_nodes(&self, s: usize) -> usize {
        let slots = self.slots();
        if s < slots.table.len() {
            slots.table[s].len()
        } else {
            self.open.as_ref().map_or(0, |seg| seg.len())
        }
    }

    /// Segments currently evicted to summaries.
    pub(crate) fn evicted_count(&self) -> usize {
        self.slots().table.iter().filter(|s| s.is_evicted()).count()
    }

    /// Segments re-recorded over this store's lifetime.
    pub(crate) fn replayed_total(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Encoded bytes of every recorded node, evicted or not: what the
    /// nodes of an unbounded tape occupy (each segment reserves
    /// [`NODE_BYTES`] per node of capacity, but only the encoded bytes
    /// are ever written).
    pub(crate) fn encoded_bytes(&self) -> usize {
        let sealed: usize = self
            .slots()
            .table
            .iter()
            .map(SlotState::encoded_bytes)
            .sum();
        sealed + self.open.as_ref().map_or(0, |seg| seg.encoded_bytes())
    }

    /// Bytes currently resident: arenas (evicted segments excluded) plus
    /// any ladder snapshots charged to this store.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.mem.resident.load(Ordering::Relaxed)
    }

    /// High-water mark of [`SegmentStore::resident_bytes`].
    pub(crate) fn peak_resident_bytes(&self) -> usize {
        self.mem.peak.load(Ordering::Relaxed)
    }

    fn seg_bytes(&self) -> usize {
        self.segment_len() * NODE_BYTES
    }

    /// The counters everything in this store's budget is charged to.
    #[cfg(test)]
    pub(crate) fn mem(&self) -> &Arc<MemCounters> {
        &self.mem
    }

    /// A [`crate::replay::Ladder`] records on this store and would keep
    /// snapshots of `bytes` each in its residency budget; hands out the
    /// counters they are charged to.
    pub(crate) fn reserve_snapshots(&mut self, bytes: usize) -> Arc<MemCounters> {
        self.snapshot_bytes = bytes;
        self.mem.clone()
    }

    /// The split of the `ncheckpoints` budget for a tape of `total`
    /// segments: `(segment slots, snapshot bytes)`. Snapshots get the
    /// bytes of `⌊n/2⌋` segments when that holds three of them — the run
    /// a replay advances plus two rungs, the least that repays halving
    /// the window; otherwise the segments have all of it.
    fn budget_split(&self, total: usize) -> (usize, usize) {
        let n = self.ckpt.map_or(1, |c| c.resolved(total)).max(1);
        let share = n / 2 * self.seg_bytes();
        if self.snapshot_bytes > 0 && 3 * self.snapshot_bytes <= share {
            (n - n / 2, share)
        } else {
            (n, 0)
        }
    }

    /// `(snapshot bytes, whole budget in bytes)` as the policy resolves
    /// them right now (under the auto policy both grow with the
    /// recording).
    pub(crate) fn ladder_room(&self) -> (usize, usize) {
        let total = self.seg_count();
        let n = self.ckpt.map_or(1, |c| c.resolved(total)).max(1);
        (self.budget_split(total).1, n * self.seg_bytes())
    }

    /// Append a node; returns its id, or [`NONE`] if the budget is
    /// exhausted (the store is then poisoned — see
    /// [`SegmentStore::overflowed`]).
    #[inline]
    pub(crate) fn push(&mut self, p1: u64, d1: f64, p2: u64, d2: f64) -> u64 {
        if self.len >= self.limit {
            self.overflowed = true;
            return NONE;
        }
        let idx = self.len;
        if (idx & self.mask) == 0 {
            // One residency slot is reserved for the segment about to open.
            self.seal_open_with(1);
            let spare = self
                .slots
                .get_mut()
                .expect("segment table poisoned")
                .spare
                .pop();
            self.open =
                Some(spare.unwrap_or_else(|| SegGuard::new(self.segment_len(), self.mem.clone())));
        }
        let seg = self
            .open
            .as_mut()
            .expect("an open segment exists after the open-on-boundary check");
        seg.push(idx, p1, d1, p2, d2);
        self.len += 1;
        idx
    }

    /// Seal the open segment into the slot table and enforce the
    /// residency budget with the full budget available (called when a
    /// recording session finishes — the tail stays resident for the
    /// imminent reverse sweep). Idempotent when nothing is open.
    pub(crate) fn seal_open(&mut self) {
        self.seal_open_with(0);
    }

    /// Seal with `reserve` residency slots held back (recording reserves
    /// one for the next open segment, which takes over an evicted arena).
    fn seal_open_with(&mut self, reserve: usize) {
        // Sealed segments may keep `slots - reserve` residency slots; with
        // one slot and a reservation, that is zero — the open segment
        // alone is the whole budget.
        let total = self.seg_count();
        let allowed = self.budget_split(total).0.saturating_sub(reserve);
        let Some(open) = self.open.take() else {
            return;
        };
        let slots = self.slots.get_mut().expect("segment table poisoned");
        slots.table.push(SlotState::Resident {
            seg: Arc::new(open),
            digest: None,
        });
        if self.ckpt.is_none() {
            return;
        }
        let mut resident = slots.table.iter().filter(|s| !s.is_evicted()).count();
        for i in 0..total {
            if resident <= allowed {
                break;
            }
            if let Some(arena) = slots.table[i].demote() {
                resident -= 1;
                slots.recycle(arena, reserve);
            }
        }
    }

    /// A view of segment `s` for a reverse walk: resident segments are
    /// returned directly; evicted ones are re-recorded (a contiguous
    /// window of segments ending at `s`, as many as the budget has slots
    /// for, after demoting unpinned resident segments so the byte budget
    /// holds) via the replayer in `ctx`, into the arenas the demotion just
    /// freed, with each re-recorded segment verified against its stored
    /// digest.
    pub(crate) fn view(&self, s: usize, ctx: &ReplayCtx<'_>) -> Result<Arc<SegGuard>, AdError> {
        let mut guard = self.slots();
        let slots = &mut *guard;
        assert!(s < slots.table.len(), "segment {s} is not sealed");
        if let SlotState::Resident { seg, .. } = &slots.table[s] {
            return Ok(seg.clone());
        }
        let Some(replayer) = ctx.replayer else {
            return Err(AdError::SegmentEvicted { segment: s as u64 });
        };
        let budget = self.budget_split(slots.table.len()).0;
        // The contiguous evicted run ending at `s`, clipped to the budget.
        let mut w0 = s;
        while w0 > 0 && s - w0 + 1 < budget && slots.table[w0 - 1].is_evicted() {
            w0 -= 1;
        }
        let window = s - w0 + 1;
        // Demote everything resident outside the window (unless a caller
        // still pins it) so materializing the window keeps residency at or
        // under the budget; the window takes over the freed arenas.
        for i in (0..slots.table.len()).filter(|i| !(w0..=s).contains(i)) {
            if let Some(arena) = slots.table[i].demote() {
                slots.recycle(arena, window);
            }
        }
        let arenas = (0..window)
            .map(|_| {
                let spare = slots.spare.pop();
                spare.unwrap_or_else(|| SegGuard::new(self.segment_len(), self.mem.clone()))
            })
            .collect();
        let first = (w0 as u64) << self.shift;
        let end = (((s + 1) as u64) << self.shift).min(self.len);
        let t0 = ctx.rec.now_us();
        let done = replay::rerecord(
            replayer,
            ReplaySink::new(self.shift, w0, arenas),
            first..end,
        )?;
        let replayed_nodes = done.pos - done.from;
        ctx.rec.closed_span(
            "ad.replay",
            t0,
            &[
                ("segment", s.into()),
                ("window_start", w0.into()),
                ("window_len", window.into()),
                ("resume_node", done.from.into()),
                ("replayed_nodes", replayed_nodes.into()),
            ],
        );
        // A replay that ran to the program's end must have produced the
        // whole tape; one that stopped at a step boundary, the window.
        let expected = if done.ended {
            self.len
        } else {
            done.pos.max(end)
        };
        if done.pos != expected {
            return Err(AdError::ReplayDivergence {
                segment: u64::MAX,
                expected,
                actual: done.pos,
            });
        }
        for (i, seg) in done.segs.into_iter().enumerate() {
            let idx = w0 + i;
            let (len, digest) = match slots.table[idx] {
                SlotState::Evicted { len, digest, .. } => (len, digest),
                // A resident slot inside the window cannot occur: the
                // window is a sub-range of the contiguous evicted run.
                SlotState::Resident { .. } => unreachable!("window slot {idx} is resident"),
            };
            if seg.len() != len {
                return Err(AdError::ReplayDivergence {
                    segment: idx as u64,
                    expected: len as u64,
                    actual: seg.len() as u64,
                });
            }
            let actual = segment_digest(&seg);
            if actual != digest {
                return Err(AdError::ReplayDivergence {
                    segment: idx as u64,
                    expected: digest,
                    actual,
                });
            }
            slots.table[idx] = SlotState::Resident {
                seg: Arc::new(seg),
                digest: Some(digest),
            };
        }
        self.replayed.fetch_add(window as u64, Ordering::Relaxed);
        ctx.count_replay(window as u64, replayed_nodes);
        match &slots.table[s] {
            SlotState::Resident { seg, .. } => Ok(seg.clone()),
            SlotState::Evicted { .. } => unreachable!("segment {s} was just re-recorded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn segment_len_rounds_to_power_of_two() {
        let s = SegmentStore::new(0, 100, DEFAULT_NODE_LIMIT, None);
        assert_eq!(s.segment_len(), 128);
        let s = SegmentStore::new(0, 1, DEFAULT_NODE_LIMIT, None);
        assert_eq!(s.segment_len(), 8);
    }

    #[test]
    fn push_crosses_segment_boundaries_without_moving_data() {
        let mut s = SegmentStore::new(0, 8, DEFAULT_NODE_LIMIT, None);
        for i in 0..20u64 {
            // A chain: each node's parent is the one before it.
            assert_eq!(s.push(i.wrapping_sub(1), 0.5, NONE, i as f64), i);
        }
        s.seal_open();
        assert_eq!(s.seg_count(), 3);
        assert_eq!(s.seg_nodes(0), 8);
        assert_eq!(s.seg_nodes(2), 4);
        // Stream capacity is exactly the widest node's: no segment ever
        // reallocates, and no escape stream is allocated.
        let ctx = ReplayCtx::none();
        for seg in 0..3 {
            let view = s.view(seg, &ctx).unwrap();
            assert_eq!(view.kinds.capacity(), 8);
            assert_eq!(view.dists.capacity(), 16);
            assert_eq!(view.partials.capacity(), 16);
            assert_eq!(view.escapes.capacity(), 0);
        }
        // Node 0 is a leaf; the 19 others hold a distance and a partial.
        assert_eq!(s.encoded_bytes(), 20 + 19 * (4 + 8));
        assert_eq!(s.resident_bytes(), 3 * 8 * NODE_BYTES);
        assert_eq!(s.peak_resident_bytes(), 3 * 8 * NODE_BYTES);
    }

    #[test]
    fn budget_exhaustion_poisons_instead_of_panicking() {
        let mut s = SegmentStore::new(0, 8, 10, None);
        for _ in 0..10 {
            assert_ne!(s.push(NONE, 0.0, NONE, 0.0), NONE);
        }
        assert!(!s.overflowed());
        assert_eq!(s.push(NONE, 0.0, NONE, 0.0), NONE);
        assert!(s.overflowed());
        assert_eq!(s.len(), 10, "dropped nodes are not counted");
    }

    #[test]
    fn checkpointed_recording_evicts_and_bounds_residency() {
        let ckpt = TapeCheckpointConfig::with_ncheckpoints(2);
        let mut s = SegmentStore::new(0, 8, DEFAULT_NODE_LIMIT, Some(ckpt));
        for i in 0..64u64 {
            s.push(NONE, 0.0, NONE, i as f64);
        }
        s.seal_open();
        assert_eq!(s.seg_count(), 8);
        assert_eq!(s.evicted_count(), 6, "only the budget stays resident");
        assert!(s.peak_resident_bytes() <= 2 * 8 * NODE_BYTES);
    }

    #[test]
    fn budget_smaller_than_one_segment_is_a_typed_error() {
        let seg_bytes = 8 * NODE_BYTES;
        assert!(matches!(
            TapeCheckpointConfig::for_budget_bytes(seg_bytes - 1, 8),
            Err(AdError::InvalidConfig { .. })
        ));
        let cfg = TapeCheckpointConfig::for_budget_bytes(3 * seg_bytes, 8).unwrap();
        assert_eq!(cfg.ncheckpoints, 3);
    }

    #[test]
    fn auto_policy_resolves_to_ceil_log2() {
        let auto = TapeCheckpointConfig::auto();
        assert_eq!(auto.resolved(1), 1);
        assert_eq!(auto.resolved(2), 1);
        assert_eq!(auto.resolved(3), 2);
        assert_eq!(auto.resolved(8), 3);
        assert_eq!(auto.resolved(9), 4);
        assert_eq!(auto.resolved(1024), 10);
        let fixed = TapeCheckpointConfig::with_ncheckpoints(5);
        assert_eq!(fixed.resolved(1024), 5);
    }

    /// Ids far enough from 0 that every test distance fits below them.
    const BASE: u64 = 1 << 41;

    /// A node as `(p1, d1, p2, d2)`.
    type Tuple = (u64, f64, u64, f64);

    /// A segment holding `nodes`, node `i` having id `BASE + i`.
    fn build(nodes: &[Tuple]) -> Segment {
        let mut seg = Segment::with_capacity(nodes.len());
        for (i, &(p1, d1, p2, d2)) in nodes.iter().enumerate() {
            seg.push(BASE + i as u64, p1, d1, p2, d2);
        }
        seg
    }

    #[test]
    fn digest_is_content_sensitive() {
        let digest = |nodes: &[Tuple]| segment_digest(&build(nodes));
        let base = [
            (BASE - 3, 1.5, NONE, 0.0),
            (BASE - 1, -2.0, BASE - 2, 4.0),
            (BASE + 1, 1.0, BASE - (1 << 32), -1.0),
        ];
        let a = digest(&base);
        assert_eq!(a, digest(&base));
        let edited = |f: &dyn Fn(&mut [Tuple; 3])| {
            let mut nodes = base;
            f(&mut nodes);
            digest(&nodes)
        };
        // A ±1 kind flipped.
        assert_ne!(a, edited(&|n| n[2].1 = -1.0));
        assert_ne!(a, edited(&|n| n[2].3 = 1.0));
        // A distance off by one.
        assert_ne!(a, edited(&|n| n[1].2 = BASE - 3));
        // An escape swapped for an inline distance.
        assert_ne!(a, edited(&|n| n[2].2 = BASE + 2 - u64::from(u32::MAX)));
        // One bit of one explicit partial.
        assert_ne!(
            a,
            edited(&|n| n[0].1 = f64::from_bits(1.5f64.to_bits() ^ 1))
        );
        // One dropped node, and one trailing all-zero-bits node.
        assert_ne!(a, digest(&base[..2]));
        assert_ne!(
            a,
            digest(&[base[0], base[1], base[2], (NONE, 0.0, NONE, 0.0)])
        );
        // A node's two edges swapped.
        assert_ne!(a, edited(&|n| n[1] = (BASE - 2, 4.0, BASE - 1, -2.0)));
        // Two sign flips (top bit of two words) do not cancel.
        assert_ne!(a, edited(&|n| (n[0].1, n[1].1) = (-1.5, 2.0)));
        // The partial of an absent parent is not stored.
        assert_eq!(a, edited(&|n| n[0].3 = 7.0));
    }

    /// The fixed four-column layout the encoding replaced: two parent ids
    /// and two partials per node, stored as given. The cursors must read
    /// back exactly what it holds.
    #[derive(Default)]
    struct Wide {
        p1: Vec<u64>,
        p2: Vec<u64>,
        d1: Vec<f64>,
        d2: Vec<f64>,
    }

    impl Wide {
        fn push(&mut self, p1: u64, d1: f64, p2: u64, d2: f64) {
            self.p1.push(p1);
            self.p2.push(p2);
            self.d1.push(d1);
            self.d2.push(d2);
        }

        /// Node `off`'s edges as bits, the partial of an absent parent
        /// ignored (read as `+0.0`, as the cursors do).
        fn edges(&self, off: usize) -> [(u64, u64); 2] {
            let edge = |p: u64, d: f64| (p, if p == NONE { 0 } else { d.to_bits() });
            [
                edge(self.p1[off], self.d1[off]),
                edge(self.p2[off], self.d2[off]),
            ]
        }
    }

    fn edge_bits(node: &Node) -> [(u64, u64); 2] {
        node.edges.map(|(p, d)| (p, d.to_bits()))
    }

    /// Deterministic splitmix64.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random `(parent, partial)` edge of node `id`: absent (with a
    /// non-zero partial), at one of the boundary distances or ahead of
    /// `id` (an id from another recording), with a ±1, signed-zero, NaN,
    /// subnormal or arbitrary partial.
    fn random_edge(st: &mut u64, id: u64) -> (u64, f64) {
        const DISTS: [u64; 7] = [
            1,
            2,
            17,
            (1 << 32) - 1,
            1 << 32,
            1 << 40,
            0u64.wrapping_sub(5),
        ];
        let partials = [
            1.0,
            -1.0,
            0.0,
            -0.0,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(splitmix(st)),
        ];
        let d = partials[(splitmix(st) % partials.len() as u64) as usize];
        match splitmix(st) % 9 {
            0 | 1 => (NONE, 3.5),
            k => (id.wrapping_sub(DISTS[k as usize - 2]), d),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both cursors read back every pushed tuple bit for bit, ids and
        /// partials alike.
        #[test]
        fn cursors_match_the_wide_layout(seed in 0u64..u64::MAX) {
            let mut st = seed;
            let n = 1 + (splitmix(&mut st) % 64) as usize;
            let mut seg = Segment::with_capacity(n);
            let mut wide = Wide::default();
            for off in 0..n {
                let id = BASE + off as u64;
                let (p1, d1) = random_edge(&mut st, id);
                let (p2, d2) = if splitmix(&mut st) % 8 == 0 {
                    (p1, -d1) // the same parent twice
                } else {
                    random_edge(&mut st, id)
                };
                seg.push(id, p1, d1, p2, d2);
                wide.push(p1, d1, p2, d2);
            }
            prop_assert_eq!(seg.len(), n);
            let back: Vec<Node> = seg.rev(BASE).collect();
            prop_assert_eq!(back.len(), n);
            for (k, node) in back.iter().enumerate() {
                prop_assert_eq!(node.off, n - 1 - k);
                prop_assert_eq!(edge_bits(node), wide.edges(node.off));
            }
            let from = (splitmix(&mut st) % (n as u64 + 1)) as usize;
            let ahead: Vec<Node> = seg.fwd(BASE, from).collect();
            prop_assert_eq!(ahead.len(), n - from);
            for (k, node) in ahead.iter().enumerate() {
                prop_assert_eq!(node.off, from + k);
                prop_assert_eq!(edge_bits(node), wide.edges(node.off));
            }
        }
    }

    #[test]
    fn evicted_view_without_replayer_is_a_typed_error() {
        let ckpt = TapeCheckpointConfig::with_ncheckpoints(1);
        let mut s = SegmentStore::new(0, 8, DEFAULT_NODE_LIMIT, Some(ckpt));
        for _ in 0..32 {
            s.push(NONE, 0.0, NONE, 0.0);
        }
        s.seal_open();
        let ctx = ReplayCtx::none();
        match s.view(0, &ctx) {
            Err(e) => assert_eq!(e, AdError::SegmentEvicted { segment: 0 }),
            Ok(_) => panic!("view of an evicted segment without a replayer succeeded"),
        }
    }
}
