//! Static data-dependency analysis over a recorded tape.
//!
//! [`Tape::reachable`] answers one question — "does a data-flow path
//! connect this node to the output?" — and the AutoCheck line of work
//! (see PAPERS.md) shows that question *alone*, with no derivative
//! values, already yields a usable critical/uncritical verdict. This
//! module packages that verdict as a first-class analysis result:
//!
//! * **liveness** — the structural reachability bits, computed by the
//!   reach kernel of [`crate::sweep`] (serial or parallel, identical bits
//!   either way). A node is *live* when some chain of recorded edges
//!   connects it to the output, regardless of whether the partial
//!   derivatives along the chain multiply to zero.
//! * **def-use bits** — every node that is *used* (appears as a parent of
//!   a later node), marked segment by segment on the same walk. A leaf
//!   that is never used can only be live if it *is* the output; the
//!   def-use pass makes that invariant checkable and gives the analyzer
//!   its "was this definition ever consumed?" vocabulary over
//!   checkpoint-variable leaf ranges.
//! * **witness paths** — for any live node, an explicit node path to the
//!   output ([`DataDep::witness_path`]). The differential harness
//!   attaches these to every AD-vs-datadep disagreement so an
//!   over-approximation is never just a bit: it names the edges that
//!   keep the element structurally alive.
//!
//! The analyzer's error direction is safe by construction: a non-zero
//! adjoint can only flow along recorded edges, so every AD-critical node
//! is also datadep-live. The converse fails exactly on the non-smooth
//! pitfalls (min/max losers, multiplication by a tracked zero, exact
//! cancellation) catalogued by Hückelheim et al.; `core::analysis`
//! classifies those as typed disagreements.

use crate::replay::ReplayCtx;
use crate::sweep::{SweepStats, Walked};
use crate::tape::Tape;
use std::sync::Arc;

/// Result of a static data-dependency analysis of one tape.
///
/// Produced by [`Tape::datadep`] / [`Tape::datadep_sweep`]. Holds one
/// liveness bit and one def-use bit per node; no adjoint values are ever
/// computed.
#[derive(Debug)]
pub struct DataDep {
    /// `live[i]`: a chain of recorded edges connects node `i` to the seed.
    /// Shared with [`crate::Swept::reach`] when one sweep computed both.
    live: Arc<Vec<bool>>,
    /// `used[i]`: node `i` appears as a parent of some later node.
    used: Vec<bool>,
    /// The seed node, `None` when the output folded to a constant.
    seed: Option<u64>,
    stats: SweepStats,
}

/// An explicit data-flow path from a live node to the analysis output.
///
/// Attached to analyzer disagreements so every "structurally live but
/// value-dead" verdict comes with the edges that justify it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Node ids along the path, starting at the queried node, each
    /// subsequent node a recorded consumer of the previous one. Truncated
    /// to the `max_nodes` given to [`DataDep::witness_path`]; the path is
    /// complete when the last entry is the output node.
    pub nodes: Vec<u64>,
    /// Total edges on the (untruncated) path.
    pub hops: usize,
}

impl DataDep {
    /// Package the liveness (reach kernel) and def-use bits a walk seeded
    /// at `seed` computed.
    pub(crate) fn from_walk(walked: Walked, seed: Option<u64>) -> DataDep {
        let (live, stats) = walked.reach.expect("reach kernel was requested");
        let used = walked.used.expect("def-use kernel was requested");
        DataDep {
            live: Arc::new(live),
            used,
            seed,
            stats,
        }
    }

    /// The liveness bits as the reach kernel's result (same vector, same
    /// walk, same stats).
    pub(crate) fn shared_live(&self) -> (Arc<Vec<bool>>, SweepStats) {
        (self.live.clone(), self.stats)
    }

    /// True when a data-flow path connects node `idx` to the output.
    pub fn live(&self, idx: u64) -> bool {
        self.live[idx as usize]
    }

    /// True when node `idx` is consumed by some later node.
    pub fn used(&self, idx: u64) -> bool {
        self.used[idx as usize]
    }

    /// The seed node the analysis was run against, `None` when the output
    /// was a constant (nothing is live then).
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Number of analyzed nodes (== tape length).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when the analyzed tape was empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Count of live nodes.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&b| b).count()
    }

    /// What the underlying structural sweep did (segments, threads,
    /// frontier traffic).
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// The raw liveness bits, node id order.
    pub fn live_bits(&self) -> &[bool] {
        &self.live
    }

    /// An explicit path of recorded edges from `from` to the output, or
    /// `None` when `from` is not live (then no such path exists).
    ///
    /// The path is found greedily in one forward scan: every live node
    /// other than the output has at least one live consumer at a strictly
    /// larger id (that is what made it live), so repeatedly taking the
    /// *first* live consumer terminates at the output after at most one
    /// pass over the tape — O(nodes) total, no backtracking. `nodes` is
    /// truncated to `max_nodes` entries; `hops` always counts the full
    /// path.
    ///
    /// On a checkpointed tape the scan only walks *resident* segments:
    /// hitting an evicted one returns `None` (the liveness verdict stands;
    /// only the explicit path is unavailable without a replay).
    pub fn witness_path(&self, tape: &Tape, from: u64, max_nodes: usize) -> Option<Witness> {
        let seed = self.seed?;
        if !self.live(from) {
            return None;
        }
        let store = tape.store();
        let shift = store.shift();
        let ctx = ReplayCtx::none();
        let mut nodes = vec![from];
        let mut hops = 0usize;
        let mut current = from;
        // Scan forward for the first live consumer of `current`, then of
        // that consumer, and so on. The scan never rewinds: the consumer
        // found is > current, and its own consumers are later still.
        let mut s = ((from + 1) >> shift) as usize;
        let mut off = ((from + 1) & store.mask()) as usize;
        while current != seed {
            let base = (s as u64) << shift;
            let seg = store.view(s, &ctx).ok()?;
            for node in seg.fwd(base, off) {
                let j = base + node.off as u64;
                debug_assert!(j <= seed, "live non-output node with no live consumer");
                if self.live[j as usize] && node.edges.iter().any(|&(p, _)| p == current) {
                    current = j;
                    hops += 1;
                    if nodes.len() < max_nodes {
                        nodes.push(current);
                    }
                    if current == seed {
                        break;
                    }
                }
            }
            s += 1;
            off = 0;
        }
        Some(Witness { nodes, hops })
    }
}

#[cfg(test)]
mod tests {
    use crate::{AdError, Adj, Real, TapeConfig, TapeSession};

    #[test]
    fn liveness_matches_reachability_and_used_is_def_use() {
        let s = TapeSession::new();
        let x = Adj::leaf(3.0);
        let y = Adj::leaf(4.0);
        let dead = Adj::leaf(5.0); // never consumed
        let out = x * y + 1.0;
        let tape = s.finish();
        let dd = tape.datadep(out).unwrap();
        let reach = tape.reachable(out).unwrap();
        assert_eq!(dd.live_bits(), &reach[..]);
        assert!(dd.live(x.index().unwrap()) && dd.used(x.index().unwrap()));
        assert!(!dd.live(dead.index().unwrap()));
        assert!(!dd.used(dead.index().unwrap()));
        assert_eq!(dd.live_count(), 4); // x, y, x*y, +1.0
        assert_eq!(dd.seed(), out.index());
    }

    #[test]
    fn witness_path_walks_recorded_consumers_to_the_output() {
        let s = TapeSession::new();
        let x = Adj::leaf(2.0); // node 0
        let a = x * 3.0; // node 1
        let b = a + 1.0; // node 2
        let out = b * b; // node 3
        let tape = s.finish();
        let dd = tape.datadep(out).unwrap();
        let w = dd.witness_path(&tape, x.index().unwrap(), 16).unwrap();
        assert_eq!(w.nodes, vec![0, 1, 2, 3]);
        assert_eq!(w.hops, 3);
        // Truncation keeps the hop count exact.
        let w = dd.witness_path(&tape, x.index().unwrap(), 2).unwrap();
        assert_eq!(w.nodes, vec![0, 1]);
        assert_eq!(w.hops, 3);
        // The output's own witness is the trivial path.
        let w = dd.witness_path(&tape, out.index().unwrap(), 16).unwrap();
        assert_eq!((w.nodes.len(), w.hops), (1, 0));
    }

    #[test]
    fn dead_node_has_no_witness() {
        let s = TapeSession::new();
        let x = Adj::leaf(2.0);
        let dead = Adj::leaf(7.0);
        let out = x * x;
        let tape = s.finish();
        let dd = tape.datadep(out).unwrap();
        assert!(dd.witness_path(&tape, dead.index().unwrap(), 16).is_none());
    }

    #[test]
    fn max_loser_is_live_with_a_witness_through_the_max_node() {
        let s = TapeSession::new();
        let a = Adj::leaf(5.0);
        let b = Adj::leaf(2.0); // loses the max: partial 0, edge recorded
        let out = a.rmax(b) * 2.0;
        let tape = s.finish();
        let g = tape.gradient(out).unwrap();
        let dd = tape.datadep(out).unwrap();
        assert_eq!(g.wrt(b), 0.0);
        assert!(dd.live(b.index().unwrap()));
        let w = dd.witness_path(&tape, b.index().unwrap(), 16).unwrap();
        // b -> max node -> out.
        assert_eq!(w.hops, 2);
        assert_eq!(*w.nodes.last().unwrap(), out.index().unwrap());
    }

    #[test]
    fn constant_output_yields_all_dead() {
        let s = TapeSession::new();
        let x = Adj::leaf(1.0);
        let c = Adj::constant(2.0) * 3.0;
        let tape = s.finish();
        let dd = tape.datadep(c).unwrap();
        assert_eq!(dd.seed(), None);
        assert!(!dd.live(x.index().unwrap()));
        assert_eq!(dd.live_count(), 0);
        assert!(dd.witness_path(&tape, x.index().unwrap(), 16).is_none());
    }

    #[test]
    fn poisoned_tape_is_a_typed_error() {
        let s = TapeSession::with_config(TapeConfig {
            segment_len: 8,
            node_limit: 4,
            ..TapeConfig::default()
        });
        let x = Adj::leaf(2.0);
        let mut y = x;
        for _ in 0..10 {
            y = y * 2.0 + 1.0;
        }
        let tape = s.finish();
        assert_eq!(
            tape.datadep(y).unwrap_err(),
            AdError::TapeOverflow { limit: 4 }
        );
        // Constant output on a poisoned tape is still an error.
        assert_eq!(
            tape.datadep(Adj::constant(1.0)).unwrap_err(),
            AdError::TapeOverflow { limit: 4 }
        );
    }

    #[test]
    fn out_of_range_seed_is_a_typed_error() {
        // An output from another, longer recording.
        let s = TapeSession::new();
        let mut foreign = Adj::leaf(1.0);
        while foreign.index() != Some(9) {
            foreign += 1.0;
        }
        drop(s);
        let s = TapeSession::new();
        let _x = Adj::leaf(1.0);
        let tape = s.finish();
        assert_eq!(
            tape.datadep(foreign).unwrap_err(),
            AdError::NodeOutOfRange { node: 9, len: 1 }
        );
    }
}
