//! Checkpoint sites: what happens at the checkpoint boundary.
//!
//! An application calls its site exactly once per run, at the configured
//! main-loop boundary, handing over mutable views of every checkpoint
//! variable (in `AppSpec` order). Different sites implement the three
//! phases of the method:
//!
//! * [`CaptureSite`] (`R = f64`) — copy the state out (to be written to a
//!   checkpoint).
//! * [`LeafSite`] (`R = Adj`) — replace every float element with a fresh
//!   tape leaf, recording the leaf-id layout for the reverse sweep.
//! * [`RestoreSite`] (`R = f64`) — overwrite the state with restored
//!   (possibly hole-filled, possibly corrupted) buffers: the restart.

use scrutiny_ad::{Adj, Cplx, Real};
use scrutiny_ckpt::{DType, VarData};

/// A mutable view of one checkpoint variable at the boundary.
pub enum VarRefMut<'a, R: Real> {
    /// Double array (flattened).
    F64(&'a mut [R]),
    /// Complex array (flattened).
    C128(&'a mut [Cplx<R>]),
    /// Integer state (loop indices, sort keys…). Not differentiable;
    /// classified by control-criticality rules instead of AD.
    I64(&'a mut [i64]),
}

impl<R: Real> VarRefMut<'_, R> {
    /// Element count of the view (complex counts as one element).
    pub fn len(&self) -> usize {
        match self {
            VarRefMut::F64(s) => s.len(),
            VarRefMut::C128(s) => s.len(),
            VarRefMut::I64(s) => s.len(),
        }
    }

    /// True for an empty view.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type of the view.
    pub fn dtype(&self) -> DType {
        match self {
            VarRefMut::F64(_) => DType::F64,
            VarRefMut::C128(_) => DType::C128,
            VarRefMut::I64(_) => DType::I64,
        }
    }
}

/// Observer/mutator invoked once at the checkpoint boundary.
pub trait CkptSite<R: Real> {
    /// `iter` is the main-loop index at the boundary; `vars` are views of
    /// the checkpoint variables in `AppSpec` order.
    fn at_boundary(&mut self, iter: usize, vars: &mut [VarRefMut<'_, R>]);
}

/// A site that does nothing (uninterrupted golden runs).
pub struct NoopSite;

impl<R: Real> CkptSite<R> for NoopSite {
    fn at_boundary(&mut self, _iter: usize, _vars: &mut [VarRefMut<'_, R>]) {}
}

impl<R: Real, F: FnMut(usize, &mut [VarRefMut<'_, R>])> CkptSite<R> for F {
    fn at_boundary(&mut self, iter: usize, vars: &mut [VarRefMut<'_, R>]) {
        self(iter, vars)
    }
}

/// Captures the values of all checkpoint variables.
#[derive(Default)]
pub struct CaptureSite {
    /// Captured payloads in spec order (filled after the run).
    pub vars: Vec<VarData>,
    /// The boundary iteration observed.
    pub iter: Option<usize>,
}

impl CaptureSite {
    /// Fresh capture site.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CkptSite<f64> for CaptureSite {
    fn at_boundary(&mut self, iter: usize, vars: &mut [VarRefMut<'_, f64>]) {
        assert!(self.iter.is_none(), "checkpoint boundary visited twice");
        self.iter = Some(iter);
        for v in vars.iter() {
            self.vars.push(match v {
                VarRefMut::F64(s) => VarData::F64(s.to_vec()),
                VarRefMut::C128(s) => VarData::C128(s.iter().map(|c| (c.re, c.im)).collect()),
                VarRefMut::I64(s) => VarData::I64(s.to_vec()),
            });
        }
    }
}

/// Leaf-id layout for one variable after an AD run.
#[derive(Clone, Copy, Debug)]
pub struct LeafRange {
    /// First tape node id of this variable's leaves.
    pub start: u64,
    /// Elements in the variable.
    pub elems: usize,
    /// Tape leaves per element (1 for f64, 2 for complex, 0 for ints).
    pub per_elem: usize,
    /// Element type.
    pub dtype: DType,
}

/// Replaces every float element with a fresh tape leaf at the boundary.
#[derive(Clone, Default)]
pub struct LeafSite {
    /// Per-variable leaf layout in spec order (filled at the boundary).
    pub ranges: Vec<LeafRange>,
    /// The boundary iteration observed.
    pub iter: Option<usize>,
}

impl LeafSite {
    /// Fresh leaf site.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CkptSite<Adj> for LeafSite {
    fn at_boundary(&mut self, iter: usize, vars: &mut [VarRefMut<'_, Adj>]) {
        assert!(self.iter.is_none(), "checkpoint boundary visited twice");
        self.iter = Some(iter);
        for v in vars.iter_mut() {
            let range = match v {
                VarRefMut::F64(s) => {
                    let mut start = None;
                    for x in s.iter_mut() {
                        let leaf = Adj::leaf(x.value());
                        // An overflowed tape drops leaves; the poisoning
                        // surfaces as a typed AdError at sweep time, so the
                        // placeholder start is never consumed.
                        start.get_or_insert(leaf.index().unwrap_or(0));
                        *x = leaf;
                    }
                    LeafRange {
                        start: start.unwrap_or(0),
                        elems: s.len(),
                        per_elem: 1,
                        dtype: DType::F64,
                    }
                }
                VarRefMut::C128(s) => {
                    let mut start = None;
                    for c in s.iter_mut() {
                        let re = Adj::leaf(c.re.value());
                        let im = Adj::leaf(c.im.value());
                        start.get_or_insert(re.index().unwrap_or(0));
                        *c = Cplx::new(re, im);
                    }
                    LeafRange {
                        start: start.unwrap_or(0),
                        elems: s.len(),
                        per_elem: 2,
                        dtype: DType::C128,
                    }
                }
                VarRefMut::I64(s) => LeafRange {
                    start: 0,
                    elems: s.len(),
                    per_elem: 0,
                    dtype: DType::I64,
                },
            };
            self.ranges.push(range);
        }
    }
}

/// Overwrites the state with restored buffers — the restart path.
///
/// The buffers come from [`scrutiny_ckpt::Checkpoint`] materialization
/// (critical elements from disk, holes filled per `FillPolicy`), possibly
/// further corrupted by a fault-injection campaign.
pub struct RestoreSite {
    bufs: Vec<VarData>,
    /// Whether the boundary was reached (sanity check after the run).
    pub applied: bool,
}

impl RestoreSite {
    /// Restore from the given buffers (spec order).
    pub fn new(bufs: Vec<VarData>) -> Self {
        RestoreSite {
            bufs,
            applied: false,
        }
    }
}

impl CkptSite<f64> for RestoreSite {
    fn at_boundary(&mut self, _iter: usize, vars: &mut [VarRefMut<'_, f64>]) {
        assert!(!self.applied, "checkpoint boundary visited twice");
        assert_eq!(
            vars.len(),
            self.bufs.len(),
            "restore buffer count does not match the app's checkpoint spec"
        );
        for (v, buf) in vars.iter_mut().zip(&self.bufs) {
            match (v, buf) {
                (VarRefMut::F64(s), VarData::F64(b)) => {
                    assert_eq!(s.len(), b.len(), "restored f64 length mismatch");
                    s.copy_from_slice(b);
                }
                (VarRefMut::C128(s), VarData::C128(b)) => {
                    assert_eq!(s.len(), b.len(), "restored c128 length mismatch");
                    for (c, &(re, im)) in s.iter_mut().zip(b) {
                        *c = Cplx::new(re, im);
                    }
                }
                (VarRefMut::I64(s), VarData::I64(b)) => {
                    assert_eq!(s.len(), b.len(), "restored i64 length mismatch");
                    s.copy_from_slice(b);
                }
                _ => panic!("restore buffer dtype does not match the variable"),
            }
        }
        self.applied = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_ad::TapeSession;

    fn drive<R: Real>(site: &mut dyn CkptSite<R>, seed: f64) -> (Vec<R>, Vec<Cplx<R>>, Vec<i64>) {
        let mut f = vec![R::lit(seed), R::lit(seed + 1.0)];
        let mut c = vec![Cplx::lit(seed, -seed)];
        let mut i = vec![7i64];
        {
            let mut views = [
                VarRefMut::F64(&mut f),
                VarRefMut::C128(&mut c),
                VarRefMut::I64(&mut i),
            ];
            site.at_boundary(3, &mut views);
        }
        (f, c, i)
    }

    #[test]
    fn capture_copies_values() {
        let mut cap = CaptureSite::new();
        drive::<f64>(&mut cap, 2.0);
        assert_eq!(cap.iter, Some(3));
        assert_eq!(cap.vars[0], VarData::F64(vec![2.0, 3.0]));
        assert_eq!(cap.vars[1], VarData::C128(vec![(2.0, -2.0)]));
        assert_eq!(cap.vars[2], VarData::I64(vec![7]));
    }

    #[test]
    fn leaf_site_assigns_contiguous_ids() {
        let session = TapeSession::new();
        let mut leaf = LeafSite::new();
        let (f, c, _) = drive::<Adj>(&mut leaf, 1.0);
        let tape = session.finish();
        assert_eq!(tape.leaf_count(), 2 + 2); // two f64 + one complex
        assert_eq!(leaf.ranges[0].per_elem, 1);
        assert_eq!(leaf.ranges[1].per_elem, 2);
        assert_eq!(leaf.ranges[2].per_elem, 0);
        // Values preserved across leaf substitution.
        assert_eq!(f[0].value(), 1.0);
        assert_eq!(c[0].re.value(), 1.0);
        // Contiguity: f64 leaves then complex leaves.
        assert_eq!(leaf.ranges[0].start + 2, leaf.ranges[1].start);
    }

    #[test]
    fn restore_overwrites_state() {
        let bufs = vec![
            VarData::F64(vec![10.0, 20.0]),
            VarData::C128(vec![(5.0, 6.0)]),
            VarData::I64(vec![42]),
        ];
        let mut site = RestoreSite::new(bufs);
        let (f, c, i) = drive::<f64>(&mut site, 0.0);
        assert!(site.applied);
        assert_eq!(f, vec![10.0, 20.0]);
        assert_eq!((c[0].re, c[0].im), (5.0, 6.0));
        assert_eq!(i, vec![42]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn restore_length_mismatch_panics() {
        let mut site = RestoreSite::new(vec![
            VarData::F64(vec![1.0]),
            VarData::C128(vec![(0.0, 0.0)]),
            VarData::I64(vec![0]),
        ]);
        drive::<f64>(&mut site, 0.0);
    }

    #[test]
    fn closure_site_works() {
        let mut seen = 0usize;
        let mut site = |iter: usize, vars: &mut [VarRefMut<'_, f64>]| {
            seen = iter + vars.len();
        };
        drive::<f64>(&mut site, 0.0);
        assert_eq!(seen, 6);
    }
}
