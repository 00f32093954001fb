//! MG — V-cycle MultiGrid for the 3-D discrete Poisson equation
//! (NPB class S: 32³ grid, 5 levels, 4 iterations).
//!
//! Checkpoint variables (paper Table I): `double u[46480]`,
//! `double r[46480]`, `int it`. Both flat arrays pack all grid levels
//! finest-first (34³, 18³, 10³, 6³, 4³ with 2-cell periodic padding per
//! dim) plus NPB's allocation slack — 46480 elements at class S.
//!
//! The paper's findings this port reproduces exactly:
//!
//! * `u`: the finest level (34³ = 39304 elements) is read by
//!   `interp`/`resid`; every coarse level is zeroed (`zero3`) before any
//!   read, and the tail padding is never touched ⇒ 7176 uncritical
//!   (Fig. 4: one critical block, then one uncritical block).
//! * `r`: the first post-checkpoint reader is the restriction `rprj3`,
//!   whose stencil covers fine indices `0..=32` per dimension ⇒
//!   33³ = 35937 critical, 10543 uncritical (Table II), appearing as the
//!   period-34 repetitive pattern of Fig. 5. The running text's 10479 is
//!   inconsistent with the paper's own table; see
//!   `docs/PAPER_MAPPING.md`, "Table II" (deviations).

use crate::common::Randlc;
use scrutiny_ad::{Adj, Real};
use scrutiny_core::{AppRun, AppSpec, ScrutinyApp, VarRefMut, VarSpec};
use std::ops::RangeInclusive;

/// Stencil weights by neighbor class (center, face, edge, corner).
type Weights = [f64; 4];

/// NPB's Poisson operator coefficients `a`.
const A_STENCIL: Weights = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];
/// NPB's class-S smoother coefficients `c`.
const C_STENCIL: Weights = [-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0];

/// The MG benchmark.
pub struct Mg {
    /// Number of levels (finest grid is `2^lt` interior cells per dim).
    pub lt: usize,
    /// Main-loop (V-cycle) iterations.
    pub nit: usize,
    /// Main-loop index at whose boundary the checkpoint is taken (1-based).
    pub ckpt_at: usize,
    /// Per-level padded dimension `m[k] = 2^k + 2` (index 0 unused).
    m: Vec<usize>,
    /// Per-level offset into the flat arrays, finest (`lt`) first.
    ir: Vec<usize>,
    /// Total flat length including allocation slack.
    total: usize,
    /// Right-hand side (charges at random cells), finest level only.
    /// Program input: regenerated at restart, constant under AD.
    v: Vec<f64>,
}

impl Mg {
    /// Class S: 32³, 5 levels, 4 iterations, arrays padded to NPB's 46480
    /// allocation; checkpoint before the final V-cycle.
    pub fn class_s() -> Self {
        Self::new(5, 4, 4, Some(46_480))
    }

    /// A reduced instance (8³, 3 levels) for fast tests.
    pub fn mini() -> Self {
        Self::new(3, 3, 2, None)
    }

    /// General constructor. `pad_to` forces the flat allocation length
    /// (NPB's `NR` formula leaves slack beyond the packed levels).
    pub fn new(lt: usize, nit: usize, ckpt_at: usize, pad_to: Option<usize>) -> Self {
        assert!(lt >= 2, "need at least two levels");
        assert!(
            ckpt_at >= 1 && ckpt_at <= nit,
            "checkpoint must fall inside the main loop"
        );
        let mut m = vec![0usize; lt + 1];
        for (k, mk) in m.iter_mut().enumerate().skip(1) {
            *mk = (1 << k) + 2;
        }
        let mut ir = vec![0usize; lt + 1];
        // Finest-first packing: ir[lt] = 0, then coarser levels.
        let mut off = 0usize;
        for k in (1..=lt).rev() {
            ir[k] = off;
            off += m[k] * m[k] * m[k];
        }
        let total = match pad_to {
            Some(t) => {
                assert!(t >= off, "pad_to {t} smaller than packed levels {off}");
                t
            }
            None => off,
        };
        let nf = m[lt];
        let v = Self::zran3(nf);
        Mg {
            lt,
            nit,
            ckpt_at,
            m,
            ir,
            total,
            v,
        }
    }

    /// Total flat array length (u and r).
    pub fn total_elems(&self) -> usize {
        self.total
    }

    /// NPB's `zran3` analogue: ±1 charges at pseudo-random interior cells.
    fn zran3(n: usize) -> Vec<f64> {
        let mut v = vec![0.0f64; n * n * n];
        let mut rng = Randlc::new(314_159_265);
        let interior = n - 2;
        let place = |sign: f64, rng: &mut Randlc, v: &mut Vec<f64>| {
            let i3 = 1 + (rng.next() * interior as f64) as usize;
            let i2 = 1 + (rng.next() * interior as f64) as usize;
            let i1 = 1 + (rng.next() * interior as f64) as usize;
            v[(i3 * n + i2) * n + i1] = sign;
        };
        for _ in 0..10 {
            place(1.0, &mut rng, &mut v);
        }
        for _ in 0..10 {
            place(-1.0, &mut rng, &mut v);
        }
        v
    }

    #[inline]
    fn idx(n: usize, i3: usize, i2: usize, i1: usize) -> usize {
        (i3 * n + i2) * n + i1
    }

    /// Zero an entire level (NPB `zero3`).
    fn zero3<R: Real>(buf: &mut [R], n: usize) {
        for x in buf[..n * n * n].iter_mut() {
            *x = R::zero();
        }
    }

    /// Periodic boundary exchange on one level (NPB `comm3`).
    fn comm3<R: Real>(buf: &mut [R], n: usize) {
        // axis 1 (i1): faces copy from the opposite interior plane.
        for i3 in 1..n - 1 {
            for i2 in 1..n - 1 {
                buf[Self::idx(n, i3, i2, 0)] = buf[Self::idx(n, i3, i2, n - 2)];
                buf[Self::idx(n, i3, i2, n - 1)] = buf[Self::idx(n, i3, i2, 1)];
            }
        }
        for i3 in 1..n - 1 {
            for i1 in 0..n {
                buf[Self::idx(n, i3, 0, i1)] = buf[Self::idx(n, i3, n - 2, i1)];
                buf[Self::idx(n, i3, n - 1, i1)] = buf[Self::idx(n, i3, 1, i1)];
            }
        }
        for i2 in 0..n {
            for i1 in 0..n {
                buf[Self::idx(n, 0, i2, i1)] = buf[Self::idx(n, n - 2, i2, i1)];
                buf[Self::idx(n, n - 1, i2, i1)] = buf[Self::idx(n, 1, i2, i1)];
            }
        }
    }

    /// Weighted 27-point application: `out[c] (+|=) Σ w[|d|]·inp[c+d]`.
    /// Zero weights are skipped (NPB's `a[1] = 0` case), which also keeps
    /// them off the AD tape.
    fn stencil_sum<R: Real>(
        inp: &[R],
        n: usize,
        i3: usize,
        i2: usize,
        i1: usize,
        w: &Weights,
    ) -> R {
        let mut acc = R::zero();
        for d3 in -1i32..=1 {
            for d2 in -1i32..=1 {
                for d1 in -1i32..=1 {
                    let cls = (d3.abs() + d2.abs() + d1.abs()) as usize;
                    let wk = w[cls];
                    if wk == 0.0 {
                        continue;
                    }
                    let idx = Self::idx(
                        n,
                        (i3 as i32 + d3) as usize,
                        (i2 as i32 + d2) as usize,
                        (i1 as i32 + d1) as usize,
                    );
                    acc += inp[idx] * wk;
                }
            }
        }
        acc
    }

    /// Residual on the finest level: `r = v − A u` (NPB `resid`).
    fn resid_finest<R: Real>(&self, u: &[R], r: &mut [R]) {
        let n = self.m[self.lt];
        for i3 in 1..n - 1 {
            for i2 in 1..n - 1 {
                for i1 in 1..n - 1 {
                    let au = Self::stencil_sum(u, n, i3, i2, i1, &A_STENCIL);
                    r[Self::idx(n, i3, i2, i1)] = R::lit(self.v[Self::idx(n, i3, i2, i1)]) - au;
                }
            }
        }
        Self::comm3(r, n);
    }

    /// In-place level residual: `r ← r − A u` (the coarse-level variant).
    fn resid_level<R: Real>(u: &[R], r: &mut [R], n: usize) {
        for i3 in 1..n - 1 {
            for i2 in 1..n - 1 {
                for i1 in 1..n - 1 {
                    let au = Self::stencil_sum(u, n, i3, i2, i1, &A_STENCIL);
                    let c = Self::idx(n, i3, i2, i1);
                    r[c] -= au;
                }
            }
        }
        Self::comm3(r, n);
    }

    /// Smoother: `u += S r` (NPB `psinv`).
    fn psinv<R: Real>(r: &[R], u: &mut [R], n: usize) {
        for i3 in 1..n - 1 {
            for i2 in 1..n - 1 {
                for i1 in 1..n - 1 {
                    let sr = Self::stencil_sum(r, n, i3, i2, i1, &C_STENCIL);
                    let c = Self::idx(n, i3, i2, i1);
                    u[c] += sr;
                }
            }
        }
        Self::comm3(u, n);
    }

    /// Restriction fine→coarse (NPB `rprj3`): full weighting. Coarse
    /// interior `jc ∈ 1..=nc-2` maps to fine center `2·jc − 1`; the ±1
    /// stencil therefore reads fine indices `0..=nf-2` per dimension —
    /// 33 of 34 at the finest level, which is what shapes Fig. 5.
    fn rprj3<R: Real>(fine: &[R], nf: usize, coarse: &mut [R], nc: usize) {
        const W: Weights = [0.5, 0.25, 0.125, 0.0625];
        for j3 in 1..nc - 1 {
            for j2 in 1..nc - 1 {
                for j1 in 1..nc - 1 {
                    let (f3, f2, f1) = (2 * j3 - 1, 2 * j2 - 1, 2 * j1 - 1);
                    let mut acc = R::zero();
                    for d3 in -1i32..=1 {
                        for d2 in -1i32..=1 {
                            for d1 in -1i32..=1 {
                                let cls = (d3.abs() + d2.abs() + d1.abs()) as usize;
                                let idx = Self::idx(
                                    nf,
                                    (f3 as i32 + d3) as usize,
                                    (f2 as i32 + d2) as usize,
                                    (f1 as i32 + d1) as usize,
                                );
                                acc += fine[idx] * W[cls];
                            }
                        }
                    }
                    coarse[Self::idx(nc, j3, j2, j1)] = acc;
                }
            }
        }
        Self::comm3(coarse, nc);
    }

    /// Prolongation coarse→fine (NPB `interp`): trilinear, added into the
    /// fine level. Coarse `jc` aligns with fine `2·jc − 1`.
    fn interp<R: Real>(coarse: &[R], nc: usize, fine: &mut [R], nf: usize) {
        for f3 in 1..nf - 1 {
            for f2 in 1..nf - 1 {
                for f1 in 1..nf - 1 {
                    let mut acc = R::zero();
                    // Per-dim coarse support: odd fine index sits on a
                    // coarse point; even sits between two.
                    let support = |f: usize| -> [(usize, f64); 2] {
                        if f % 2 == 1 {
                            [(f.div_ceil(2), 1.0), (0, 0.0)]
                        } else {
                            [(f / 2, 0.5), (f / 2 + 1, 0.5)]
                        }
                    };
                    for (c3, w3) in support(f3) {
                        if w3 == 0.0 {
                            continue;
                        }
                        for (c2, w2) in support(f2) {
                            if w2 == 0.0 {
                                continue;
                            }
                            for (c1, w1) in support(f1) {
                                if w1 == 0.0 {
                                    continue;
                                }
                                acc += coarse[Self::idx(nc, c3, c2, c1)] * (w3 * w2 * w1);
                            }
                        }
                    }
                    let c = Self::idx(nf, f3, f2, f1);
                    fine[c] += acc;
                }
            }
        }
        // NPB's serial `interp` performs no boundary exchange: the fine
        // faces keep their prior values until the next smoother's comm3.
        // (Adding one here would overwrite u's faces before `resid` reads
        // them and silently flip 34³−32³ elements to uncritical.)
    }

    /// RMS norm over a level's interior (NPB `norm2u3`'s rnm2).
    fn l2norm<R: Real>(buf: &[R], n: usize) -> R {
        let mut s = R::zero();
        for i3 in 1..n - 1 {
            for i2 in 1..n - 1 {
                for i1 in 1..n - 1 {
                    let x = buf[Self::idx(n, i3, i2, i1)];
                    s += x * x;
                }
            }
        }
        let count = ((n - 2) * (n - 2) * (n - 2)) as f64;
        (s / count).sqrt()
    }

    /// One V-cycle (NPB `mg3P`).
    fn mg3p<R: Real>(&self, u: &mut [R], r: &mut [R]) {
        let (lt, lb) = (self.lt, 1);
        // Down sweep: restrict the residual to the coarsest level.
        for k in ((lb + 1)..=lt).rev() {
            let (nf, nc) = (self.m[k], self.m[k - 1]);
            // Coarser levels sit after finer ones in the flat packing.
            let (left, right) = r.split_at_mut(self.ir[k - 1]);
            let fine = &left[self.ir[k]..self.ir[k] + nf * nf * nf];
            let coarse = &mut right[..nc * nc * nc];
            Self::rprj3(fine, nf, coarse, nc);
        }
        // Coarsest: u = 0, then smooth.
        {
            let n = self.m[lb];
            let ul = &mut u[self.ir[lb]..self.ir[lb] + n * n * n];
            Self::zero3(ul, n);
            Self::psinv(&r[self.ir[lb]..self.ir[lb] + n * n * n], ul, n);
        }
        // Up sweep.
        for k in (lb + 1)..=lt {
            let (nc, nf) = (self.m[k - 1], self.m[k]);
            let coarse_off = self.ir[k - 1];
            let fine_off = self.ir[k];
            if k < lt {
                // zero, prolongate, correct residual, smooth.
                {
                    let (left, right) = u.split_at_mut(coarse_off);
                    let fine = &mut left[fine_off..fine_off + nf * nf * nf];
                    Self::zero3(fine, nf);
                    Self::interp(&right[..nc * nc * nc], nc, fine, nf);
                }
                let uf = &u[fine_off..fine_off + nf * nf * nf];
                Self::resid_level(uf, &mut r[fine_off..fine_off + nf * nf * nf], nf);
                Self::psinv(
                    &r[fine_off..fine_off + nf * nf * nf],
                    &mut u[fine_off..fine_off + nf * nf * nf],
                    nf,
                );
            } else {
                // Finest level: the correction is *added* to u (no zero3).
                {
                    let (left, right) = u.split_at_mut(coarse_off);
                    let fine = &mut left[fine_off..fine_off + nf * nf * nf];
                    Self::interp(&right[..nc * nc * nc], nc, fine, nf);
                }
                self.resid_finest(&u[..nf * nf * nf], &mut r[..nf * nf * nf]);
                Self::psinv(&r[..nf * nf * nf], &mut u[..nf * nf * nf], nf);
            }
        }
    }

    fn start<R: Real>(&self) -> Box<MgRun<'_, R>> {
        let n = self.m[self.lt];
        let u: Vec<R> = vec![R::zero(); self.total];
        let mut r: Vec<R> = vec![R::zero(); self.total];
        // Setup: u = 0, r = v - A·0 = v.
        self.resid_finest(&u[..n * n * n], &mut r[..n * n * n]);
        Box::new(MgRun {
            mg: self,
            u,
            r,
            it_state: vec![0],
        })
    }
}

/// An [`Mg`] run between two V-cycles.
#[derive(Clone)]
struct MgRun<'a, R> {
    mg: &'a Mg,
    u: Vec<R>,
    r: Vec<R>,
    it_state: Vec<i64>,
}

impl<'a, R: Real + 'a> AppRun<'a, R> for MgRun<'a, R> {
    fn step(&mut self, _it: usize) -> bool {
        let (mg, u, r) = (self.mg, &mut self.u, &mut self.r);
        let n = mg.m[mg.lt];
        mg.mg3p(u, r);
        // Recompute the true residual of the updated solution.
        mg.resid_finest(&u[..n * n * n], &mut r[..n * n * n]);
        true
    }

    fn vars(&mut self, it: usize) -> Vec<VarRefMut<'_, R>> {
        self.it_state[0] = it as i64;
        vec![
            VarRefMut::F64(&mut self.u),
            VarRefMut::F64(&mut self.r),
            VarRefMut::I64(&mut self.it_state),
        ]
    }

    fn output(&self) -> R {
        let n = self.mg.m[self.mg.lt];
        Mg::l2norm(&self.r[..n * n * n], n)
    }

    fn fork(&self) -> Box<dyn AppRun<'a, R> + 'a> {
        Box::new(self.clone())
    }

    fn snapshot_bytes(&self) -> usize {
        std::mem::size_of_val(self)
            + std::mem::size_of_val(&self.u[..])
            + std::mem::size_of_val(&self.r[..])
            + std::mem::size_of_val(&self.it_state[..])
    }
}

impl ScrutinyApp for Mg {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "MG".into(),
            class: if self.lt == 5 {
                "S".into()
            } else {
                format!("lt={}", self.lt)
            },
            vars: vec![
                VarSpec::f64("u", &[self.total]),
                VarSpec::f64("r", &[self.total]),
                VarSpec::int_scalar("it"),
            ],
        }
    }

    fn steps(&self) -> RangeInclusive<usize> {
        1..=self.nit
    }

    fn checkpoint_iter(&self) -> usize {
        self.ckpt_at
    }

    fn start_f64(&self) -> Box<dyn AppRun<'_, f64> + '_> {
        self.start()
    }

    fn start_ad(&self) -> Box<dyn AppRun<'_, Adj> + '_> {
        self.start()
    }

    fn tape_capacity_hint(&self) -> usize {
        let remaining = self.nit - self.ckpt_at + 1;
        let nf = self.m[self.lt];
        remaining * nf * nf * nf * 110 + (1 << 16)
    }

    fn tolerance(&self) -> f64 {
        1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::site::NoopSite;
    use scrutiny_core::{scrutinize, Policy, RestartConfig};

    #[test]
    fn level_layout_matches_paper_totals() {
        let mg = Mg::class_s();
        assert_eq!(mg.m[5], 34);
        assert_eq!(mg.m[1], 4);
        assert_eq!(mg.ir[5], 0);
        assert_eq!(mg.ir[4], 34 * 34 * 34);
        assert_eq!(mg.total_elems(), 46_480);
    }

    #[test]
    fn vcycles_reduce_the_residual() {
        let mg = Mg::mini();
        // Residual norm of u=0 is ‖v‖; after nit V-cycles it must shrink.
        let n = mg.m[mg.lt];
        let zero = vec![0.0f64; n * n * n];
        let mut r0 = vec![0.0f64; n * n * n];
        mg.resid_finest(&zero, &mut r0);
        let initial = Mg::l2norm(&r0, n);
        let out = mg.run_f64(&mut NoopSite).output;
        assert!(
            out < initial,
            "V-cycles failed to reduce the residual: {out} vs {initial}"
        );
    }

    #[test]
    fn deterministic() {
        let mg = Mg::mini();
        assert_eq!(
            mg.run_f64(&mut NoopSite).output,
            mg.run_f64(&mut NoopSite).output
        );
    }

    #[test]
    fn mini_criticality_structure() {
        let mg = Mg::mini();
        let report = scrutinize(&mg).unwrap();
        let nf = mg.m[mg.lt];
        let finest = nf * nf * nf;
        let u = report.var("u").unwrap();
        // u: finest level fully critical, all coarse levels uncritical.
        assert_eq!(u.critical(), finest);
        for i in finest..mg.total_elems() {
            assert!(!u.value_map.get(i), "coarse u[{i}] must be uncritical");
        }
        // r: per-dim reads 0..=nf-2 ⇒ (nf-1)³ critical.
        let rr = report.var("r").unwrap();
        assert_eq!(rr.critical(), (nf - 1) * (nf - 1) * (nf - 1));
    }

    #[test]
    fn restart_with_garbage_holes_verifies() {
        let mg = Mg::mini();
        let analysis = scrutinize(&mg).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedValue,
            ..Default::default()
        };
        let report = scrutiny_core::checkpoint_restart_cycle(&mg, &analysis, &cfg).unwrap();
        assert!(report.verified, "rel err {}", report.rel_err);
    }
}
