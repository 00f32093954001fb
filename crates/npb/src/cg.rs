//! CG — Conjugate Gradient (NPB class S: `NA = 1400`, `NONZER = 7`,
//! `NITER = 15`, `SHIFT = 10`).
//!
//! Checkpoint variables (paper Table I): `double x[1402]`, `int it`.
//! NPB declares `x` with `NA + 2` slots but every loop runs `0..NA`; the
//! paper finds exactly those 2 tail elements uncritical (Fig. 6), which
//! this port preserves.
//!
//! One outer iteration runs 25 inner conjugate-gradient iterations
//! (`conj_grad`), and each of them ends at a resume point of the step
//! protocol: a bounded-memory analysis re-records an evicted window from
//! the nearest inner iteration, not from the start of a step that spans
//! about 22 tape segments at class S.

use crate::common::{dot, SparseMatrix, RANDLC_SEED};
use scrutiny_ad::{Adj, Real};
use scrutiny_core::{AppRun, AppSpec, ScrutinyApp, VarRefMut, VarSpec};
use std::ops::RangeInclusive;

/// The CG benchmark.
pub struct Cg {
    /// Matrix dimension (`NA`).
    pub na: usize,
    /// Off-diagonals per row in the generator (`NONZER`).
    pub nonzer: usize,
    /// Outer (main-loop) iterations (`NITER`).
    pub niter: usize,
    /// Inner conjugate-gradient iterations per outer step (25 in NPB).
    pub inner: usize,
    /// Eigenvalue shift.
    pub shift: f64,
    /// Main-loop index at whose boundary the checkpoint is taken.
    pub ckpt_at: usize,
    matrix: SparseMatrix,
}

impl Cg {
    /// Class S configuration, checkpointing near the end of the run (the
    /// criticality map is iteration-invariant; a late checkpoint keeps the
    /// AD tape small).
    pub fn class_s() -> Self {
        Self::new(1400, 7, 15, 25, 10.0, 14)
    }

    /// A reduced instance for fast tests.
    pub fn mini() -> Self {
        Self::new(64, 3, 6, 10, 8.0, 4)
    }

    /// Fully parameterized constructor.
    pub fn new(
        na: usize,
        nonzer: usize,
        niter: usize,
        inner: usize,
        shift: f64,
        ckpt_at: usize,
    ) -> Self {
        assert!(
            ckpt_at >= 1 && ckpt_at <= niter,
            "checkpoint must fall inside the main loop"
        );
        // The matrix is program input regenerated deterministically at
        // restart; it is not a checkpoint variable (matching NPB, which
        // rebuilds it in `makea` from the same seed).
        let matrix = SparseMatrix::random_spd(na, nonzer, shift, RANDLC_SEED);
        Cg {
            na,
            nonzer,
            niter,
            inner,
            shift,
            ckpt_at,
            matrix,
        }
    }

    fn start<R: Real>(&self) -> Box<CgRun<'_, R>> {
        Box::new(CgRun {
            cg: self,
            // NPB initializes all NA+2 slots to 1.0 …
            x: vec![R::one(); self.na + 2],
            it_state: vec![0],
            zeta: R::zero(),
            solve: None,
        })
    }
}

/// A [`Cg`] run at a resume point: between two outer iterations, or
/// inside one between two of its inner conjugate-gradient iterations.
#[derive(Clone)]
struct CgRun<'a, R> {
    cg: &'a Cg,
    x: Vec<R>,
    it_state: Vec<i64>,
    zeta: R,
    /// The `conj_grad` call in progress, if any.
    solve: Option<Box<ConjGrad<R>>>,
}

/// `conj_grad`'s loop state between two of its iterations.
#[derive(Clone)]
struct ConjGrad<R> {
    z: Vec<R>,
    r: Vec<R>,
    p: Vec<R>,
    q: Vec<R>,
    rho: R,
    /// Inner iterations done.
    k: usize,
}

impl<R: Real> CgRun<'_, R> {
    /// Advance the `conj_grad` call — approximately solve `A z = x` — by
    /// one inner iteration, starting the call first if none is in
    /// progress. Once its last iteration is done, returns `z` and
    /// `‖x − A z‖` (NPB computes and prints this residual).
    fn conj_grad(&mut self) -> Option<(Vec<R>, R)> {
        let (cg, x) = (self.cg, &self.x);
        let na = cg.na;
        let s = self.solve.get_or_insert_with(|| {
            let r: Vec<R> = x[..na].to_vec();
            Box::new(ConjGrad {
                z: vec![R::zero(); na],
                p: r.clone(),
                q: vec![R::zero(); na],
                rho: dot(&r, &r),
                r,
                k: 0,
            })
        });
        if s.k < cg.inner {
            cg.matrix.spmv(&s.p, &mut s.q);
            let alpha = s.rho / dot(&s.p, &s.q);
            for j in 0..na {
                s.z[j] += s.p[j] * alpha;
                s.r[j] -= s.q[j] * alpha;
            }
            let rho0 = s.rho;
            s.rho = dot(&s.r, &s.r);
            let beta = s.rho / rho0;
            for j in 0..na {
                s.p[j] = s.r[j] + s.p[j] * beta;
            }
            s.k += 1;
            if s.k < cg.inner {
                return None;
            }
        }
        let ConjGrad { z, mut q, .. } = *self.solve.take().expect("a call is in progress");
        cg.matrix.spmv(&z, &mut q);
        let mut sum = R::zero();
        for j in 0..na {
            let d = x[j] - q[j];
            sum += d * d;
        }
        Some((z, sum.sqrt()))
    }
}

impl<'a, R: Real + 'a> AppRun<'a, R> for CgRun<'a, R> {
    /// Every inner conjugate-gradient iteration ends at a resume point.
    fn step(&mut self, _it: usize) -> bool {
        let Some((z, _rnorm)) = self.conj_grad() else {
            return false;
        };
        let (cg, x) = (self.cg, &mut self.x);
        let na = cg.na;
        let xz = dot(&x[..na], &z);
        self.zeta = R::lit(cg.shift) + R::one() / xz;
        // … but only the first NA are ever read or written.
        let norm = dot(&z, &z).sqrt();
        for j in 0..na {
            x[j] = z[j] / norm;
        }
        true
    }

    fn vars(&mut self, it: usize) -> Vec<VarRefMut<'_, R>> {
        self.it_state[0] = it as i64;
        vec![
            VarRefMut::F64(&mut self.x),
            VarRefMut::I64(&mut self.it_state),
        ]
    }

    fn output(&self) -> R {
        self.zeta
    }

    fn fork(&self) -> Box<dyn AppRun<'a, R> + 'a> {
        Box::new(self.clone())
    }

    fn snapshot_bytes(&self) -> usize {
        let solve = self.solve.as_deref().map_or(0, |s| {
            std::mem::size_of_val(s)
                + [&s.z, &s.r, &s.p, &s.q]
                    .iter()
                    .map(|v| std::mem::size_of_val(&v[..]))
                    .sum::<usize>()
        });
        std::mem::size_of_val(self)
            + std::mem::size_of_val(&self.x[..])
            + std::mem::size_of_val(&self.it_state[..])
            + solve
    }
}

impl ScrutinyApp for Cg {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "CG".into(),
            class: if self.na == 1400 {
                "S".into()
            } else {
                format!("na={}", self.na)
            },
            vars: vec![VarSpec::f64("x", &[self.na + 2]), VarSpec::int_scalar("it")],
        }
    }

    fn steps(&self) -> RangeInclusive<usize> {
        1..=self.niter
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
        let per_inner = 2 * self.matrix.nnz() + 10 * self.na;
        let remaining = self.niter - self.ckpt_at + 1;
        remaining * (self.inner + 1) * per_inner + 4 * self.na
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::site::NoopSite;
    use scrutiny_core::{scrutinize, FillPolicy, Policy, RestartConfig};

    #[test]
    fn deterministic_and_finite() {
        let cg = Cg::mini();
        let a = cg.run_f64(&mut NoopSite).output;
        let b = cg.run_f64(&mut NoopSite).output;
        assert_eq!(a, b);
        assert!(a.is_finite());
        // zeta = shift + 1/(x·z) must sit above the shift for an SPD
        // matrix with positive Rayleigh quotients.
        assert!(a > cg.shift, "zeta {a} not above shift");
    }

    #[test]
    fn residual_decreases_within_conj_grad() {
        let cg = Cg::mini();
        let mut run = cg.start::<f64>();
        let rnorm = loop {
            if let Some((_, rnorm)) = run.conj_grad() {
                break rnorm;
            }
        };
        let x = &run.x;
        let x_norm = dot(&x[..cg.na], &x[..cg.na]).sqrt();
        assert!(
            rnorm < 1e-6 * x_norm,
            "CG failed to reduce the residual: {rnorm}"
        );
    }

    #[test]
    fn mini_criticality_pattern() {
        let cg = Cg::mini();
        let report = scrutinize(&cg).unwrap();
        let x = report.var("x").unwrap();
        assert_eq!(x.total(), cg.na + 2);
        assert_eq!(
            x.uncritical(),
            2,
            "exactly the two tail slots are uncritical"
        );
        assert!(!x.value_map.get(cg.na));
        assert!(!x.value_map.get(cg.na + 1));
        let it = report.var("it").unwrap();
        assert_eq!(it.uncritical(), 0);
    }

    #[test]
    fn restart_with_garbage_holes_verifies() {
        let cg = Cg::mini();
        let analysis = scrutinize(&cg).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedValue,
            fill: FillPolicy::Garbage(123),
            store_dir: None,
        };
        let report = scrutiny_core::checkpoint_restart_cycle(&cg, &analysis, &cfg).unwrap();
        assert!(report.verified, "rel err {}", report.rel_err);
    }

    #[test]
    fn criticality_stable_across_checkpoint_positions() {
        let a = scrutinize(&Cg::new(64, 3, 6, 10, 8.0, 2)).unwrap();
        let b = scrutinize(&Cg::new(64, 3, 6, 10, 8.0, 5)).unwrap();
        assert_eq!(a.var("x").unwrap().value_map, b.var("x").unwrap().value_map);
    }
}
