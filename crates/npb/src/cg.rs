//! CG — Conjugate Gradient (NPB class S: `NA = 1400`, `NONZER = 7`,
//! `NITER = 15`, `SHIFT = 10`).
//!
//! Checkpoint variables (paper Table I): `double x[1402]`, `int it`.
//! NPB declares `x` with `NA + 2` slots but every loop runs `0..NA`; the
//! paper finds exactly those 2 tail elements uncritical (Fig. 6), which
//! this port preserves.

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

    /// One `conj_grad` call: approximately solve `A z = x`, returning `z`
    /// and `‖x − A z‖` (NPB computes and prints this residual).
    fn conj_grad<R: Real>(&self, x: &[R]) -> (Vec<R>, R) {
        let na = self.na;
        let mut z = vec![R::zero(); na];
        let mut r: Vec<R> = x[..na].to_vec();
        let mut p = r.clone();
        let mut q = vec![R::zero(); na];
        let mut rho = dot(&r, &r);
        for _ in 0..self.inner {
            self.matrix.spmv(&p, &mut q);
            let alpha = rho / dot(&p, &q);
            for j in 0..na {
                z[j] += p[j] * alpha;
                r[j] -= q[j] * alpha;
            }
            let rho0 = rho;
            rho = dot(&r, &r);
            let beta = rho / rho0;
            for j in 0..na {
                p[j] = r[j] + p[j] * beta;
            }
        }
        self.matrix.spmv(&z, &mut q);
        let mut sum = R::zero();
        for j in 0..na {
            let d = x[j] - q[j];
            sum += d * d;
        }
        (z, sum.sqrt())
    }

    fn start<R: Real>(&self) -> Box<CgRun<'_, R>> {
        Box::new(CgRun {
            cg: self,
            // NPB initializes all NA+2 slots to 1.0 …
            x: vec![R::one(); self.na + 2],
            it_state: vec![0],
            zeta: R::zero(),
        })
    }
}

/// A [`Cg`] run between two outer iterations.
#[derive(Clone)]
struct CgRun<'a, R> {
    cg: &'a Cg,
    x: Vec<R>,
    it_state: Vec<i64>,
    zeta: R,
}

impl<'a, R: Real + 'a> AppRun<'a, R> for CgRun<'a, R> {
    fn step(&mut self, _it: usize) {
        let (cg, x) = (self.cg, &mut self.x);
        let na = cg.na;
        let (z, _rnorm) = cg.conj_grad(x);
        let xz = dot(&x[..na], &z);
        self.zeta = R::lit(cg.shift) + R::one() / xz;
        // … but only the first NA are ever read or written.
        let norm = dot(&z, &z).sqrt();
        for j in 0..na {
            x[j] = z[j] / norm;
        }
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
        std::mem::size_of_val(self)
            + std::mem::size_of_val(&self.x[..])
            + std::mem::size_of_val(&self.it_state[..])
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
        let x = vec![1.0f64; cg.na + 2];
        let (_, rnorm) = cg.conj_grad(&x);
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
