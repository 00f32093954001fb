//! SP — Scalar Pentadiagonal ADI solver (NPB class S: 12³ grid,
//! 100 steps).
//!
//! Checkpoint variables (paper Table I): `double u[12][13][13][5]`,
//! `int step` — the same as BT, and the paper finds the *identical*
//! critical/uncritical distribution (Fig. 3): `error_norm` in `error.c`
//! is shared between the two benchmarks. This port mirrors that: the
//! state layout, loop bounds and `error_norm` are common (`pde`), while
//! the implicit step solves scalar pentadiagonal systems per component
//! (the factored fourth-order operator), SP's signature.

use crate::common::Arr4;
use crate::pde::{blend_init, error_norm, ExactSolution, Mat5, PentaSolver, GP, GP1, NCOMP};
use scrutiny_ad::{Adj, Real};
use scrutiny_core::{AppRun, AppSpec, ScrutinyApp, VarRefMut, VarSpec};
use std::ops::RangeInclusive;

/// The SP benchmark.
pub struct Sp {
    /// Time steps (`niter`; 100 at class S).
    pub niter: usize,
    /// Step index at whose boundary the checkpoint is taken (1-based).
    pub ckpt_at: usize,
    dt: f64,
    nu: f64,
    coupling: Mat5,
    forcing: Arr4<f64>,
    penta: PentaSolver,
    exact: ExactSolution,
}

impl Sp {
    /// Class S: 100 steps; analysis checkpoint near the end.
    pub fn class_s() -> Self {
        Self::new(100, 98)
    }

    /// Reduced step count for fast tests (state size is class S).
    pub fn mini() -> Self {
        Self::new(8, 4)
    }

    /// General constructor.
    pub fn new(niter: usize, ckpt_at: usize) -> Self {
        assert!(
            ckpt_at >= 1 && ckpt_at <= niter,
            "checkpoint must fall inside the main loop"
        );
        let dt = 0.28;
        let nu = 0.35;
        let mut coupling = [[0.0; NCOMP]; NCOMP];
        for (i, row) in coupling.iter_mut().enumerate() {
            row[i] = 0.15;
        }
        coupling[0][4] = 0.04;
        coupling[4][0] = 0.04;
        coupling[1][2] = -0.03;
        coupling[2][1] = -0.03;

        // The factored implicit operator (I − θ₂δ² + θ₄δ⁴) is scalar
        // pentadiagonal: stencil [e, c, d, c, e].
        let theta2 = 0.5 * dt * nu;
        let theta4 = 0.18 * theta2;
        let d = 1.0 + 2.0 * theta2 + 6.0 * theta4;
        let c = -(theta2 + 4.0 * theta4);
        let e = theta4;
        let penta = PentaSolver::factor(GP - 2, d, c, e);

        let exact = ExactSolution;
        let mut sp = Sp {
            niter,
            ckpt_at,
            dt,
            nu,
            coupling,
            forcing: Arr4::zeros(GP, GP1, GP1, NCOMP),
            penta,
            exact,
        };
        sp.forcing = sp.exact_forcing();
        sp
    }

    /// Spatial operator (Laplacian + symmetric cross-component mixing) —
    /// structurally identical to BT's, different constants.
    #[allow(clippy::needless_range_loop)]
    fn spatial_op<R: Real>(&self, u: &Arr4<R>, k: usize, j: usize, i: usize) -> [R; NCOMP] {
        let mut avg = [R::zero(); NCOMP];
        let mut lap = [R::zero(); NCOMP];
        for m in 0..NCOMP {
            let c = u[(k, j, i, m)];
            let sum = u[(k - 1, j, i, m)]
                + u[(k + 1, j, i, m)]
                + u[(k, j - 1, i, m)]
                + u[(k, j + 1, i, m)]
                + u[(k, j, i - 1, m)]
                + u[(k, j, i + 1, m)];
            lap[m] = (sum - c * 6.0) * self.nu;
            avg[m] = sum * (1.0 / 6.0) - c;
        }
        let mut op = lap;
        for m in 0..NCOMP {
            for n in 0..NCOMP {
                let w = self.coupling[m][n];
                if w != 0.0 {
                    op[m] += avg[n] * w;
                }
            }
        }
        op
    }

    fn exact_forcing(&self) -> Arr4<f64> {
        let mut ue: Arr4<f64> = Arr4::zeros(GP, GP1, GP1, NCOMP);
        for k in 0..GP {
            for j in 0..GP {
                for i in 0..GP {
                    let e = self.exact.eval(
                        ExactSolution::coord(i),
                        ExactSolution::coord(j),
                        ExactSolution::coord(k),
                    );
                    for m in 0..NCOMP {
                        ue[(k, j, i, m)] = e[m];
                    }
                }
            }
        }
        let mut f: Arr4<f64> = Arr4::zeros(GP, GP1, GP1, NCOMP);
        for k in 1..GP - 1 {
            for j in 1..GP - 1 {
                for i in 1..GP - 1 {
                    let op = self.spatial_op(&ue, k, j, i);
                    for m in 0..NCOMP {
                        f[(k, j, i, m)] = -op[m];
                    }
                }
            }
        }
        f
    }

    fn compute_rhs<R: Real>(&self, u: &Arr4<R>, rhs: &mut Arr4<R>) {
        for k in 1..GP - 1 {
            for j in 1..GP - 1 {
                for i in 1..GP - 1 {
                    let op = self.spatial_op(u, k, j, i);
                    for m in 0..NCOMP {
                        rhs[(k, j, i, m)] = (op[m] + self.forcing[(k, j, i, m)]) * self.dt;
                    }
                }
            }
        }
    }

    /// Scalar pentadiagonal line solves per component along a direction.
    fn line_solve<R: Real>(&self, rhs: &mut Arr4<R>, dir: usize) {
        let n = GP - 2;
        let mut line: Vec<R> = vec![R::zero(); n];
        for a in 1..GP - 1 {
            for b in 1..GP - 1 {
                for m in 0..NCOMP {
                    for (l, v) in line.iter_mut().enumerate() {
                        let idx = Self::line_index(dir, a, b, l + 1);
                        *v = rhs[(idx.0, idx.1, idx.2, m)];
                    }
                    self.penta.solve(&mut line);
                    for (l, v) in line.iter().enumerate() {
                        let idx = Self::line_index(dir, a, b, l + 1);
                        rhs[(idx.0, idx.1, idx.2, m)] = *v;
                    }
                }
            }
        }
    }

    #[inline]
    fn line_index(dir: usize, a: usize, b: usize, l: usize) -> (usize, usize, usize) {
        match dir {
            0 => (a, b, l),
            1 => (a, l, b),
            _ => (l, a, b),
        }
    }

    fn add<R: Real>(u: &mut Arr4<R>, rhs: &Arr4<R>) {
        for k in 1..GP - 1 {
            for j in 1..GP - 1 {
                for i in 1..GP - 1 {
                    for m in 0..NCOMP {
                        let inc = rhs[(k, j, i, m)];
                        u[(k, j, i, m)] += inc;
                    }
                }
            }
        }
    }

    fn rhs_norm<R: Real>(rhs: &Arr4<R>) -> R {
        let mut s = R::zero();
        for k in 1..GP - 1 {
            for j in 1..GP - 1 {
                for i in 1..GP - 1 {
                    for m in 0..NCOMP {
                        let v = rhs[(k, j, i, m)];
                        s += v * v;
                    }
                }
            }
        }
        (s / ((GP - 2) * (GP - 2) * (GP - 2) * NCOMP) as f64).sqrt()
    }

    fn start<R: Real>(&self) -> Box<SpRun<'_, R>> {
        let mut u: Arr4<R> = Arr4::zeros(GP, GP1, GP1, NCOMP);
        blend_init(&mut u, &self.exact);
        Box::new(SpRun {
            sp: self,
            u,
            rhs: Arr4::zeros(GP, GP1, GP1, NCOMP),
            step_state: vec![0],
        })
    }

    /// Final solution error (testing aid): the output includes the rhs
    /// norm; this is the pure error.
    pub fn final_error(&self) -> f64 {
        let mut run = self.start::<f64>();
        for step in self.steps() {
            run.step(step);
        }
        error_norm(&run.u, &self.exact).iter().sum()
    }
}

/// An [`Sp`] run between two time steps.
#[derive(Clone)]
struct SpRun<'a, R> {
    sp: &'a Sp,
    u: Arr4<R>,
    rhs: Arr4<R>,
    step_state: Vec<i64>,
}

impl<'a, R: Real + 'a> AppRun<'a, R> for SpRun<'a, R> {
    fn step(&mut self, _step: usize) {
        let sp = self.sp;
        sp.compute_rhs(&self.u, &mut self.rhs);
        sp.line_solve(&mut self.rhs, 0);
        sp.line_solve(&mut self.rhs, 1);
        sp.line_solve(&mut self.rhs, 2);
        Sp::add(&mut self.u, &self.rhs);
    }

    fn vars(&mut self, step: usize) -> Vec<VarRefMut<'_, R>> {
        self.step_state[0] = step as i64;
        vec![
            VarRefMut::F64(self.u.flat_mut()),
            VarRefMut::I64(&mut self.step_state),
        ]
    }

    fn output(&self) -> R {
        let err = error_norm(&self.u, &self.sp.exact);
        let mut out = Sp::rhs_norm(&self.rhs);
        for e in err {
            out += e;
        }
        out
    }

    fn fork(&self) -> Box<dyn AppRun<'a, R> + 'a> {
        Box::new(self.clone())
    }

    fn snapshot_bytes(&self) -> usize {
        std::mem::size_of_val(self)
            + std::mem::size_of_val(self.u.flat())
            + std::mem::size_of_val(self.rhs.flat())
            + std::mem::size_of_val(&self.step_state[..])
    }
}

impl ScrutinyApp for Sp {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "SP".into(),
            class: "S".into(),
            vars: vec![
                VarSpec::f64("u", &[GP, GP1, GP1, NCOMP]),
                VarSpec::int_scalar("step"),
            ],
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
        let remaining = self.niter - self.ckpt_at + 1;
        remaining * 800_000 + 200_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::{scrutinize, Policy, RestartConfig};

    #[test]
    fn adi_converges_toward_exact_solution() {
        let short = Sp::new(2, 1).final_error();
        let long = Sp::new(40, 1).final_error();
        assert!(long < 0.5 * short, "err(2) = {short}, err(40) = {long}");
    }

    #[test]
    fn criticality_identical_to_bt() {
        // The paper: "the exactly same critical-uncritical distribution in
        // u as we found in u in BT".
        let sp_map = scrutinize(&Sp::mini()).unwrap();
        let bt_map = scrutinize(&crate::Bt::mini()).unwrap();
        assert_eq!(
            sp_map.var("u").unwrap().value_map,
            bt_map.var("u").unwrap().value_map
        );
        assert_eq!(sp_map.var("u").unwrap().uncritical(), 1_500);
    }

    #[test]
    fn restart_with_garbage_holes_verifies() {
        let sp = Sp::mini();
        let analysis = scrutinize(&sp).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedValue,
            ..Default::default()
        };
        let report = scrutiny_core::checkpoint_restart_cycle(&sp, &analysis, &cfg).unwrap();
        assert!(report.verified, "rel err {}", report.rel_err);
    }
}
