//! BT — Block Tri-diagonal ADI solver (NPB class S: 12³ grid, 60 steps).
//!
//! Checkpoint variables (paper Table I): `double u[12][13][13][5]`,
//! `int step`. NPB's loops are bounded by `grid_points = 12` while the
//! j/i dimensions are declared 13, so the planes `j = 12` and `i = 12`
//! are never touched; `error_norm` (paper Fig. 2) reads the full
//! `12³×5` at the end of the run. Result: 8640 critical / 1500 uncritical
//! elements — the cube-surface pattern of Fig. 3 — which this port
//! reproduces element-for-element.
//!
//! Solver structure is NPB's ADI: explicit coupled-flux right-hand side,
//! then implicit block-tridiagonal line solves (5×5 blocks, forward
//! elimination + back substitution) along x, y, z, then `add`. Our
//! implicit Jacobian blocks are state-independent diagonally-dominant
//! approximations (`docs/PAPER_MAPPING.md`, "Table II"), so the
//! factorization is literal and only right-hand sides carry tape values.

use crate::common::Arr4;
use crate::pde::{
    blend_init, error_norm, mat5_axpy, mat5_identity, BlockTriSolver, ExactSolution, Mat5, GP, GP1,
    NCOMP,
};
use scrutiny_ad::{Adj, Real};
use scrutiny_core::{AppRun, AppSpec, ScrutinyApp, VarRefMut, VarSpec};
use std::ops::RangeInclusive;

/// The BT benchmark.
pub struct Bt {
    /// Time steps (`niter`; 60 at class S).
    pub niter: usize,
    /// Step index at whose boundary the checkpoint is taken (1-based).
    pub ckpt_at: usize,
    dt: f64,
    nu: f64,
    coupling: Mat5,
    forcing: Arr4<f64>,
    solver: BlockTriSolver,
    exact: ExactSolution,
}

impl Bt {
    /// Class S: 60 steps; analysis checkpoint near the end (the map is
    /// step-invariant and a late checkpoint keeps the tape small).
    pub fn class_s() -> Self {
        Self::new(60, 58)
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
        let dt = 0.3;
        let nu = 0.4;
        // Symmetric cross-component coupling: a second diffusion channel.
        let mut coupling = [[0.0; NCOMP]; NCOMP];
        for (i, row) in coupling.iter_mut().enumerate() {
            row[i] = 0.2;
        }
        coupling[0][1] = 0.05;
        coupling[1][0] = 0.05;
        coupling[2][3] = -0.04;
        coupling[3][2] = -0.04;
        coupling[1][4] = 0.03;
        coupling[4][1] = 0.03;

        let exact = ExactSolution;
        let mut bt = Bt {
            niter,
            ckpt_at,
            dt,
            nu,
            coupling,
            forcing: Arr4::zeros(GP, GP1, GP1, NCOMP),
            solver: Self::build_solver(dt, &coupling),
            exact,
        };
        bt.forcing = bt.exact_forcing();
        bt
    }

    /// Implicit line operator `tri(−θB, I + 2θB, −θB)` with
    /// `B = I + coupling` — strictly diagonally dominant for θ < ~0.4.
    fn build_solver(dt: f64, coupling: &Mat5) -> BlockTriSolver {
        let theta = 0.5 * dt;
        let b = mat5_axpy(&mat5_identity(), 1.0, coupling);
        let d = mat5_axpy(&mat5_identity(), 2.0 * theta, &b);
        let mut a = [[0.0; NCOMP]; NCOMP];
        for i in 0..NCOMP {
            for j in 0..NCOMP {
                a[i][j] = -theta * b[i][j];
            }
        }
        BlockTriSolver::factor(GP - 2, &a, &d, &a)
    }

    /// Spatial operator at one interior point: anisotropic Laplacian plus
    /// neighbor-averaged cross-component mixing.
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

    /// Manufactured forcing making the exact solution a steady state:
    /// `f = −op(u_exact)`, evaluated once (program constant).
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

    /// `compute_rhs`: `rhs = dt·(op(u) + forcing)` over the interior.
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

    /// One implicit line solve along the given direction (0 = x, 1 = y,
    /// 2 = z), NPB's `x_solve`/`y_solve`/`z_solve`.
    fn line_solve<R: Real>(&self, rhs: &mut Arr4<R>, dir: usize) {
        let n = GP - 2;
        let mut line: Vec<[R; NCOMP]> = vec![[R::zero(); NCOMP]; n];
        for a in 1..GP - 1 {
            for b in 1..GP - 1 {
                for (l, cell) in line.iter_mut().enumerate() {
                    let idx = Self::line_index(dir, a, b, l + 1);
                    for m in 0..NCOMP {
                        cell[m] = rhs[(idx.0, idx.1, idx.2, m)];
                    }
                }
                self.solver.solve(&mut line);
                for (l, cell) in line.iter().enumerate() {
                    let idx = Self::line_index(dir, a, b, l + 1);
                    for m in 0..NCOMP {
                        rhs[(idx.0, idx.1, idx.2, m)] = cell[m];
                    }
                }
            }
        }
    }

    #[inline]
    fn line_index(dir: usize, a: usize, b: usize, l: usize) -> (usize, usize, usize) {
        match dir {
            0 => (a, b, l), // x: line along i at (k=a, j=b)
            1 => (a, l, b), // y: line along j at (k=a, i=b)
            _ => (l, a, b), // z: line along k at (j=a, i=b)
        }
    }

    /// `add`: fold the solved increment into the solution.
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

    /// RMS of the increment field (NPB's `rhs_norm` role).
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

    fn start<R: Real>(&self) -> Box<BtRun<'_, R>> {
        let mut u: Arr4<R> = Arr4::zeros(GP, GP1, GP1, NCOMP);
        blend_init(&mut u, &self.exact);
        Box::new(BtRun {
            bt: self,
            u,
            rhs: Arr4::zeros(GP, GP1, GP1, NCOMP),
            step_state: vec![0],
        })
    }

    /// Final solution error (testing aid): RMS over all components.
    pub fn final_error(&self) -> f64 {
        let mut run = self.start::<f64>();
        for step in self.steps() {
            run.step(step);
        }
        error_norm(&run.u, &self.exact).iter().sum()
    }
}

/// A [`Bt`] run between two time steps.
#[derive(Clone)]
struct BtRun<'a, R> {
    bt: &'a Bt,
    u: Arr4<R>,
    rhs: Arr4<R>,
    step_state: Vec<i64>,
}

impl<'a, R: Real + 'a> AppRun<'a, R> for BtRun<'a, R> {
    fn step(&mut self, _step: usize) {
        let bt = self.bt;
        bt.compute_rhs(&self.u, &mut self.rhs);
        bt.line_solve(&mut self.rhs, 0);
        bt.line_solve(&mut self.rhs, 1);
        bt.line_solve(&mut self.rhs, 2);
        Bt::add(&mut self.u, &self.rhs);
    }

    fn vars(&mut self, step: usize) -> Vec<VarRefMut<'_, R>> {
        self.step_state[0] = step as i64;
        vec![
            VarRefMut::F64(self.u.flat_mut()),
            VarRefMut::I64(&mut self.step_state),
        ]
    }

    /// Verification quantities, as in NPB: solution error norms over the
    /// full 12³ (Fig. 2's error_norm) plus the residual norm.
    fn output(&self) -> R {
        let err = error_norm(&self.u, &self.bt.exact);
        let mut out = Bt::rhs_norm(&self.rhs);
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

impl ScrutinyApp for Bt {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "BT".into(),
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
        remaining * 900_000 + 200_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::site::NoopSite;
    use scrutiny_core::{scrutinize, Policy, RestartConfig};

    #[test]
    fn adi_converges_toward_exact_solution() {
        let short = Bt::new(2, 1).final_error();
        let long = Bt::new(40, 1).final_error();
        assert!(
            long < 0.5 * short,
            "ADI failed to converge: err(2 steps) = {short}, err(40) = {long}"
        );
    }

    #[test]
    fn deterministic() {
        let bt = Bt::mini();
        assert_eq!(
            bt.run_f64(&mut NoopSite).output,
            bt.run_f64(&mut NoopSite).output
        );
    }

    #[test]
    fn criticality_matches_paper_counts() {
        let bt = Bt::mini();
        let report = scrutinize(&bt).unwrap();
        let u = report.var("u").unwrap();
        assert_eq!(u.total(), 10_140);
        assert_eq!(u.critical(), 8_640, "critical must be 12³×5");
        assert_eq!(
            u.uncritical(),
            1_500,
            "uncritical must be the j=12/i=12 planes"
        );
        // Verify the geometric pattern: uncritical ⇔ j == 12 or i == 12.
        for k in 0..GP {
            for j in 0..GP1 {
                for i in 0..GP1 {
                    for m in 0..NCOMP {
                        let flat = ((k * GP1 + j) * GP1 + i) * NCOMP + m;
                        let expect_critical = j < GP && i < GP;
                        assert_eq!(
                            u.value_map.get(flat),
                            expect_critical,
                            "u[{k}][{j}][{i}][{m}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn restart_with_garbage_holes_verifies() {
        let bt = Bt::mini();
        let analysis = scrutinize(&bt).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedValue,
            ..Default::default()
        };
        let report = scrutiny_core::checkpoint_restart_cycle(&bt, &analysis, &cfg).unwrap();
        assert!(report.verified, "rel err {}", report.rel_err);
    }

    #[test]
    fn criticality_stable_across_checkpoint_positions() {
        let a = scrutinize(&Bt::new(6, 2)).unwrap();
        let b = scrutinize(&Bt::new(6, 5)).unwrap();
        assert_eq!(a.var("u").unwrap().value_map, b.var("u").unwrap().value_map);
    }
}
