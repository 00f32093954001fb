//! LU — Lower-Upper symmetric Gauss-Seidel (SSOR) solver (NPB class S:
//! 12³ grid, 50 iterations).
//!
//! Checkpoint variables (paper Table I): `double u[12][13][13][5]`,
//! `double rho_i[12][13][13]`, `double qs[12][13][13]`,
//! `double rsd[12][13][13][5]`, `int istep`.
//!
//! The paper's element-level findings, all reproduced here:
//!
//! * `u` components 0–3 follow the Fig. 3 pattern (read over the full
//!   12³ when `rho_i`/`qs` are recomputed from the conserved state):
//!   300 uncritical each.
//! * `u[..][4]` (total energy) is read only by the three directional
//!   flux sweeps — `[1-10][1-10][0-11] ∪ [1-10][0-11][1-10] ∪
//!   [0-11][1-10][1-10]` — the Fig. 7 pattern with |union| = 1600, i.e.
//!   428 uncritical, 128 more than Fig. 3. Total for `u`: **1628**.
//! * `rho_i`, `qs`: read over the full 12³ by the global relaxation-scale
//!   reduction (pseudo-time-step control) ⇒ 300 uncritical each.
//! * `rsd`: the per-iteration residual norm reads all `12³×5` (boundary
//!   residuals hold the non-zero forcing) ⇒ 1500 uncritical.
//!
//! Note the paper's Table II swaps the `rho_i` and `rsd` rows (the counts
//! 1500/10140 can only belong to the `[12][13][13][5]` array); Table III's
//! storage numbers confirm the unswapped assignment we reproduce.

use crate::common::{Arr3, Arr4};
use crate::pde::{
    add_interior, blend_init, coord, cube, error_norm, exact_field, line_index, rms, FULL, GP, GP1,
    INTERIOR, NCOMP,
};
use scrutiny_ad::{Adj, Real};
use scrutiny_core::{AppRun, AppSpec, ScrutinyApp, VarRefMut, VarSpec};
use std::ops::RangeInclusive;

/// Ratio of specific heats' role in the pressure closure (NPB's c2).
const C2: f64 = 0.4;
/// Pseudo-time step.
const DT: f64 = 0.1;
/// SSOR relaxation factor.
const OMEGA: f64 = 0.2;
/// Dissipation coefficient of the flux sweeps.
const NU: f64 = 0.35;

/// The LU benchmark.
pub struct Lu {
    /// SSOR iterations (`itmax`; 50 at class S).
    pub niter: usize,
    /// Iteration index at whose boundary the checkpoint is taken (1-based).
    pub ckpt_at: usize,
    frct: Arr4<f64>,
}

impl Lu {
    /// Class S: 50 iterations; analysis checkpoint near the end.
    pub fn class_s() -> Self {
        Self::new(50, 48)
    }

    /// Reduced iteration count for fast tests (state size is class S).
    pub fn mini() -> Self {
        Self::new(8, 4)
    }

    /// General constructor.
    pub fn new(niter: usize, ckpt_at: usize) -> Self {
        assert!(
            ckpt_at >= 1 && ckpt_at <= niter,
            "checkpoint must fall inside the main loop"
        );
        Lu {
            niter,
            ckpt_at,
            frct: Self::exact_forcing(),
        }
    }

    /// Derived state from the conserved variables, over the **full 12³**
    /// (NPB computes `rho_i`/`qs` everywhere the grid is defined).
    fn compute_aux<R: Real>(u: &Arr4<R>, rho_i: &mut Arr3<R>, qs: &mut Arr3<R>) {
        for (k, j, i) in cube(FULL) {
            let inv = R::one() / u[(k, j, i, 0)];
            rho_i[(k, j, i)] = inv;
            let ke = u[(k, j, i, 1)] * u[(k, j, i, 1)]
                + u[(k, j, i, 2)] * u[(k, j, i, 2)]
                + u[(k, j, i, 3)] * u[(k, j, i, 3)];
            qs[(k, j, i)] = ke * inv * 0.5;
        }
    }

    /// Compressible-flow-style flux vector at one point for direction
    /// `d` (0 = x/i, 1 = y/j, 2 = z/k). Reads all five components of `u`
    /// plus `rho_i` and `qs` — the reads that shape Fig. 7.
    #[inline]
    fn flux_at<R: Real>(
        u: &Arr4<R>,
        rho_i: &Arr3<R>,
        qs: &Arr3<R>,
        (k, j, i): (usize, usize, usize),
        d: usize,
    ) -> [R; NCOMP] {
        let vel = u[(k, j, i, d + 1)] * rho_i[(k, j, i)];
        let p = (u[(k, j, i, 4)] - qs[(k, j, i)]) * C2;
        let mut f = [R::zero(); NCOMP];
        f[0] = u[(k, j, i, d + 1)];
        for m in 1..4 {
            f[m] = u[(k, j, i, m)] * vel;
            if m == d + 1 {
                f[m] += p;
            }
        }
        f[4] = (u[(k, j, i, 4)] + p) * vel;
        f
    }

    /// Add `dt·N(u)` to `rsd`: per direction, a centred flux difference
    /// plus dissipation at every interior point of every line. The line
    /// along `dir` runs over the full `0..12` while the other two indices
    /// stay interior, so the x, y and z sweeps read the slabs
    /// `[1-10][1-10][0-11]`, `[1-10][0-11][1-10]` and `[0-11][1-10][1-10]`.
    fn add_flux<R: Real>(u: &Arr4<R>, rho_i: &Arr3<R>, qs: &Arr3<R>, rsd: &mut Arr4<R>) {
        let mut flux: Vec<[R; NCOMP]> = vec![[R::zero(); NCOMP]; GP];
        for dir in 0..3 {
            for a in INTERIOR {
                for b in INTERIOR {
                    for (l, f) in flux.iter_mut().enumerate() {
                        *f = Self::flux_at(u, rho_i, qs, line_index(dir, a, b, l), dir);
                    }
                    for l in INTERIOR {
                        let [lo, (k, j, i), hi] =
                            [l - 1, l, l + 1].map(|l| line_index(dir, a, b, l));
                        for m in 0..NCOMP {
                            let conv = (flux[l + 1][m] - flux[l - 1][m]) * 0.5;
                            let diss = (u[(lo.0, lo.1, lo.2, m)] - u[(k, j, i, m)] * 2.0
                                + u[(hi.0, hi.1, hi.2, m)])
                                * NU;
                            rsd[(k, j, i, m)] += (diss - conv) * DT;
                        }
                    }
                }
            }
        }
    }

    /// `rhs`: `rsd = dt·(N(u) + frct)`. The forcing extends to boundary
    /// cells (NPB initializes `rsd = -frct` over the whole grid), so
    /// boundary residuals are non-zero — they are read by the norm and by
    /// nothing else.
    fn compute_rsd<R: Real>(&self, u: &Arr4<R>, rho_i: &Arr3<R>, qs: &Arr3<R>, rsd: &mut Arr4<R>) {
        for (k, j, i) in cube(FULL) {
            for m in 0..NCOMP {
                rsd[(k, j, i, m)] = R::lit(self.frct[(k, j, i, m)] * DT);
            }
        }
        Self::add_flux(u, rho_i, qs, rsd);
    }

    /// Manufactured forcing: `frct = −N(u_exact)` on the interior; smooth
    /// non-zero values on the boundary shell (read only by the norm).
    fn exact_forcing() -> Arr4<f64> {
        let ue = exact_field();
        let mut rho_i = Arr3::zeros(GP, GP1, GP1);
        let mut qs = Arr3::zeros(GP, GP1, GP1);
        Self::compute_aux(&ue, &mut rho_i, &mut qs);
        let mut f = Arr4::zeros(GP, GP1, GP1, NCOMP);
        Self::add_flux(&ue, &rho_i, &qs, &mut f);
        for (k, j, i) in cube(FULL) {
            let interior = [k, j, i].iter().all(|x| INTERIOR.contains(x));
            for m in 0..NCOMP {
                f[(k, j, i, m)] = if interior {
                    // `add_flux` produced dt·N(u_exact); cancel it.
                    -f[(k, j, i, m)] / DT
                } else {
                    // Non-zero boundary forcing: read by the norm, never
                    // by the update.
                    0.01 * (1.0 + coord(i) + coord(j) + coord(k) + 0.1 * m as f64)
                };
            }
        }
        f
    }

    /// Global relaxation scale: a CFL-style smooth reduction over the
    /// derived state on the **full 12³** (pseudo-time-step control). This
    /// is the read that gives `rho_i`/`qs` their Fig. 3 criticality.
    fn relaxation_scale<R: Real>(rho_i: &Arr3<R>, qs: &Arr3<R>) -> R {
        let mut acc = R::zero();
        for p in cube(FULL) {
            acc += rho_i[p] + qs[p];
        }
        R::one() / (R::one() + acc * (1e-3 / (GP * GP * GP) as f64))
    }

    fn start<R: Real>(&self) -> Box<LuRun<'_, R>> {
        let mut u = Arr4::zeros(GP, GP1, GP1, NCOMP);
        blend_init(&mut u);
        let mut rho_i = Arr3::zeros(GP, GP1, GP1);
        let mut qs = Arr3::zeros(GP, GP1, GP1);
        Self::compute_aux(&u, &mut rho_i, &mut qs);
        let mut rsd = Arr4::zeros(GP, GP1, GP1, NCOMP);
        self.compute_rsd(&u, &rho_i, &qs, &mut rsd);
        Box::new(LuRun {
            lu: self,
            u,
            rho_i,
            qs,
            rsd,
            istep_state: vec![0],
            history: R::zero(),
        })
    }

    /// Final interior solution error (testing aid).
    pub fn final_error(&self) -> f64 {
        let mut run = self.start::<f64>();
        for istep in self.steps() {
            run.step(istep);
        }
        error_norm(&run.u, INTERIOR).iter().sum()
    }
}

/// An [`Lu`] run between two SSOR iterations.
#[derive(Clone)]
struct LuRun<'a, R> {
    lu: &'a Lu,
    u: Arr4<R>,
    rho_i: Arr3<R>,
    qs: Arr3<R>,
    rsd: Arr4<R>,
    istep_state: Vec<i64>,
    history: R,
}

impl<'a, R: Real + 'a> AppRun<'a, R> for LuRun<'a, R> {
    fn step(&mut self, _istep: usize) {
        let lu = self.lu;
        let (u, rho_i, qs, rsd) = (&mut self.u, &mut self.rho_i, &mut self.qs, &mut self.rsd);
        // Convergence history (reads rsd over the full grid).
        self.history += rms(rsd, FULL);
        // Pseudo-time-step control (reads rho_i/qs over the full grid).
        let scale = Lu::relaxation_scale(rho_i, qs);
        let dcoef = |p| R::one() / (R::one() + (rho_i[p] + qs[p] * 0.1) * DT);

        // Lower-triangular sweep (NPB jacld/blts).
        for (k, j, i) in cube(INTERIOR) {
            let dcoef = dcoef((k, j, i));
            for m in 0..NCOMP {
                let tv = rsd[(k, j, i, m)]
                    + (rsd[(k - 1, j, i, m)] + rsd[(k, j - 1, i, m)] + rsd[(k, j, i - 1, m)])
                        * OMEGA;
                rsd[(k, j, i, m)] = tv * dcoef * scale;
            }
        }
        // Upper-triangular sweep (NPB jacu/buts).
        for k in INTERIOR.rev() {
            for j in INTERIOR.rev() {
                for i in INTERIOR.rev() {
                    let dcoef = dcoef((k, j, i));
                    for m in 0..NCOMP {
                        let corr =
                            (rsd[(k + 1, j, i, m)] + rsd[(k, j + 1, i, m)] + rsd[(k, j, i + 1, m)])
                                * OMEGA;
                        rsd[(k, j, i, m)] += corr * dcoef * scale;
                    }
                }
            }
        }
        // Fold the increment into the solution.
        add_interior(u, rsd);
        // Refresh derived state and residual for the next iteration.
        Lu::compute_aux(u, rho_i, qs);
        lu.compute_rsd(u, rho_i, qs, rsd);
    }

    fn vars(&mut self, istep: usize) -> Vec<VarRefMut<'_, R>> {
        self.istep_state[0] = istep as i64;
        vec![
            VarRefMut::F64(self.u.flat_mut()),
            VarRefMut::F64(self.rho_i.flat_mut()),
            VarRefMut::F64(self.qs.flat_mut()),
            VarRefMut::F64(self.rsd.flat_mut()),
            VarRefMut::I64(&mut self.istep_state),
        ]
    }

    fn output(&self) -> R {
        let err = error_norm(&self.u, INTERIOR);
        let mut out = self.history * 0.05;
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
            + std::mem::size_of_val(self.rho_i.flat())
            + std::mem::size_of_val(self.qs.flat())
            + std::mem::size_of_val(self.rsd.flat())
            + std::mem::size_of_val(&self.istep_state[..])
    }
}

impl ScrutinyApp for Lu {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "LU".into(),
            class: "S".into(),
            vars: vec![
                VarSpec::f64("u", &[GP, GP1, GP1, NCOMP]),
                VarSpec::f64("rho_i", &[GP, GP1, GP1]),
                VarSpec::f64("qs", &[GP, GP1, GP1]),
                VarSpec::f64("rsd", &[GP, GP1, GP1, NCOMP]),
                VarSpec::int_scalar("istep"),
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
        remaining * 1_200_000 + 300_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_core::{scrutinize, Policy, RestartConfig};

    #[test]
    fn ssor_converges_toward_exact_solution() {
        let short = Lu::new(2, 1).final_error();
        let long = Lu::new(40, 1).final_error();
        assert!(long < 0.5 * short, "err(2) = {short}, err(40) = {long}");
    }

    /// Is element (k, j, i) inside the three-slab union of Fig. 7?
    fn in_union(k: usize, j: usize, i: usize) -> bool {
        let int = |x: usize| (1..GP - 1).contains(&x);
        (int(k) && int(j)) || (int(k) && int(i)) || (int(j) && int(i))
    }

    #[test]
    fn criticality_matches_paper_counts() {
        let lu = Lu::mini();
        let report = scrutinize(&lu).unwrap();

        let u = report.var("u").unwrap();
        assert_eq!(u.total(), 10_140);
        assert_eq!(u.uncritical(), 1_628, "paper: 1628 uncritical in LU's u");
        // Components 0–3: Fig. 3 pattern; component 4: Fig. 7 union.
        for k in 0..GP {
            for j in 0..GP1 {
                for i in 0..GP1 {
                    for m in 0..NCOMP {
                        let flat = ((k * GP1 + j) * GP1 + i) * NCOMP + m;
                        let expect = if j >= GP || i >= GP {
                            false
                        } else if m < 4 {
                            true
                        } else {
                            in_union(k, j, i)
                        };
                        assert_eq!(u.value_map.get(flat), expect, "u[{k}][{j}][{i}][{m}]");
                    }
                }
            }
        }

        for name in ["rho_i", "qs"] {
            let v = report.var(name).unwrap();
            assert_eq!(v.total(), 2_028);
            assert_eq!(v.uncritical(), 300, "paper: 300 uncritical in {name}");
        }

        let rsd = report.var("rsd").unwrap();
        assert_eq!(rsd.uncritical(), 1_500, "paper: 1500 uncritical in rsd");
    }

    #[test]
    fn restart_with_garbage_holes_verifies() {
        let lu = Lu::mini();
        let analysis = scrutinize(&lu).unwrap();
        let cfg = RestartConfig {
            policy: Policy::PrunedValue,
            ..Default::default()
        };
        let report = scrutiny_core::checkpoint_restart_cycle(&lu, &analysis, &cfg).unwrap();
        assert!(report.verified, "rel err {}", report.rel_err);
    }

    #[test]
    fn criticality_stable_across_checkpoint_positions() {
        let a = scrutinize(&Lu::new(5, 2)).unwrap();
        let b = scrutinize(&Lu::new(5, 4)).unwrap();
        for name in ["u", "rho_i", "qs", "rsd"] {
            assert_eq!(
                a.var(name).unwrap().value_map,
                b.var(name).unwrap().value_map,
                "{name} map changed with checkpoint position"
            );
        }
    }
}
