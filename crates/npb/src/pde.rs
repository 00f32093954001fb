//! Shared substrate for the three structured-grid solvers (BT, SP, LU):
//! the manufactured exact solution and its boundary-blend initialization,
//! the line orientation, the norms and the interior update all three use,
//! and [`Adi`], the one ADI app BT and SP both are — they differ only in
//! the implicit line operator ([`LineOp`]: [`BlockTri`] for BT, [`Penta`]
//! for SP) and its constants. Small dense linear algebra (5×5 blocks, the
//! two line solvers) closes the module.
//!
//! All three benchmarks operate on `[12][13][13][5]` state: NPB declares
//! 13 slots in the j/i dimensions but `grid_points = 12`, so index 12 is
//! never touched by any loop — the origin of the paper's Fig. 3 pattern.

use crate::common::Arr4;
use scrutiny_ad::{Adj, Real};
use scrutiny_core::{AppRun, AppSpec, ScrutinyApp, VarRefMut, VarSpec};
use std::ops::{Range, RangeInclusive};

/// Grid points per dimension (NPB class S `grid_points`).
pub const GP: usize = 12;
/// Declared j/i extent (`grid_points + 1`).
pub const GP1: usize = 13;
/// Solution components per grid point.
pub const NCOMP: usize = 5;

/// Total elements of a `[12][13][13][5]` variable.
pub const U_ELEMS: usize = GP * GP1 * GP1 * NCOMP;

/// Every grid index NPB's loops visit (`0..grid_points`).
pub const FULL: Range<usize> = 0..GP;
/// The interior, boundary excluded.
pub const INTERIOR: Range<usize> = 1..GP - 1;

/// Every `(k, j, i)` of the cube `r³` in NPB's loop order (`i` fastest).
pub(crate) fn cube(r: Range<usize>) -> Cube {
    let next = (!r.is_empty()).then_some((r.start, r.start, r.start));
    Cube { r, next }
}

/// The iterator [`cube`] returns: plain counters, because nested
/// `flat_map`s measurably slowed LU's f64 run.
pub(crate) struct Cube {
    r: Range<usize>,
    next: Option<(usize, usize, usize)>,
}

impl Iterator for Cube {
    type Item = (usize, usize, usize);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let (k, j, i) = self.next?;
        let (lo, hi) = (self.r.start, self.r.end);
        self.next = if i + 1 < hi {
            Some((k, j, i + 1))
        } else if j + 1 < hi {
            Some((k, j + 1, lo))
        } else if k + 1 < hi {
            Some((k + 1, lo, lo))
        } else {
            None
        };
        Some((k, j, i))
    }
}

/// Point `l` of the line along direction `dir` (0 = x/i, 1 = y/j,
/// 2 = z/k) through `(a, b)`, the other two indices in `(k, j, i)` order.
#[inline]
pub(crate) fn line_index(dir: usize, a: usize, b: usize, l: usize) -> (usize, usize, usize) {
    match dir {
        0 => (a, b, l), // x: line along i at (k=a, j=b)
        1 => (a, l, b), // y: line along j at (k=a, i=b)
        _ => (l, a, b), // z: line along k at (j=a, i=b)
    }
}

/// A smooth manufactured solution, NPB `exact_solution`-style, at
/// normalized coordinates in [0, 1]: a small polynomial/trigonometric
/// blend per component with component 0 kept safely positive (it plays
/// the role of density in LU).
pub(crate) fn exact(x: f64, y: f64, z: f64) -> [f64; NCOMP] {
    [
        2.0 + 0.3 * x + 0.2 * y * y + 0.1 * z + 0.05 * x * y * z,
        0.5 * (std::f64::consts::PI * x).sin() + 0.1 * y - 0.05 * z * z,
        0.4 * (std::f64::consts::PI * y).cos() + 0.08 * z + 0.03 * x * x,
        0.3 + 0.12 * z * z - 0.07 * x * y,
        5.0 + 0.5 * x * x + 0.4 * y + 0.25 * (std::f64::consts::PI * z).sin(),
    ]
}

/// Normalized coordinate of grid index `i` (0..GP).
pub(crate) fn coord(i: usize) -> f64 {
    i as f64 / (GP - 1) as f64
}

/// The exact solution at grid point `(k, j, i)`.
pub(crate) fn exact_at(k: usize, j: usize, i: usize) -> [f64; NCOMP] {
    exact(coord(i), coord(j), coord(k))
}

/// The exact solution sampled over the full 12³ (padding left zero).
pub(crate) fn exact_field() -> Arr4<f64> {
    let mut ue = Arr4::zeros(GP, GP1, GP1, NCOMP);
    for (k, j, i) in cube(FULL) {
        let e = exact_at(k, j, i);
        for m in 0..NCOMP {
            ue[(k, j, i, m)] = e[m];
        }
    }
    ue
}

/// NPB `initialize`: boundary faces take the exact solution; interior
/// points take a transfinite blend of the six face values. Index 12 of
/// the j/i dimensions is left at its allocation default (zero), exactly
/// like NPB's static arrays.
pub fn blend_init<R: Real>(u: &mut Arr4<R>) {
    // Pass 1: trilinear blend of the face values everywhere.
    for (k, j, i) in cube(FULL) {
        let (x, y, z) = (coord(i), coord(j), coord(k));
        let x0 = exact(0.0, y, z);
        let x1 = exact(1.0, y, z);
        let y0 = exact(x, 0.0, z);
        let y1 = exact(x, 1.0, z);
        let z0 = exact(x, y, 0.0);
        let z1 = exact(x, y, 1.0);
        for m in 0..NCOMP {
            let px = (1.0 - x) * x0[m] + x * x1[m];
            let py = (1.0 - y) * y0[m] + y * y1[m];
            let pz = (1.0 - z) * z0[m] + z * z1[m];
            u[(k, j, i, m)] = R::lit(px + py + pz - 0.5 * (px + py + pz) / 1.5);
        }
    }
    // Pass 2: faces get the Dirichlet data. NPB pins faces to the exact
    // solution *bitwise*; then the squared error of corner/edge cells is
    // exactly zero and its first derivative vanishes, so an AD analysis
    // would see them as zero-gradient despite being read — an unsafe
    // artifact (see docs/PAPER_MAPPING.md, "Table II"). We offset the
    // boundary data by a small smooth field so every read element has a
    // robustly non-zero impact, matching the clean Fig. 3 pattern the
    // paper reports.
    for (k, j, i) in cube(FULL) {
        if [k, j, i].iter().all(|x| INTERIOR.contains(x)) {
            continue;
        }
        let (x, y, z) = (coord(i), coord(j), coord(k));
        let e = exact(x, y, z);
        let off = BOUNDARY_OFFSET * (1.0 + x + 2.0 * y + 3.0 * z);
        for m in 0..NCOMP {
            u[(k, j, i, m)] = R::lit(e[m] + off);
        }
    }
}

/// Magnitude of the smooth Dirichlet-data offset (see [`blend_init`]).
pub const BOUNDARY_OFFSET: f64 = 1e-3;

/// RMS difference from the exact solution per component over the cube
/// `r³`. Over [`FULL`] this is NPB BT/SP's `error_norm` (the paper's
/// Fig. 2) — the read pattern that makes all of `12³×5` critical; over
/// [`INTERIOR`] it is LU's `error`.
pub fn error_norm<R: Real>(u: &Arr4<R>, r: Range<usize>) -> [R; NCOMP] {
    let n = r.len().pow(3) as f64;
    let mut rms = [R::zero(); NCOMP];
    for (k, j, i) in cube(r) {
        let e = exact_at(k, j, i);
        for m in 0..NCOMP {
            let add = u[(k, j, i, m)] - e[m];
            rms[m] += add * add;
        }
    }
    rms.map(|s| (s / n).sqrt())
}

/// RMS of all five components over the cube `r³`: BT/SP's `rhs_norm`
/// over [`INTERIOR`], LU's residual norm over [`FULL`].
pub(crate) fn rms<R: Real>(a: &Arr4<R>, r: Range<usize>) -> R {
    let n = r.len().pow(3) * NCOMP;
    let mut s = R::zero();
    for (k, j, i) in cube(r) {
        for m in 0..NCOMP {
            let v = a[(k, j, i, m)];
            s += v * v;
        }
    }
    (s / n as f64).sqrt()
}

/// NPB's `add`: fold the interior increment `inc` into `u`.
pub(crate) fn add_interior<R: Real>(u: &mut Arr4<R>, inc: &Arr4<R>) {
    for (k, j, i) in cube(INTERIOR) {
        for m in 0..NCOMP {
            let v = inc[(k, j, i, m)];
            u[(k, j, i, m)] += v;
        }
    }
}

// ---------------------------------------------------------------------
// The ADI app (BT and SP).
// ---------------------------------------------------------------------

/// What one ADI benchmark is made of beyond the shared skeleton: its
/// constants and its implicit line operator. The operator's blocks are
/// state-independent, so it is factored once in f64 and only right-hand
/// sides carry tape values.
pub trait LineOp: Clone {
    /// Benchmark name (`AppSpec::name`).
    const NAME: &'static str;
    /// Time steps at class S.
    const CLASS_S_STEPS: usize;
    /// Tape nodes one recorded step takes (the capacity hint's slope).
    const NODES_PER_STEP: usize;
    /// Time step.
    const DT: f64;
    /// Diffusion coefficient of the spatial operator.
    const NU: f64;
    /// Symmetric cross-component coupling of the spatial operator.
    const COUPLING: Mat5;
    /// The implicit operator, factored for lines of `GP − 2` points.
    fn factored() -> Self;
    /// Solve one line of block right-hand sides in place.
    fn solve_line<R: Real>(&self, line: &mut [[R; NCOMP]]);
}

/// NPB's ADI solver (BT and SP, class S: 12³ grid): an explicit
/// coupled-flux right-hand side, implicit line solves with `L` along x,
/// y and z, then `add`.
pub struct Adi<L> {
    /// Time steps (`niter`).
    pub niter: usize,
    /// Step index at whose boundary the checkpoint is taken (1-based).
    pub ckpt_at: usize,
    forcing: Arr4<f64>,
    line: L,
}

impl<L: LineOp> Adi<L> {
    /// Class S; analysis checkpoint two steps before the end (the map is
    /// step-invariant and a late checkpoint keeps the tape small).
    pub fn class_s() -> Self {
        Self::new(L::CLASS_S_STEPS, L::CLASS_S_STEPS - 2)
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
        // Manufactured forcing making the exact solution a steady state:
        // `f = −op(u_exact)`, evaluated once (program constant).
        let ue = exact_field();
        let mut forcing = Arr4::zeros(GP, GP1, GP1, NCOMP);
        for (k, j, i) in cube(INTERIOR) {
            let op = Self::spatial_op(&ue, k, j, i);
            for m in 0..NCOMP {
                forcing[(k, j, i, m)] = -op[m];
            }
        }
        Adi {
            niter,
            ckpt_at,
            forcing,
            line: L::factored(),
        }
    }

    /// Spatial operator at one interior point: anisotropic Laplacian plus
    /// neighbor-averaged cross-component mixing.
    fn spatial_op<R: Real>(u: &Arr4<R>, k: usize, j: usize, i: usize) -> [R; NCOMP] {
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
            lap[m] = (sum - c * 6.0) * L::NU;
            avg[m] = sum * (1.0 / 6.0) - c;
        }
        let mut op = lap;
        for m in 0..NCOMP {
            for n in 0..NCOMP {
                let w = L::COUPLING[m][n];
                if w != 0.0 {
                    op[m] += avg[n] * w;
                }
            }
        }
        op
    }

    /// `compute_rhs`: `rhs = dt·(op(u) + forcing)` over the interior.
    fn compute_rhs<R: Real>(&self, u: &Arr4<R>, rhs: &mut Arr4<R>) {
        for (k, j, i) in cube(INTERIOR) {
            let op = Self::spatial_op(u, k, j, i);
            for m in 0..NCOMP {
                rhs[(k, j, i, m)] = (op[m] + self.forcing[(k, j, i, m)]) * L::DT;
            }
        }
    }

    /// Every implicit line solve along direction `dir` (NPB's
    /// `x_solve` / `y_solve` / `z_solve`).
    fn line_solve<R: Real>(&self, rhs: &mut Arr4<R>, dir: usize) {
        let mut line = vec![[R::zero(); NCOMP]; GP - 2];
        for a in INTERIOR {
            for b in INTERIOR {
                for (l, cell) in line.iter_mut().enumerate() {
                    let (k, j, i) = line_index(dir, a, b, l + 1);
                    for m in 0..NCOMP {
                        cell[m] = rhs[(k, j, i, m)];
                    }
                }
                self.line.solve_line(&mut line);
                for (l, cell) in line.iter().enumerate() {
                    let (k, j, i) = line_index(dir, a, b, l + 1);
                    for m in 0..NCOMP {
                        rhs[(k, j, i, m)] = cell[m];
                    }
                }
            }
        }
    }

    fn start<R: Real>(&self) -> Box<AdiRun<'_, L, R>> {
        let mut u = Arr4::zeros(GP, GP1, GP1, NCOMP);
        blend_init(&mut u);
        Box::new(AdiRun {
            app: self,
            u,
            rhs: Arr4::zeros(GP, GP1, GP1, NCOMP),
            step_state: vec![0],
        })
    }

    /// Final solution error (testing aid): the output without the rhs
    /// norm.
    pub fn final_error(&self) -> f64 {
        let mut run = self.start::<f64>();
        for step in self.steps() {
            while !run.step(step) {}
        }
        error_norm(&run.u, FULL).iter().sum()
    }
}

/// An [`Adi`] run between two time steps.
#[derive(Clone)]
struct AdiRun<'a, L, R> {
    app: &'a Adi<L>,
    u: Arr4<R>,
    rhs: Arr4<R>,
    step_state: Vec<i64>,
}

impl<'a, L: LineOp, R: Real + 'a> AppRun<'a, R> for AdiRun<'a, L, R> {
    fn step(&mut self, _step: usize) -> bool {
        self.app.compute_rhs(&self.u, &mut self.rhs);
        for dir in 0..3 {
            self.app.line_solve(&mut self.rhs, dir);
        }
        add_interior(&mut self.u, &self.rhs);
        true
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
        // Error norms first: the order the tape records them in is pinned.
        let err = error_norm(&self.u, FULL);
        let mut out = rms(&self.rhs, INTERIOR);
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

impl<L: LineOp> ScrutinyApp for Adi<L> {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: L::NAME.into(),
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
        remaining * L::NODES_PER_STEP + 200_000
    }
}

/// The BT/SP unit-test table, instantiated once per line operator as
/// that app's `tests` module; trailing items are tests only it has.
#[cfg(test)]
macro_rules! adi_tests {
    ($app:ident $(, $extra:item)* $(,)?) => {
        #[cfg(test)]
        mod tests {
            use super::*;
            use crate::pde::{GP, GP1, NCOMP};
            use scrutiny_core::site::NoopSite;
            use scrutiny_core::{scrutinize, Policy, RestartConfig, ScrutinyApp};

            #[test]
            fn adi_converges_toward_exact_solution() {
                let short = $app::new(2, 1).final_error();
                let long = $app::new(40, 1).final_error();
                assert!(
                    long < 0.5 * short,
                    "ADI failed to converge: err(2 steps) = {short}, err(40) = {long}"
                );
            }

            #[test]
            fn deterministic() {
                let app = $app::mini();
                assert_eq!(
                    app.run_f64(&mut NoopSite).output.to_bits(),
                    app.run_f64(&mut NoopSite).output.to_bits()
                );
            }

            #[test]
            fn criticality_matches_paper_counts() {
                let report = scrutinize(&$app::mini()).unwrap();
                let u = report.var("u").unwrap();
                assert_eq!(u.total(), 10_140);
                assert_eq!(u.critical(), 8_640, "critical must be 12³×5");
                assert_eq!(u.uncritical(), 1_500, "uncritical must be the j=12/i=12 planes");
                // The geometric pattern: uncritical ⇔ j == 12 or i == 12.
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
                let app = $app::mini();
                let analysis = scrutinize(&app).unwrap();
                let cfg = RestartConfig {
                    policy: Policy::PrunedValue,
                    ..Default::default()
                };
                let report =
                    scrutiny_core::checkpoint_restart_cycle(&app, &analysis, &cfg).unwrap();
                assert!(report.verified, "rel err {}", report.rel_err);
            }

            #[test]
            fn criticality_stable_across_checkpoint_positions() {
                let a = scrutinize(&$app::new(6, 2)).unwrap();
                let b = scrutinize(&$app::new(6, 5)).unwrap();
                assert_eq!(a.var("u").unwrap().value_map, b.var("u").unwrap().value_map);
            }

            $($extra)*
        }
    };
}
#[cfg(test)]
pub(crate) use adi_tests;

// ---------------------------------------------------------------------
// Dense 5×5 block algebra (BT's `binvcrhs`/`matmul_sub` world). Blocks in
// our ADI factorization are state-independent, so factorization runs in
// f64; only the right-hand-side vectors carry tape values.
// ---------------------------------------------------------------------

/// A dense 5×5 matrix of literals.
pub type Mat5 = [[f64; NCOMP]; NCOMP];

/// 5×5 identity.
pub fn mat5_identity() -> Mat5 {
    let mut m = [[0.0; NCOMP]; NCOMP];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

/// `a·b` for 5×5 matrices.
pub fn mat5_mul(a: &Mat5, b: &Mat5) -> Mat5 {
    let mut c = [[0.0; NCOMP]; NCOMP];
    for i in 0..NCOMP {
        for k in 0..NCOMP {
            let aik = a[i][k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..NCOMP {
                c[i][j] += aik * b[k][j];
            }
        }
    }
    c
}

/// `a + s·b`.
pub fn mat5_axpy(a: &Mat5, s: f64, b: &Mat5) -> Mat5 {
    let mut c = *a;
    for i in 0..NCOMP {
        for j in 0..NCOMP {
            c[i][j] += s * b[i][j];
        }
    }
    c
}

/// Inverse by Gauss-Jordan with partial pivoting; panics on a singular
/// block (our ADI blocks are strictly diagonally dominant, so this only
/// fires on a construction bug).
pub fn mat5_inv(a: &Mat5) -> Mat5 {
    let mut m = *a;
    let mut inv = mat5_identity();
    for col in 0..NCOMP {
        // Pivot.
        let mut piv = col;
        for r in col + 1..NCOMP {
            if m[r][col].abs() > m[piv][col].abs() {
                piv = r;
            }
        }
        assert!(m[piv][col].abs() > 1e-12, "singular 5x5 block");
        m.swap(col, piv);
        inv.swap(col, piv);
        let d = 1.0 / m[col][col];
        for j in 0..NCOMP {
            m[col][j] *= d;
            inv[col][j] *= d;
        }
        for r in 0..NCOMP {
            if r == col {
                continue;
            }
            let f = m[r][col];
            if f == 0.0 {
                continue;
            }
            for j in 0..NCOMP {
                m[r][j] -= f * m[col][j];
                inv[r][j] -= f * inv[col][j];
            }
        }
    }
    inv
}

/// `y = M·x` where `M` is literal and `x` carries tape values.
pub fn mat5_apply<R: Real>(m: &Mat5, x: &[R; NCOMP]) -> [R; NCOMP] {
    let mut y = [R::zero(); NCOMP];
    for (i, row) in m.iter().enumerate() {
        for (j, &mij) in row.iter().enumerate() {
            if mij != 0.0 {
                y[i] += x[j] * mij;
            }
        }
    }
    y
}

/// Constant-block tridiagonal line solver: factorizes
/// `tri(A, D, C)` of a given length once (f64), then solves for
/// differentiable right-hand sides. This is BT's x/y/z line solve with
/// state-independent Jacobian blocks (see `docs/PAPER_MAPPING.md`,
/// "Table II").
#[derive(Clone, Debug)]
pub struct BlockTri {
    /// `D̃_l⁻¹` after forward elimination.
    inv: Vec<Mat5>,
    /// `D̃_l⁻¹·C` used in back-substitution.
    upper: Vec<Mat5>,
    /// The sub-diagonal block `A`.
    lower: Mat5,
}

impl BlockTri {
    /// Factor a length-`n` block tridiagonal system with constant blocks
    /// `(A, D, C)` (sub, main, super).
    pub fn factor(n: usize, a: &Mat5, d: &Mat5, c: &Mat5) -> Self {
        assert!(n >= 1);
        let mut inv = Vec::with_capacity(n);
        let mut upper = Vec::with_capacity(n);
        let mut dt = *d;
        for l in 0..n {
            if l > 0 {
                // D̃_l = D − A·U_{l−1}
                let au = mat5_mul(a, &upper[l - 1]);
                dt = mat5_axpy(d, -1.0, &au);
            }
            let inv_l = mat5_inv(&dt);
            upper.push(mat5_mul(&inv_l, c));
            inv.push(inv_l);
        }
        BlockTri {
            inv,
            upper,
            lower: *a,
        }
    }

    /// Solve in place: `rhs` holds the line's block vectors.
    pub fn solve<R: Real>(&self, rhs: &mut [[R; NCOMP]]) {
        let n = self.inv.len();
        assert_eq!(rhs.len(), n);
        // Forward: y_l = D̃⁻¹ (d_l − A·y_{l−1}).
        for l in 0..n {
            if l > 0 {
                let prev = rhs[l - 1];
                let av = mat5_apply(&self.lower, &prev);
                for m in 0..NCOMP {
                    rhs[l][m] -= av[m];
                }
            }
            rhs[l] = mat5_apply(&self.inv[l], &rhs[l]);
        }
        // Backward: x_l = y_l − U_l·x_{l+1}.
        for l in (0..n.saturating_sub(1)).rev() {
            let next = rhs[l + 1];
            let uv = mat5_apply(&self.upper[l], &next);
            for m in 0..NCOMP {
                rhs[l][m] -= uv[m];
            }
        }
    }
}

/// Constant-coefficient scalar pentadiagonal line solver (SP's x/y/z
/// solve): dense LU of the banded matrix, factored once per line length.
#[derive(Clone, Debug)]
pub struct Penta {
    n: usize,
    /// Combined LU factors (unit lower, upper in place).
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl Penta {
    /// Factor the length-`n` pentadiagonal matrix with constant stencil
    /// `[e, c, d, c, e]` (diagonally dominant for SP's coefficients).
    pub fn factor(n: usize, d: f64, c: f64, e: f64) -> Self {
        let mut m = vec![0.0f64; n * n];
        for i in 0..n {
            m[i * n + i] = d;
            if i + 1 < n {
                m[i * n + i + 1] = c;
                m[(i + 1) * n + i] = c;
            }
            if i + 2 < n {
                m[i * n + i + 2] = e;
                m[(i + 2) * n + i] = e;
            }
        }
        // Dense LU with partial pivoting (n ≤ 16 in practice).
        let mut piv = Vec::with_capacity(n);
        for col in 0..n {
            let mut p = col;
            for r in col + 1..n {
                if m[r * n + col].abs() > m[p * n + col].abs() {
                    p = r;
                }
            }
            assert!(m[p * n + col].abs() > 1e-12, "singular pentadiagonal line");
            if p != col {
                for j in 0..n {
                    m.swap(col * n + j, p * n + j);
                }
            }
            piv.push(p);
            let dinv = 1.0 / m[col * n + col];
            for r in col + 1..n {
                let f = m[r * n + col] * dinv;
                m[r * n + col] = f;
                if f != 0.0 {
                    for j in col + 1..n {
                        m[r * n + j] -= f * m[col * n + j];
                    }
                }
            }
        }
        Penta { n, lu: m, piv }
    }

    /// Solve in place, one scalar system per component: `rhs[l][m]` is
    /// row `l` of component `m`'s differentiable right-hand side.
    pub fn solve<R: Real>(&self, rhs: &mut [[R; NCOMP]]) {
        let n = self.n;
        assert_eq!(rhs.len(), n);
        for m in 0..NCOMP {
            for col in 0..n {
                let p = self.piv[col];
                if p != col {
                    let v = rhs[col][m];
                    rhs[col][m] = rhs[p][m];
                    rhs[p][m] = v;
                }
                let pivot = rhs[col][m];
                for r in col + 1..n {
                    let f = self.lu[r * n + col];
                    if f != 0.0 {
                        rhs[r][m] -= pivot * f;
                    }
                }
            }
            for col in (0..n).rev() {
                let mut acc = rhs[col][m];
                for j in col + 1..n {
                    let f = self.lu[col * n + j];
                    if f != 0.0 {
                        acc -= rhs[j][m] * f;
                    }
                }
                rhs[col][m] = acc / self.lu[col * n + col];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Randlc;

    #[test]
    fn mat5_inverse_roundtrip() {
        let mut rng = Randlc::new(11);
        let mut a = mat5_identity();
        for row in a.iter_mut() {
            for v in row.iter_mut() {
                *v += 0.2 * (rng.next() - 0.5);
            }
        }
        let inv = mat5_inv(&a);
        let prod = mat5_mul(&a, &inv);
        let id = mat5_identity();
        for i in 0..NCOMP {
            for j in 0..NCOMP {
                assert!((prod[i][j] - id[i][j]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn block_tri_solver_matches_direct_multiply() {
        // Build a dominant system, solve, and verify A·x == d.
        let theta = 0.08;
        let b = {
            let mut m = mat5_identity();
            m[0][1] = 0.3;
            m[1][0] = 0.3;
            m[2][4] = -0.2;
            m[4][2] = -0.2;
            m
        };
        let d = mat5_axpy(&mat5_identity(), 2.0 * theta, &b);
        let mut a = [[0.0; NCOMP]; NCOMP];
        for i in 0..NCOMP {
            for j in 0..NCOMP {
                a[i][j] = -theta * b[i][j];
            }
        }
        let n = 7;
        let solver = BlockTri::factor(n, &a, &d, &a);
        let mut rng = Randlc::new(3);
        let rhs_orig: Vec<[f64; NCOMP]> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.next() - 0.5))
            .collect();
        let mut x = rhs_orig.clone();
        solver.solve(&mut x);
        // Verify tri(A,D,A)·x = rhs.
        for l in 0..n {
            let mut acc = mat5_apply(&d, &x[l]);
            if l > 0 {
                let lo = mat5_apply(&a, &x[l - 1]);
                for m in 0..NCOMP {
                    acc[m] += lo[m];
                }
            }
            if l + 1 < n {
                let hi = mat5_apply(&a, &x[l + 1]);
                for m in 0..NCOMP {
                    acc[m] += hi[m];
                }
            }
            for m in 0..NCOMP {
                assert!((acc[m] - rhs_orig[l][m]).abs() < 1e-9, "line {l} comp {m}");
            }
        }
    }

    #[test]
    fn penta_solver_matches_direct_multiply() {
        let n = 10;
        let (d, c, e) = (1.9, -0.4, 0.05);
        let solver = Penta::factor(n, d, c, e);
        let mut rng = Randlc::new(17);
        let rhs: Vec<[f64; NCOMP]> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.next() - 0.5))
            .collect();
        let mut x = rhs.clone();
        solver.solve(&mut x);
        for m in 0..NCOMP {
            for i in 0..n {
                let mut acc = d * x[i][m];
                if i >= 1 {
                    acc += c * x[i - 1][m];
                }
                if i >= 2 {
                    acc += e * x[i - 2][m];
                }
                if i + 1 < n {
                    acc += c * x[i + 1][m];
                }
                if i + 2 < n {
                    acc += e * x[i + 2][m];
                }
                assert!((acc - rhs[i][m]).abs() < 1e-10, "row {i} comp {m}");
            }
        }
    }

    #[test]
    fn blend_init_respects_padding_and_boundaries() {
        let mut u: Arr4<f64> = Arr4::zeros(GP, GP1, GP1, NCOMP);
        blend_init(&mut u);
        // Padding slots untouched.
        for k in 0..GP {
            for m in 0..NCOMP {
                assert_eq!(u[(k, GP, 0, m)], 0.0);
                assert_eq!(u[(k, 0, GP, m)], 0.0);
            }
        }
        // Faces equal the exact solution.
        let e = exact(0.0, coord(3), coord(5));
        let off = BOUNDARY_OFFSET * (1.0 + 2.0 * coord(3) + 3.0 * coord(5));
        for m in 0..NCOMP {
            assert!((u[(5, 3, 0, m)] - e[m] - off).abs() < 1e-12);
        }
    }

    #[test]
    fn error_norm_zero_for_exact_field() {
        let u = exact_field();
        for r in [FULL, INTERIOR] {
            for v in error_norm(&u, r) {
                assert!(v < 1e-12);
            }
        }
    }
}
