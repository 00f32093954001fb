//! Shared substrate for the three structured-grid solvers (BT, SP, LU):
//! the manufactured exact solution, boundary-blend initialization,
//! error norms, and small dense linear algebra (5×5 blocks, line LU).
//!
//! All three benchmarks operate on `[12][13][13][5]` state: NPB declares
//! 13 slots in the j/i dimensions but `grid_points = 12`, so index 12 is
//! never touched by any loop — the origin of the paper's Fig. 3 pattern.

use crate::common::Arr4;
use scrutiny_ad::Real;

/// Grid points per dimension (NPB class S `grid_points`).
pub const GP: usize = 12;
/// Declared j/i extent (`grid_points + 1`).
pub const GP1: usize = 13;
/// Solution components per grid point.
pub const NCOMP: usize = 5;

/// Total elements of a `[12][13][13][5]` variable.
pub const U_ELEMS: usize = GP * GP1 * GP1 * NCOMP;

/// A smooth manufactured solution, NPB `exact_solution`-style: a small
/// polynomial/trigonometric blend per component with component 0 kept
/// safely positive (it plays the role of density in LU).
#[derive(Clone, Copy, Debug)]
pub struct ExactSolution;

impl ExactSolution {
    /// Evaluate all five components at normalized coordinates in [0, 1].
    pub fn eval(&self, x: f64, y: f64, z: f64) -> [f64; NCOMP] {
        [
            2.0 + 0.3 * x + 0.2 * y * y + 0.1 * z + 0.05 * x * y * z,
            0.5 * (std::f64::consts::PI * x).sin() + 0.1 * y - 0.05 * z * z,
            0.4 * (std::f64::consts::PI * y).cos() + 0.08 * z + 0.03 * x * x,
            0.3 + 0.12 * z * z - 0.07 * x * y,
            5.0 + 0.5 * x * x + 0.4 * y + 0.25 * (std::f64::consts::PI * z).sin(),
        ]
    }

    /// Normalized coordinate of grid index `i` (0..GP).
    pub fn coord(i: usize) -> f64 {
        i as f64 / (GP - 1) as f64
    }
}

/// NPB `initialize`: boundary faces take the exact solution; interior
/// points take a transfinite blend of the six face values. Index 12 of
/// the j/i dimensions is left at its allocation default (zero), exactly
/// like NPB's static arrays.
pub fn blend_init<R: Real>(u: &mut Arr4<R>, exact: &ExactSolution) {
    // Pass 1: trilinear blend of the face values everywhere.
    for k in 0..GP {
        let z = ExactSolution::coord(k);
        for j in 0..GP {
            let y = ExactSolution::coord(j);
            for i in 0..GP {
                let x = ExactSolution::coord(i);
                let x0 = exact.eval(0.0, y, z);
                let x1 = exact.eval(1.0, y, z);
                let y0 = exact.eval(x, 0.0, z);
                let y1 = exact.eval(x, 1.0, z);
                let z0 = exact.eval(x, y, 0.0);
                let z1 = exact.eval(x, y, 1.0);
                for m in 0..NCOMP {
                    let px = (1.0 - x) * x0[m] + x * x1[m];
                    let py = (1.0 - y) * y0[m] + y * y1[m];
                    let pz = (1.0 - z) * z0[m] + z * z1[m];
                    u[(k, j, i, m)] = R::lit(px + py + pz - 0.5 * (px + py + pz) / 1.5);
                }
            }
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
    for k in 0..GP {
        let z = ExactSolution::coord(k);
        for j in 0..GP {
            let y = ExactSolution::coord(j);
            for i in 0..GP {
                let x = ExactSolution::coord(i);
                let on_face =
                    k == 0 || k == GP - 1 || j == 0 || j == GP - 1 || i == 0 || i == GP - 1;
                if on_face {
                    let e = exact.eval(x, y, z);
                    let off = BOUNDARY_OFFSET * (1.0 + x + 2.0 * y + 3.0 * z);
                    for m in 0..NCOMP {
                        u[(k, j, i, m)] = R::lit(e[m] + off);
                    }
                }
            }
        }
    }
}

/// Magnitude of the smooth Dirichlet-data offset (see [`blend_init`]).
pub const BOUNDARY_OFFSET: f64 = 1e-3;

/// NPB BT/SP `error_norm` (the paper's Fig. 2): RMS difference from the
/// exact solution **over the full `0..grid_points` range of every
/// dimension** — the read pattern that makes all of `12³×5` critical.
pub fn error_norm<R: Real>(u: &Arr4<R>, exact: &ExactSolution) -> [R; NCOMP] {
    let mut rms = [R::zero(); NCOMP];
    for k in 0..GP {
        let z = ExactSolution::coord(k);
        for j in 0..GP {
            let y = ExactSolution::coord(j);
            for i in 0..GP {
                let x = ExactSolution::coord(i);
                let e = exact.eval(x, y, z);
                for m in 0..NCOMP {
                    let add = u[(k, j, i, m)] - e[m];
                    rms[m] += add * add;
                }
            }
        }
    }
    let n = (GP * GP * GP) as f64;
    rms.map(|s| (s / n).sqrt())
}

/// LU's interior-only variant of the error norm (NPB `error`).
pub fn error_norm_interior<R: Real>(u: &Arr4<R>, exact: &ExactSolution) -> [R; NCOMP] {
    let mut rms = [R::zero(); NCOMP];
    for k in 1..GP - 1 {
        let z = ExactSolution::coord(k);
        for j in 1..GP - 1 {
            let y = ExactSolution::coord(j);
            for i in 1..GP - 1 {
                let x = ExactSolution::coord(i);
                let e = exact.eval(x, y, z);
                for m in 0..NCOMP {
                    let add = u[(k, j, i, m)] - e[m];
                    rms[m] += add * add;
                }
            }
        }
    }
    let n = ((GP - 2) * (GP - 2) * (GP - 2)) as f64;
    rms.map(|s| (s / n).sqrt())
}

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
pub struct BlockTriSolver {
    /// `D̃_l⁻¹` after forward elimination.
    inv: Vec<Mat5>,
    /// `D̃_l⁻¹·C` used in back-substitution.
    upper: Vec<Mat5>,
    /// The sub-diagonal block `A`.
    lower: Mat5,
}

impl BlockTriSolver {
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
        BlockTriSolver {
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
pub struct PentaSolver {
    n: usize,
    /// Combined LU factors (unit lower, upper in place).
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl PentaSolver {
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
        PentaSolver { n, lu: m, piv }
    }

    /// Solve in place for one differentiable right-hand side.
    pub fn solve<R: Real>(&self, rhs: &mut [R]) {
        let n = self.n;
        assert_eq!(rhs.len(), n);
        for col in 0..n {
            let p = self.piv[col];
            if p != col {
                rhs.swap(col, p);
            }
            let pivot = rhs[col];
            for r in col + 1..n {
                let f = self.lu[r * n + col];
                if f != 0.0 {
                    rhs[r] -= pivot * f;
                }
            }
        }
        for col in (0..n).rev() {
            let mut acc = rhs[col];
            for j in col + 1..n {
                let f = self.lu[col * n + j];
                if f != 0.0 {
                    acc -= rhs[j] * f;
                }
            }
            rhs[col] = acc / self.lu[col * n + col];
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
        let solver = BlockTriSolver::factor(n, &a, &d, &a);
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
        let solver = PentaSolver::factor(n, d, c, e);
        let mut rng = Randlc::new(17);
        let rhs: Vec<f64> = (0..n).map(|_| rng.next() - 0.5).collect();
        let mut x = rhs.clone();
        solver.solve(&mut x);
        for i in 0..n {
            let mut acc = d * x[i];
            if i >= 1 {
                acc += c * x[i - 1];
            }
            if i >= 2 {
                acc += e * x[i - 2];
            }
            if i + 1 < n {
                acc += c * x[i + 1];
            }
            if i + 2 < n {
                acc += e * x[i + 2];
            }
            assert!((acc - rhs[i]).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    fn blend_init_respects_padding_and_boundaries() {
        let exact = ExactSolution;
        let mut u: Arr4<f64> = Arr4::zeros(GP, GP1, GP1, NCOMP);
        blend_init(&mut u, &exact);
        // Padding slots untouched.
        for k in 0..GP {
            for m in 0..NCOMP {
                assert_eq!(u[(k, GP, 0, m)], 0.0);
                assert_eq!(u[(k, 0, GP, m)], 0.0);
            }
        }
        // Faces equal the exact solution.
        let e = exact.eval(0.0, ExactSolution::coord(3), ExactSolution::coord(5));
        let off =
            BOUNDARY_OFFSET * (1.0 + 2.0 * ExactSolution::coord(3) + 3.0 * ExactSolution::coord(5));
        for m in 0..NCOMP {
            assert!((u[(5, 3, 0, m)] - e[m] - off).abs() < 1e-12);
        }
    }

    #[test]
    fn error_norm_zero_for_exact_field() {
        let exact = ExactSolution;
        let mut u: Arr4<f64> = Arr4::zeros(GP, GP1, GP1, NCOMP);
        for k in 0..GP {
            for j in 0..GP {
                for i in 0..GP {
                    let e = exact.eval(
                        ExactSolution::coord(i),
                        ExactSolution::coord(j),
                        ExactSolution::coord(k),
                    );
                    for m in 0..NCOMP {
                        u[(k, j, i, m)] = e[m];
                    }
                }
            }
        }
        for v in error_norm(&u, &exact) {
            assert!(v < 1e-12);
        }
        for v in error_norm_interior(&u, &exact) {
            assert!(v < 1e-12);
        }
    }
}
