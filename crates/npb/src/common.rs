//! Shared NPB infrastructure: the `randlc` linear congruential generator,
//! multi-dimensional array views with C (row-major) layout, and a CSR
//! sparse matrix for CG.

use scrutiny_ad::Real;
use std::ops::{Index, IndexMut};

/// NPB's default multiplier `a = 5^13`.
pub const RANDLC_A: u64 = 1_220_703_125;
/// NPB's default seed.
pub const RANDLC_SEED: u64 = 314_159_265;
const M46: u64 = (1 << 46) - 1;

/// NPB's `randlc` pseudo-random generator: `x ← a·x mod 2^46`, returning
/// `x / 2^46 ∈ (0, 1)`. Implemented in exact integer arithmetic (the
/// original uses double-double tricks to emulate exactly this).
#[derive(Clone, Copy, Debug)]
pub struct Randlc {
    x: u64,
    a: u64,
}

impl Randlc {
    /// Generator with NPB's default multiplier.
    pub fn new(seed: u64) -> Self {
        Randlc {
            x: seed & M46,
            a: RANDLC_A,
        }
    }

    /// Next uniform deviate in (0, 1).
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        self.x = mulmod46(self.a, self.x);
        self.x as f64 / (1u64 << 46) as f64
    }

    /// Current raw state (for checkpoint-free reseeding).
    pub fn state(&self) -> u64 {
        self.x
    }

    /// Fill a slice with deviates (NPB's `vranlc`).
    pub fn fill(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.next();
        }
    }

    /// Jump the state forward by `n` steps in O(log n) (used by EP to give
    /// every batch an independent, reproducible seed).
    pub fn jump(seed: u64, a: u64, n: u64) -> u64 {
        mulmod46(powmod46(a, n), seed & M46)
    }
}

#[inline]
fn mulmod46(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) & M46 as u128) as u64
}

fn powmod46(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base &= M46;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod46(acc, base);
        }
        base = mulmod46(base, base);
        exp >>= 1;
    }
    acc
}

/// A 3-D array in C row-major order (`[k][j][i]`, `i` fastest), matching
/// NPB's declarations so flattened element indices line up with the
/// paper's figures.
#[derive(Clone, Debug)]
pub struct Arr3<R> {
    data: Vec<R>,
    dims: [usize; 3],
}

impl<R: Real> Arr3<R> {
    /// Zero-initialized array of the given dims.
    pub fn zeros(d0: usize, d1: usize, d2: usize) -> Self {
        Arr3 {
            data: vec![R::zero(); d0 * d1 * d2],
            dims: [d0, d1, d2],
        }
    }

    /// Dimensions.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Flat view (checkpoint order).
    pub fn flat(&self) -> &[R] {
        &self.data
    }

    /// Mutable flat view (for checkpoint sites).
    pub fn flat_mut(&mut self) -> &mut [R] {
        &mut self.data
    }

    #[inline]
    fn offset(&self, k: usize, j: usize, i: usize) -> usize {
        debug_assert!(k < self.dims[0] && j < self.dims[1] && i < self.dims[2]);
        (k * self.dims[1] + j) * self.dims[2] + i
    }
}

impl<R: Real> Index<(usize, usize, usize)> for Arr3<R> {
    type Output = R;
    #[inline]
    fn index(&self, (k, j, i): (usize, usize, usize)) -> &R {
        &self.data[self.offset(k, j, i)]
    }
}

impl<R: Real> IndexMut<(usize, usize, usize)> for Arr3<R> {
    #[inline]
    fn index_mut(&mut self, (k, j, i): (usize, usize, usize)) -> &mut R {
        let o = self.offset(k, j, i);
        &mut self.data[o]
    }
}

/// A 4-D array in C row-major order (`[k][j][i][m]`, `m` fastest) — the
/// layout of `u[12][13][13][5]` in BT/SP/LU.
#[derive(Clone, Debug)]
pub struct Arr4<R> {
    data: Vec<R>,
    dims: [usize; 4],
}

impl<R: Real> Arr4<R> {
    /// Zero-initialized array of the given dims.
    pub fn zeros(d0: usize, d1: usize, d2: usize, d3: usize) -> Self {
        Arr4 {
            data: vec![R::zero(); d0 * d1 * d2 * d3],
            dims: [d0, d1, d2, d3],
        }
    }

    /// Dimensions.
    pub fn dims(&self) -> [usize; 4] {
        self.dims
    }

    /// Flat view (checkpoint order).
    pub fn flat(&self) -> &[R] {
        &self.data
    }

    /// Mutable flat view (for checkpoint sites).
    pub fn flat_mut(&mut self) -> &mut [R] {
        &mut self.data
    }

    #[inline]
    fn offset(&self, k: usize, j: usize, i: usize, m: usize) -> usize {
        debug_assert!(k < self.dims[0] && j < self.dims[1] && i < self.dims[2] && m < self.dims[3]);
        ((k * self.dims[1] + j) * self.dims[2] + i) * self.dims[3] + m
    }
}

impl<R: Real> Index<(usize, usize, usize, usize)> for Arr4<R> {
    type Output = R;
    #[inline]
    fn index(&self, (k, j, i, m): (usize, usize, usize, usize)) -> &R {
        &self.data[self.offset(k, j, i, m)]
    }
}

impl<R: Real> IndexMut<(usize, usize, usize, usize)> for Arr4<R> {
    #[inline]
    fn index_mut(&mut self, (k, j, i, m): (usize, usize, usize, usize)) -> &mut R {
        let o = self.offset(k, j, i, m);
        &mut self.data[o]
    }
}

/// Symmetric positive-definite sparse matrix in CSR form, as CG's `makea`
/// produces. Matrix entries are program constants (regenerated at restart
/// from the seed), so under AD they fold to literals and stay off the tape.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    n: usize,
    rowptr: Vec<usize>,
    col: Vec<u32>,
    val: Vec<f64>,
}

impl SparseMatrix {
    /// NPB-style random SPD matrix: `nonzer` off-diagonal entries per row
    /// (symmetrized), diagonal = |row| sum + `shift` (strict diagonal
    /// dominance ⇒ SPD).
    pub fn random_spd(n: usize, nonzer: usize, shift: f64, seed: u64) -> Self {
        let mut rng = Randlc::new(seed);
        // Collect symmetric off-diagonal entries as (row, col, val).
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for _ in 0..nonzer {
                let j = (rng.next() * n as f64) as usize % n;
                if j == i {
                    continue;
                }
                let v = rng.next() - 0.5;
                entries[i].push((j as u32, v));
                entries[j].push((i as u32, v));
            }
        }
        let mut rowptr = Vec::with_capacity(n + 1);
        let mut col = Vec::new();
        let mut val = Vec::new();
        rowptr.push(0);
        for (i, row) in entries.iter_mut().enumerate() {
            row.sort_by_key(|&(c, _)| c);
            // Merge duplicate columns.
            let mut merged: Vec<(u32, f64)> = Vec::with_capacity(row.len());
            for &(c, v) in row.iter() {
                match merged.last_mut() {
                    Some(last) if last.0 == c => last.1 += v,
                    _ => merged.push((c, v)),
                }
            }
            let offdiag_sum: f64 = merged.iter().map(|&(_, v)| v.abs()).sum();
            // Insert the diagonal in sorted position.
            let mut placed = false;
            for &(c, v) in &merged {
                if !placed && c as usize > i {
                    col.push(i as u32);
                    val.push(offdiag_sum + shift);
                    placed = true;
                }
                col.push(c);
                val.push(v);
            }
            if !placed {
                col.push(i as u32);
                val.push(offdiag_sum + shift);
            }
            rowptr.push(col.len());
        }
        SparseMatrix {
            n,
            rowptr,
            col,
            val,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// `y = A·x` for any differentiable scalar (matrix entries are
    /// literals).
    pub fn spmv<R: Real>(&self, x: &[R], y: &mut [R]) {
        assert!(x.len() >= self.n && y.len() >= self.n);
        for i in 0..self.n {
            let mut acc = R::zero();
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                acc += x[self.col[k] as usize] * self.val[k];
            }
            y[i] = acc;
        }
    }

    /// Symmetry check, validating [`SparseMatrix::random_spd`].
    #[cfg(test)]
    pub(crate) fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                let j = self.col[k] as usize;
                let vij = self.val[k];
                let vji = (self.rowptr[j]..self.rowptr[j + 1])
                    .find(|&kk| self.col[kk] as usize == i)
                    .map(|kk| self.val[kk]);
                match vji {
                    Some(v) if (v - vij).abs() <= tol => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

/// Dot product over differentiable scalars.
pub fn dot<R: Real>(a: &[R], b: &[R]) -> R {
    assert_eq!(a.len(), b.len());
    let mut acc = R::zero();
    for (x, y) in a.iter().zip(b) {
        acc += *x * *y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randlc_range_and_determinism() {
        let mut a = Randlc::new(RANDLC_SEED);
        let mut b = Randlc::new(RANDLC_SEED);
        for _ in 0..1000 {
            let v = a.next();
            assert!(v > 0.0 && v < 1.0);
            assert_eq!(v, b.next());
        }
    }

    #[test]
    fn randlc_mean_is_half() {
        let mut r = Randlc::new(RANDLC_SEED);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn jump_equals_stepping() {
        let mut r = Randlc::new(RANDLC_SEED);
        for _ in 0..137 {
            r.next();
        }
        let jumped = Randlc::jump(RANDLC_SEED, RANDLC_A, 137);
        assert_eq!(r.state(), jumped);
    }

    #[test]
    #[allow(clippy::identity_op)] // spell out the full (i1*d2 + i2)*d3 + i3 layout formula
    fn arr3_layout_is_row_major() {
        let mut a: Arr3<f64> = Arr3::zeros(2, 3, 4);
        a[(1, 2, 3)] = 9.0;
        assert_eq!(a.flat()[(1 * 3 + 2) * 4 + 3], 9.0);
        a[(0, 0, 1)] = 5.0;
        assert_eq!(a.flat()[1], 5.0);
    }

    #[test]
    fn arr4_layout_matches_c_declaration() {
        // u[12][13][13][5]: m fastest, then i, j, k.
        let mut u: Arr4<f64> = Arr4::zeros(12, 13, 13, 5);
        u[(0, 0, 1, 0)] = 1.0;
        assert_eq!(u.flat()[5], 1.0);
        u[(0, 1, 0, 0)] = 2.0;
        assert_eq!(u.flat()[13 * 5], 2.0);
        u[(1, 0, 0, 0)] = 3.0;
        assert_eq!(u.flat()[13 * 13 * 5], 3.0);
        assert_eq!(u.flat().len(), 10140);
    }

    #[test]
    fn spd_matrix_is_symmetric_and_dominant() {
        let m = SparseMatrix::random_spd(100, 5, 10.0, 42);
        assert!(m.is_symmetric(1e-12));
        // Positive-definiteness via a few random Rayleigh quotients.
        let mut rng = Randlc::new(7);
        for _ in 0..5 {
            let x: Vec<f64> = (0..100).map(|_| rng.next() - 0.5).collect();
            let mut y = vec![0.0; 100];
            m.spmv(&x, &mut y);
            assert!(dot(&x, &y) > 0.0);
        }
    }

    #[test]
    fn spmv_identity_behaviour() {
        // shift-only matrix times x scales rows by diag.
        let m = SparseMatrix::random_spd(10, 0, 3.0, 1);
        let x = vec![1.0; 10];
        let mut y = vec![0.0; 10];
        m.spmv(&x, &mut y);
        for v in y {
            assert!((v - 3.0).abs() < 1e-12);
        }
    }
}
