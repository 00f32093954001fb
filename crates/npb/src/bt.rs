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
//! BT is the shared ADI app ([`Adi`]) with a block-tridiagonal line
//! operator: implicit solves with 5×5 blocks (forward elimination + back
//! substitution) along x, y, z. Our implicit Jacobian blocks are
//! state-independent diagonally-dominant approximations
//! (`docs/PAPER_MAPPING.md`, "Table II"), so the factorization is literal
//! and only right-hand sides carry tape values.

use crate::pde::{mat5_axpy, mat5_identity, Adi, BlockTri, LineOp, Mat5, GP, NCOMP};
use scrutiny_ad::Real;

/// The BT benchmark.
pub type Bt = Adi<BlockTri>;

impl LineOp for BlockTri {
    const NAME: &'static str = "BT";
    const CLASS_S_STEPS: usize = 60;
    const NODES_PER_STEP: usize = 900_000;
    const DT: f64 = 0.3;
    const NU: f64 = 0.4;
    /// A second diffusion channel.
    const COUPLING: Mat5 = [
        [0.2, 0.05, 0.0, 0.0, 0.0],
        [0.05, 0.2, 0.0, 0.0, 0.03],
        [0.0, 0.0, 0.2, -0.04, 0.0],
        [0.0, 0.0, -0.04, 0.2, 0.0],
        [0.0, 0.03, 0.0, 0.0, 0.2],
    ];

    /// `tri(−θB, I + 2θB, −θB)` with `B = I + coupling` — strictly
    /// diagonally dominant for θ < ~0.4.
    fn factored() -> Self {
        let theta = 0.5 * Self::DT;
        let b = mat5_axpy(&mat5_identity(), 1.0, &Self::COUPLING);
        let d = mat5_axpy(&mat5_identity(), 2.0 * theta, &b);
        let a = b.map(|row| row.map(|v| -theta * v));
        BlockTri::factor(GP - 2, &a, &d, &a)
    }

    fn solve_line<R: Real>(&self, line: &mut [[R; NCOMP]]) {
        self.solve(line)
    }
}

#[cfg(test)]
crate::pde::adi_tests!(Bt);
