//! SP — Scalar Pentadiagonal ADI solver (NPB class S: 12³ grid,
//! 100 steps).
//!
//! Checkpoint variables (paper Table I): `double u[12][13][13][5]`,
//! `int step` — the same as BT, and the paper finds the *identical*
//! critical/uncritical distribution (Fig. 3): `error_norm` in `error.c`
//! is shared between the two benchmarks. This port mirrors that: SP is
//! the same ADI app as BT ([`Adi`]: state layout, loop bounds, spatial
//! operator and `error_norm`), while its line operator solves scalar
//! pentadiagonal systems per component (the factored fourth-order
//! operator), SP's signature.

use crate::pde::{Adi, LineOp, Mat5, Penta, GP, NCOMP};
use scrutiny_ad::Real;

/// The SP benchmark.
pub type Sp = Adi<Penta>;

impl LineOp for Penta {
    const NAME: &'static str = "SP";
    const CLASS_S_STEPS: usize = 100;
    const NODES_PER_STEP: usize = 800_000;
    const DT: f64 = 0.28;
    const NU: f64 = 0.35;
    const COUPLING: Mat5 = [
        [0.15, 0.0, 0.0, 0.0, 0.04],
        [0.0, 0.15, -0.03, 0.0, 0.0],
        [0.0, -0.03, 0.15, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.15, 0.0],
        [0.04, 0.0, 0.0, 0.0, 0.15],
    ];

    /// The factored implicit operator `I − θ₂δ² + θ₄δ⁴`: stencil
    /// `[e, c, d, c, e]`.
    fn factored() -> Self {
        let theta2 = 0.5 * Self::DT * Self::NU;
        let theta4 = 0.18 * theta2;
        let d = 1.0 + 2.0 * theta2 + 6.0 * theta4;
        let c = -(theta2 + 4.0 * theta4);
        let e = theta4;
        Penta::factor(GP - 2, d, c, e)
    }

    fn solve_line<R: Real>(&self, line: &mut [[R; NCOMP]]) {
        self.solve(line)
    }
}

#[cfg(test)]
crate::pde::adi_tests!(
    Sp,
    /// The paper: "the exactly same critical-uncritical distribution in
    /// u as we found in u in BT".
    #[test]
    fn criticality_identical_to_bt() {
        let sp_map = scrutinize(&Sp::mini()).unwrap();
        let bt_map = scrutinize(&crate::Bt::mini()).unwrap();
        assert_eq!(
            sp_map.var("u").unwrap().value_map,
            bt_map.var("u").unwrap().value_map
        );
        assert_eq!(sp_map.var("u").unwrap().uncritical(), 1_500);
    }
);
