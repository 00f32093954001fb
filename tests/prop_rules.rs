//! Property-based validation of the reverse-mode engine.
//!
//! Each property runs the same randomly generated expression through the
//! reverse tape, the forward-mode oracle and (where cheap) central finite
//! differences, and checks calculus identities hold.

use proptest::prelude::*;
use scrutiny_ad::{Adj, Real, TapeSession};
use scrutiny_integration::Dual;

/// Reverse-mode gradient of a 2-input scalar function.
fn rev_grad2(f: impl Fn(Adj, Adj) -> Adj, x: f64, y: f64) -> (f64, f64, f64) {
    let s = TapeSession::new();
    let xa = Adj::leaf(x);
    let ya = Adj::leaf(y);
    let out = f(xa, ya);
    let tape = s.finish();
    let g = tape.gradient(out).unwrap();
    (out.value(), g.wrt(xa), g.wrt(ya))
}

/// Forward-mode gradient of the same function via two seeded passes.
fn fwd_grad2(f: impl Fn(Dual, Dual) -> Dual, x: f64, y: f64) -> (f64, f64, f64) {
    let ox = f(Dual::variable(x), Dual::constant(y));
    let oy = f(Dual::constant(x), Dual::variable(y));
    (ox.value(), ox.tangent(), oy.tangent())
}

fn finite(v: f64) -> bool {
    v.is_finite()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// d(x+y)/dx == 1, d(x+y)/dy == 1 regardless of values.
    #[test]
    fn sum_rule(x in -1e6f64..1e6, y in -1e6f64..1e6) {
        let (_, dx, dy) = rev_grad2(|a, b| a + b, x, y);
        prop_assert_eq!(dx, 1.0);
        prop_assert_eq!(dy, 1.0);
    }

    /// Product rule: d(xy)/dx == y, d(xy)/dy == x.
    #[test]
    fn product_rule(x in -1e3f64..1e3, y in -1e3f64..1e3) {
        let (_, dx, dy) = rev_grad2(|a, b| a * b, x, y);
        prop_assert_eq!(dx, y);
        prop_assert_eq!(dy, x);
    }

    /// Quotient rule against forward mode.
    #[test]
    fn quotient_rule(x in -1e3f64..1e3, y in 0.1f64..1e3) {
        let (v, dx, dy) = rev_grad2(|a, b| a / b, x, y);
        let (fv, fdx, fdy) = fwd_grad2(|a, b| a / b, x, y);
        prop_assert!((v - fv).abs() <= 1e-12 * fv.abs().max(1.0));
        prop_assert!((dx - fdx).abs() <= 1e-12 * fdx.abs().max(1.0));
        prop_assert!((dy - fdy).abs() <= 1e-12 * fdy.abs().max(1.0));
    }

    /// A nontrivial composite expression: forward and reverse must agree
    /// to near machine precision.
    #[test]
    fn forward_reverse_agree(x in 0.1f64..10.0, y in 0.1f64..10.0) {
        fn f<R: Real>(a: R, b: R) -> R {
            let t = (a * b + 1.0).sqrt();
            let u = (t + a * 0.25).ln();
            let w = u.sin() * b.cos() + (a / b).exp() * 1e-2;
            w.abs() + t.powi(3) * 1e-3
        }
        let (rv, rdx, rdy) = rev_grad2(f::<Adj>, x, y);
        let (fv, fdx, fdy) = fwd_grad2(f::<Dual>, x, y);
        prop_assume!(finite(rv) && finite(rdx) && finite(rdy));
        let tol = |r: f64| 1e-10 * r.abs().max(1.0);
        prop_assert!((rv - fv).abs() <= tol(fv), "value: {rv} vs {fv}");
        prop_assert!((rdx - fdx).abs() <= tol(fdx), "d/dx: {rdx} vs {fdx}");
        prop_assert!((rdy - fdy).abs() <= tol(fdy), "d/dy: {rdy} vs {fdy}");
    }

    /// Gradient of a sum over a vector of leaves is 1 for every element,
    /// no matter how the summation tree is shaped.
    #[test]
    fn sum_reduction_gradients(vals in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
        let s = TapeSession::new();
        let leaves: Vec<Adj> = vals.iter().map(|&v| Adj::leaf(v)).collect();
        // Pairwise (tree) reduction, a different association than a fold.
        let mut layer: Vec<Adj> = leaves.clone();
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|c| if c.len() == 2 { c[0] + c[1] } else { c[0] }).collect();
        }
        let out = layer[0];
        let tape = s.finish();
        let g = tape.gradient(out).unwrap();
        for &l in &leaves {
            prop_assert_eq!(g.wrt(l), 1.0);
        }
    }

    /// Structural reachability is a superset of value-criticality.
    #[test]
    fn structural_superset(x in -10.0f64..10.0, y in -10.0f64..10.0, pick in 0u8..4) {
        let s = TapeSession::new();
        let xa = Adj::leaf(x);
        let ya = Adj::leaf(y);
        let out = match pick {
            0 => xa * ya,
            1 => xa - xa + ya,            // x cancels
            2 => xa * Adj::constant(0.0) + ya, // x multiplied by literal zero
            _ => xa.rmax(ya),             // only one branch active
        };
        let tape = s.finish();
        let g = tape.gradient(out).unwrap();
        let r = tape.reachable(out).unwrap();
        for leaf in [xa, ya] {
            if g.wrt(leaf) != 0.0 {
                prop_assert!(r[leaf.index().unwrap() as usize],
                    "leaf with non-zero gradient must be structurally reachable");
            }
        }
    }

    /// Leaves created but never used stay uncritical under both analyses.
    #[test]
    fn unused_leaves_are_uncritical(n_used in 1usize..16, n_unused in 1usize..16) {
        let s = TapeSession::new();
        let used: Vec<Adj> = (0..n_used).map(|i| Adj::leaf(i as f64 + 1.0)).collect();
        let unused: Vec<Adj> = (0..n_unused).map(|i| Adj::leaf(-(i as f64) - 1.0)).collect();
        let out = used.iter().fold(Adj::constant(0.0), |a, &b| a + b * b);
        let tape = s.finish();
        let g = tape.gradient(out).unwrap();
        let r = tape.reachable(out).unwrap();
        for &l in &unused {
            prop_assert_eq!(g.wrt(l), 0.0);
            prop_assert!(!r[l.index().unwrap() as usize]);
        }
        for &l in &used {
            prop_assert!(g.wrt(l) != 0.0 || l.value() == 0.0);
        }
    }

    /// Overwriting a slot before reading it makes the original leaf
    /// uncritical — the core mechanism behind the paper's findings.
    #[test]
    #[allow(unused_assignments)]
    fn overwrite_before_read(init in -5.0f64..5.0, fresh in -5.0f64..5.0) {
        let s = TapeSession::new();
        let ckpt = Adj::leaf(init);
        let mut slot = ckpt;
        slot = Adj::leaf(fresh); // a later write wins
        let out = slot * slot + 1.0;
        let tape = s.finish();
        let g = tape.gradient(out).unwrap();
        prop_assert_eq!(g.wrt(ckpt), 0.0);
        let r = tape.reachable(out).unwrap();
        prop_assert!(!r[ckpt.index().unwrap() as usize]);
    }
}
