//! Forward-mode AD with dual numbers.
//!
//! `Dual` carries a value and a single directional derivative. It is the
//! independent oracle the test suites validate the reverse-mode tape
//! against: forward and reverse must agree to machine precision on the
//! same program, written once over [`Real`].

use scrutiny_ad::Real;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A dual number `v + d·ε` with `ε² = 0`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Dual {
    /// Primal value.
    pub v: f64,
    /// Derivative (tangent) component.
    pub d: f64,
}

impl Dual {
    /// A constant (zero tangent).
    #[inline]
    pub fn constant(v: f64) -> Self {
        Dual { v, d: 0.0 }
    }

    /// The seeded input variable: `d/dx x = 1`.
    #[inline]
    pub fn variable(v: f64) -> Self {
        Dual { v, d: 1.0 }
    }

    /// Primal value.
    #[inline]
    pub fn value(self) -> f64 {
        self.v
    }

    /// Tangent (derivative along the seeded direction).
    #[inline]
    pub fn tangent(self) -> f64 {
        self.d
    }

    /// Square root.
    #[inline]
    pub fn sqrt(self) -> Dual {
        let r = self.v.sqrt();
        Dual {
            v: r,
            d: self.d * 0.5 / r,
        }
    }

    /// Natural exponential.
    #[inline]
    pub fn exp(self) -> Dual {
        let e = self.v.exp();
        Dual {
            v: e,
            d: self.d * e,
        }
    }

    /// Natural logarithm.
    #[inline]
    pub fn ln(self) -> Dual {
        Dual {
            v: self.v.ln(),
            d: self.d / self.v,
        }
    }

    /// Sine.
    #[inline]
    pub fn sin(self) -> Dual {
        Dual {
            v: self.v.sin(),
            d: self.d * self.v.cos(),
        }
    }

    /// Cosine.
    #[inline]
    pub fn cos(self) -> Dual {
        Dual {
            v: self.v.cos(),
            d: -self.d * self.v.sin(),
        }
    }

    /// Integer power.
    #[inline]
    pub fn powi(self, n: i32) -> Dual {
        Dual {
            v: self.v.powi(n),
            d: self.d * f64::from(n) * self.v.powi(n - 1),
        }
    }

    /// Absolute value (a.e. derivative).
    #[inline]
    pub fn abs(self) -> Dual {
        if self.v >= 0.0 {
            self
        } else {
            -self
        }
    }

    /// Maximum, branch semantics matching [`scrutiny_ad::Adj::max`].
    #[inline]
    pub fn max(self, rhs: Dual) -> Dual {
        if self.v >= rhs.v {
            self
        } else {
            rhs
        }
    }

    /// Minimum, branch semantics matching [`scrutiny_ad::Adj::min`].
    #[inline]
    pub fn min(self, rhs: Dual) -> Dual {
        if self.v <= rhs.v {
            self
        } else {
            rhs
        }
    }
}

impl Add for Dual {
    type Output = Dual;
    #[inline]
    fn add(self, rhs: Dual) -> Dual {
        Dual {
            v: self.v + rhs.v,
            d: self.d + rhs.d,
        }
    }
}

impl Sub for Dual {
    type Output = Dual;
    #[inline]
    fn sub(self, rhs: Dual) -> Dual {
        Dual {
            v: self.v - rhs.v,
            d: self.d - rhs.d,
        }
    }
}

impl Mul for Dual {
    type Output = Dual;
    #[inline]
    fn mul(self, rhs: Dual) -> Dual {
        Dual {
            v: self.v * rhs.v,
            d: self.d * rhs.v + self.v * rhs.d,
        }
    }
}

impl Div for Dual {
    type Output = Dual;
    #[inline]
    fn div(self, rhs: Dual) -> Dual {
        let inv = 1.0 / rhs.v;
        Dual {
            v: self.v * inv,
            d: (self.d - self.v * inv * rhs.d) * inv,
        }
    }
}

impl Neg for Dual {
    type Output = Dual;
    #[inline]
    fn neg(self) -> Dual {
        Dual {
            v: -self.v,
            d: -self.d,
        }
    }
}

macro_rules! scalar_rhs {
    ($trait:ident, $m:ident) => {
        impl $trait<f64> for Dual {
            type Output = Dual;
            #[inline]
            fn $m(self, rhs: f64) -> Dual {
                self.$m(Dual::constant(rhs))
            }
        }
    };
}
scalar_rhs!(Add, add);
scalar_rhs!(Sub, sub);
scalar_rhs!(Mul, mul);
scalar_rhs!(Div, div);

macro_rules! assign_op {
    ($trait:ident, $m:ident, $op:ident) => {
        impl $trait for Dual {
            #[inline]
            fn $m(&mut self, rhs: Dual) {
                *self = (*self).$op(rhs);
            }
        }
        impl $trait<f64> for Dual {
            #[inline]
            fn $m(&mut self, rhs: f64) {
                *self = (*self).$op(rhs);
            }
        }
    };
}
assign_op!(AddAssign, add_assign, add);
assign_op!(SubAssign, sub_assign, sub);
assign_op!(MulAssign, mul_assign, mul);
assign_op!(DivAssign, div_assign, div);

impl PartialOrd for Dual {
    #[inline]
    fn partial_cmp(&self, other: &Dual) -> Option<std::cmp::Ordering> {
        self.v.partial_cmp(&other.v)
    }
}

impl Real for Dual {
    #[inline]
    fn lit(v: f64) -> Self {
        Dual::constant(v)
    }
    #[inline]
    fn value(self) -> f64 {
        Dual::value(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Dual::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        Dual::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        Dual::ln(self)
    }
    #[inline]
    fn sin(self) -> Self {
        Dual::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        Dual::cos(self)
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        Dual::powi(self, n)
    }
    #[inline]
    fn abs(self) -> Self {
        Dual::abs(self)
    }
    #[inline]
    fn rmax(self, other: Self) -> Self {
        Dual::max(self, other)
    }
    #[inline]
    fn rmin(self, other: Self) -> Self {
        Dual::min(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutiny_ad::{Adj, TapeSession};

    #[test]
    fn product_rule() {
        let x = Dual::variable(3.0);
        let y = x * x * x;
        assert!((y.v - 27.0).abs() < 1e-15);
        assert!((y.d - 27.0).abs() < 1e-12);
    }

    #[test]
    fn quotient_rule() {
        let x = Dual::variable(2.0);
        let y = (x * x + 1.0) / x; // y = x + 1/x, y' = 1 - 1/x^2
        assert!((y.d - (1.0 - 0.25)).abs() < 1e-14);
    }

    #[test]
    fn chain_of_transcendentals() {
        let x = Dual::variable(0.7);
        let y = (x.sin() * x.exp()).ln().sqrt();
        // Compare against central finite differences.
        let f = |x: f64| (x.sin() * x.exp()).ln().sqrt();
        let h = 1e-7;
        let fd = (f(0.7 + h) - f(0.7 - h)) / (2.0 * h);
        assert!((y.d - fd).abs() < 1e-6);
    }

    #[test]
    fn constants_have_zero_tangent() {
        let x = Dual::variable(1.0);
        let c = Dual::constant(5.0);
        assert_eq!((x * 0.0 + c).d, 0.0);
    }

    /// A generic kernel: the same source evaluated for all three scalars.
    fn kernel<R: Real>(x: R) -> R {
        let a = x * x + R::lit(1.0);
        let b = a.sqrt().ln();
        (b.sin() + x.exp() * 0.5).abs()
    }

    #[test]
    fn all_scalars_agree_on_values() {
        let x = 0.83;
        let vf = kernel(x);
        let vd = kernel(Dual::variable(x)).value();
        let s = TapeSession::new();
        let va = kernel(Adj::leaf(x)).value();
        drop(s);
        assert!((vf - vd).abs() < 1e-15);
        assert!((vf - va).abs() < 1e-15);
    }

    #[test]
    fn forward_equals_reverse() {
        let x = 0.83;
        let dd = kernel(Dual::variable(x)).tangent();
        let s = TapeSession::new();
        let leaf = Adj::leaf(x);
        let y = kernel(leaf);
        let tape = s.finish();
        let da = tape.gradient(y).unwrap().wrt(leaf);
        assert!(
            (dd - da).abs() < 1e-13,
            "forward {dd} vs reverse {da} disagree"
        );
    }

    #[test]
    fn rmax_rmin_consistent_across_scalars() {
        let a = 2.0;
        let b = 5.0;
        assert_eq!(a.rmax(b), 5.0);
        assert_eq!(a.rmin(b), 2.0);
        assert_eq!(Dual::variable(a).rmax(Dual::constant(b)).value(), 5.0);
        let s = TapeSession::new();
        assert_eq!(Adj::leaf(a).rmax(Adj::constant(b)).value(), 5.0);
        drop(s);
    }

    #[test]
    fn f64_scalar_ops_compile_and_match() {
        fn poly<R: Real>(x: R) -> R {
            let mut acc = R::zero();
            acc += x * 2.0;
            acc -= 1.0;
            acc *= 3.0;
            acc /= 2.0;
            acc + R::one()
        }
        let direct = |x: f64| ((x * 2.0 - 1.0) * 3.0) / 2.0 + 1.0;
        assert!((poly(1.7f64) - direct(1.7)).abs() < 1e-15);
        assert!((poly(Dual::variable(1.7)).value() - direct(1.7)).abs() < 1e-15);
    }
}
