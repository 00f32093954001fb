//! Complex arithmetic over any [`Real`] scalar.
//!
//! NPB's FT benchmark stores its state in a custom `dcomplex` struct with
//! `real`/`imag` doubles; its checkpoint variables (`y`, `sums`) are arrays
//! of that type. `Cplx<R>` mirrors it generically: with `R = f64` it is a
//! plain complex double, with `R = Adj` each component is a tape value, so
//! one `dcomplex` element contributes *two* leaves and is critical when
//! either component has a non-zero adjoint.

use crate::Real;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with differentiable components.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Cplx<R> {
    /// Real part.
    pub re: R,
    /// Imaginary part.
    pub im: R,
}

impl<R: Real> Cplx<R> {
    /// Construct from components.
    #[inline]
    pub fn new(re: R, im: R) -> Self {
        Cplx { re, im }
    }

    /// Complex zero.
    #[inline]
    pub fn zero() -> Self {
        Cplx {
            re: R::zero(),
            im: R::zero(),
        }
    }

    /// Lift a pair of literals (AD constants).
    #[inline]
    pub fn lit(re: f64, im: f64) -> Self {
        Cplx {
            re: R::lit(re),
            im: R::lit(im),
        }
    }

    /// `e^{iθ}` for a literal angle — the FFT twiddle constructor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Cplx::lit(theta.cos(), theta.sin())
    }

    /// Primal value as an `(re, im)` pair.
    #[inline]
    pub fn value(self) -> (f64, f64) {
        (self.re.value(), self.im.value())
    }

    /// Multiply by a real scalar.
    #[inline]
    pub fn scale(self, s: R) -> Self {
        Cplx {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Multiply by a literal.
    #[inline]
    pub fn scale_lit(self, s: f64) -> Self {
        Cplx {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Cplx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> R {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> R {
        self.norm_sqr().sqrt()
    }
}

impl<R: Real> Add for Cplx<R> {
    type Output = Cplx<R>;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Cplx {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl<R: Real> Sub for Cplx<R> {
    type Output = Cplx<R>;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Cplx {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl<R: Real> Mul for Cplx<R> {
    type Output = Cplx<R>;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Cplx {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl<R: Real> Neg for Cplx<R> {
    type Output = Cplx<R>;
    #[inline]
    fn neg(self) -> Self {
        Cplx {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl<R: Real> AddAssign for Cplx<R> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<R: Real> SubAssign for Cplx<R> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<R: Real> MulAssign for Cplx<R> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adj, TapeSession};

    #[test]
    fn complex_algebra_identities() {
        let a: Cplx<f64> = Cplx::new(1.0, 2.0);
        let b: Cplx<f64> = Cplx::new(-3.0, 0.5);
        let ab = a * b;
        assert!((ab.re - (1.0 * -3.0 - 2.0 * 0.5)).abs() < 1e-15);
        assert!((ab.im - (1.0 * 0.5 + 2.0 * -3.0)).abs() < 1e-15);
        // |ab| == |a||b|
        assert!((ab.abs() - a.abs() * b.abs()).abs() < 1e-12);
        // conj(a*b) == conj(a)*conj(b)
        let lhs = (a * b).conj();
        let rhs = a.conj() * b.conj();
        assert!((lhs.re - rhs.re).abs() < 1e-15);
        assert!((lhs.im - rhs.im).abs() < 1e-15);
    }

    #[test]
    fn cis_matches_euler() {
        let t = 0.731;
        let w: Cplx<f64> = Cplx::cis(t);
        assert!((w.re - t.cos()).abs() < 1e-15);
        assert!((w.im - t.sin()).abs() < 1e-15);
        assert!((w.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn mul_i_rotates() {
        let a: Cplx<f64> = Cplx::new(3.0, 4.0);
        let r = a * Cplx::new(0.0, 1.0);
        assert_eq!((r.re, r.im), (-4.0, 3.0));
    }

    #[test]
    fn gradient_through_complex_multiply() {
        // f = Re((x + iy) * w), w constant => df/dx = Re(w), df/dy = -Im(w)
        let s = TapeSession::new();
        let x = Adj::leaf(1.5);
        let y = Adj::leaf(-0.5);
        let z = Cplx::new(x, y);
        let w: Cplx<Adj> = Cplx::lit(0.6, 0.8);
        let f = (z * w).re;
        let tape = s.finish();
        let g = tape.gradient(f).unwrap();
        assert!((g.wrt(x) - 0.6).abs() < 1e-15);
        assert!((g.wrt(y) + 0.8).abs() < 1e-15);
    }

    #[test]
    fn twiddles_are_constants() {
        // Constant complex arithmetic must not record tape nodes.
        let s = TapeSession::new();
        let w: Cplx<Adj> = Cplx::cis(0.1);
        let v = w * w * w;
        assert!(!v.re.is_tracked() && !v.im.is_tracked());
        let tape = s.finish();
        assert_eq!(tape.len(), 0);
    }
}
