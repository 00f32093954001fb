//! The `Real` scalar abstraction.
//!
//! The NPB kernels (and any user application analyzed by `scrutiny`) are
//! written once, generically over `Real`. Instantiated with `f64` they run
//! at native speed (golden/restart runs); instantiated with [`crate::Adj`]
//! the identical code path records the tape for the criticality analysis.
//! (The test suites' forward-mode oracle, `scrutiny_integration::Dual`,
//! implements it too.)

use crate::Adj;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A differentiable scalar: `f64` or [`Adj`] (reverse mode).
///
/// Comparisons go through [`Real::value`] — control flow is evaluated on
/// primal values, which matches what an LLVM-level tool like Enzyme
/// differentiates (the executed path).
pub trait Real:
    Copy
    + Clone
    + Debug
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Add<f64, Output = Self>
    + Sub<f64, Output = Self>
    + Mul<f64, Output = Self>
    + Div<f64, Output = Self>
    + AddAssign<f64>
    + SubAssign<f64>
    + MulAssign<f64>
    + DivAssign<f64>
{
    /// Lift a literal into the scalar type (an AD *constant*).
    fn lit(v: f64) -> Self;
    /// The primal value.
    fn value(self) -> f64;
    /// Additive identity as a constant.
    #[inline]
    fn zero() -> Self {
        Self::lit(0.0)
    }
    /// Multiplicative identity as a constant.
    #[inline]
    fn one() -> Self {
        Self::lit(1.0)
    }
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// Absolute value (a.e. derivative for AD types).
    fn abs(self) -> Self;
    /// Maximum of two scalars (executed-branch subgradient).
    fn rmax(self, other: Self) -> Self;
    /// Minimum of two scalars (executed-branch subgradient).
    fn rmin(self, other: Self) -> Self;
}

impl Real for f64 {
    #[inline]
    fn lit(v: f64) -> Self {
        v
    }
    #[inline]
    fn value(self) -> f64 {
        self
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        f64::ln(self)
    }
    #[inline]
    fn sin(self) -> Self {
        f64::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        f64::cos(self)
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        f64::powi(self, n)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn rmax(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
    #[inline]
    fn rmin(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Real for Adj {
    #[inline]
    fn lit(v: f64) -> Self {
        Adj::constant(v)
    }
    #[inline]
    fn value(self) -> f64 {
        Adj::value(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Adj::sqrt(self)
    }
    #[inline]
    fn exp(self) -> Self {
        Adj::exp(self)
    }
    #[inline]
    fn ln(self) -> Self {
        Adj::ln(self)
    }
    #[inline]
    fn sin(self) -> Self {
        Adj::sin(self)
    }
    #[inline]
    fn cos(self) -> Self {
        Adj::cos(self)
    }
    #[inline]
    fn powi(self, n: i32) -> Self {
        Adj::powi(self, n)
    }
    #[inline]
    fn abs(self) -> Self {
        Adj::abs(self)
    }
    #[inline]
    fn rmax(self, other: Self) -> Self {
        Adj::max(self, other)
    }
    #[inline]
    fn rmin(self, other: Self) -> Self {
        Adj::min(self, other)
    }
}
