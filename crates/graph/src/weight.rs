//! Edge-weight and distance arithmetic.
//!
//! Road-network weights are travel times: non-negative reals. The paper additionally
//! requires the *initial* weight of every edge to be interpreted as an integral number
//! of *virtual fragments* (Section 3.4), so [`Weight`] keeps track of both the current
//! floating-point value and utilities for comparing distances robustly.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Tolerance used when comparing two path distances for equality.
///
/// Distances are sums of `f64` edge weights that may be accumulated in different orders
/// by different algorithms; a relative tolerance of 1e-9 keeps comparisons exact for
/// road-network scale values while absorbing floating-point reassociation noise.
pub const DISTANCE_EPSILON: f64 = 1e-9;

/// A non-negative edge weight or path distance with a *total* order.
///
/// `Weight` wraps an `f64` and orders it with [`f64::total_cmp`], which makes it usable
/// as a key in binary heaps and ordered maps. Construction via [`Weight::new`] rejects
/// NaN and negative values, which are never meaningful as travel times.
#[derive(Clone, Copy, PartialEq)]
pub struct Weight(f64);

impl Weight {
    /// The zero distance.
    pub const ZERO: Weight = Weight(0.0);
    /// Positive infinity, used as the "unreached" sentinel in shortest-path searches.
    pub const INFINITY: Weight = Weight(f64::INFINITY);

    /// Creates a weight from a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN or negative: such weights would silently corrupt every
    /// downstream shortest-path computation, so failing early is the safer contract.
    #[inline]
    pub fn new(value: f64) -> Self {
        assert!(
            value >= 0.0 && !value.is_nan(),
            "edge weights must be non-negative and finite-or-infinite, got {value}"
        );
        Weight(value)
    }

    /// Creates a weight without validating the value.
    ///
    /// Used internally on arithmetic results that are non-negative by construction.
    #[inline]
    pub(crate) fn new_unchecked(value: f64) -> Self {
        Weight(value)
    }

    /// Returns the raw floating-point value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns `true` if this weight is finite (i.e. represents a reachable distance).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the smaller of two weights.
    #[inline]
    pub fn min(self, other: Weight) -> Weight {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two weights.
    #[inline]
    pub fn max(self, other: Weight) -> Weight {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Compares two distances for equality up to [`DISTANCE_EPSILON`] (relative).
    ///
    /// This is the comparison used by tests that check that two different algorithms
    /// produced the same set of path distances.
    #[inline]
    pub fn approx_eq(self, other: Weight) -> bool {
        let (a, b) = (self.0, other.0);
        if a == b {
            return true;
        }
        if !a.is_finite() || !b.is_finite() {
            return false;
        }
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() <= DISTANCE_EPSILON * scale
    }

    /// Returns `true` if `self` is smaller than `other` by more than the tolerance.
    #[inline]
    pub fn definitely_less_than(self, other: Weight) -> bool {
        self < other && !self.approx_eq(other)
    }
}

impl Eq for Weight {}

impl PartialOrd for Weight {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for Weight {
    type Output = Weight;
    #[inline]
    fn add(self, rhs: Weight) -> Weight {
        Weight::new_unchecked(self.0 + rhs.0)
    }
}

impl AddAssign for Weight {
    #[inline]
    fn add_assign(&mut self, rhs: Weight) {
        self.0 += rhs.0;
    }
}

impl Sub for Weight {
    type Output = Weight;
    #[inline]
    fn sub(self, rhs: Weight) -> Weight {
        Weight::new_unchecked((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Weight {
    type Output = Weight;
    #[inline]
    fn mul(self, rhs: f64) -> Weight {
        Weight::new_unchecked(self.0 * rhs)
    }
}

impl Div<f64> for Weight {
    type Output = Weight;
    #[inline]
    fn div(self, rhs: f64) -> Weight {
        Weight::new_unchecked(self.0 / rhs)
    }
}

impl Sum for Weight {
    fn sum<I: Iterator<Item = Weight>>(iter: I) -> Weight {
        iter.fold(Weight::ZERO, |acc, w| acc + w)
    }
}

impl From<f64> for Weight {
    fn from(value: f64) -> Self {
        Weight::new(value)
    }
}

impl From<u32> for Weight {
    fn from(value: u32) -> Self {
        Weight(value as f64)
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl Default for Weight {
    fn default() -> Self {
        Weight::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rejects_negative() {
        let result = std::panic::catch_unwind(|| Weight::new(-1.0));
        assert!(result.is_err());
    }

    #[test]
    fn construction_rejects_nan() {
        let result = std::panic::catch_unwind(|| Weight::new(f64::NAN));
        assert!(result.is_err());
    }

    #[test]
    fn ordering_is_total_and_infinity_is_max() {
        let mut ws = [Weight::INFINITY, Weight::new(3.0), Weight::ZERO, Weight::new(1.5)];
        ws.sort();
        assert_eq!(ws[0], Weight::ZERO);
        assert_eq!(ws[1], Weight::new(1.5));
        assert_eq!(ws[2], Weight::new(3.0));
        assert_eq!(ws[3], Weight::INFINITY);
    }

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Weight::new(2.5);
        let b = Weight::new(1.5);
        assert_eq!((a + b).value(), 4.0);
        assert_eq!((a - b).value(), 1.0);
        assert_eq!((a * 2.0).value(), 5.0);
        assert_eq!((a / 2.0).value(), 1.25);
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let a = Weight::new(1.0);
        let b = Weight::new(3.0);
        assert_eq!((a - b), Weight::ZERO);
    }

    #[test]
    fn sum_of_weights() {
        let total: Weight = [1.0, 2.0, 3.5].iter().map(|&w| Weight::new(w)).sum();
        assert_eq!(total.value(), 6.5);
    }

    #[test]
    fn approx_eq_absorbs_reassociation_noise() {
        let a = Weight::new(0.1 + 0.2);
        let b = Weight::new(0.3);
        assert!(a.approx_eq(b));
        assert!(!Weight::new(0.3).approx_eq(Weight::new(0.31)));
    }

    #[test]
    fn approx_eq_handles_infinity() {
        assert!(Weight::INFINITY.approx_eq(Weight::INFINITY));
        assert!(!Weight::INFINITY.approx_eq(Weight::new(1e300)));
    }

    #[test]
    fn definitely_less_than_requires_margin() {
        assert!(Weight::new(1.0).definitely_less_than(Weight::new(2.0)));
        assert!(!Weight::new(1.0).definitely_less_than(Weight::new(1.0 + 1e-12)));
    }

    #[test]
    fn min_max_helpers() {
        let a = Weight::new(1.0);
        let b = Weight::new(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
