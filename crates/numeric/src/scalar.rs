//! The [`Scalar`] abstraction the allocation solvers are generic over.

use crate::rational::Rational;
use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number type usable by the AMF solvers.
///
/// Note on comparisons: NaN is rejected at the model boundary
/// ([`Scalar::is_valid`]), so negated partial-order comparisons below are
/// total and intentional.
///
/// Two instances ship with the workspace:
///
/// * `f64` — fast, used by the simulator and large-scale benchmarks. All
///   comparisons against feasibility boundaries go through [`Scalar::eps`].
/// * [`Rational`] — exact, `EPS == 0`, used by the property tests and the
///   brute-force reference solver so that fairness properties can be checked
///   without tolerances.
///
/// Implementors must be totally ordered on the values the workspace actually
/// produces (no NaN): model constructors validate inputs at the boundary.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + PartialOrd
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// True iff arithmetic is exact (no tolerance needed).
    const EXACT: bool;

    /// Comparison tolerance. Exactly zero for exact types.
    fn eps() -> Self;

    /// Conversion from a small unsigned integer (job counts, site counts).
    fn from_usize(n: usize) -> Self;

    /// Conversion from an integer numerator/denominator pair. Exact for
    /// [`Rational`]; best-effort for `f64`.
    fn from_ratio(num: i64, den: i64) -> Self;

    /// Lossy view as `f64` for reporting/metrics.
    fn to_f64(self) -> f64;

    /// `|self - other| <= eps` (relative-ish for `f64`, exact equality for
    /// exact types).
    fn approx_eq(self, other: Self) -> bool {
        let d = if self > other {
            self - other
        } else {
            other - self
        };
        !(d > Self::eps())
    }

    /// `|self - other| <= eps * (1 + max(self, other))`: equality with a
    /// tolerance that grows with the larger side, for sums over many terms
    /// (flow against its target, a set's aggregates against its rank).
    /// Exact types compare exactly.
    fn approx_eq_rel(self, other: Self) -> bool {
        let (hi, lo) = if self > other {
            (self, other)
        } else {
            (other, self)
        };
        !(hi - lo > Self::eps() * (Self::ONE + hi))
    }

    /// `self > other + eps` — strictly greater beyond tolerance.
    fn definitely_gt(self, other: Self) -> bool {
        self > other + Self::eps()
    }

    /// `self < other - eps` — strictly less beyond tolerance.
    fn definitely_lt(self, other: Self) -> bool {
        self + Self::eps() < other
    }

    /// True iff the value is positive beyond tolerance.
    fn is_positive(self) -> bool {
        self > Self::eps()
    }

    /// True iff the value is a well-ordered number (`false` for `f64` NaN).
    /// Model constructors use this to reject NaN at the boundary, which is
    /// what lets every other comparison in the workspace assume a total
    /// order.
    #[allow(clippy::eq_op)]
    fn is_valid(self) -> bool {
        self == self
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EXACT: bool = false;

    #[inline]
    fn eps() -> Self {
        // An absolute tolerance: it suits capacities and demands of about
        // O(1)..O(1e6). No solver normalizes its instance first
        // (`Instance::normalized` exists but nothing calls it), so inputs
        // far outside that range can misjudge feasibility.
        1e-9
    }

    #[inline]
    fn from_usize(n: usize) -> Self {
        n as f64
    }

    #[inline]
    fn from_ratio(num: i64, den: i64) -> Self {
        num as f64 / den as f64
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl Scalar for Rational {
    const ZERO: Self = Rational::ZERO;
    const ONE: Self = Rational::ONE;
    const EXACT: bool = true;

    #[inline]
    fn eps() -> Self {
        Rational::ZERO
    }

    #[inline]
    fn from_usize(n: usize) -> Self {
        Rational::from_int(n as i128)
    }

    #[inline]
    fn from_ratio(num: i64, den: i64) -> Self {
        Rational::new(num as i128, den as i128)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        Rational::to_f64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::eq_op)] // `ONE - ONE` deliberately exercises Sub
    fn generic_smoke<S: Scalar>() {
        let two = S::from_usize(2);
        let half = S::from_ratio(1, 2);
        assert!(two.definitely_gt(S::ONE));
        assert!(half.definitely_lt(S::ONE));
        assert!((two * half).approx_eq(S::ONE));
        assert!((S::ONE - S::ONE).approx_eq(S::ZERO));
        assert!(S::ONE.is_positive());
        assert!(!S::ZERO.is_positive());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn f64_instance() {
        generic_smoke::<f64>();
        assert!(!<f64 as Scalar>::EXACT);
        assert!(1.0f64.approx_eq(1.0 + 1e-12));
        assert!(!1.0f64.approx_eq(1.0 + 1e-6));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn rational_instance() {
        generic_smoke::<Rational>();
        assert!(<Rational as Scalar>::EXACT);
        // Exact type: approx_eq is true equality.
        assert!(!Rational::new(1, 3).approx_eq(Rational::new(1, 3) + Rational::new(1, 1_000_000)));
    }

    #[test]
    fn boundary_predicates_respect_eps() {
        // Differences below eps are not "definite".
        assert!(!(1.0f64 + 1e-12).definitely_gt(1.0));
        assert!((1.0f64 + 1e-6).definitely_gt(1.0));
        assert!(!(1.0f64 - 1e-12).definitely_lt(1.0));
        assert!((1.0f64 - 1e-6).definitely_lt(1.0));
    }

    #[test]
    fn relative_equality_scales_with_the_larger_side() {
        // At 1e6 the tolerance is about 1e-3, in either order; near 0 it is eps.
        assert!(1e6f64.approx_eq_rel(1e6 + 5e-4) && (1e6f64 + 5e-4).approx_eq_rel(1e6));
        assert!(!1e6f64.approx_eq_rel(1e6 + 2e-3) && !1e6f64.approx_eq(1e6 + 5e-4));
        assert!(0.0f64.approx_eq_rel(5e-10) && !0.0f64.approx_eq_rel(2e-9));
        let big = Rational::from_int(1_000_000);
        assert!(!big.approx_eq_rel(big + Rational::new(1, 1_000_000)));
    }
}
