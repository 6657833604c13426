//! Numeric foundations for the AMF workspace.
//!
//! The fairness properties proven in the paper (Pareto efficiency,
//! envy-freeness, strategy-proofness, sharing incentive) are *exact*
//! statements: an allocation either satisfies them or it does not. A solver
//! working in `f64` can only verify them up to a tolerance, which makes
//! property-based testing brittle. This crate therefore provides:
//!
//! * [`Rational`] — an exact rational number over `i128` with total order,
//!   used by the exact instantiation of the solvers and by property tests;
//! * [`Scalar`] — the trait the solvers are generic over, with instances
//!   for `f64` (fast, tolerance-based, used in large simulations) and
//!   [`Rational`] (exact);
//! * [`KahanSum`] — compensated summation for `f64`, used by the fairness
//!   metrics and the SRPT-per-site baseline; the solver and its
//!   feasibility checks sum plainly, in a fixed order, through [`sum`].
//!
//! Nothing in this crate is specific to fair allocation; it is a substrate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod kahan;
mod rational;
mod scalar;

pub use kahan::KahanSum;
pub use rational::{ParseRationalError, Rational};
pub use scalar::Scalar;

/// Convenience: sum an iterator of scalars with a plain left-to-right loop
/// (no compensation, for `f64` too), so the result depends only on the
/// order of the items. Use [`KahanSum`] where `f64` drift matters.
pub fn sum<S: Scalar>(iter: impl IntoIterator<Item = S>) -> S {
    let mut acc = S::ZERO;
    for v in iter {
        acc += v;
    }
    acc
}

/// Minimum of two partially ordered scalars, preferring the first on ties.
///
/// `f64` does not implement `Ord`, so `std::cmp::min` is unavailable; this
/// helper is safe for all scalar instances because the workspace never
/// produces NaN (inputs are validated at the model boundary).
pub fn min2<S: Scalar>(a: S, b: S) -> S {
    if b < a {
        b
    } else {
        a
    }
}

/// Maximum of two partially ordered scalars, preferring the first on ties.
pub fn max2<S: Scalar>(a: S, b: S) -> S {
    if b > a {
        b
    } else {
        a
    }
}

/// Clamp `v` into `[lo, hi]`. Requires `lo <= hi`.
#[allow(clippy::manual_clamp, clippy::neg_cmp_op_on_partial_ord)] // generic S has no inherent clamp; NaN rejected at boundary
pub fn clamp2<S: Scalar>(v: S, lo: S, hi: S) -> S {
    debug_assert!(!(hi < lo), "clamp2: lo must not exceed hi");
    max2(lo, min2(v, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_clamp_on_f64() {
        assert_eq!(min2(1.0, 2.0), 1.0);
        assert_eq!(max2(1.0, 2.0), 2.0);
        assert_eq!(clamp2(3.0, 0.0, 2.0), 2.0);
        assert_eq!(clamp2(-1.0, 0.0, 2.0), 0.0);
        assert_eq!(clamp2(1.0, 0.0, 2.0), 1.0);
    }

    #[test]
    fn sum_matches_naive_for_small_inputs() {
        let xs = [0.1f64, 0.2, 0.3, 0.4];
        let total: f64 = sum(xs.iter().copied());
        assert!((total - 1.0).abs() < 1e-12);
    }
}
