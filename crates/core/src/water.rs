//! Single-resource capped (weighted) water-filling.
//!
//! This is conventional max-min fairness on one resource pool: the
//! primitive that the per-site baseline runs independently at every site,
//! and that the locality-oblivious pooled bound runs on the summed
//! capacity. It is also AMF specialised to one site, which the tests
//! exploit as a cross-check on the flow-based solver.

use crate::levels::{invert_total_with, LevelCap};
use amf_numeric::{min2, sum, Scalar};

/// Max-min fair division of `capacity` among jobs with demand caps `caps`
/// and positive `weights` (fairness on `x_j / w_j`). Returns the per-job
/// allocation; total is `min(capacity, Σ caps)`.
///
/// ```
/// use amf_core::water_fill_weighted;
/// // 12 units between weights 1 and 2: shares 4 and 8.
/// let x = water_fill_weighted(12.0, &[10.0, 10.0], &[1.0, 2.0]);
/// assert_eq!(x, vec![4.0, 8.0]);
/// ```
///
/// # Panics
/// Panics if lengths differ or a weight is non-positive.
pub fn water_fill_weighted<S: Scalar>(capacity: S, caps: &[S], weights: &[S]) -> Vec<S> {
    let mut out = vec![S::ZERO; caps.len()];
    water_fill_weighted_into(capacity, caps, weights, &mut out, &mut Vec::new());
    out
}

/// [`water_fill_weighted`] writing into `out` (one entry per cap) and
/// sweeping the level inversion in the caller's `events` buffer (see
/// [`invert_total_with`]), so callers filling many small pools allocate
/// nothing per fill. The result is bit-identical to
/// [`water_fill_weighted`].
///
/// # Panics
/// Panics if `caps`, `weights` and `out` differ in length or a weight is
/// non-positive.
pub fn water_fill_weighted_into<S: Scalar>(
    capacity: S,
    caps: &[S],
    weights: &[S],
    out: &mut [S],
    events: &mut Vec<(S, S)>,
) {
    assert_eq!(caps.len(), weights.len(), "water_fill: length mismatch");
    assert_eq!(caps.len(), out.len(), "water_fill: output length mismatch");
    if caps.is_empty() {
        return;
    }
    for &w in weights {
        assert!(w.is_positive(), "water_fill: non-positive weight");
    }
    let total_demand = sum(caps.iter().copied());
    if !total_demand.definitely_gt(capacity) {
        // No contention: everyone gets their full demand.
        out.copy_from_slice(caps);
        return;
    }
    let level = |c: S, w: S| LevelCap::new(w, S::ZERO, c);
    let t = invert_total_with(
        caps.iter().zip(weights).map(|(&c, &w)| level(c, w)),
        capacity,
        events,
    );
    for ((x, &c), &w) in out.iter_mut().zip(caps).zip(weights) {
        *x = min2(level(c, w).at(t), c);
    }
}

/// Unweighted capped water-filling.
///
/// ```
/// use amf_core::water_fill;
/// // Demands 1, 10, 10 on 7 units: the small job is satisfied, the rest
/// // split the remainder.
/// let x = water_fill(7.0, &[1.0, 10.0, 10.0]);
/// assert_eq!(x, vec![1.0, 3.0, 3.0]);
/// ```
pub fn water_fill<S: Scalar>(capacity: S, caps: &[S]) -> Vec<S> {
    let weights = vec![S::ONE; caps.len()];
    water_fill_weighted(capacity, caps, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_numeric::Rational;
    use proptest::prelude::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn no_contention_gives_demands() {
        assert_eq!(water_fill(10.0, &[2.0, 3.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn equal_split_under_contention() {
        assert_eq!(water_fill(6.0, &[10.0, 10.0, 10.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn small_demand_saturates_first() {
        // Demands 1, 10, 10 with capacity 7: job 0 gets 1, others 3 each.
        let x = water_fill(7.0, &[1.0, 10.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_split() {
        // Weights 1 and 3 with capacity 4, big demands: shares 1 and 3.
        let x = water_fill_weighted(4.0, &[10.0, 10.0], &[1.0, 3.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_rational_thirds() {
        let x = water_fill(r(7, 1), &[r(7, 1), r(7, 1), r(7, 1)]);
        assert_eq!(x, vec![r(7, 3), r(7, 3), r(7, 3)]);
    }

    #[test]
    fn empty_and_zero_inputs() {
        assert_eq!(water_fill::<f64>(5.0, &[]), Vec::<f64>::new());
        assert_eq!(water_fill(0.0, &[3.0, 4.0]), vec![0.0, 0.0]);
        assert_eq!(water_fill(5.0, &[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn in_place_fill_reuses_buffers_bit_exactly() {
        let caps = [3.0, 0.5, 7.25, 2.0];
        let weights = [1.0, 2.0, 0.3, 1e-6];
        let mut out = [9.0; 4];
        let mut events = vec![(1.0, 1.0); 3];
        for capacity in [0.0, 1.0, 4.4, 12.75, 20.0] {
            let fresh = water_fill_weighted(capacity, &caps, &weights);
            water_fill_weighted_into(capacity, &caps, &weights, &mut out, &mut events);
            for (a, b) in fresh.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    proptest! {
        /// Classic max-min characterization: the result is feasible, work-
        /// conserving, respects caps, and any job below its cap sits at the
        /// (common) maximum level.
        #[test]
        fn water_fill_is_max_min_fair(
            capacity in 0.0f64..50.0,
            caps in proptest::collection::vec(0.0f64..20.0, 1..10),
        ) {
            let x = water_fill(capacity, &caps);
            let total: f64 = x.iter().sum();
            let demand: f64 = caps.iter().sum();
            // Feasible and work-conserving.
            prop_assert!(total <= capacity + 1e-9);
            prop_assert!((total - demand.min(capacity)).abs() < 1e-9);
            for (xi, ci) in x.iter().zip(&caps) {
                prop_assert!(*xi <= ci + 1e-12);
                prop_assert!(*xi >= -1e-12);
            }
            // Uncapped jobs share one level, and it is the max allocation.
            let level = x
                .iter()
                .zip(&caps)
                .filter(|(xi, ci)| **xi < **ci - 1e-9)
                .map(|(xi, _)| *xi)
                .fold(f64::NEG_INFINITY, f64::max);
            if level.is_finite() {
                for (xi, ci) in x.iter().zip(&caps) {
                    if *xi < *ci - 1e-9 {
                        prop_assert!((xi - level).abs() < 1e-9);
                    }
                }
            }
        }
    }
}
