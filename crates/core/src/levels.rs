//! Water-level cap functions and their inversion.
//!
//! Progressive filling raises a common water level `t`; job `j`'s aggregate
//! target at level `t` is
//!
//! ```text
//! u_j(t) = clamp(w_j * t, floor_j, ceil_j)
//! ```
//!
//! One parametric family covers every solver in this crate:
//!
//! * plain AMF: `floor = 0`, `ceil = D_j`, `w = 1`;
//! * weighted AMF: `w =` the job's weight;
//! * Enhanced AMF (sharing incentive): `floor = e_j`, the equal share.
//!
//! The Dinkelbach step of the solver needs the inverse: given a violated
//! job set with residual budget `B`, find the largest level `t` with
//! `Σ_j u_j(t) <= B`. [`invert_total`] computes it exactly by sweeping the
//! breakpoints of the piecewise-linear total.

use amf_numeric::{clamp2, Scalar};

/// Per-job parameters of the water-level cap function `u(t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelCap<S> {
    /// Fill rate (job weight); must be positive.
    pub weight: S,
    /// Lower clamp (0 for plain AMF, the equal share for Enhanced AMF).
    pub floor: S,
    /// Upper clamp (the job's total demand `D_j`).
    pub ceil: S,
}

impl<S: Scalar> LevelCap<S> {
    /// Plain AMF cap: unit weight, zero floor.
    pub fn plain(ceil: S) -> Self {
        LevelCap {
            weight: S::ONE,
            floor: S::ZERO,
            ceil,
        }
    }

    /// Cap with a sharing-incentive floor.
    ///
    /// # Panics
    /// Panics (debug) if `floor > ceil` — the equal share never exceeds the
    /// total demand, so this indicates a caller bug.
    pub fn with_floor(floor: S, ceil: S) -> Self {
        debug_assert!(!(ceil < floor), "LevelCap: floor above ceil");
        LevelCap {
            weight: S::ONE,
            floor,
            ceil,
        }
    }

    /// Fully parametric cap.
    pub fn new(weight: S, floor: S, ceil: S) -> Self {
        debug_assert!(weight.is_positive(), "LevelCap: non-positive weight");
        debug_assert!(!(ceil < floor), "LevelCap: floor above ceil");
        LevelCap {
            weight,
            floor,
            ceil,
        }
    }

    /// Evaluate `u(t)`.
    pub fn at(&self, t: S) -> S {
        clamp2(self.weight * t, self.floor, self.ceil)
    }

    /// Level below which `u(t)` is clamped at the floor.
    pub fn low_breakpoint(&self) -> S {
        self.floor / self.weight
    }

    /// Level above which `u(t)` is clamped at the ceiling.
    pub fn high_breakpoint(&self) -> S {
        self.ceil / self.weight
    }
}

/// Largest level `t` such that `Σ_j caps[j].at(t) <= budget`.
///
/// Precondition: every floor is non-negative (as for every [`LevelCap`]
/// this crate builds), `Σ_j floor_j <= budget` (the floors fit the budget)
/// and `budget < Σ_j ceil_j` (a crossing exists). The second holds throughout
/// the AMF solver because a previously feasible level dominates the floors;
/// the third holds because the caller only inverts *violated* sets.
///
/// Allocates its breakpoint list; loops that invert repeatedly hold one
/// and call [`invert_total_with`].
///
/// # Panics
/// Panics if no crossing exists (caller bug).
pub fn invert_total<S: Scalar>(caps: &[LevelCap<S>], budget: S) -> S {
    invert_total_with(
        caps.iter().copied(),
        budget,
        &mut Vec::with_capacity(2 * caps.len()),
    )
}

/// [`invert_total`] over any sequence of caps, sweeping its breakpoints in
/// the caller's `events` buffer (cleared first), so a repeated inversion
/// allocates nothing once the buffer has grown. Every inversion in the
/// workspace runs through this routine; the result does not depend on the
/// buffer's prior contents.
///
/// # Panics
/// Panics if `caps` is empty or no crossing exists (caller bug).
pub fn invert_total_with<S: Scalar>(
    caps: impl IntoIterator<Item = LevelCap<S>>,
    budget: S,
    events: &mut Vec<(S, S)>,
) -> S {
    // Sweep events: at `low_breakpoint` a job's slope turns on (+w); at
    // `high_breakpoint` it turns off (-w). Floors are non-negative, so no
    // breakpoint lies below the starting level 0. Those at exactly 0 come
    // first in the stably sorted order, in insertion order, and only add
    // to the slope, so they are added here in that order and only the
    // positive ones are sorted: the same additions in the same order as
    // sorting them all.
    events.clear();
    let mut g = S::ZERO; // Σ u_j(0) = Σ floor_j (w*0 <= floor for floor >= 0).
    let mut slope = S::ZERO;
    let mut any = false;
    for c in caps {
        any = true;
        g += c.floor;
        for (bp, dw) in [
            (c.low_breakpoint(), c.weight),
            (c.high_breakpoint(), -c.weight),
        ] {
            if bp > S::ZERO {
                events.push((bp, dw));
            } else {
                assert!(bp.is_valid(), "NaN breakpoint");
                debug_assert!(!(bp < S::ZERO), "invert_total: negative breakpoint");
                slope += dw;
            }
        }
    }
    assert!(any, "invert_total: empty cap set");
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN breakpoint"));

    debug_assert!(
        !g.definitely_gt(budget),
        "invert_total: floors already exceed the budget"
    );

    let mut t = S::ZERO;
    for &(bp, dw) in events.iter() {
        if bp > t {
            // Advance the level across the segment [t, bp).
            let seg = bp - t;
            let next_g = g + slope * seg;
            if next_g.definitely_gt(budget) {
                // Crossing inside this segment; slope must be positive.
                debug_assert!(slope.is_positive());
                return t + (budget - g) / slope;
            }
            g = next_g;
            t = bp;
        }
        slope += dw;
    }
    // Past the last breakpoint the total is flat at Σ ceil_j.
    if g.definitely_gt(budget) {
        // Numerically possible only when budget ≈ Σ ceil; return last bp.
        return t;
    }
    assert!(
        g.approx_eq(budget),
        "invert_total: no crossing (budget {budget} above total ceiling {g})"
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_numeric::Rational;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn cap_evaluation() {
        let c = LevelCap::new(2.0, 1.0, 5.0);
        assert_eq!(c.at(0.0), 1.0); // clamped at floor
        assert_eq!(c.at(1.0), 2.0); // linear region
        assert_eq!(c.at(10.0), 5.0); // clamped at ceil
        assert_eq!(c.low_breakpoint(), 0.5);
        assert_eq!(c.high_breakpoint(), 2.5);
    }

    #[test]
    fn plain_and_floored_constructors() {
        let p = LevelCap::plain(4.0);
        assert_eq!(p.at(2.0), 2.0);
        assert_eq!(p.at(9.0), 4.0);
        let f = LevelCap::with_floor(1.0, 4.0);
        assert_eq!(f.at(0.0), 1.0);
    }

    #[test]
    fn invert_simple_equal_jobs() {
        // Three unit-weight jobs, ceilings 10; budget 6 → t = 2.
        let caps = vec![LevelCap::plain(10.0); 3];
        let t = invert_total(&caps, 6.0);
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn invert_with_ceiling_saturation() {
        // Jobs with ceilings 1 and 10; budget 5: first job saturates at
        // t=1, then only the second grows: 1 + t = 5 → t = 4.
        let caps = vec![LevelCap::plain(1.0), LevelCap::plain(10.0)];
        let t = invert_total(&caps, 5.0);
        assert!((t - 4.0).abs() < 1e-12);
    }

    #[test]
    fn invert_with_floors() {
        // Floors 2 and 0, ceilings 10. g(t) = max(t,2) + t.
        // budget 6: for t in [0,2]: g = 2 + t → g(2) = 4; then slope 2:
        // 4 + 2(t-2) = 6 → t = 3.
        let caps = vec![LevelCap::with_floor(2.0, 10.0), LevelCap::plain(10.0)];
        let t = invert_total(&caps, 6.0);
        assert!((t - 3.0).abs() < 1e-12);
    }

    #[test]
    fn invert_with_weights_exact() {
        // Weights 1 and 2, ceilings 10. g(t) = 3t; budget 2 → t = 2/3.
        let caps = vec![
            LevelCap::new(r(1, 1), r(0, 1), r(10, 1)),
            LevelCap::new(r(2, 1), r(0, 1), r(10, 1)),
        ];
        assert_eq!(invert_total(&caps, r(2, 1)), r(2, 3));
    }

    #[test]
    fn invert_budget_equal_to_total_ceiling() {
        let caps = vec![LevelCap::plain(3.0), LevelCap::plain(4.0)];
        // Crossing exactly at the last breakpoint: t = 4.
        let t = invert_total(&caps, 7.0);
        assert!((t - 4.0).abs() < 1e-12);
    }

    #[test]
    fn invert_round_trips_through_at() {
        let caps = vec![
            LevelCap::new(1.0, 0.5, 4.0),
            LevelCap::new(3.0, 0.0, 2.0),
            LevelCap::new(0.5, 1.0, 9.0),
        ];
        for budget in [2.0, 3.5, 5.0, 8.0, 12.0] {
            let t = invert_total(&caps, budget);
            let total: f64 = caps.iter().map(|c| c.at(t)).sum();
            assert!(
                (total - budget).abs() < 1e-9,
                "budget {budget}: level {t} gives total {total}"
            );
        }
    }

    #[test]
    fn invert_with_reused_buffer_matches_fresh() {
        // A dirty, oversized buffer must not leak into the result.
        let caps = vec![
            LevelCap::new(1.0, 0.5, 4.0),
            LevelCap::new(3.0, 0.0, 2.0),
            LevelCap::new(0.5, 1.0, 9.0),
        ];
        let mut events = vec![(-7.0, 3.0); 17];
        for budget in [2.0, 3.5, 5.0, 8.0, 12.0] {
            let fresh = invert_total(&caps, budget);
            let reused = invert_total_with(caps.iter().copied(), budget, &mut events);
            assert_eq!(fresh.to_bits(), reused.to_bits());
        }
    }

    /// The inversion as it sorted every breakpoint, zero ones included.
    fn invert_sorting_all(caps: &[LevelCap<f64>], budget: f64) -> f64 {
        let mut events: Vec<(f64, f64)> = Vec::new();
        let mut g = 0.0;
        for c in caps {
            g += c.floor;
            events.push((c.low_breakpoint(), c.weight));
            events.push((c.high_breakpoint(), -c.weight));
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN breakpoint"));
        let mut t = 0.0;
        let mut slope = 0.0;
        for &(bp, dw) in &events {
            if bp > t {
                let next_g = g + slope * (bp - t);
                if next_g.definitely_gt(budget) {
                    return t + (budget - g) / slope;
                }
                g = next_g;
                t = bp;
            }
            slope += dw;
        }
        t
    }

    proptest::proptest! {
        /// Adding the zero breakpoints' slopes up front gives the bits of
        /// sorting them with the rest: zero floors, zero ceilings and
        /// shared breakpoints included.
        fn zero_breakpoints_keep_the_sorted_sum_order(
            specs in proptest::collection::vec((0u8..4, 0.0f64..5.0, 0.0f64..5.0, 0.1f64..3.0), 1..24),
            frac in 0.0f64..1.0,
        ) {
            let caps: Vec<LevelCap<f64>> = specs
                .iter()
                .map(|&(kind, a, b, w)| match kind {
                    0 => LevelCap::new(w, 0.0, 0.0),
                    1 => LevelCap::new(w, 0.0, a.round()),
                    2 => LevelCap::new(w, a.min(b), a.max(b)),
                    _ => LevelCap::new(1.0, 0.0, a),
                })
                .collect();
            let floors: f64 = caps.iter().map(|c| c.floor).sum();
            let ceils: f64 = caps.iter().map(|c| c.ceil).sum();
            let budget = floors + frac * (ceils - floors);
            if ceils - floors > 1e-6 {
                let want = invert_sorting_all(&caps, budget);
                let got = invert_total_with(caps.iter().copied(), budget, &mut Vec::new());
                proptest::prop_assert_eq!(want.to_bits(), got.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty cap set")]
    fn invert_empty_set_panics() {
        invert_total_with(std::iter::empty::<LevelCap<f64>>(), 1.0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "no crossing")]
    fn invert_above_total_ceiling_panics() {
        let caps = vec![LevelCap::plain(1.0)];
        invert_total(&caps, 100.0);
    }
}
