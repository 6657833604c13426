//! Property test for the shrinking-network solver: the contracted solve
//! and the batch API are checked against oracles that share no code with
//! the solver, on random skewed instances.
//!
//! * [`reference_aggregates`] (brute-force subset enumeration): equal bit
//!   for bit on [`Rational`], within 1e-6 on `f64`;
//! * the independent `amf-audit` certificate, for every output;
//! * freeze-round consistency: levels never decrease, every job with
//!   demand is frozen exactly once, a `DemandCapped` job holds its total
//!   demand `D_j`, and a `Bottlenecked` job holds its level target
//!   `u_j(level) = clamp(w_j · level, floor_j, D_j)`, strictly below `D_j`
//!   — exactly on `Rational`.
//!
//! Multi-round instances get their own property, since every round after
//! the first starts its descent at the cut cache's level.

use amf_audit::audit;
use amf_core::{
    reference_aggregates, AmfSolver, FairnessMode, FreezeReason, Instance, SolveOutput,
};
use amf_numeric::{max2, min2, Rational, Scalar};
use proptest::prelude::*;

/// Random skewed shapes: a few jobs are "elephants" whose demands are an
/// order of magnitude above the rest, and some job/site cells are zeroed
/// (data locality), which is what makes contraction interesting.
fn skewed_shape() -> impl Strategy<Value = (Vec<i64>, Vec<Vec<i64>>, bool)> {
    (1usize..=6, 1usize..=4, 0u8..2).prop_flat_map(|(n, m, enhanced)| {
        (
            proptest::collection::vec(1i64..24, m),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0i64..8, m),
                    // Elephant multiplier: ~1 in 5 jobs demands 8× the rest.
                    0u8..5,
                ),
                n,
            )
            .prop_map(|rows| {
                rows.into_iter()
                    .map(|(row, pick)| {
                        let scale = if pick == 0 { 8 } else { 1 };
                        row.into_iter().map(|d| d * scale).collect()
                    })
                    .collect()
            }),
            Just(enhanced == 1),
        )
    })
}

fn instance<S: Scalar>(caps: &[i64], demands: &[Vec<i64>]) -> Instance<S> {
    Instance::new(
        caps.iter().map(|&c| S::from_ratio(c, 1)).collect(),
        demands
            .iter()
            .map(|row| row.iter().map(|&d| S::from_ratio(d, 1)).collect())
            .collect(),
    )
    .expect("positive capacities")
}

fn solver(enhanced: bool) -> AmfSolver {
    if enhanced {
        AmfSolver::enhanced()
    } else {
        AmfSolver::new()
    }
}

fn mode(enhanced: bool) -> FairnessMode {
    if enhanced {
        FairnessMode::Enhanced
    } else {
        FairnessMode::Plain
    }
}

/// The two ways to run the solver: a standalone solve, and the batch API
/// (which runs it through a pooled worker).
fn both_ways<S: Scalar>(inst: &Instance<S>, enhanced: bool) -> [(&'static str, SolveOutput<S>); 2] {
    let s = solver(enhanced);
    let batch = s
        .solve_batch_with(std::slice::from_ref(inst), 2)
        .pop()
        .expect("one instance in, one out");
    [("solve", s.solve(inst)), ("batch", batch)]
}

/// Job `j`'s level target `u_j(t) = clamp(w_j t, floor_j, D_j)`, where the
/// floor is zero in plain mode and the equal share (capped at `D_j`) in
/// enhanced mode.
fn level_target<S: Scalar>(inst: &Instance<S>, j: usize, enhanced: bool, t: S) -> S {
    let ceil = inst.total_demand(j);
    let floor = if enhanced {
        min2(inst.equal_share(j), ceil)
    } else {
        S::ZERO
    };
    min2(max2(inst.weight(j) * t, floor), ceil)
}

/// The freeze-round consistency property, with `close` as the equality
/// (exact on `Rational`, a tolerance on `f64`).
fn check_rounds<S: Scalar>(
    name: &str,
    inst: &Instance<S>,
    out: &SolveOutput<S>,
    enhanced: bool,
    close: impl Fn(S, S) -> bool,
) {
    for w in out.rounds.windows(2) {
        prop_assert!(
            w[0].level <= w[1].level || close(w[0].level, w[1].level),
            "{} levels decrease: {} then {}",
            name,
            w[0].level,
            w[1].level
        );
    }
    let mut frozen = vec![0usize; inst.n_jobs()];
    for round in &out.rounds {
        for &(j, reason) in &round.frozen {
            frozen[j] += 1;
            let got = out.allocation.aggregate(j);
            let demand = inst.total_demand(j);
            let want = match reason {
                FreezeReason::DemandCapped => demand,
                FreezeReason::Bottlenecked => level_target(inst, j, enhanced, round.level),
            };
            if S::EXACT && reason == FreezeReason::Bottlenecked {
                // The solver tests the demand cap first, so a bottlenecked
                // job sits strictly below its demand.
                prop_assert!(
                    got < demand,
                    "{} job {} bottlenecked at its demand",
                    name,
                    j
                );
            }
            prop_assert!(
                close(got, want),
                "{} job {} frozen {:?} at level {} holds {}, expected {}",
                name,
                j,
                reason,
                round.level,
                got,
                want
            );
        }
    }
    for (j, &times) in frozen.iter().enumerate() {
        // Jobs without demand start frozen at zero and join no round.
        let expected = usize::from(inst.total_demand(j).is_positive());
        prop_assert_eq!(times, expected, "{} job {} frozen {} times", name, j, times);
    }
}

/// A hand-solved instance. Job 0 is capped at its demand of 1; jobs 1
/// and 2 then split the remaining 3 + 4 units evenly at level 7/2 (job 2
/// only reaches site 1, job 1 fills site 0 and takes 1/2 of site 1); job 3
/// wants nothing. Both ways of running the solver land there exactly, earn
/// the certificate and explain themselves consistently.
#[test]
fn hand_solved_instance_freezes_as_expected() {
    let inst: Instance<Rational> =
        instance(&[4, 4], &[vec![1, 0], vec![4, 4], vec![0, 4], vec![0, 0]]);
    let want = [
        Rational::from_int(1),
        Rational::new(7, 2),
        Rational::new(7, 2),
        Rational::ZERO,
    ];
    assert_eq!(reference_aggregates(&inst, FairnessMode::Plain), want);
    for (name, out) in &both_ways(&inst, false) {
        assert_eq!(out.allocation.aggregates(), &want[..], "{name}");
        assert!(audit(&inst, &out.allocation, FairnessMode::Plain).is_certified_amf());
        check_rounds(name, &inst, out, false, |a, b| a == b);
        let last = out.rounds.last().expect("at least one round");
        assert_eq!(last.level, Rational::new(7, 2), "{name}");
    }
}

/// Shapes that usually take several freeze rounds: every job reaches only
/// a random subset of sites whose capacities differ widely, so bottlenecks
/// tighten one after another and the cut cache has cuts to carry from
/// round to round.
fn multi_round_shape() -> impl Strategy<Value = (Vec<i64>, Vec<Vec<i64>>)> {
    (3usize..=8, 2usize..=5).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(1i64..30, m),
            proptest::collection::vec(
                (
                    proptest::collection::vec(1i64..12, m),
                    1u32..(1 << m),
                    0u8..4,
                ),
                n,
            )
            .prop_map(|rows| {
                rows.into_iter()
                    .map(|(row, sites, pick)| {
                        let scale = if pick == 0 { 6 } else { 1 };
                        row.into_iter()
                            .enumerate()
                            .map(|(s, d)| if sites >> s & 1 == 1 { d * scale } else { 0 })
                            .collect()
                    })
                    .collect()
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Multi-round exact solves, where later rounds start at a cached cut's
    /// level: both paths equal the reference bit for bit, earn the
    /// certificate and explain themselves consistently, in both modes. An
    /// exact solve never needs the guarded restart or the safety net.
    #[test]
    fn multi_round_cached_starts_match_the_reference_exactly(
        (caps, demands) in multi_round_shape(),
        enhanced in 0u8..2,
    ) {
        let enhanced = enhanced == 1;
        let inst: Instance<Rational> = instance(&caps, &demands);
        let want = reference_aggregates(&inst, mode(enhanced));
        let outs = both_ways(&inst, enhanced);
        prop_assume!(outs[0].1.rounds.len() >= 2);
        for (name, out) in &outs {
            prop_assert_eq!(
                out.allocation.aggregates(),
                &want[..],
                "{} disagrees with the reference", name
            );
            let report = audit(&inst, &out.allocation, mode(enhanced));
            prop_assert!(
                report.is_certified_amf(),
                "{} output failed audit: {}", name, report.summary()
            );
            check_rounds(name, &inst, out, enhanced, |a, b| a == b);
            prop_assert_eq!(out.stats.cut_start_retries, 0);
            prop_assert_eq!(out.stats.fallback_freezes, 0);
        }
    }

    /// A batch of instances through `solve_batch_with`, on one to four
    /// workers, comes back in input order with every output equal to its
    /// own instance's reference and certified.
    #[test]
    fn batch_matches_the_reference_in_input_order(
        shapes in proptest::collection::vec(skewed_shape(), 1..6),
        threads in 1usize..5,
        enhanced in 0u8..2,
    ) {
        let enhanced = enhanced == 1;
        let insts: Vec<Instance<Rational>> = shapes
            .iter()
            .map(|(caps, demands, _)| instance(caps, demands))
            .collect();
        let outs = solver(enhanced).solve_batch_with(&insts, threads);
        prop_assert_eq!(outs.len(), insts.len());
        for (k, (inst, out)) in insts.iter().zip(&outs).enumerate() {
            let want = reference_aggregates(inst, mode(enhanced));
            prop_assert_eq!(
                out.allocation.aggregates(),
                &want[..],
                "batch output {} disagrees with its reference", k
            );
            let report = audit(inst, &out.allocation, mode(enhanced));
            prop_assert!(report.is_certified_amf(), "batch output {} failed audit", k);
            check_rounds("batch", inst, out, enhanced, |a, b| a == b);
        }
    }

    /// Exact rationals: both paths equal the reference bit for bit, earn
    /// the audit certificate, and explain themselves with exactly
    /// consistent freeze rounds.
    #[test]
    fn solver_matches_reference_exactly_on_rationals(
        (caps, demands, enhanced) in skewed_shape()
    ) {
        let inst: Instance<Rational> = instance(&caps, &demands);
        let want = reference_aggregates(&inst, mode(enhanced));
        for (name, out) in &both_ways(&inst, enhanced) {
            prop_assert_eq!(
                out.allocation.aggregates(),
                &want[..],
                "{} disagrees with the reference", name
            );
            let report = audit(&inst, &out.allocation, mode(enhanced));
            prop_assert!(
                report.is_certified_amf(),
                "{} output failed audit: {}", name, report.summary()
            );
            check_rounds(name, &inst, out, enhanced, |a, b| a == b);
        }
    }

    /// Floating point: both paths match the reference within 1e-6, are
    /// feasible and audit-certified, and their freeze rounds are
    /// consistent within the same tolerance.
    #[test]
    fn solver_matches_reference_within_tolerance_on_f64(
        (caps, demands, enhanced) in skewed_shape()
    ) {
        let inst: Instance<f64> = instance(&caps, &demands);
        let want = reference_aggregates(&inst, mode(enhanced));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        for (name, out) in &both_ways(&inst, enhanced) {
            for (j, &w) in want.iter().enumerate() {
                let got = out.allocation.aggregate(j);
                prop_assert!(
                    close(got, w),
                    "{} job {}: {} vs reference {}", name, j, got, w
                );
            }
            prop_assert!(out.allocation.is_feasible(&inst), "{} infeasible", name);
            let report = audit(&inst, &out.allocation, mode(enhanced));
            prop_assert!(
                report.is_certified_amf(),
                "{} output failed audit: {}", name, report.summary()
            );
            check_rounds(name, &inst, out, enhanced, close);
        }
    }
}
