//! Oracle tests for the incremental session: after **every** delta of a
//! script (arrivals, departures, demand changes, capacity changes) the
//! state of [`IncrementalAmf`] is checked against three oracles that share
//! no code with it:
//!
//! * the brute-force [`reference_aggregates`] (small instances), exact on
//!   [`Rational`] and within 1e-6 on `f64`;
//! * the independent `amf-audit` certificate;
//! * bit-exact equality, split and freeze rounds, with [`AmfSolver::solve`]
//!   of [`IncrementalAmf::instance`].
//!
//! Random scripts run as property tests; the two-tier scripts pin the
//! answers of hand-checked cases.

use amf_audit::audit;
use amf_core::{
    reference_aggregates, AmfSolver, Delta, FairnessMode, IncrementalAmf, JobId, SolveOutput,
};
use amf_numeric::{Rational, Scalar};
use proptest::prelude::*;

/// Largest live job count checked against the exponential reference.
const REFERENCE_JOBS: usize = 8;

/// Abstract delta ops with free indices; [`deltas_from_ops`] interprets
/// them against the set of live job ids so every executed delta is valid
/// by construction (removals and demand changes target a live job, site
/// indices are reduced modulo the site count).
#[derive(Debug, Clone)]
enum Op {
    Add {
        demands: Vec<i64>,
        weight: i64,
    },
    Remove {
        pick: usize,
    },
    Demand {
        pick: usize,
        site: usize,
        value: i64,
    },
    Capacity {
        site: usize,
        value: i64,
    },
}

fn op_strategy(m: usize) -> impl Strategy<Value = Op> {
    // The vendored proptest has no `prop_oneof`; a weighted discriminant
    // plus a superset of fields picks the op shape (4:2:3:2 mix).
    (
        0u8..11,
        proptest::collection::vec(0i64..12, m),
        1i64..=3,
        0usize..1usize << 20,
        0..m,
        0i64..24,
    )
        .prop_map(|(tag, demands, weight, pick, site, value)| match tag {
            0..=3 => Op::Add { demands, weight },
            4 | 5 => Op::Remove { pick },
            6..=8 => Op::Demand {
                pick,
                site,
                value: value % 12,
            },
            _ => Op::Capacity { site, value },
        })
}

/// Random shapes: site capacities, a delta script, the fairness mode, and
/// whether arrivals carry non-uniform weights. Unweighted scripts keep the
/// envy-freeness certificate in play (see [`certified`]), weighted ones
/// exercise the weighted level caps.
fn script() -> impl Strategy<Value = (Vec<i64>, Vec<Op>, bool, bool)> {
    (1usize..=4, 0u8..2, 0u8..2).prop_flat_map(|(m, enhanced, weighted)| {
        (
            proptest::collection::vec(1i64..24, m),
            proptest::collection::vec(op_strategy(m), 1..14),
            Just(enhanced == 1),
            Just(weighted == 1),
        )
    })
}

/// Interpret the abstract ops into a concrete, always-valid delta stream.
/// When `weighted` is false every arrival gets weight 1.
fn deltas_from_ops<S: Scalar>(
    m: usize,
    ops: &[Op],
    weighted: bool,
    conv: impl Fn(i64) -> S,
) -> Vec<Delta<S>> {
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Add { demands, weight } => {
                out.push(Delta::AddJob {
                    id: JobId(next_id),
                    demands: demands.iter().map(|&d| conv(d)).collect(),
                    weight: conv(if weighted { *weight } else { 1 }),
                });
                live.push(next_id);
                next_id += 1;
            }
            Op::Remove { pick } => {
                if live.is_empty() {
                    continue;
                }
                let id = live.swap_remove(pick % live.len());
                out.push(Delta::RemoveJob { id: JobId(id) });
            }
            Op::Demand { pick, site, value } => {
                if live.is_empty() {
                    continue;
                }
                out.push(Delta::DemandChange {
                    id: JobId(live[pick % live.len()]),
                    site: site % m,
                    demand: conv(*value),
                });
            }
            Op::Capacity { site, value } => {
                out.push(Delta::CapacityChange {
                    site: site % m,
                    capacity: conv(*value),
                });
            }
        }
    }
    out
}

fn solver(enhanced: bool) -> AmfSolver {
    if enhanced {
        AmfSolver::enhanced()
    } else {
        AmfSolver::new()
    }
}

/// Whether `report` certifies the state. Plain AMF's envy-freeness theorem
/// is an *unweighted* property: under non-uniform weights even a fully
/// demand-capped light job "envies" a heavy job's bundle once the cert
/// normalizes by weight, so weighted Plain states are held to the
/// weight-agnostic core (feasibility + lex-optimality + Pareto) instead of
/// the full certificate. Enhanced and unweighted states get the full gate.
fn certified<S: amf_numeric::Scalar>(
    report: &amf_audit::AuditReport<S>,
    enhanced: bool,
    weighted: bool,
) -> bool {
    if enhanced || !weighted {
        report.is_certified_amf()
    } else {
        report.feasibility.is_proved()
            && report.lex_optimality.is_proved()
            && report.pareto.is_proved()
    }
}

/// Whether `a` and `b` agree: exactly on exact scalars, within 1e-6
/// relative on `f64`.
fn agrees<S: Scalar>(a: S, b: S) -> bool {
    if S::EXACT {
        a == b
    } else {
        let (a, b) = (a.to_f64(), b.to_f64());
        (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
    }
}

/// Solve `session`, which was built with `solver`, and check the result
/// against the three oracles of the module docs. `weighted` says whether
/// arrivals may carry non-unit weights (see [`certified`]). Returns the
/// session's output.
fn check_oracles<S: Scalar>(
    session: &mut IncrementalAmf<S>,
    solver: AmfSolver,
    weighted: bool,
) -> SolveOutput<S> {
    let out = session.solve().clone();
    let inst = session.instance();
    let ids = session.job_ids();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "rows not ascending");
    assert_eq!(out.allocation.n_jobs(), ids.len());
    let stats = out.stats;
    assert_eq!(stats.rounds_replayed, 0);
    assert_eq!(stats.rounds_resolved, stats.rounds);

    // Same instance, same solver: the same bits.
    let fresh = solver.solve(&inst);
    assert_eq!(out.allocation.split(), fresh.allocation.split(), "split");
    assert_eq!(out.rounds, fresh.rounds, "freeze rounds");

    if inst.n_jobs() == 0 {
        return out;
    }
    let enhanced = solver.mode() == FairnessMode::Enhanced;
    if inst.n_jobs() <= REFERENCE_JOBS {
        let reference = reference_aggregates(&inst, solver.mode());
        for (j, (&a, &b)) in out
            .allocation
            .aggregates()
            .iter()
            .zip(&reference)
            .enumerate()
        {
            assert!(
                agrees(a, b),
                "job {j}: session {a} vs reference {b}\ninst: {inst:?}"
            );
        }
    }
    assert!(out.allocation.is_feasible(&inst), "infeasible state");
    let report = audit(&inst, &out.allocation, solver.mode());
    assert!(
        certified(&report, enhanced, weighted),
        "session state failed audit: {}\ninst: {:?}",
        report.summary(),
        inst
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact rationals: every state of a random script passes the three
    /// oracles.
    #[test]
    fn delta_sequences_are_bit_exact_on_rationals((caps, ops, enhanced, weighted) in script()) {
        let m = caps.len();
        let s = solver(enhanced);
        let mut session = IncrementalAmf::new(
            s,
            caps.iter().map(|&c| Rational::from_int(c as i128)).collect(),
        )
        .expect("valid capacities");
        for delta in deltas_from_ops(m, &ops, weighted, |v| Rational::from_int(v as i128)) {
            session.apply(delta).expect("interpreted deltas are valid");
            check_oracles(&mut session, s, weighted);
        }
    }

    /// f64: every state of a random script passes the three oracles.
    #[test]
    fn delta_sequences_agree_within_tolerance_on_f64((caps, ops, enhanced, weighted) in script()) {
        let m = caps.len();
        let s = solver(enhanced);
        let mut session = IncrementalAmf::new(s, caps.iter().map(|&c| c as f64).collect())
            .expect("valid capacities");
        for delta in deltas_from_ops(m, &ops, weighted, |v| v as f64) {
            session.apply(delta).expect("interpreted deltas are valid");
            check_oracles(&mut session, s, weighted);
        }
    }
}

/// Two bottleneck tiers over capacities `[2, 100]`: site 0 freezes jobs
/// 0-1 at 1 in round 1, site 1 freezes jobs 2-3 at 50 in round 2.
fn two_tier<S: Scalar>() -> IncrementalAmf<S> {
    let n = |v: i64| S::from_ratio(v, 1);
    let mut session = IncrementalAmf::new(AmfSolver::new(), vec![n(2), n(100)]).unwrap();
    for (id, row) in [(0, [2, 0]), (1, [2, 0]), (2, [0, 100]), (3, [0, 100])] {
        session
            .apply(Delta::AddJob {
                id: JobId(id),
                demands: row.iter().map(|&d| n(d)).collect(),
                weight: S::ONE,
            })
            .unwrap();
    }
    let out = check_oracles(&mut session, AmfSolver::new(), false);
    assert_eq!(out.stats.rounds, 2);
    session
}

/// Run `script` on a fresh two-tier session, checking the oracles after
/// every delta, and return the final aggregates as `f64`.
fn two_tier_script<S: Scalar>(script: &[Delta<S>]) -> Vec<f64> {
    let mut session = two_tier::<S>();
    for delta in script {
        session.apply(delta.clone()).unwrap();
        check_oracles(&mut session, AmfSolver::new(), false);
    }
    let out = session.solve();
    out.allocation
        .aggregates()
        .iter()
        .map(|a| a.to_f64())
        .collect()
}

fn demand_change<S: Scalar>(id: u64, site: usize, demand: i64) -> Delta<S> {
    Delta::DemandChange {
        id: JobId(id),
        site,
        demand: S::from_ratio(demand, 1),
    }
}

fn remove<S: Scalar>(id: u64) -> Delta<S> {
    Delta::RemoveJob { id: JobId(id) }
}

/// [`two_tier_script`] on both scalar types, which must agree.
fn on_both(f64_script: &[Delta<f64>], exact_script: &[Delta<Rational>]) -> Vec<f64> {
    let agg = two_tier_script(f64_script);
    assert_eq!(
        agg,
        two_tier_script(exact_script),
        "f64 and Rational differ"
    );
    agg
}

#[test]
fn late_round_delta_matches_every_oracle() {
    // Job 3 becomes demand-capped at 30; round 1 is untouched.
    let agg = on_both(&[demand_change(3, 1, 30)], &[demand_change(3, 1, 30)]);
    assert_eq!(agg, vec![1.0, 1.0, 70.0, 30.0]);
}

#[test]
fn untouched_solution_matches_every_oracle() {
    // Job 2 stays bottlenecked at 50 with a demand of 60.
    let agg = on_both(&[demand_change(2, 1, 60)], &[demand_change(2, 1, 60)]);
    assert_eq!(agg, vec![1.0, 1.0, 50.0, 50.0]);
}

#[test]
fn removing_a_frozen_job_matches_every_oracle() {
    // A first-round job leaves: job 1 (now row 0) owns site 0 alone.
    let agg = on_both(&[remove(0)], &[remove(0)]);
    assert_eq!(agg, vec![2.0, 50.0, 50.0]);
    // A last-round job leaves: job 2 takes site 1 alone.
    let agg = on_both(&[remove(3)], &[remove(3)]);
    assert_eq!(agg, vec![1.0, 1.0, 100.0]);
}

#[test]
fn session_stats_accumulate_across_solves() {
    let mut session = two_tier::<Rational>();
    let mut last = session.session_stats();
    assert_eq!(last.rounds, 2);
    for delta in [
        demand_change(3, 1, 30),
        Delta::CapacityChange {
            site: 0,
            capacity: Rational::new(1, 2),
        },
        remove(2),
    ] {
        session.apply(delta).unwrap();
        let rounds = check_oracles(&mut session, AmfSolver::new(), false)
            .stats
            .rounds;
        let total = session.session_stats();
        assert_eq!(total.rounds, last.rounds + rounds);
        assert_eq!(total.rounds_resolved, total.rounds);
        assert_eq!(total.rounds_replayed, 0);
        assert!(total.max_flows > last.max_flows);
        assert!(total.edges_visited > last.edges_visited);
        last = total;
    }
}
