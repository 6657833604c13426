//! The lex-optimality certificate: tight-set witnesses extracted from the
//! allocation's residual closure.
//!
//! # The certificate
//!
//! For each job `j` the auditor must explain why `A_j` cannot grow without
//! a leximin loss. Two blames are accepted:
//!
//! * **Demand-capped** — `A_j = D_j`; the job wants nothing more.
//! * **Tight set** — the *residual closure* of `j`: starting from `j`,
//!   alternately add every site where a member job still has residual
//!   demand (`x[i][s] < d[i][s]`) and every job with positive allocation
//!   at a reached site (`x[k][s] > 0`). These are exactly the residual
//!   arcs of the allocation flow network, so the closure is the set of
//!   jobs `j` could feasibly take resource from by rerouting. The closure
//!   `J` certifies optimality iff
//!
//!   1. every reached site is **saturated** (otherwise `j` can grow for
//!      free — [`LexViolation::Improvable`], also a Pareto violation);
//!   2. every member sits at a normalized level `A_i / w_i` no higher than
//!      `j`'s — otherwise shifting resource from the higher member to `j`
//!      is a leximin improvement ([`LexViolation::LevelInversion`]). Under
//!      Enhanced AMF, members pinned at their equal-share floor are exempt
//!      (they cannot legally give anything up);
//!   3. the members' polymatroid constraint is **exactly tight**:
//!      `Σ_{i∈J} A_i = f(J)`. Given (1) this holds by construction — every
//!      reached site is filled entirely by members, every unreached site
//!      has each member at its demand cap — and it is what makes the
//!      witness independently re-checkable: a verifier needs only the
//!      member list, [`Instance::rank`] and the aggregates.
//!
//! With exact scalars the conjunction of these blames is exactly the
//! (Enhanced) AMF optimality condition; the property-based tests cross-
//! check it against the brute-force reference solver in both directions.

use crate::report::{Certificate, JobBlame, LexViolation};
use amf_core::{Allocation, FairnessMode, Instance};
use amf_numeric::{min2, sum, Scalar};

/// Per-job floors: zero under plain AMF, `min(e_j, D_j)` under Enhanced.
pub(crate) fn floors<S: Scalar>(inst: &Instance<S>, mode: FairnessMode) -> Vec<S> {
    (0..inst.n_jobs())
        .map(|j| match mode {
            FairnessMode::Plain => S::ZERO,
            FairnessMode::Enhanced => min2(inst.equal_share(j), inst.total_demand(j)),
        })
        .collect()
}

/// Verify lex-optimality of a **feasible** allocation, producing tight-set
/// witnesses (one blame per job) or concrete violations.
pub fn lex_optimality_cert<S: Scalar>(
    inst: &Instance<S>,
    alloc: &Allocation<S>,
    mode: FairnessMode,
) -> Certificate<Vec<JobBlame<S>>, Vec<LexViolation<S>>> {
    let n = inst.n_jobs();
    let m = inst.n_sites();
    let usage: Vec<S> = (0..m).map(|s| alloc.site_usage(s)).collect();
    let floors = floors(inst, mode);

    let mut blames = Vec::with_capacity(n);
    let mut violations: Vec<LexViolation<S>> = Vec::new();

    for (j, &floor) in floors.iter().enumerate() {
        let aggregate = alloc.aggregate(j);
        if aggregate.definitely_lt(floor) {
            violations.push(LexViolation::BelowFloor {
                job: j,
                aggregate,
                floor,
            });
        }
    }

    for j in 0..n {
        let total_demand = inst.total_demand(j);
        let aggregate = alloc.aggregate(j);
        if !aggregate.definitely_lt(total_demand) {
            blames.push(JobBlame::DemandCapped {
                job: j,
                aggregate,
                total_demand,
            });
            continue;
        }

        // Residual closure of j (BFS over jobs; sites are marked as they
        // are reached).
        let mut in_jobs = vec![false; n];
        let mut in_sites = vec![false; m];
        in_jobs[j] = true;
        let mut queue = vec![j];
        let mut improvable: Option<(usize, S)> = None;
        'bfs: while let Some(i) = queue.pop() {
            for s in 0..m {
                if in_sites[s] || !alloc.at(i, s).definitely_lt(inst.demand(i, s)) {
                    continue;
                }
                in_sites[s] = true;
                if usage[s].definitely_lt(inst.capacity(s)) {
                    improvable = Some((s, inst.capacity(s) - usage[s]));
                    break 'bfs;
                }
                for (k, reached) in in_jobs.iter_mut().enumerate() {
                    if !*reached && alloc.at(k, s).is_positive() {
                        *reached = true;
                        queue.push(k);
                    }
                }
            }
        }

        if let Some((via_site, slack)) = improvable {
            violations.push(LexViolation::Improvable {
                job: j,
                via_site,
                slack,
            });
            continue;
        }

        // Level condition: no member strictly above j's level, unless the
        // member is pinned at its floor.
        let level = aggregate / inst.weight(j);
        let mut inverted = false;
        for (k, &inside) in in_jobs.iter().enumerate() {
            if !inside || k == j {
                continue;
            }
            let member_level = alloc.aggregate(k) / inst.weight(k);
            if member_level.definitely_gt(level) && alloc.aggregate(k).definitely_gt(floors[k]) {
                violations.push(LexViolation::LevelInversion {
                    job: j,
                    level,
                    member: k,
                    member_level,
                });
                inverted = true;
            }
        }
        if inverted {
            continue;
        }

        // Tightness: Σ_{i∈J} A_i = f(J).
        let rank = inst.rank(&in_jobs);
        let member_total = sum(in_jobs
            .iter()
            .enumerate()
            .filter(|&(_, &inside)| inside)
            .map(|(i, _)| alloc.aggregate(i)));
        if !member_total.approx_eq_rel(rank) {
            violations.push(LexViolation::RankGap {
                job: j,
                rank,
                member_total,
            });
            continue;
        }

        let jobs: Vec<usize> = (0..n).filter(|&i| in_jobs[i]).collect();
        let sites: Vec<usize> = (0..m).filter(|&s| in_sites[s]).collect();
        blames.push(JobBlame::TightSet {
            job: j,
            level,
            jobs,
            sites,
            rank,
            member_total,
        });
    }

    if violations.is_empty() {
        Certificate::Proved { witness: blames }
    } else {
        Certificate::Violated {
            counterexample: violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_core::AmfSolver;
    use amf_numeric::Rational;

    fn ri(n: i128) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn amf_output_earns_tight_set_witnesses() {
        // The motivating example: job 0 locked to site 0, job 1 spans both;
        // AMF equalizes at (4, 4) with neither demand-capped.
        let inst = Instance::new(
            vec![ri(6), ri(2)],
            vec![vec![ri(6), ri(0)], vec![ri(6), ri(2)]],
        )
        .unwrap();
        let out = AmfSolver::new().solve(&inst);
        let cert = lex_optimality_cert(&inst, &out.allocation, FairnessMode::Plain);
        let blames = cert.witness().expect("AMF output must certify");
        assert_eq!(blames.len(), 2);
        for blame in blames {
            match blame {
                JobBlame::TightSet {
                    jobs,
                    rank,
                    member_total,
                    ..
                } => {
                    assert_eq!(rank, member_total);
                    // Both jobs share the single tight set {0, 1} with
                    // f = 6 + 2 = 8 = 4 + 4.
                    assert_eq!(jobs, &vec![0, 1]);
                    assert_eq!(*rank, ri(8));
                }
                other => panic!("expected TightSet, got {other:?}"),
            }
        }
    }

    #[test]
    fn unfair_split_is_a_level_inversion() {
        // One site, two identical jobs: (7, 3) is feasible and Pareto
        // efficient but not max-min fair.
        let inst = Instance::new(vec![ri(10)], vec![vec![ri(10)], vec![ri(10)]]).unwrap();
        let alloc = Allocation::from_split(vec![vec![ri(7)], vec![ri(3)]]);
        let cert = lex_optimality_cert(&inst, &alloc, FairnessMode::Plain);
        let violations = cert.counterexample().expect("must violate");
        assert!(violations.iter().any(|v| matches!(
            v,
            LexViolation::LevelInversion {
                job: 1,
                member: 0,
                ..
            }
        )));
    }

    #[test]
    fn idle_capacity_is_improvable() {
        let inst = Instance::new(vec![ri(10)], vec![vec![ri(4)], vec![ri(10)]]).unwrap();
        // Equal division leaves 1 unit idle that job 1 could use.
        let alloc = Allocation::from_split(vec![vec![ri(4)], vec![ri(5)]]);
        let cert = lex_optimality_cert(&inst, &alloc, FairnessMode::Plain);
        let violations = cert.counterexample().expect("must violate");
        assert!(violations.iter().any(|v| matches!(
            v,
            LexViolation::Improvable {
                job: 1,
                via_site: 0,
                ..
            }
        )));
    }

    #[test]
    fn enhanced_floors_exempt_pinned_members_and_catch_shortfalls() {
        // The paper's SI-violation instance: plain AMF gives (15/2, 15/2)
        // but job 0's equal share is 10.
        let inst = Instance::new(
            vec![ri(10), ri(10)],
            vec![vec![ri(5), ri(5)], vec![ri(0), ri(10)]],
        )
        .unwrap();
        let plain = AmfSolver::new().solve(&inst).allocation;
        // Audited as Enhanced, the plain allocation is below job 0's floor.
        let cert = lex_optimality_cert(&inst, &plain, FairnessMode::Enhanced);
        let violations = cert.counterexample().expect("must violate");
        assert!(violations
            .iter()
            .any(|v| matches!(v, LexViolation::BelowFloor { job: 0, .. })));
        // The Enhanced solve certifies in Enhanced mode: job 1 (level 5)
        // must tolerate job 0 pinned at its floor (level 10).
        let enhanced = AmfSolver::enhanced().solve(&inst).allocation;
        assert_eq!(enhanced.aggregate(0), ri(10));
        let cert = lex_optimality_cert(&inst, &enhanced, FairnessMode::Enhanced);
        assert!(cert.is_proved(), "{cert:?}");
        // ...but the same allocation audited as *plain* is a level
        // inversion (job 1 could take from job 0).
        let cert = lex_optimality_cert(&inst, &enhanced, FairnessMode::Plain);
        assert!(cert.is_violated());
    }

    #[test]
    fn demand_capped_jobs_are_blamed_as_such() {
        let inst = Instance::new(vec![ri(20)], vec![vec![ri(1)], vec![ri(10)]]).unwrap();
        let out = AmfSolver::new().solve(&inst);
        let cert = lex_optimality_cert(&inst, &out.allocation, FairnessMode::Plain);
        let blames = cert.witness().expect("must certify");
        assert!(matches!(blames[0], JobBlame::DemandCapped { job: 0, .. }));
        assert!(matches!(blames[1], JobBlame::DemandCapped { job: 1, .. }));
    }
}
