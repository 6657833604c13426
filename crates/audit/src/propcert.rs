//! Property certificates: Pareto efficiency, envy-freeness and sharing
//! incentive, each proved with a witness or refuted with a counterexample.

use crate::report::{
    Certificate, EnvyViolation, EnvyWitness, ParetoViolation, ParetoWitness,
    SharingIncentiveViolation, SharingIncentiveWitness,
};
use amf_core::{Allocation, Instance};
use amf_flow::AllocationNetwork;
use amf_numeric::{min2, sum, Scalar};

/// Certify Pareto efficiency of a **feasible** allocation.
///
/// The allocation is preloaded into the flow network with every job's
/// source cap raised to its total demand; Dinic then augments on top of
/// it. Because augmenting paths never push flow back across a source
/// edge, any extra flow strictly increases some job's aggregate while
/// decreasing none — a Pareto improvement. Conversely, if no augmenting
/// path exists the max-flow/min-cut structure shows the total already
/// equals the full rank `f(N)`, which is the proved witness.
///
/// # Panics
/// Panics (inside `preload_split`) if `alloc` is infeasible; run
/// [`feasibility_cert`](crate::feasibility_cert) first.
pub fn pareto_cert<S: Scalar>(
    inst: &Instance<S>,
    alloc: &Allocation<S>,
) -> Certificate<ParetoWitness<S>, ParetoViolation<S>> {
    let n = inst.n_jobs();
    let mut net = AllocationNetwork::new(inst.demands(), inst.capacities());
    for j in 0..n {
        net.set_job_cap(j, inst.total_demand(j));
    }
    net.preload_split(alloc.split());
    let before = net.total_flow();
    let after = net.run_max_flow();
    if (after - before).is_positive() {
        let mut best_job = 0;
        let mut best_gain = S::ZERO;
        for j in 0..n {
            let gain = net.job_flow(j) - alloc.aggregate(j);
            if gain > best_gain {
                best_gain = gain;
                best_job = j;
            }
        }
        Certificate::Violated {
            counterexample: ParetoViolation::Improvable {
                job: best_job,
                gain: best_gain,
            },
        }
    } else {
        Certificate::Proved {
            witness: ParetoWitness {
                total: alloc.total(),
                rank_all: inst.rank(&vec![true; n]),
            },
        }
    }
}

/// Certify (weighted) envy-freeness: no job `j` would prefer job `k`'s
/// bundle, where `j` values `k`'s bundle as `Σ_s min(x[k][s], d[j][s])`
/// (it can only use resource it actually demands) and bundles are
/// compared normalized by weight.
pub fn envy_cert<S: Scalar>(
    inst: &Instance<S>,
    alloc: &Allocation<S>,
) -> Certificate<EnvyWitness, Vec<EnvyViolation<S>>> {
    let n = inst.n_jobs();
    let m = inst.n_sites();
    let mut violations = Vec::new();
    let mut pairs_checked = 0;
    for j in 0..n {
        let own = alloc.aggregate(j) / inst.weight(j);
        for k in 0..n {
            if k == j {
                continue;
            }
            pairs_checked += 1;
            let usable = sum((0..m).map(|s| min2(alloc.at(k, s), inst.demand(j, s))));
            let perceived = usable / inst.weight(k);
            if perceived.definitely_gt(own) {
                violations.push(EnvyViolation {
                    envious: j,
                    envied: k,
                    own_normalized: own,
                    perceived_normalized: perceived,
                });
            }
        }
    }
    if violations.is_empty() {
        Certificate::Proved {
            witness: EnvyWitness { pairs_checked },
        }
    } else {
        Certificate::Violated {
            counterexample: violations,
        }
    }
}

/// Certify sharing incentive: every job receives at least its equal
/// share `e_j = Σ_s min(d[j][s], c_s / n)`. Plain AMF can legitimately
/// fail this (the paper's Example 2); Enhanced AMF guarantees it, so the
/// verdict gates [`is_certified_amf`](crate::AuditReport::is_certified_amf)
/// only in Enhanced mode.
pub fn si_cert<S: Scalar>(
    inst: &Instance<S>,
    alloc: &Allocation<S>,
) -> Certificate<SharingIncentiveWitness<S>, Vec<SharingIncentiveViolation<S>>> {
    let mut violations = Vec::new();
    let mut min_surplus: Option<S> = None;
    for j in 0..inst.n_jobs() {
        let equal_share = inst.equal_share(j);
        let aggregate = alloc.aggregate(j);
        if aggregate.definitely_lt(equal_share) {
            violations.push(SharingIncentiveViolation {
                job: j,
                equal_share,
                aggregate,
                shortfall: equal_share - aggregate,
            });
        } else {
            let surplus = aggregate - equal_share;
            min_surplus = Some(match min_surplus {
                Some(best) if best < surplus => best,
                _ => surplus,
            });
        }
    }
    if violations.is_empty() {
        Certificate::Proved {
            witness: SharingIncentiveWitness {
                min_surplus: min_surplus.unwrap_or(S::ZERO),
            },
        }
    } else {
        Certificate::Violated {
            counterexample: violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility_cert;
    use amf_core::{AllocationPolicy, AmfSolver, EqualDivision, PerSiteMaxMin};
    use amf_numeric::Rational;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ri(n: i128) -> Rational {
        Rational::from_int(n)
    }

    /// The paper's Example 2: job 0 (spread demand) has equal share 10,
    /// but plain AMF equalizes both jobs at 15/2.
    fn si_violation_instance() -> Instance<Rational> {
        Instance::new(
            vec![ri(10), ri(10)],
            vec![vec![ri(5), ri(5)], vec![ri(0), ri(10)]],
        )
        .unwrap()
    }

    #[test]
    fn enhanced_amf_repairs_the_violation() {
        let inst = si_violation_instance();
        let alloc = AmfSolver::enhanced().allocate(&inst);
        assert_eq!(alloc.aggregate(0), ri(10));
        assert_eq!(alloc.aggregate(1), ri(5));
        assert!(si_cert(&inst, &alloc).is_proved());
        // The repaired allocation is still feasible and Pareto efficient.
        assert!(feasibility_cert(&inst, &alloc).is_proved());
        let witness = pareto_cert(&inst, &alloc).witness().cloned();
        assert_eq!(witness.expect("must prove").rank_all, ri(15));
    }

    #[test]
    fn amf_is_pareto_efficient_and_envy_free_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = rng.gen_range(1..6usize);
            let m = rng.gen_range(1..4usize);
            let inst = Instance::new(
                (0..m).map(|_| ri(rng.gen_range(0..12))).collect(),
                (0..n)
                    .map(|_| (0..m).map(|_| ri(rng.gen_range(0..10))).collect())
                    .collect(),
            )
            .unwrap();
            let alloc = AmfSolver::new().allocate(&inst);
            assert!(feasibility_cert(&inst, &alloc).is_proved());
            assert!(pareto_cert(&inst, &alloc).is_proved());
            let envy = envy_cert(&inst, &alloc);
            assert_eq!(
                envy.witness().expect("envy-free").pairs_checked,
                n * (n - 1)
            );
        }
    }

    #[test]
    fn equal_division_satisfies_si_but_not_pareto() {
        // One site of capacity 10: job 0 demands 4 (below its 5-slice),
        // job 1 demands 10. Equal division leaves 1 unit idle that job 1
        // could use.
        let inst = Instance::new(vec![ri(10)], vec![vec![ri(4)], vec![ri(10)]]).unwrap();
        let alloc = EqualDivision.allocate(&inst);
        assert_eq!(alloc.aggregates(), &[ri(4), ri(5)]);
        assert!(si_cert(&inst, &alloc).is_proved());
        match pareto_cert(&inst, &alloc).counterexample() {
            Some(ParetoViolation::Improvable { job, gain }) => {
                assert_eq!((*job, *gain), (1, ri(1)));
            }
            None => panic!("equal division wastes a unit here"),
        }
    }

    #[test]
    fn per_site_max_min_is_pareto_but_aggregate_unbalanced() {
        let inst = Instance::new(
            vec![ri(6), ri(2)],
            vec![vec![ri(6), ri(0)], vec![ri(6), ri(2)]],
        )
        .unwrap();
        let alloc = PerSiteMaxMin.allocate(&inst);
        assert!(pareto_cert(&inst, &alloc).is_proved());
        // Aggregates (3, 5): job 0 envies nothing it can use more of, so
        // envy-freeness still holds; only the lex-optimality certificate
        // separates PSMF from AMF's (4, 4) (experiment E1).
        assert_eq!(alloc.aggregates(), &[ri(3), ri(5)]);
        assert!(envy_cert(&inst, &alloc).is_proved());
        let lex = crate::lex_optimality_cert(&inst, &alloc, amf_core::FairnessMode::Plain);
        assert!(lex.is_violated());
    }

    #[test]
    fn wasteful_allocation_fails_pareto() {
        // Site of capacity 10; job 0 demands 4 (met), job 1 demands 10 but
        // holds only 5 — one unit is left idle.
        let inst = Instance::new(vec![ri(10)], vec![vec![ri(4)], vec![ri(10)]]).unwrap();
        let alloc = Allocation::from_split(vec![vec![ri(4)], vec![ri(5)]]);
        let cert = pareto_cert(&inst, &alloc);
        match cert.counterexample().expect("must violate") {
            ParetoViolation::Improvable { job, gain } => {
                assert_eq!(*job, 1);
                assert_eq!(*gain, ri(1));
            }
        }
    }

    #[test]
    fn solver_output_is_pareto_with_full_rank_witness() {
        let inst = Instance::new(
            vec![ri(6), ri(2)],
            vec![vec![ri(6), ri(0)], vec![ri(6), ri(2)]],
        )
        .unwrap();
        let out = AmfSolver::new().solve(&inst);
        let cert = pareto_cert(&inst, &out.allocation);
        let witness = cert.witness().expect("must prove");
        assert_eq!(witness.total, witness.rank_all);
        assert_eq!(witness.rank_all, ri(8));
    }

    #[test]
    fn lopsided_split_triggers_envy() {
        let inst = Instance::new(vec![ri(10)], vec![vec![ri(10)], vec![ri(10)]]).unwrap();
        let alloc = Allocation::from_split(vec![vec![ri(7)], vec![ri(3)]]);
        let cert = envy_cert(&inst, &alloc);
        let violations = cert.counterexample().expect("must violate");
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].envious, 1);
        assert_eq!(violations[0].envied, 0);
        assert_eq!(violations[0].perceived_normalized, ri(7));
    }

    #[test]
    fn envy_ignores_resource_the_job_cannot_use() {
        // Job 0 has zero demand at site 1, so job 1's big bundle there is
        // worthless to it: no envy despite the aggregate gap.
        let inst = Instance::new(
            vec![ri(2), ri(10)],
            vec![vec![ri(2), ri(0)], vec![ri(0), ri(10)]],
        )
        .unwrap();
        let alloc = Allocation::from_split(vec![vec![ri(2), ri(0)], vec![ri(0), ri(10)]]);
        assert!(envy_cert(&inst, &alloc).is_proved());
    }

    #[test]
    fn plain_amf_can_fail_sharing_incentive() {
        // The abstract's claim on one instance: plain AMF is Pareto
        // efficient and envy-free, yet fails sharing incentive.
        let inst = si_violation_instance();
        let plain = AmfSolver::new().solve(&inst).allocation;
        assert!(pareto_cert(&inst, &plain).is_proved());
        assert!(envy_cert(&inst, &plain).is_proved());
        let cert = si_cert(&inst, &plain);
        let violations = cert.counterexample().expect("must violate");
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].job, 0);
        assert_eq!(violations[0].shortfall, Rational::new(5, 2));
        // Enhanced AMF repairs it, with job 1's surplus as the witness.
        let enhanced = AmfSolver::enhanced().solve(&inst).allocation;
        let cert = si_cert(&inst, &enhanced);
        let witness = cert.witness().expect("must prove");
        assert_eq!(witness.min_surplus, ri(0));
    }
}
