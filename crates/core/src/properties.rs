//! Leximin order and the strategy-proofness probe.
//!
//! The abstract states: *"AMF satisfies the properties of Pareto
//! efficiency, envy-freeness and strategy-proofness, but it does not
//! necessarily satisfy the sharing incentive property."* Pareto efficiency,
//! envy-freeness and sharing incentive are certified per allocation by
//! `amf-audit` (`pareto_cert`, `envy_cert`, `si_cert`). This module holds
//! what a single allocation cannot show: the leximin comparison of two
//! aggregate vectors, and a harness that probes strategy-proofness by
//! re-solving under misreported demands. Exact verification uses the
//! [`Rational`](amf_numeric::Rational) scalar.

use crate::model::Instance;
use crate::policy::AllocationPolicy;
use amf_numeric::{min2, sum, Scalar};

/// Compare two allocation vectors in the max-min (leximin) order:
/// sort both ascending and compare lexicographically. Returns
/// `Less` when `a` is leximin-worse than `b`. AMF's defining property is
/// that its aggregate vector is leximin-greatest among feasible vectors.
pub fn leximin_cmp<S: Scalar>(a: &[S], b: &[S]) -> std::cmp::Ordering {
    assert_eq!(a.len(), b.len(), "leximin_cmp: length mismatch");
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("leximin_cmp: unordered value"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("leximin_cmp: unordered value"));
    for (x, y) in sa.iter().zip(&sb) {
        if x.definitely_lt(*y) {
            return std::cmp::Ordering::Less;
        }
        if x.definitely_gt(*y) {
            return std::cmp::Ordering::Greater;
        }
    }
    std::cmp::Ordering::Equal
}

/// Result of one strategy-proofness probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyProbe<S> {
    /// The job's aggregate when reporting truthfully.
    pub truthful: S,
    /// The *useful* resource obtained by lying: `Σ_s min(x'[j][s],
    /// d_true[j][s])` — allocation at a site beyond the true demand cannot
    /// be used.
    pub useful_when_lying: S,
}

impl<S: Scalar> StrategyProbe<S> {
    /// True iff the lie strictly helped (a strategy-proofness violation).
    pub fn lie_helped(&self) -> bool {
        self.useful_when_lying.definitely_gt(self.truthful)
    }
}

/// **Strategy-proofness probe**: re-solve the instance with job `j`
/// reporting `lie` instead of its true demand vector, and compare the
/// useful allocation against the truthful one.
///
/// # Panics
/// Panics if `lie` is invalid (negative entries, wrong length).
pub fn probe_strategy_proofness<S: Scalar, P: AllocationPolicy<S> + ?Sized>(
    inst: &Instance<S>,
    j: usize,
    lie: Vec<S>,
    policy: &P,
) -> StrategyProbe<S> {
    let truthful = policy.allocate(inst).aggregate(j);
    let lied_inst = inst
        .with_job_demands(j, lie)
        .expect("probe_strategy_proofness: invalid lie");
    let lied_alloc = policy.allocate(&lied_inst);
    let useful = sum((0..inst.n_sites()).map(|s| min2(lied_alloc.at(j, s), inst.demand(j, s))));
    StrategyProbe {
        truthful,
        useful_when_lying: useful,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::PerSiteMaxMin;
    use crate::solver::AmfSolver;
    use amf_numeric::Rational;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ri(n: i128) -> Rational {
        Rational::from_int(n)
    }

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    /// The paper's headline negative result, concretely: plain AMF violates
    /// sharing incentive. Job A (spread demand) would get its full demand
    /// 10 under equal division, but AMF equalizes both jobs at 7.5.
    fn si_violation_instance() -> Instance<Rational> {
        Instance::new(
            vec![ri(10), ri(10)],
            vec![vec![ri(5), ri(5)], vec![ri(0), ri(10)]],
        )
        .unwrap()
    }

    #[test]
    fn amf_resists_demand_inflation_lies() {
        let mut rng = StdRng::seed_from_u64(4242);
        let solver = AmfSolver::new();
        for _ in 0..25 {
            let n = rng.gen_range(2..5usize);
            let m = rng.gen_range(1..4usize);
            let inst = Instance::new(
                (0..m).map(|_| ri(rng.gen_range(1..12))).collect(),
                (0..n)
                    .map(|_| (0..m).map(|_| ri(rng.gen_range(0..10))).collect())
                    .collect(),
            )
            .unwrap();
            let liar = rng.gen_range(0..n);
            // Inflate every demand entry by a random integer factor.
            let lie: Vec<Rational> = (0..m)
                .map(|s| inst.demand(liar, s) * ri(rng.gen_range(1..4)) + ri(rng.gen_range(0..3)))
                .collect();
            let probe = probe_strategy_proofness(&inst, liar, lie, &solver);
            assert!(
                !probe.lie_helped(),
                "lie helped: truthful {} useful {}",
                probe.truthful,
                probe.useful_when_lying
            );
        }
    }

    #[test]
    fn amf_resists_demand_deflation_lies() {
        let mut rng = StdRng::seed_from_u64(777);
        let solver = AmfSolver::new();
        for _ in 0..25 {
            let n = rng.gen_range(2..5usize);
            let m = rng.gen_range(1..4usize);
            let inst = Instance::new(
                (0..m).map(|_| ri(rng.gen_range(1..12))).collect(),
                (0..n)
                    .map(|_| (0..m).map(|_| ri(rng.gen_range(0..10))).collect())
                    .collect(),
            )
            .unwrap();
            let liar = rng.gen_range(0..n);
            // Understate demands (halve, floor at 0).
            let lie: Vec<Rational> = (0..m).map(|s| inst.demand(liar, s) * r(1, 2)).collect();
            let probe = probe_strategy_proofness(&inst, liar, lie, &solver);
            assert!(!probe.lie_helped());
        }
    }

    #[test]
    fn leximin_cmp_orders_correctly() {
        use std::cmp::Ordering;
        let a = [r(1, 1), r(3, 1)];
        let b = [r(2, 1), r(2, 1)];
        // sorted: [1,3] vs [2,2]: first element decides.
        assert_eq!(leximin_cmp(&a, &b), Ordering::Less);
        assert_eq!(leximin_cmp(&b, &a), Ordering::Greater);
        assert_eq!(leximin_cmp(&a, &a), Ordering::Equal);
        // Order-insensitive: permutations compare equal.
        assert_eq!(leximin_cmp(&[r(3, 1), r(1, 1)], &a), Ordering::Equal);
    }

    #[test]
    fn amf_leximin_dominates_psmf_on_the_motivating_example() {
        let inst = Instance::new(
            vec![ri(6), ri(2)],
            vec![vec![ri(6), ri(0)], vec![ri(6), ri(2)]],
        )
        .unwrap();
        let amf = AmfSolver::new().allocate(&inst);
        let psmf = PerSiteMaxMin.allocate(&inst);
        assert_eq!(
            leximin_cmp(amf.aggregates(), psmf.aggregates()),
            std::cmp::Ordering::Greater
        );
    }

    #[test]
    fn probe_reports_truthful_aggregate() {
        let inst = si_violation_instance();
        let probe = probe_strategy_proofness(&inst, 0, vec![ri(5), ri(5)], &AmfSolver::new());
        // "Lying" with the truth changes nothing.
        assert_eq!(probe.truthful, probe.useful_when_lying);
    }
}
