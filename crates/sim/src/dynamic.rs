//! Work-aware ("dynamic") allocation policies.
//!
//! The static [`AllocationPolicy`] sees only
//! the demand matrix. Some scheduling disciplines also need the jobs'
//! remaining work — most prominently SRPT-style schedulers, which this
//! module provides as an *unfair efficiency reference* for the JCT
//! experiments: SRPT approximately minimizes mean completion time but
//! starves large jobs, bracketing the fair policies from the other side
//! than equal division does.

use amf_core::{Allocation, AllocationPolicy, Delta, Instance, SolveStats};
use amf_numeric::KahanSum;

/// The active set at a reallocation instant, as seen by an
/// [`IncrementalSession`]. Rows (and `ids` entries) are in the order the
/// rate matrix must come back in; `ids` are the engine's stable job ids
/// (the same values fed through [`Delta::AddJob`]).
pub struct SessionCtx<'a> {
    /// Stable id of each active job.
    pub ids: &'a [u64],
    /// Current site capacities.
    pub capacities: &'a [f64],
    /// Demand caps of the active jobs.
    pub demands: &'a [Vec<f64>],
    /// Remaining work of the active jobs.
    pub remaining: &'a [Vec<f64>],
}

/// A per-event-loop hook that answers every reallocation of
/// [`simulate_incremental_with_stats`](crate::simulate_incremental_with_stats),
/// created via [`DynamicPolicy::incremental_session`].
///
/// The library ships no implementation: the from-scratch event loop
/// ([`simulate_with_capacity_events`](crate::simulate_with_capacity_events))
/// is its one AMF path. The hook exists so a benchmark can wrap each
/// decision (time it, record spans around its solve and split, sample it
/// for an audit) without a copy of the engine. Alongside each
/// [`SessionCtx`] the engine narrates the active-set changes as a typed
/// [`Delta`] stream, which a session may apply to an
/// [`IncrementalAmf`](amf_core::IncrementalAmf) or ignore.
pub trait IncrementalSession {
    /// Feed one delta. The engine only emits internally consistent
    /// streams, so implementations may treat rejection as a bug.
    fn apply(&mut self, delta: &Delta<f64>);

    /// The rate matrix for the current active set, rows aligned with
    /// `ctx.ids`.
    fn rates(&mut self, ctx: &SessionCtx<'_>) -> Vec<Vec<f64>>;

    /// Cumulative solver statistics over the session's solves.
    fn stats(&self) -> SolveStats;
}

/// A policy that may use the jobs' remaining work per site.
pub trait DynamicPolicy: Send + Sync {
    /// Identifier used in experiment output.
    fn name(&self) -> &'static str;

    /// Produce a feasible allocation for the current instant.
    /// `remaining[j][s]` is job `j`'s outstanding work at site `s`.
    fn allocate_dynamic(&self, inst: &Instance<f64>, remaining: &[Vec<f64>]) -> Allocation<f64>;

    /// Open an [`IncrementalSession`] over sites with the given
    /// capacities, for a caller that wants to wrap each decision of
    /// [`simulate_incremental_with_stats`](crate::simulate_incremental_with_stats).
    /// The default, which every policy in this crate keeps, is `None`: the
    /// engine then calls [`allocate_dynamic`] at every event.
    ///
    /// [`allocate_dynamic`]: Self::allocate_dynamic
    fn incremental_session(&self, capacities: &[f64]) -> Option<Box<dyn IncrementalSession>> {
        let _ = capacities;
        None
    }
}

/// Every static policy is trivially dynamic (it ignores the work).
impl<P: AllocationPolicy<f64>> DynamicPolicy for P {
    fn name(&self) -> &'static str {
        AllocationPolicy::name(self)
    }

    fn allocate_dynamic(&self, inst: &Instance<f64>, _remaining: &[Vec<f64>]) -> Allocation<f64> {
        self.allocate(inst)
    }
}

/// Shortest-Remaining-Processing-Time per site: at every site, grant
/// capacity greedily to the jobs with the least total remaining work,
/// up to their demand caps. Efficient for mean JCT, blatantly unfair —
/// the other end of the fairness/efficiency spectrum from equal division.
#[derive(Debug, Clone, Copy, Default)]
pub struct SrptPerSite;

impl DynamicPolicy for SrptPerSite {
    fn name(&self) -> &'static str {
        "srpt-per-site"
    }

    fn allocate_dynamic(&self, inst: &Instance<f64>, remaining: &[Vec<f64>]) -> Allocation<f64> {
        let n = inst.n_jobs();
        let m = inst.n_sites();
        assert_eq!(remaining.len(), n, "remaining-work rows != jobs");
        let totals: Vec<f64> = remaining
            .iter()
            .map(|row| row.iter().copied().collect::<KahanSum>().total())
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| totals[a].partial_cmp(&totals[b]).expect("NaN work"));
        let mut split = vec![vec![0.0; m]; n];
        for s in 0..m {
            let mut left = inst.capacity(s);
            for &j in &order {
                if left <= 0.0 {
                    break;
                }
                let give = inst.demand(j, s).min(left);
                split[j][s] = give;
                left -= give;
            }
        }
        Allocation::from_split(split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_core::AmfSolver;

    fn inst2() -> Instance<f64> {
        Instance::new(vec![10.0], vec![vec![10.0], vec![10.0]]).unwrap()
    }

    #[test]
    fn static_policies_adapt() {
        let inst = inst2();
        let remaining = vec![vec![5.0], vec![50.0]];
        let p = AmfSolver::new();
        let a = DynamicPolicy::allocate_dynamic(&p, &inst, &remaining);
        assert_eq!(a.aggregate(0), 5.0);
        assert_eq!(DynamicPolicy::name(&p), "amf");
    }

    #[test]
    fn srpt_prioritizes_short_jobs() {
        let inst = inst2();
        let remaining = vec![vec![50.0], vec![5.0]];
        let a = SrptPerSite.allocate_dynamic(&inst, &remaining);
        // Job 1 (short) gets its full demand; job 0 the leftovers.
        assert_eq!(a.aggregate(1), 10.0);
        assert_eq!(a.aggregate(0), 0.0);
        assert!(a.is_feasible(&inst));
    }

    #[test]
    fn srpt_respects_demand_caps() {
        let inst = Instance::new(vec![10.0], vec![vec![3.0], vec![10.0]]).unwrap();
        let a = SrptPerSite.allocate_dynamic(&inst, &[vec![1.0], vec![2.0]]);
        assert_eq!(a.aggregate(0), 3.0);
        assert_eq!(a.aggregate(1), 7.0);
    }
}
