//! The allocation-policy abstraction shared by solvers, baselines, the
//! simulator and the experiment harness.

use crate::model::{Allocation, Instance};
use crate::solver::{AmfSolver, SolverPool};
use amf_numeric::Scalar;

/// Anything that turns an [`Instance`] into a feasible [`Allocation`].
///
/// The simulator re-invokes the policy at every scheduling event (arrival,
/// portion completion, departure) on the instance formed by the jobs
/// currently in the system.
pub trait AllocationPolicy<S: Scalar>: Send + Sync {
    /// Short stable identifier used in experiment output.
    fn name(&self) -> &'static str;

    /// Compute an allocation for the instance. Must return a feasible
    /// allocation with one row per job.
    fn allocate(&self, inst: &Instance<S>) -> Allocation<S>;

    /// Like [`allocate`](Self::allocate), but offered a caller-owned
    /// [`SolverPool`] so policies that run a solver can reuse its buffers
    /// across invocations (the simulator re-solves on every scheduling
    /// event). The default implementation ignores the pool — only
    /// solver-backed policies benefit.
    fn allocate_with_pool(&self, inst: &Instance<S>, pool: &mut SolverPool<S>) -> Allocation<S> {
        let _ = pool;
        self.allocate(inst)
    }
}

impl<S: Scalar> AllocationPolicy<S> for AmfSolver {
    fn name(&self) -> &'static str {
        match self.mode() {
            crate::solver::FairnessMode::Plain => "amf",
            crate::solver::FairnessMode::Enhanced => "amf-enhanced",
        }
    }

    fn allocate(&self, inst: &Instance<S>) -> Allocation<S> {
        self.solve(inst).allocation
    }

    fn allocate_with_pool(&self, inst: &Instance<S>, pool: &mut SolverPool<S>) -> Allocation<S> {
        self.solve_with_pool(inst, pool).allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Instance;

    #[test]
    fn amf_solver_implements_policy() {
        let inst = Instance::new(vec![4.0], vec![vec![4.0], vec![4.0]]).unwrap();
        let policy: &dyn AllocationPolicy<f64> = &AmfSolver::new();
        assert_eq!(policy.name(), "amf");
        let alloc = policy.allocate(&inst);
        assert!((alloc.aggregate(0) - 2.0).abs() < 1e-9);
        let enhanced: &dyn AllocationPolicy<f64> = &AmfSolver::enhanced();
        assert_eq!(enhanced.name(), "amf-enhanced");
    }

    #[test]
    fn trait_objects_are_usable_in_collections() {
        let inst = Instance::new(vec![2.0], vec![vec![2.0]]).unwrap();
        let policies: Vec<Box<dyn AllocationPolicy<f64>>> = vec![
            Box::new(AmfSolver::new()),
            Box::new(crate::baselines::PerSiteMaxMin),
            Box::new(crate::baselines::EqualDivision),
        ];
        for p in &policies {
            let a = p.allocate(&inst);
            assert!(a.is_feasible(&inst), "{} infeasible", p.name());
        }
    }
}
