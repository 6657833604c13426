//! Slot-granular simulation: fluid allocations rounded to whole slots.
//!
//! Real clusters hand out integral slots/containers, not fluid rates.
//! [`simulate_slots`] runs the fluid engine's event loop with each
//! reallocation discretized site by site by **largest-remainder
//! rounding** (each job gets `floor(x)` slots, the site's leftover slots
//! go to the largest fractional parts, ties broken toward the job with the
//! most remaining work to prevent starvation).
//! Comparing its results against the fluid engine checks that the paper's
//! conclusions are not an artifact of infinite divisibility (ablation).

use crate::engine::{run_engine, RateCtx};
use crate::report::SimReport;
use amf_core::AllocationPolicy;
use amf_workload::trace::Trace;

/// Round one site's fluid allocations to integral slots.
///
/// `fluid[j]` is job `j`'s fluid allocation at the site, `capacity` the
/// site's (integral) slot count, `demand[j]` the per-job cap, and
/// `remaining[j]` the tie-break key. Returns integral slot counts.
pub fn largest_remainder_round(
    fluid: &[f64],
    capacity: f64,
    demand: &[f64],
    remaining: &[f64],
) -> Vec<f64> {
    let n = fluid.len();
    let mut slots: Vec<f64> = fluid.iter().map(|x| x.floor()).collect();
    let used: f64 = slots.iter().sum();
    let budget = (capacity.floor() - used).max(0.0) as usize;
    // Candidates that can still take one more slot, by fractional part
    // then remaining work.
    let mut order: Vec<usize> = (0..n)
        .filter(|&j| slots[j] + 1.0 <= demand[j].floor() + 1e-9)
        .collect();
    order.sort_by(|&a, &b| {
        let fa = fluid[a] - fluid[a].floor();
        let fb = fluid[b] - fluid[b].floor();
        fb.partial_cmp(&fa)
            .expect("fractional parts are finite: the model rejects NaN")
            .then(
                remaining[b]
                    .partial_cmp(&remaining[a])
                    .expect("remaining work is finite: the model rejects NaN"),
            )
    });
    for &j in order.iter().take(budget) {
        slots[j] += 1.0;
    }
    slots
}

/// Simulate with integral slot allocations (same contract as
/// [`crate::simulate`]): the fluid engine, with each reallocation's
/// allocation rounded site by site by [`largest_remainder_round`]. A site
/// runs `floor(capacity)` slots.
///
/// # Panics
/// Panics on malformed traces (see [`crate::simulate`]), and on work at a
/// site where the job's demand is below one slot, or where the site's
/// capacity is above zero but below one slot: rounding never gives such a
/// job a slot there, so it could never finish. (A site of capacity 0
/// strands work on the fluid engine too, and is allowed.) The message
/// names the job and the site; [`check_trace`](crate::check_trace) with
/// `slots` returns it as an error instead.
pub fn simulate_slots(trace: &Trace, policy: &dyn AllocationPolicy<f64>) -> SimReport {
    if let Err(e) = crate::check_trace(trace, true) {
        panic!("{e}");
    }
    run_engine(trace, &[], None, &mut |ctx: &RateCtx<'_>| {
        let fluid = policy.allocate(&ctx.instance());
        let n = ctx.demands.len();
        let mut rates = vec![vec![0.0; ctx.capacities.len()]; n];
        for (s, &capacity) in ctx.capacities.iter().enumerate() {
            let fluid_col: Vec<f64> = (0..n).map(|j| fluid.at(j, s)).collect();
            let demand_col: Vec<f64> = ctx.demands.iter().map(|d| d[s]).collect();
            let rem_col: Vec<f64> = ctx.remaining.iter().map(|r| r[s]).collect();
            let slots = largest_remainder_round(&fluid_col, capacity, &demand_col, &rem_col);
            for (row, slot) in rates.iter_mut().zip(slots) {
                row[s] = slot;
            }
        }
        rates
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_core::AmfSolver;
    use amf_workload::trace::{Trace, TraceJob};

    #[test]
    fn rounding_conserves_capacity_and_caps() {
        let fluid = [2.5, 2.5, 1.0];
        let slots = largest_remainder_round(&fluid, 6.0, &[10.0, 10.0, 10.0], &[5.0, 1.0, 1.0]);
        let total: f64 = slots.iter().sum();
        assert_eq!(total, 6.0);
        for v in &slots {
            assert_eq!(v.fract(), 0.0);
        }
        // The extra slot goes to the larger remaining work (job 0).
        assert_eq!(slots[0], 3.0);
        assert_eq!(slots[1], 2.0);
    }

    #[test]
    fn rounding_respects_demand() {
        let slots = largest_remainder_round(&[0.9, 0.9], 2.0, &[1.0, 5.0], &[1.0, 1.0]);
        assert!(slots[0] <= 1.0);
        let total: f64 = slots.iter().sum();
        assert!(total <= 2.0);
    }

    #[test]
    #[should_panic(expected = "job 1: work at site 0 but demand 0.5 is below one slot")]
    fn sub_slot_demand_rejected() {
        let job = |demand: f64| TraceJob {
            arrival: 0.0,
            work: vec![2.0],
            demand: vec![demand],
        };
        let trace = Trace {
            capacities: vec![4.0],
            jobs: vec![job(1.0), job(0.5)],
        };
        simulate_slots(&trace, &AmfSolver::new());
    }

    #[test]
    fn integral_case_matches_fluid() {
        // Two jobs, 10-slot site, equal demand: fluid gives 5 each —
        // already integral, so slot simulation matches the fluid one.
        let trace = Trace {
            capacities: vec![10.0],
            jobs: vec![
                TraceJob {
                    arrival: 0.0,
                    work: vec![10.0],
                    demand: vec![10.0],
                },
                TraceJob {
                    arrival: 0.0,
                    work: vec![10.0],
                    demand: vec![10.0],
                },
            ],
        };
        let slot = simulate_slots(&trace, &AmfSolver::new());
        let fluid = crate::simulate(&trace, &AmfSolver::new(), &crate::SimConfig::default());
        assert!(slot.all_finished());
        assert!((slot.mean_jct() - fluid.mean_jct()).abs() < 1e-6);
    }

    #[test]
    fn fractional_shares_still_complete() {
        // Three jobs on a 10-slot site: fluid share 10/3 is fractional;
        // rounding must still finish everyone.
        let trace = Trace {
            capacities: vec![10.0],
            jobs: (0..3)
                .map(|_| TraceJob {
                    arrival: 0.0,
                    work: vec![10.0],
                    demand: vec![10.0],
                })
                .collect(),
        };
        let report = simulate_slots(&trace, &AmfSolver::new());
        assert!(report.all_finished());
        // All 10 slots stay busy until the last completion.
        assert!(report.mean_utilization > 0.95);
    }

    #[test]
    fn slot_results_track_fluid_results() {
        let trace = Trace {
            capacities: vec![8.0, 8.0],
            jobs: vec![
                TraceJob {
                    arrival: 0.0,
                    work: vec![12.0, 4.0],
                    demand: vec![8.0, 8.0],
                },
                TraceJob {
                    arrival: 0.0,
                    work: vec![8.0, 8.0],
                    demand: vec![8.0, 8.0],
                },
            ],
        };
        let slot = simulate_slots(&trace, &AmfSolver::new());
        let fluid = crate::simulate(&trace, &AmfSolver::new(), &crate::SimConfig::default());
        assert!(slot.all_finished());
        // Discretization error is bounded: within 50% here (coarse sanity —
        // the ablation bench quantifies this properly).
        assert!((slot.mean_jct() - fluid.mean_jct()).abs() / fluid.mean_jct() < 0.5);
    }
}
