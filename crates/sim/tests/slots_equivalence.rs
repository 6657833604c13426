//! Bit-exactness of the slot-rounded engine.
//!
//! [`simulate_slots`] is a rate source of the fluid engine's event loop.
//! Before that, it ran its own copy of the loop; that copy is kept below
//! verbatim as the oracle. Both must report the same completion bits,
//! makespan, utilization and reallocation count, on traces with 1–5
//! sites, integral and half-integral capacities (0 included), batch and
//! staggered arrivals, and zero-work portions and jobs, under five
//! policies. A generated trace with work at a half-slot site (capacity
//! 0.5) is refused by the engine instead, with `check_trace`'s message.

// The oracle is kept verbatim, indexed site loops included (the crate
// allows them too).
#![allow(clippy::needless_range_loop)]

use amf_core::{
    AllocationPolicy, AmfSolver, EqualDivision, Instance, PerSiteMaxMin, ProportionalToDemand,
};
use amf_sim::slots::{largest_remainder_round, simulate_slots};
use amf_sim::{check_trace, JobOutcome, SimReport};
use amf_workload::trace::{Trace, TraceJob};
use proptest::prelude::*;

// ---- Oracle: the standalone slot loop, verbatim ----

const WORK_EPS: f64 = 1e-7;

fn loop_simulate_slots(trace: &Trace, policy: &dyn AllocationPolicy<f64>) -> SimReport {
    let m = trace.capacities.len();
    let total_capacity: f64 = trace.capacities.iter().sum();

    let mut order: Vec<usize> = (0..trace.jobs.len()).collect();
    order.sort_by(|&a, &b| {
        trace.jobs[a]
            .arrival
            .partial_cmp(&trace.jobs[b].arrival)
            .expect("NaN arrival time")
    });
    let mut next_arrival = 0usize;

    let mut outcomes: Vec<JobOutcome> = trace
        .jobs
        .iter()
        .map(|j| JobOutcome {
            arrival: j.arrival,
            completion: None,
        })
        .collect();

    struct Active {
        idx: usize,
        remaining: Vec<f64>,
        demand: Vec<f64>,
    }

    let mut active: Vec<Active> = Vec::new();
    let mut t = 0.0f64;
    let mut used_capacity_time = 0.0f64;
    let mut reallocations = 0usize;
    let mut makespan = 0.0f64;

    loop {
        while next_arrival < order.len() && trace.jobs[order[next_arrival]].arrival <= t {
            let idx = order[next_arrival];
            let job = &trace.jobs[idx];
            assert_eq!(job.work.len(), m, "job {idx}: ragged work row");
            let mut demand = job.demand.clone();
            for s in 0..m {
                assert!(
                    job.work[s] <= 0.0 || job.demand[s] > 0.0,
                    "job {idx}: work at site {s} but zero demand"
                );
                if job.work[s] <= 0.0 {
                    demand[s] = 0.0;
                }
            }
            if job.work.iter().all(|&w| w <= 0.0) {
                outcomes[idx].completion = Some(t.max(job.arrival));
            } else {
                active.push(Active {
                    idx,
                    remaining: job.work.clone(),
                    demand,
                });
            }
            next_arrival += 1;
        }

        if active.is_empty() {
            match order.get(next_arrival) {
                Some(&idx) => {
                    t = trace.jobs[idx].arrival;
                    continue;
                }
                None => break,
            }
        }

        let inst = Instance::new(
            trace.capacities.clone(),
            active.iter().map(|a| a.demand.clone()).collect(),
        )
        .expect("valid instance");
        let fluid = policy.allocate(&inst);
        reallocations += 1;

        // Round each site independently.
        let n = active.len();
        let mut rates = vec![vec![0.0; m]; n];
        for s in 0..m {
            let fluid_col: Vec<f64> = (0..n).map(|j| fluid.at(j, s)).collect();
            let demand_col: Vec<f64> = active.iter().map(|a| a.demand[s]).collect();
            let rem_col: Vec<f64> = active.iter().map(|a| a.remaining[s]).collect();
            let slots =
                largest_remainder_round(&fluid_col, trace.capacities[s], &demand_col, &rem_col);
            for j in 0..n {
                rates[j][s] = slots[j];
            }
        }

        let mut dt_complete = f64::INFINITY;
        for (a, row) in active.iter().zip(&rates) {
            for s in 0..m {
                if a.remaining[s] > 0.0 && row[s] > 0.0 {
                    dt_complete = dt_complete.min(a.remaining[s] / row[s]);
                }
            }
        }
        let dt_arrival = order
            .get(next_arrival)
            .map(|&idx| trace.jobs[idx].arrival - t)
            .unwrap_or(f64::INFINITY);
        let dt = dt_complete.min(dt_arrival);
        if !dt.is_finite() {
            break;
        }

        let consumed: f64 = rates.iter().flatten().sum();
        used_capacity_time += consumed * dt;
        t += dt;
        for (a, row) in active.iter_mut().zip(&rates) {
            for s in 0..m {
                if a.remaining[s] > 0.0 {
                    a.remaining[s] -= row[s] * dt;
                    if a.remaining[s] <= WORK_EPS {
                        a.remaining[s] = 0.0;
                        a.demand[s] = 0.0;
                    }
                }
            }
        }

        let mut k = 0;
        while k < active.len() {
            if active[k].remaining.iter().all(|&r| r <= 0.0) {
                outcomes[active[k].idx].completion = Some(t);
                makespan = makespan.max(t);
                active.swap_remove(k);
            } else {
                k += 1;
            }
        }
    }

    let mean_utilization = if makespan > 0.0 && total_capacity > 0.0 {
        used_capacity_time / (total_capacity * makespan)
    } else {
        0.0
    };

    SimReport {
        jobs: outcomes,
        makespan,
        mean_utilization,
        reallocations,
    }
}

// ---- Inputs ----

fn policies() -> Vec<Box<dyn AllocationPolicy<f64>>> {
    vec![
        Box::new(AmfSolver::new()),
        Box::new(AmfSolver::enhanced()),
        Box::new(PerSiteMaxMin),
        Box::new(EqualDivision),
        Box::new(ProportionalToDemand),
    ]
}

/// A portion: `(kind, work, demand)`. Kind 0 is a zero-work portion with
/// no demand, 1 a zero-work portion that still names a demand (admission
/// must zero it), 2..=4 a portion with work.
type Portion = (u8, f64, f64);

/// Up to 8 jobs on 1–5 sites. Capacities are multiples of 0.5 in
/// `[0, 8]`; arrivals are all 0 (batch) or multiples of 0.25 in `[0, 12)`
/// (staggered, with ties).
fn trace() -> impl Strategy<Value = Trace> {
    (1usize..6, 1usize..9, 0u8..2).prop_flat_map(|(m, n, staggered)| {
        (
            proptest::collection::vec(0u8..17, m),
            proptest::collection::vec(
                (
                    0u8..48,
                    proptest::collection::vec((0u8..5, 0.5f64..30.0, 1.0f64..6.0), m),
                ),
                n,
            ),
        )
            .prop_map(move |(halves, jobs)| Trace {
                capacities: halves.iter().map(|&h| f64::from(h) * 0.5).collect(),
                jobs: jobs
                    .into_iter()
                    .map(|(quarters, portions)| {
                        let (work, demand): (Vec<f64>, Vec<f64>) = portions
                            .into_iter()
                            .map(|(kind, w, d): Portion| match kind {
                                0 => (0.0, 0.0),
                                1 => (0.0, d),
                                _ => (w, d),
                            })
                            .unzip();
                        TraceJob {
                            arrival: if staggered == 1 {
                                f64::from(quarters) * 0.25
                            } else {
                                0.0
                            },
                            work,
                            demand,
                        }
                    })
                    .collect(),
            })
    })
}

fn assert_bit_identical(trace: &Trace, policy: &dyn AllocationPolicy<f64>) {
    let oracle = loop_simulate_slots(trace, policy);
    let engine = simulate_slots(trace, policy);
    let name = policy.name();
    let bits = |r: &SimReport| -> Vec<Option<u64>> {
        r.jobs
            .iter()
            .map(|j| j.completion.map(f64::to_bits))
            .collect()
    };
    assert_eq!(
        bits(&oracle),
        bits(&engine),
        "{name}: completions in {trace:?}"
    );
    assert_eq!(
        oracle.makespan.to_bits(),
        engine.makespan.to_bits(),
        "{name}: makespan in {trace:?}"
    );
    assert_eq!(
        oracle.mean_utilization.to_bits(),
        engine.mean_utilization.to_bits(),
        "{name}: utilization in {trace:?}"
    );
    assert_eq!(
        oracle.reallocations, engine.reallocations,
        "{name}: reallocations in {trace:?}"
    );
}

/// `simulate_slots` panics with `check_trace`'s message, `want`.
fn assert_refused(trace: &Trace, want: &str) {
    assert!(want.contains("is below one slot"), "{want}");
    let run = || simulate_slots(trace, &AmfSolver::new());
    let panic = std::panic::catch_unwind(run).expect_err("a refused trace ran");
    let got = panic
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    fn slot_engine_is_bit_identical_to_the_standalone_loop(trace in trace()) {
        match check_trace(&trace, true) {
            // Work at a half-slot site: the engine refuses the trace.
            Err(e) => assert_refused(&trace, &e),
            Ok(()) => {
                for policy in policies() {
                    assert_bit_identical(&trace, policy.as_ref());
                }
            }
        }
    }
}

#[test]
fn edge_cases_are_bit_identical() {
    let job = |arrival: f64, work: Vec<f64>, demand: Vec<f64>| TraceJob {
        arrival,
        work,
        demand,
    };
    let traces = [
        // No jobs at all.
        Trace {
            capacities: vec![2.0],
            jobs: vec![],
        },
        // Only zero-work jobs, one arriving late.
        Trace {
            capacities: vec![1.0, 2.0],
            jobs: vec![
                job(0.0, vec![0.0, 0.0], vec![1.0, 0.0]),
                job(3.0, vec![0.0, 0.0], vec![0.0, 0.0]),
            ],
        },
        // A zero-capacity site strands one job's portion; the other job
        // still finishes.
        Trace {
            capacities: vec![0.0, 3.0],
            jobs: vec![
                job(0.0, vec![4.0, 2.0], vec![2.0, 2.0]),
                job(0.5, vec![0.0, 5.0], vec![0.0, 3.0]),
            ],
        },
        // Half-integral capacity with fractional fluid shares.
        Trace {
            capacities: vec![2.5, 3.5],
            jobs: vec![
                job(0.0, vec![5.0, 1.0], vec![3.0, 3.0]),
                job(0.0, vec![2.0, 6.0], vec![3.0, 3.0]),
                job(1.25, vec![3.0, 3.0], vec![1.5, 2.5]),
            ],
        },
    ];
    for trace in &traces {
        for policy in policies() {
            assert_bit_identical(trace, policy.as_ref());
        }
    }
}
