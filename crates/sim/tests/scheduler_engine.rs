//! The embeddable [`Scheduler`] against the offline engine.
//!
//! The same run twice: submissions and capacity changes driven by hand
//! through `Scheduler::{submit, set_capacity, advance}`, and a trace with
//! those arrival times and capacity events through
//! [`simulate_with_capacity_events`]. Completion times must agree to
//! within 1e-12 relative: `advance(dt)` rebuilds its clock as
//! `now + (t − now)`, which can land one ulp away from the engine's `t`.

use amf_core::{AllocationPolicy, AmfSolver, PerSiteMaxMin};
use amf_sim::scheduler::Scheduler;
use amf_sim::{simulate_with_capacity_events, CapacityEvent, DynamicPolicy, SimConfig};
use amf_workload::trace::{Trace, TraceJob};
use proptest::prelude::*;

/// Up to 6 jobs on 1–4 sites with positive capacities, arrivals at
/// multiples of 0.5 in `[0, 8)` (ties included), some zero-work portions,
/// and up to 3 capacity events at multiples of 0.5 in `[0, 12)` that set a
/// site to 0 (an outage) or to a new positive capacity.
fn run() -> impl Strategy<Value = (Trace, Vec<CapacityEvent>)> {
    (1usize..5, 1usize..7, 0usize..4).prop_flat_map(|(m, n, k)| {
        (
            proptest::collection::vec(1.0f64..20.0, m),
            proptest::collection::vec(
                (
                    0u8..16,
                    proptest::collection::vec((0u8..4, 1.0f64..30.0, 1.0f64..8.0), m),
                ),
                n,
            ),
            proptest::collection::vec((0u8..24, 0usize..m, 0u8..3, 1.0f64..20.0), k),
        )
            .prop_map(|(capacities, jobs, events)| {
                let jobs = jobs
                    .into_iter()
                    .map(|(halves, portions)| {
                        let (work, demand) = portions
                            .into_iter()
                            .map(|(kind, w, d)| if kind == 0 { (0.0, 0.0) } else { (w, d) })
                            .unzip();
                        TraceJob {
                            arrival: f64::from(halves) * 0.5,
                            work,
                            demand,
                        }
                    })
                    .collect();
                let events = events
                    .into_iter()
                    .map(|(halves, site, kind, c)| CapacityEvent {
                        time: f64::from(halves) * 0.5,
                        site,
                        capacity: if kind == 0 { 0.0 } else { c },
                    })
                    .collect();
                (Trace { capacities, jobs }, events)
            })
    })
}

/// Drive `trace` and `events` through a [`Scheduler`]; the completion time
/// of every job, in trace order.
fn scheduled(
    trace: &Trace,
    events: &[CapacityEvent],
    policy: Box<dyn DynamicPolicy>,
) -> Vec<Option<f64>> {
    // The engine's order: by time (stable), capacity events before the
    // arrivals of the same instant.
    let mut moments: Vec<(f64, Option<usize>, usize)> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| (ev.time, None, i))
        .chain(
            trace
                .jobs
                .iter()
                .enumerate()
                .map(|(j, job)| (job.arrival, Some(j), 0)),
        )
        .collect();
    moments.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite times")
            .then(a.1.is_some().cmp(&b.1.is_some()))
    });
    let mut sched = Scheduler::new(trace.capacities.clone(), policy);
    let mut ids = vec![None; trace.jobs.len()];
    for (time, job, event) in moments {
        sched.advance((time - sched.now()).max(0.0));
        match job {
            Some(j) => {
                let job = &trace.jobs[j];
                ids[j] = Some(sched.submit(job.work.clone(), job.demand.clone()));
            }
            None => sched.set_capacity(events[event].site, events[event].capacity),
        }
    }
    sched.advance(1e4);
    ids.iter()
        .map(|id| sched.job(id.expect("every job submitted")).completed_at)
        .collect()
}

fn assert_close<P>(trace: &Trace, events: &[CapacityEvent], make: fn() -> P)
where
    P: AllocationPolicy<f64> + DynamicPolicy + 'static,
{
    let policy = make();
    let name = AllocationPolicy::name(&policy);
    let offline = simulate_with_capacity_events(trace, &policy, &SimConfig::default(), events);
    let online = scheduled(trace, events, Box::new(make()));
    for (j, (on, off)) in online.iter().zip(&offline.jobs).enumerate() {
        match (*on, off.completion) {
            (Some(a), Some(b)) => assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
                "{name}: job {j} online {a} vs offline {b} in {trace:?} with {events:?}"
            ),
            (a, b) => assert_eq!(a, b, "{name}: job {j} in {trace:?} with {events:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    fn scheduler_tracks_the_offline_engine((trace, events) in run()) {
        assert_close(&trace, &events, AmfSolver::new);
        assert_close(&trace, &events, || PerSiteMaxMin);
    }
}
