//! The fluid discrete-event engine.

use crate::dynamic::SessionCtx;
use crate::report::{JobOutcome, SimReport};
use crate::split::{balanced_progress_split, SplitStrategy};
use amf_core::{par_map_init, AllocationPolicy, Delta, Instance, JobId, SolveStats, SolverPool};
use amf_workload::trace::Trace;

/// Work below this absolute threshold counts as finished (the trace
/// generator produces work in the 1..1e5 range; 1e-7 is far below one
/// scheduling quantum of any policy).
const WORK_EPS: f64 = 1e-7;

/// Rates below this are treated as zero when predicting completions.
const RATE_EPS: f64 = 1e-12;

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimConfig {
    /// How aggregate allocations are split across sites.
    pub split: SplitStrategy,
    /// Reallocate only every `quantum` time units instead of at every
    /// event (`None` = event-driven, the idealized fluid model). Real
    /// schedulers run in rounds; between rounds, capacity freed by
    /// completed portions idles. Larger quanta trade allocation staleness
    /// for scheduler overhead (experiment E12).
    pub reallocation_quantum: Option<f64>,
}

/// A scheduled change to a site's capacity — failure injection (capacity
/// loss) or recovery/expansion (capacity gain). Applied at `time`; the
/// policy reallocates immediately after.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityEvent {
    /// When the change takes effect.
    pub time: f64,
    /// The affected site.
    pub site: usize,
    /// The site's capacity from `time` on (>= 0).
    pub capacity: f64,
}

/// One in-flight job: the row the engine's step functions work on, shared
/// with the [`Scheduler`](crate::scheduler::Scheduler).
pub(crate) struct ActiveJob {
    /// Stable id: the trace index, or the scheduler's submission index.
    pub(crate) idx: usize,
    /// Remaining work per site.
    pub(crate) remaining: Vec<f64>,
    /// Current demand caps (zeroed where the portion finished).
    pub(crate) demand: Vec<f64>,
}

impl ActiveJob {
    /// The admission rule: a zero-work portion carries no demand, and a
    /// job with no work at all is not admitted (`None`) — it completes on
    /// arrival.
    pub(crate) fn admit(idx: usize, work: Vec<f64>, mut demand: Vec<f64>) -> Option<ActiveJob> {
        for (d, &w) in demand.iter_mut().zip(&work) {
            if w <= 0.0 {
                *d = 0.0;
            }
        }
        let job = ActiveJob {
            idx,
            remaining: work,
            demand,
        };
        (!job.finished()).then_some(job)
    }

    fn finished(&self) -> bool {
        self.remaining.iter().all(|&r| r <= 0.0)
    }
}

/// Time until the first portion of `active` completes under `rates` (rows
/// aligned with `active`); infinite when no portion progresses.
pub(crate) fn next_completion(active: &[ActiveJob], rates: &[Vec<f64>]) -> f64 {
    let mut dt = f64::INFINITY;
    for (a, row) in active.iter().zip(rates) {
        for (&rem, &rate) in a.remaining.iter().zip(row) {
            if rem > 0.0 && rate > RATE_EPS {
                dt = dt.min(rem / rate);
            }
        }
    }
    dt
}

/// A change [`advance_and_retire`] reports, by the job's `idx`.
pub(crate) enum Progress {
    /// The job's portion at `site` finished (its demand there is now 0).
    Portion { idx: usize, site: usize },
    /// The job finished its last portion and left the active set.
    Retired { idx: usize },
}

/// Run every job of `active` for `dt` at `rates` (rows aligned with
/// `active`), then retire the jobs with no work left (`swap_remove`, so
/// `rates` no longer lines up once a job retires). `on_progress` sees
/// every portion completion in active-set order, then every retirement.
pub(crate) fn advance_and_retire(
    active: &mut Vec<ActiveJob>,
    rates: &[Vec<f64>],
    dt: f64,
    mut on_progress: impl FnMut(Progress),
) {
    for (a, row) in active.iter_mut().zip(rates) {
        for (s, &rate) in row.iter().enumerate() {
            if a.remaining[s] > 0.0 {
                a.remaining[s] -= rate * dt;
                if a.remaining[s] <= WORK_EPS {
                    a.remaining[s] = 0.0;
                    a.demand[s] = 0.0;
                    on_progress(Progress::Portion {
                        idx: a.idx,
                        site: s,
                    });
                }
            }
        }
    }
    let mut k = 0;
    while k < active.len() {
        if active[k].finished() {
            on_progress(Progress::Retired { idx: active[k].idx });
            active.swap_remove(k);
        } else {
            k += 1;
        }
    }
}

/// Check one job's rows against `m` sites: one entry per site, none
/// negative, and a demand above zero wherever there is work — with
/// `slots` (the slot engine), a demand of at least one slot, since a job
/// never holds more than `floor(demand)` slots at a site.
pub(crate) fn check_job(work: &[f64], demand: &[f64], m: usize, slots: bool) -> Result<(), String> {
    if work.len() != m {
        return Err("work row length != site count".into());
    }
    if demand.len() != m {
        return Err("demand row length != site count".into());
    }
    for (s, (&w, &d)) in work.iter().zip(demand).enumerate() {
        if !(w >= 0.0 && d >= 0.0) {
            return Err(format!("negative entry at site {s}"));
        }
        if w > 0.0 && d <= 0.0 {
            return Err(format!(
                "work at site {s} but zero demand — it could never run"
            ));
        }
        if w > 0.0 && slots && d < 1.0 {
            return Err(format!(
                "work at site {s} but demand {d} is below one slot — \
                 it could never run on the slot engine"
            ));
        }
    }
    Ok(())
}

/// Check that every job of `trace` can run (see [`simulate`]'s panics);
/// `slots` adds the slot engine's rules that a portion with work needs a
/// demand of at least one slot, and a site with capacity either none or
/// at least one slot ([`simulate_slots`](crate::slots::simulate_slots)).
/// The engines panic on a trace this refuses; a caller that reads traces
/// from users checks them here first.
///
/// # Errors
/// Returns a message naming the first offending job and site.
pub fn check_trace(trace: &Trace, slots: bool) -> Result<(), String> {
    let m = trace.capacities.len();
    for (i, job) in trace.jobs.iter().enumerate() {
        check_job(&job.work, &job.demand, m, slots).map_err(|e| format!("job {i}: {e}"))?;
        // Capacity 0 strands work on both engines alike; a capacity in
        // (0, 1) strands it on the slot engine only.
        let sub_slot = |(&w, &c): (&f64, &f64)| slots && w > 0.0 && c > 0.0 && c < 1.0;
        if let Some(s) = job.work.iter().zip(&trace.capacities).position(sub_slot) {
            let c = trace.capacities[s];
            return Err(format!(
                "job {i}: work at site {s} but capacity {c} is below one slot — \
                 it could never run on the slot engine"
            ));
        }
    }
    Ok(())
}

/// Simulate `trace` under a static `policy`. Jobs arrive per the trace,
/// receive rates from the policy at every scheduling event, and complete
/// when all their per-site portions are done.
///
/// ```
/// use amf_sim::{simulate, SimConfig};
/// use amf_core::AmfSolver;
/// use amf_workload::trace::{Trace, TraceJob};
/// // One job: 10 task-seconds at a 5-slot site, up to 2 slots at a time.
/// let trace = Trace {
///     capacities: vec![5.0],
///     jobs: vec![TraceJob { arrival: 0.0, work: vec![10.0], demand: vec![2.0] }],
/// };
/// let report = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
/// assert!((report.makespan - 5.0).abs() < 1e-9);
/// ```
///
/// The engine is deterministic: same trace + policy + config → same report.
///
/// # Panics
/// Panics if the trace is malformed (ragged rows, negative work, or work at
/// a site with zero demand — such a portion could never run).
pub fn simulate(
    trace: &Trace,
    policy: &dyn AllocationPolicy<f64>,
    config: &SimConfig,
) -> SimReport {
    simulate_with_capacity_events(trace, policy, config, &[])
}

/// [`simulate`] with failure injection: site capacities change at the
/// given [`CapacityEvent`]s (sorted internally by time).
///
/// # Panics
/// Panics on malformed traces or events (site out of range, negative
/// capacity, non-finite time).
pub fn simulate_with_capacity_events(
    trace: &Trace,
    policy: &dyn AllocationPolicy<f64>,
    config: &SimConfig,
    events: &[CapacityEvent],
) -> SimReport {
    let split = config.split;
    // One pool for the whole event loop: solver-backed policies reuse the
    // flow arena and round buffers across every reallocation.
    let mut pool = SolverPool::new();
    run_engine(
        trace,
        events,
        config.reallocation_quantum,
        &mut |ctx: &RateCtx<'_>| {
            let inst = ctx.instance();
            let alloc = policy.allocate_with_pool(&inst, &mut pool);
            match split {
                SplitStrategy::PolicySplit => alloc.split().to_vec(),
                SplitStrategy::BalancedProgress { repair_rounds } => balanced_progress_split(
                    inst.capacities(),
                    inst.demands(),
                    alloc.aggregates(),
                    ctx.remaining,
                    repair_rounds,
                ),
            }
        },
    )
}

/// Per-run counters of [`simulate_incremental_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventLoopStats {
    /// Whether the policy's [`IncrementalSession`](crate::IncrementalSession)
    /// answered the run's reallocations (`false`: the policy has none, and
    /// the engine called `allocate_dynamic` at every event).
    pub incremental: bool,
    /// Policy invocations (same meaning as [`SimReport::reallocations`]).
    pub reallocations: usize,
    /// Freeze rounds the session reports having solved.
    pub rounds_resolved: usize,
    /// Dinkelbach iterations the session reports across the run.
    pub dinkelbach_iterations: usize,
    /// Max-flow computations the session reports across the run.
    pub max_flows: usize,
}

impl EventLoopStats {
    fn from_session(report: &SimReport, stats: SolveStats) -> Self {
        EventLoopStats {
            incremental: true,
            reallocations: report.reallocations,
            rounds_resolved: stats.rounds_resolved,
            dinkelbach_iterations: stats.dinkelbach_iterations,
            max_flows: stats.max_flows,
        }
    }
}

/// The event loop of [`simulate_with_capacity_events`], with every
/// reallocation handed to the policy's
/// [`IncrementalSession`](crate::IncrementalSession): the hook a benchmark
/// uses to time, trace and sample each AMF decision. Before each
/// [`IncrementalSession::rates`](crate::IncrementalSession::rates) call the
/// session is fed the typed [`Delta`]s (arrivals, portion completions,
/// departures, capacity events) that turn the previous active set into the
/// current one.
///
/// A policy without a session (the default
/// [`DynamicPolicy::incremental_session`](crate::dynamic::DynamicPolicy::incremental_session)
/// returns `None`, as for every policy in this crate) gets
/// `allocate_dynamic` at every event, as in
/// [`simulate_dynamic`], and `incremental: false` in the stats.
///
/// # Panics
/// Panics on malformed traces or events (same contract as [`simulate`]).
pub fn simulate_incremental_with_stats(
    trace: &Trace,
    policy: &dyn crate::dynamic::DynamicPolicy,
    config: &SimConfig,
    events: &[CapacityEvent],
) -> (SimReport, EventLoopStats) {
    match policy.incremental_session(&trace.capacities) {
        Some(mut session) => {
            let report = run_engine(
                trace,
                events,
                config.reallocation_quantum,
                &mut |ctx: &RateCtx<'_>| {
                    for delta in ctx.deltas {
                        session.apply(delta);
                    }
                    session.rates(&SessionCtx {
                        ids: ctx.ids,
                        capacities: ctx.capacities,
                        demands: ctx.demands,
                        remaining: ctx.remaining,
                    })
                },
            );
            let stats = session.stats();
            let loop_stats = EventLoopStats::from_session(&report, stats);
            (report, loop_stats)
        }
        None => {
            let report = run_engine(
                trace,
                events,
                config.reallocation_quantum,
                &mut |ctx: &RateCtx<'_>| {
                    let inst = ctx.instance();
                    policy
                        .allocate_dynamic(&inst, ctx.remaining)
                        .split()
                        .to_vec()
                },
            );
            let loop_stats = EventLoopStats {
                incremental: false,
                reallocations: report.reallocations,
                ..EventLoopStats::default()
            };
            (report, loop_stats)
        }
    }
}

/// Simulate many traces in parallel, one policy instance per worker
/// thread, returning reports in trace order.
///
/// `make_policy` is invoked once per worker, so a stateful policy never
/// contends across threads. Each trace is still simulated by exactly one
/// worker, with its own solver pool, so results are identical to calling
/// [`simulate`] sequentially with any single instance of the same policy.
///
/// With one trace or one available core this degenerates to the
/// sequential loop (no threads spawned).
///
/// # Panics
/// Panics on malformed traces, or if a worker thread panics (a policy or
/// engine panic propagates).
pub fn simulate_many<F>(traces: &[Trace], make_policy: F, config: &SimConfig) -> Vec<SimReport>
where
    F: Fn() -> Box<dyn AllocationPolicy<f64>> + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    par_map_init(traces, threads, make_policy, |policy, trace| {
        simulate(trace, policy.as_ref(), config)
    })
}

/// Simulate `trace` under a work-aware [`DynamicPolicy`](crate::dynamic::DynamicPolicy) — the policy's
/// own split is used as the rate matrix (dynamic policies choose their
/// splits deliberately).
pub fn simulate_dynamic(trace: &Trace, policy: &dyn crate::dynamic::DynamicPolicy) -> SimReport {
    run_engine(trace, &[], None, &mut |ctx: &RateCtx<'_>| {
        let inst = ctx.instance();
        policy
            .allocate_dynamic(&inst, ctx.remaining)
            .split()
            .to_vec()
    })
}

/// Everything a rate source may need at a reallocation instant. Rows of
/// `demands`/`remaining` (and entries of `ids`) are in active-set order —
/// the order rate-matrix rows must come back in.
pub(crate) struct RateCtx<'a> {
    /// Current site capacities (after any capacity events).
    pub(crate) capacities: &'a [f64],
    /// Demand caps of the active jobs.
    pub(crate) demands: &'a [Vec<f64>],
    /// Remaining work of the active jobs.
    pub(crate) remaining: &'a [Vec<f64>],
    /// Stable id of each active job (its trace index).
    ids: &'a [u64],
    /// Typed deltas since the previous reallocation, in event order:
    /// exactly the mutations turning the previous active set into this one.
    deltas: &'a [Delta<f64>],
}

impl RateCtx<'_> {
    /// The active set as a dense [`Instance`] (from-scratch paths).
    pub(crate) fn instance(&self) -> Instance<f64> {
        Instance::new(self.capacities.to_vec(), self.demands.to_vec())
            .expect("active jobs always form a valid instance")
    }
}

/// Rate callback: the context for this instant → rate matrix.
pub(crate) type RateFn<'a> = &'a mut dyn FnMut(&RateCtx<'_>) -> Vec<Vec<f64>>;

/// The crate's one fluid event loop: every offline engine (fluid,
/// dynamic, session-driven, slot-rounded) is a rate source of it.
/// `rate_fn(ctx)` returns the rate matrix for the current instant;
/// `capacity_events` inject site capacity changes. The engine narrates
/// every change to the active set as a [`Delta`] stream, which
/// [`simulate_incremental_with_stats`] passes on to the policy's session;
/// the other rate sources ignore it.
pub(crate) fn run_engine(
    trace: &Trace,
    capacity_events: &[CapacityEvent],
    quantum: Option<f64>,
    rate_fn: RateFn<'_>,
) -> SimReport {
    assert!(
        quantum.is_none_or(|q| q > 0.0 && q.is_finite()),
        "reallocation quantum must be positive"
    );
    if let Err(e) = check_trace(trace, false) {
        panic!("{e}");
    }
    let m = trace.capacities.len();
    for (i, ev) in capacity_events.iter().enumerate() {
        assert!(ev.site < m, "capacity event {i}: site out of range");
        assert!(
            ev.capacity >= 0.0 && ev.time.is_finite(),
            "capacity event {i}: invalid time or capacity"
        );
    }
    let mut events: Vec<CapacityEvent> = capacity_events.to_vec();
    events.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("NaN event time"));
    let mut next_event = 0usize;
    let mut capacities = trace.capacities.clone();

    // Arrivals sorted by time (stable on ties → trace order).
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

    let mut active: Vec<ActiveJob> = Vec::new();
    let mut t = 0.0f64;
    let mut used_capacity_time = 0.0f64; // ∫ (Σ rates) dt
    let mut reallocations = 0usize;
    let mut makespan = 0.0f64;
    // Quantized mode: rates cached per trace index until the next round.
    // BTreeMap for deterministic iteration (workspace convention, clippy.toml).
    let mut cached_rates: std::collections::BTreeMap<usize, Vec<f64>> =
        std::collections::BTreeMap::new();
    let mut next_round = 0.0f64;
    // Typed narration of active-set changes since the last reallocation,
    // consumed (and cleared) at each rate_fn call.
    let mut deltas: Vec<Delta<f64>> = Vec::new();

    loop {
        // Apply capacity events that are due.
        while next_event < events.len() && events[next_event].time <= t {
            let ev = events[next_event];
            capacities[ev.site] = ev.capacity;
            deltas.push(Delta::CapacityChange {
                site: ev.site,
                capacity: ev.capacity,
            });
            next_event += 1;
        }

        // Admit everything that has arrived by now.
        while next_arrival < order.len() && trace.jobs[order[next_arrival]].arrival <= t {
            let idx = order[next_arrival];
            let job = &trace.jobs[idx];
            match ActiveJob::admit(idx, job.work.clone(), job.demand.clone()) {
                Some(aj) => {
                    deltas.push(Delta::AddJob {
                        id: JobId(idx as u64),
                        demands: aj.demand.clone(),
                        weight: 1.0,
                    });
                    active.push(aj);
                }
                None => outcomes[idx].completion = Some(t.max(job.arrival)),
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

        // Jobs whose only remaining work sits at zero-capacity sites are
        // stuck until a capacity event restores service; if no such event
        // is pending either, the starvation check below catches it.

        // Allocate — every event in fluid mode, once per round in
        // quantized mode (jobs arriving mid-round idle until the next).
        let recompute = match quantum {
            None => true,
            Some(_) => t + 1e-12 >= next_round,
        };
        let rates: Vec<Vec<f64>> = if recompute {
            let demands: Vec<Vec<f64>> = active.iter().map(|a| a.demand.clone()).collect();
            let remaining: Vec<Vec<f64>> = active.iter().map(|a| a.remaining.clone()).collect();
            let ids: Vec<u64> = active.iter().map(|a| a.idx as u64).collect();
            let ctx = RateCtx {
                capacities: &capacities,
                demands: &demands,
                remaining: &remaining,
                ids: &ids,
                deltas: &deltas,
            };
            let fresh = rate_fn(&ctx);
            debug_assert_eq!(fresh.len(), active.len(), "rate matrix row count");
            #[cfg(feature = "audit")]
            {
                // Rates are resource allocations of the active instance:
                // every reallocation must stay within demands + capacities.
                let cert = amf_audit::feasibility_cert(
                    &ctx.instance(),
                    &amf_core::Allocation::from_split(fresh.clone()),
                );
                if let Some(violations) = cert.counterexample() {
                    panic!(
                        "policy returned an infeasible rate matrix at t={t}: \
                         {violations:?}"
                    );
                }
            }
            deltas.clear();
            reallocations += 1;
            if let Some(q) = quantum {
                next_round = t + q;
                cached_rates.clear();
                for (a, row) in active.iter().zip(&fresh) {
                    cached_rates.insert(a.idx, row.clone());
                }
            }
            fresh
        } else {
            active
                .iter()
                .map(|a| {
                    cached_rates
                        .get(&a.idx)
                        .cloned()
                        .unwrap_or_else(|| vec![0.0; m])
                })
                .collect()
        };

        let dt_complete = next_completion(&active, &rates);
        let dt_arrival = order
            .get(next_arrival)
            .map(|&idx| trace.jobs[idx].arrival - t)
            .unwrap_or(f64::INFINITY);
        let dt_event = events
            .get(next_event)
            .map(|ev| ev.time - t)
            .unwrap_or(f64::INFINITY);
        let dt_round = match quantum {
            Some(_) => (next_round - t).max(0.0),
            None => f64::INFINITY,
        };

        let dt = dt_complete.min(dt_arrival).min(dt_event).min(dt_round);
        if !dt.is_finite() {
            // No progress possible and nothing will arrive: the remaining
            // jobs are starved (degenerate input, e.g. zero capacity).
            break;
        }

        // Advance.
        let consumed: f64 = active
            .iter()
            .zip(&rates)
            .map(|(a, row)| {
                (0..m)
                    .map(|s| if a.remaining[s] > 0.0 { row[s] } else { 0.0 })
                    .sum::<f64>()
            })
            .sum();
        used_capacity_time += consumed * dt;
        t += dt;
        advance_and_retire(&mut active, &rates, dt, |progress| match progress {
            Progress::Portion { idx, site } => deltas.push(Delta::DemandChange {
                id: JobId(idx as u64),
                site,
                demand: 0.0,
            }),
            Progress::Retired { idx } => {
                outcomes[idx].completion = Some(t);
                makespan = makespan.max(t);
                deltas.push(Delta::RemoveJob {
                    id: JobId(idx as u64),
                });
            }
        });
    }

    let available = capacity_integral(&trace.capacities, &events, makespan);
    let mean_utilization = if available > 0.0 {
        used_capacity_time / available
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

/// ∫ total capacity dt over `[0, horizon]` given the initial capacities
/// and the (sorted) capacity events.
fn capacity_integral(initial: &[f64], events: &[CapacityEvent], horizon: f64) -> f64 {
    let mut caps = initial.to_vec();
    let mut total: f64 = caps.iter().sum();
    let mut t = 0.0;
    let mut integral = 0.0;
    for ev in events {
        let at = ev.time.clamp(0.0, horizon);
        integral += total * (at - t).max(0.0);
        t = t.max(at);
        caps[ev.site] = ev.capacity;
        total = caps.iter().sum();
        if t >= horizon {
            break;
        }
    }
    integral += total * (horizon - t).max(0.0);
    integral
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_core::{AmfSolver, PerSiteMaxMin};
    use amf_workload::trace::{Trace, TraceJob};

    fn batch_trace(capacities: Vec<f64>, jobs: Vec<(Vec<f64>, Vec<f64>)>) -> Trace {
        Trace {
            capacities,
            jobs: jobs
                .into_iter()
                .map(|(work, demand)| TraceJob {
                    arrival: 0.0,
                    work,
                    demand,
                })
                .collect(),
        }
    }

    #[test]
    fn simulate_many_matches_sequential_in_order() {
        let traces: Vec<Trace> = (1..6)
            .map(|k| {
                batch_trace(
                    vec![4.0 + k as f64, 3.0],
                    vec![
                        (vec![6.0 * k as f64, 2.0], vec![3.0, 1.0]),
                        (vec![4.0, 5.0], vec![2.0, 2.0]),
                    ],
                )
            })
            .collect();
        let config = SimConfig::default();
        let many = simulate_many(&traces, || Box::new(AmfSolver::new()), &config);
        assert_eq!(many.len(), traces.len());
        let solver = AmfSolver::new();
        for (trace, parallel) in traces.iter().zip(&many) {
            let sequential = simulate(trace, &solver, &config);
            assert_eq!(parallel.makespan, sequential.makespan);
            for (a, b) in parallel.jobs.iter().zip(&sequential.jobs) {
                assert_eq!(a.completion, b.completion);
            }
        }
        assert!(simulate_many(&[], || Box::new(AmfSolver::new()), &config).is_empty());
    }

    #[test]
    fn single_job_runs_at_demand_rate() {
        // Work 10 at one site, demand 2, capacity 5 → runs at rate 2,
        // finishes at t = 5.
        let trace = batch_trace(vec![5.0], vec![(vec![10.0], vec![2.0])]);
        let report = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        assert!(report.all_finished());
        assert!((report.jobs[0].completion.unwrap() - 5.0).abs() < 1e-6);
        assert!((report.makespan - 5.0).abs() < 1e-6);
        // Utilization: 2 of 5 slots busy the whole time.
        assert!((report.mean_utilization - 0.4).abs() < 1e-6);
    }

    #[test]
    fn two_jobs_share_then_speed_up() {
        // Two identical jobs, work 10 each, demand 10, capacity 10:
        // share at rate 5 → both finish at t=2... they finish together, so
        // no speed-up phase: JCT = 2 for both.
        let trace = batch_trace(
            vec![10.0],
            vec![(vec![10.0], vec![10.0]), (vec![10.0], vec![10.0])],
        );
        let report = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        for j in &report.jobs {
            assert!((j.completion.unwrap() - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn short_job_departure_frees_capacity() {
        // Job 0: work 5, job 1: work 20; both demand 10 on one 10-slot
        // site. Phase 1: rates 5/5 until t=1 (job 0 done). Phase 2: job 1
        // runs at 10: remaining 15 → 1.5 more. Makespan 2.5.
        let trace = batch_trace(
            vec![10.0],
            vec![(vec![5.0], vec![10.0]), (vec![20.0], vec![10.0])],
        );
        let report = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        assert!((report.jobs[0].completion.unwrap() - 1.0).abs() < 1e-6);
        assert!((report.jobs[1].completion.unwrap() - 2.5).abs() < 1e-6);
        assert!(report.reallocations >= 2);
    }

    #[test]
    fn arrivals_trigger_reallocation() {
        // Job 0 arrives at 0 with work 10, demand 10, capacity 10.
        // Job 1 arrives at 0.5 (job 0 has 5 work left): they share at 5
        // each. Job 0 finishes at 0.5 + 1 = 1.5; job 1 has done 5 of its
        // 10 by then and runs at 10 → finishes at 1.5 + 0.5 = 2.0.
        let trace = Trace {
            capacities: vec![10.0],
            jobs: vec![
                TraceJob {
                    arrival: 0.0,
                    work: vec![10.0],
                    demand: vec![10.0],
                },
                TraceJob {
                    arrival: 0.5,
                    work: vec![10.0],
                    demand: vec![10.0],
                },
            ],
        };
        let report = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        assert!((report.jobs[0].completion.unwrap() - 1.5).abs() < 1e-6);
        assert!((report.jobs[1].completion.unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn multi_site_job_finishes_when_slowest_portion_does() {
        // Work (8, 2), demand (4, 4), capacities (4, 4), alone: runs at
        // demand everywhere: portions done at 2 and 0.5 → JCT 2.
        let trace = batch_trace(vec![4.0, 4.0], vec![(vec![8.0, 2.0], vec![4.0, 4.0])]);
        let report = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        assert!((report.jobs[0].completion.unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn balanced_split_improves_skewed_jct() {
        // Two jobs on two sites; job 0's work is heavily skewed to site 0.
        // With the JCT add-on, job 0's aggregate is steered toward site 0
        // and it finishes no later than under the arbitrary policy split.
        let trace = batch_trace(
            vec![10.0, 10.0],
            vec![
                (vec![18.0, 2.0], vec![10.0, 10.0]),
                (vec![10.0, 10.0], vec![10.0, 10.0]),
            ],
        );
        let plain = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        let balanced = simulate(
            &trace,
            &AmfSolver::new(),
            &SimConfig {
                split: SplitStrategy::BalancedProgress { repair_rounds: 4 },
                ..SimConfig::default()
            },
        );
        assert!(balanced.all_finished());
        assert!(balanced.mean_jct() <= plain.mean_jct() + 1e-6);
    }

    #[test]
    fn psmf_and_amf_agree_on_symmetric_input() {
        let trace = batch_trace(
            vec![6.0],
            vec![(vec![6.0], vec![6.0]), (vec![6.0], vec![6.0])],
        );
        let a = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        let p = simulate(&trace, &PerSiteMaxMin, &SimConfig::default());
        assert!((a.mean_jct() - p.mean_jct()).abs() < 1e-6);
    }

    #[test]
    fn zero_work_job_completes_instantly() {
        let trace = batch_trace(vec![5.0], vec![(vec![0.0], vec![0.0])]);
        let report = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        assert_eq!(report.jobs[0].completion, Some(0.0));
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn starved_jobs_are_reported_unfinished() {
        // Zero capacity: the job can never run.
        let trace = batch_trace(vec![0.0], vec![(vec![5.0], vec![1.0])]);
        let report = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        assert!(!report.all_finished());
        assert_eq!(report.jobs[0].completion, None);
    }

    #[test]
    fn check_trace_applies_the_slot_rule_only_to_the_slot_engine() {
        // A zero-work portion may carry any demand; job 1's portion at
        // site 1 is the first that cannot get a slot.
        let trace = batch_trace(
            vec![4.0, 4.0],
            vec![
                (vec![2.0, 0.0], vec![1.0, 0.25]),
                (vec![1.0, 3.0], vec![2.0, 0.75]),
            ],
        );
        assert_eq!(check_trace(&trace, false), Ok(()));
        let err = check_trace(&trace, true).unwrap_err();
        assert!(
            err.starts_with("job 1: work at site 1 but demand 0.75"),
            "{err}"
        );
        let negative = batch_trace(vec![4.0], vec![(vec![1.0], vec![-1.0])]);
        let want = "job 0: negative entry at site 0";
        assert_eq!(check_trace(&negative, true), Err(want.into()));

        // A site below one slot refuses work there (not a zero-work
        // portion); a site of capacity 0 is allowed on both engines.
        let sub_slot = batch_trace(
            vec![0.0, 4.0, 0.5],
            vec![
                (vec![1.0, 1.0, 0.0], vec![1.0, 1.0, 2.0]),
                (vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 3.0]),
            ],
        );
        assert_eq!(check_trace(&sub_slot, false), Ok(()));
        let err = check_trace(&sub_slot, true).unwrap_err();
        assert!(
            err.starts_with("job 1: work at site 2 but capacity 0.5 is below one slot"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "zero demand")]
    fn work_without_demand_rejected() {
        let trace = batch_trace(vec![5.0], vec![(vec![5.0], vec![0.0])]);
        simulate(&trace, &AmfSolver::new(), &SimConfig::default());
    }

    #[test]
    fn capacity_loss_slows_the_job() {
        // Work 20, demand 10, capacity 10; at t=1 the site degrades to 5.
        // Phase 1: rate 10 for 1s (10 done); phase 2: rate 5 for 2s.
        let trace = batch_trace(vec![10.0], vec![(vec![20.0], vec![10.0])]);
        let events = [CapacityEvent {
            time: 1.0,
            site: 0,
            capacity: 5.0,
        }];
        let report = simulate_with_capacity_events(
            &trace,
            &AmfSolver::new(),
            &SimConfig::default(),
            &events,
        );
        assert!(report.all_finished());
        assert!(
            (report.makespan - 3.0).abs() < 1e-6,
            "makespan {}",
            report.makespan
        );
        // Utilization against the time-varying capacity: 20 work over
        // ∫cap = 10*1 + 5*2 = 20 → 100%.
        assert!((report.mean_utilization - 1.0).abs() < 1e-6);
    }

    #[test]
    fn total_outage_then_recovery() {
        // The site fails completely at t=0.5 and recovers at t=2.
        let trace = batch_trace(vec![4.0], vec![(vec![4.0], vec![4.0])]);
        let events = [
            CapacityEvent {
                time: 0.5,
                site: 0,
                capacity: 0.0,
            },
            CapacityEvent {
                time: 2.0,
                site: 0,
                capacity: 4.0,
            },
        ];
        let report = simulate_with_capacity_events(
            &trace,
            &AmfSolver::new(),
            &SimConfig::default(),
            &events,
        );
        assert!(report.all_finished());
        // 2 work done by 0.5; outage until 2.0; remaining 2 work → 0.5s.
        assert!(
            (report.makespan - 2.5).abs() < 1e-6,
            "makespan {}",
            report.makespan
        );
    }

    #[test]
    fn permanent_outage_starves() {
        let trace = batch_trace(vec![4.0], vec![(vec![8.0], vec![4.0])]);
        let events = [CapacityEvent {
            time: 1.0,
            site: 0,
            capacity: 0.0,
        }];
        let report = simulate_with_capacity_events(
            &trace,
            &AmfSolver::new(),
            &SimConfig::default(),
            &events,
        );
        assert!(!report.all_finished());
    }

    #[test]
    fn degraded_site_slows_only_its_portion() {
        // Work is site-pinned: when site 0 degrades to 1 slot at t=1, the
        // job's site-0 portion crawls while site 1 finishes on time.
        let trace = batch_trace(vec![5.0, 5.0], vec![(vec![10.0, 10.0], vec![5.0, 5.0])]);
        let events = [CapacityEvent {
            time: 1.0,
            site: 0,
            capacity: 1.0,
        }];
        let report = simulate_with_capacity_events(
            &trace,
            &AmfSolver::new(),
            &SimConfig::default(),
            &events,
        );
        assert!(report.all_finished());
        // Phase 1 (t<1): rates (5,5), 5 done each. Site 1 portion done at
        // t=2; site 0's remaining 5 at rate 1 → done at t=6.
        assert!(
            (report.makespan - 6.0).abs() < 1e-6,
            "makespan {}",
            report.makespan
        );
    }

    #[test]
    fn total_site_loss_strands_pinned_work() {
        // A permanent total outage strands the work pinned there: the
        // model has no re-replication, so the job reports unfinished.
        let trace = batch_trace(vec![5.0, 5.0], vec![(vec![10.0, 10.0], vec![5.0, 5.0])]);
        let events = [CapacityEvent {
            time: 1.0,
            site: 0,
            capacity: 0.0,
        }];
        let report = simulate_with_capacity_events(
            &trace,
            &AmfSolver::new(),
            &SimConfig::default(),
            &events,
        );
        assert!(!report.all_finished());
    }

    #[test]
    #[should_panic(expected = "site out of range")]
    fn bad_event_rejected() {
        let trace = batch_trace(vec![1.0], vec![(vec![1.0], vec![1.0])]);
        let events = [CapacityEvent {
            time: 0.0,
            site: 9,
            capacity: 1.0,
        }];
        simulate_with_capacity_events(&trace, &AmfSolver::new(), &SimConfig::default(), &events);
    }

    #[test]
    fn quantized_mode_matches_fluid_when_quantum_is_tiny() {
        let trace = batch_trace(
            vec![10.0],
            vec![(vec![5.0], vec![10.0]), (vec![20.0], vec![10.0])],
        );
        let fluid = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        let quantized = simulate(
            &trace,
            &AmfSolver::new(),
            &SimConfig {
                reallocation_quantum: Some(0.01),
                ..SimConfig::default()
            },
        );
        assert!(quantized.all_finished());
        assert!((quantized.mean_jct() - fluid.mean_jct()).abs() < 0.05);
        assert!(quantized.reallocations > fluid.reallocations);
    }

    #[test]
    fn coarse_quantum_wastes_freed_capacity() {
        // Job 0 finishes at t=1 but the next round is only at t=5, so job
        // 1 keeps its old half-rate until then: fluid makespan 2.5, with
        // quantum 5 it is 1 + 15/5 = ... phase1: rates 5/5; job0 done at
        // t=1; job1 ran 5 of 20 → stays at rate 5 until t=5 (25 done? no:
        // remaining 15 at rate 5 → finishes at t=4, still inside the
        // stale round). Makespan 4.0 > fluid 2.5.
        let trace = batch_trace(
            vec![10.0],
            vec![(vec![5.0], vec![10.0]), (vec![20.0], vec![10.0])],
        );
        let fluid = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        assert!((fluid.makespan - 2.5).abs() < 1e-6);
        let coarse = simulate(
            &trace,
            &AmfSolver::new(),
            &SimConfig {
                reallocation_quantum: Some(5.0),
                ..SimConfig::default()
            },
        );
        assert!(coarse.all_finished());
        assert!(
            (coarse.makespan - 4.0).abs() < 1e-6,
            "makespan {}",
            coarse.makespan
        );
    }

    #[test]
    fn mid_round_arrival_waits_for_next_round() {
        // Quantum 2: the job arriving at t=1 gets no rate until t=2.
        let trace = Trace {
            capacities: vec![4.0],
            jobs: vec![
                TraceJob {
                    arrival: 0.0,
                    work: vec![100.0],
                    demand: vec![4.0],
                },
                TraceJob {
                    arrival: 1.0,
                    work: vec![2.0],
                    demand: vec![4.0],
                },
            ],
        };
        let report = simulate(
            &trace,
            &AmfSolver::new(),
            &SimConfig {
                reallocation_quantum: Some(2.0),
                ..SimConfig::default()
            },
        );
        // Job 1 starts at t=2 at rate 2 → finishes at t=3 (JCT 2), versus
        // 1 + 2/2 = 2 → JCT 1... under event-driven it would share from
        // t=1. Either way it cannot finish before t=2 here.
        assert!(report.jobs[1].completion.unwrap() >= 2.0 + 0.5 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_rejected() {
        let trace = batch_trace(vec![1.0], vec![(vec![1.0], vec![1.0])]);
        simulate(
            &trace,
            &AmfSolver::new(),
            &SimConfig {
                reallocation_quantum: Some(0.0),
                ..SimConfig::default()
            },
        );
    }

    #[test]
    fn empty_trace() {
        let trace = Trace {
            capacities: vec![1.0],
            jobs: vec![],
        };
        let report = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
        assert_eq!(report.jobs.len(), 0);
        assert_eq!(report.makespan, 0.0);
    }

    /// Two contention tiers (a tight site 0, a roomy site 1) with
    /// staggered arrivals, a mid-run dip at site 1 and a total outage of
    /// site 0 with recovery, so a session sees every kind of delta.
    fn online_trace() -> (Trace, Vec<CapacityEvent>) {
        let mk = |arrival: f64, work: Vec<f64>, demand: Vec<f64>| TraceJob {
            arrival,
            work,
            demand,
        };
        let trace = Trace {
            capacities: vec![2.0, 50.0],
            jobs: vec![
                mk(0.0, vec![40.0, 0.0], vec![2.0, 0.0]),
                mk(0.0, vec![40.0, 0.0], vec![2.0, 0.0]),
                mk(0.0, vec![0.0, 300.0], vec![0.0, 40.0]),
                mk(1.0, vec![0.0, 200.0], vec![0.0, 40.0]),
                mk(2.5, vec![0.0, 150.0], vec![0.0, 30.0]),
                mk(4.0, vec![10.0, 90.0], vec![1.0, 20.0]),
            ],
        };
        let event = |time: f64, site: usize, capacity: f64| CapacityEvent {
            time,
            site,
            capacity,
        };
        let events = vec![
            event(3.0, 1, 30.0),
            event(5.0, 0, 0.0),
            event(6.0, 1, 50.0),
            event(8.0, 0, 2.0),
        ];
        (trace, events)
    }

    /// How many deltas of each kind a [`MirrorSession`] was fed.
    #[derive(Debug, Default)]
    struct DeltaCounts {
        added: usize,
        demand_zeroed: usize,
        removed: usize,
        capacity_changes: usize,
        outages: usize,
        decisions: usize,
    }

    /// Opens a [`MirrorSession`] per event loop; the counts outlive it.
    struct MirrorPolicy {
        split: SplitStrategy,
        counts: std::sync::Arc<std::sync::Mutex<DeltaCounts>>,
    }

    /// Applies every delta the engine narrates to an [`IncrementalAmf`]
    /// and, at each decision, checks that the edited instance is the
    /// active set the engine hands over. Its rates are those of the
    /// from-scratch loop (one pooled solve of the active set, then the
    /// configured split), so its run must match
    /// [`simulate_with_capacity_events`] bit for bit.
    struct MirrorSession {
        mirror: amf_core::IncrementalAmf<f64>,
        pool: SolverPool<f64>,
        split: SplitStrategy,
        counts: std::sync::Arc<std::sync::Mutex<DeltaCounts>>,
        work: SolveStats,
    }

    impl crate::DynamicPolicy for MirrorPolicy {
        fn name(&self) -> &'static str {
            "mirror"
        }

        fn allocate_dynamic(
            &self,
            _inst: &Instance<f64>,
            _remaining: &[Vec<f64>],
        ) -> amf_core::Allocation<f64> {
            unreachable!("the engine drives the session")
        }

        fn incremental_session(
            &self,
            capacities: &[f64],
        ) -> Option<Box<dyn crate::IncrementalSession>> {
            Some(Box::new(MirrorSession {
                mirror: amf_core::IncrementalAmf::new(AmfSolver::new(), capacities.to_vec())
                    .expect("valid capacities"),
                pool: SolverPool::new(),
                split: self.split,
                counts: std::sync::Arc::clone(&self.counts),
                work: SolveStats::default(),
            }))
        }
    }

    impl crate::IncrementalSession for MirrorSession {
        fn apply(&mut self, delta: &Delta<f64>) {
            let mut counts = self.counts.lock().unwrap();
            match delta {
                Delta::AddJob { .. } => counts.added += 1,
                Delta::DemandChange { demand, .. } => {
                    assert_eq!(*demand, 0.0, "the engine only zeroes finished portions");
                    counts.demand_zeroed += 1;
                }
                Delta::RemoveJob { .. } => counts.removed += 1,
                Delta::CapacityChange { capacity, .. } => {
                    counts.capacity_changes += 1;
                    counts.outages += usize::from(*capacity == 0.0);
                }
            }
            self.mirror
                .apply(delta.clone())
                .unwrap_or_else(|e| panic!("inconsistent delta {delta:?}: {e}"));
        }

        fn rates(&mut self, ctx: &crate::SessionCtx<'_>) -> Vec<Vec<f64>> {
            self.counts.lock().unwrap().decisions += 1;
            let mut active = ctx.ids.to_vec();
            active.sort_unstable();
            let ids: Vec<u64> = self.mirror.job_ids().iter().map(|id| id.0).collect();
            assert_eq!(ids, active, "mirrored job set");
            let mirrored = self.mirror.instance();
            assert_eq!(mirrored.capacities(), ctx.capacities, "mirrored capacities");
            for (row, id) in ids.iter().enumerate() {
                let k = ctx.ids.iter().position(|x| x == id).unwrap();
                assert_eq!(mirrored.demands()[row], ctx.demands[k], "job {id} demands");
            }

            let inst = Instance::new(ctx.capacities.to_vec(), ctx.demands.to_vec()).unwrap();
            let out = AmfSolver::new().solve_with_pool(&inst, &mut self.pool);
            self.work.saturating_merge_work(&out.stats);
            self.work.rounds_resolved += out.stats.rounds;
            match self.split {
                SplitStrategy::PolicySplit => out.allocation.split().to_vec(),
                SplitStrategy::BalancedProgress { repair_rounds } => balanced_progress_split(
                    ctx.capacities,
                    ctx.demands,
                    out.allocation.aggregates(),
                    ctx.remaining,
                    repair_rounds,
                ),
            }
        }

        fn stats(&self) -> SolveStats {
            self.work
        }
    }

    /// Drive [`online_trace`] through a [`MirrorSession`] under both
    /// splits and check the run against the from-scratch loop.
    fn check_delta_stream(quantum: Option<f64>) {
        let (trace, events) = online_trace();
        for split in [
            SplitStrategy::BalancedProgress { repair_rounds: 4 },
            SplitStrategy::PolicySplit,
        ] {
            let config = SimConfig {
                split,
                reallocation_quantum: quantum,
            };
            let policy = MirrorPolicy {
                split,
                counts: Default::default(),
            };
            let (report, stats) =
                simulate_incremental_with_stats(&trace, &policy, &config, &events);
            let base = simulate_with_capacity_events(&trace, &AmfSolver::new(), &config, &events);
            let label = format!("{split:?}, quantum {quantum:?}");

            assert!(stats.incremental, "{label}");
            assert!(report.all_finished(), "{label}");
            assert_eq!(report.reallocations, base.reallocations, "{label}");
            assert_eq!(stats.reallocations, report.reallocations, "{label}");
            for (a, b) in report.jobs.iter().zip(&base.jobs) {
                assert_eq!(a.completion, b.completion, "{label}");
            }
            assert_eq!(report.makespan, base.makespan, "{label}");
            assert!(stats.rounds_resolved >= stats.reallocations, "{stats:?}");
            assert!(stats.max_flows >= stats.rounds_resolved, "{stats:?}");

            let counts = policy.counts.lock().unwrap();
            assert_eq!(counts.decisions, report.reallocations, "{label}");
            assert_eq!(counts.added, trace.jobs.len(), "{label}: {counts:?}");
            // Departures and finished portions reach the session at the
            // next decision; those after the last one never need to.
            assert!(counts.removed > 0, "{label}: {counts:?}");
            assert!(counts.demand_zeroed > 0, "{label}: {counts:?}");
            assert_eq!(counts.capacity_changes, events.len(), "{label}: {counts:?}");
            assert_eq!(counts.outages, 1, "{label}: {counts:?}");
        }
    }

    #[test]
    fn delta_stream_rebuilds_the_active_set_in_fluid_runs() {
        check_delta_stream(None);
    }

    #[test]
    fn delta_stream_rebuilds_the_active_set_in_quantized_runs() {
        check_delta_stream(Some(0.75));
    }

    /// Opens a [`FixedWorkSession`].
    struct FixedWorkPolicy;

    /// Answers each decision with a plain solve of the active set and
    /// reports fixed, pairwise distinct work counters.
    struct FixedWorkSession;

    impl crate::DynamicPolicy for FixedWorkPolicy {
        fn name(&self) -> &'static str {
            "fixed-work"
        }

        fn allocate_dynamic(
            &self,
            _inst: &Instance<f64>,
            _remaining: &[Vec<f64>],
        ) -> amf_core::Allocation<f64> {
            unreachable!("the engine drives the session")
        }

        fn incremental_session(
            &self,
            _capacities: &[f64],
        ) -> Option<Box<dyn crate::IncrementalSession>> {
            Some(Box::new(FixedWorkSession))
        }
    }

    impl crate::IncrementalSession for FixedWorkSession {
        fn apply(&mut self, _delta: &Delta<f64>) {}

        fn rates(&mut self, ctx: &crate::SessionCtx<'_>) -> Vec<Vec<f64>> {
            let inst = Instance::new(ctx.capacities.to_vec(), ctx.demands.to_vec()).unwrap();
            AmfSolver::new().solve(&inst).allocation.split().to_vec()
        }

        fn stats(&self) -> SolveStats {
            SolveStats {
                rounds: 3,
                rounds_resolved: 7,
                dinkelbach_iterations: 11,
                max_flows: 13,
                ..SolveStats::default()
            }
        }
    }

    #[test]
    fn session_work_reaches_the_event_loop_stats() {
        let (trace, events) = online_trace();
        let config = SimConfig {
            split: SplitStrategy::PolicySplit,
            reallocation_quantum: None,
        };
        let (report, stats) =
            simulate_incremental_with_stats(&trace, &FixedWorkPolicy, &config, &events);
        let base = simulate_with_capacity_events(&trace, &AmfSolver::new(), &config, &events);
        assert_eq!(
            stats,
            EventLoopStats {
                incremental: true,
                reallocations: base.reallocations,
                rounds_resolved: 7,
                dinkelbach_iterations: 11,
                max_flows: 13,
            }
        );
        assert_eq!(report.reallocations, base.reallocations);
        for (a, b) in report.jobs.iter().zip(&base.jobs) {
            assert_eq!(
                a.completion, b.completion,
                "the session's rates drive the run"
            );
        }
    }

    #[test]
    fn a_policy_without_a_session_matches_the_offline_loop_under_events() {
        // Plain AMF opens no session (the blanket `DynamicPolicy`), so the
        // hook's fallback calls its `allocate_dynamic` at every event; with
        // capacity events and quantized rounds it must still run exactly
        // as the offline loop with the policy's own split.
        let (trace, events) = online_trace();
        for quantum in [None, Some(0.75)] {
            let config = SimConfig {
                split: SplitStrategy::PolicySplit,
                reallocation_quantum: quantum,
            };
            let (report, stats) =
                simulate_incremental_with_stats(&trace, &AmfSolver::new(), &config, &events);
            let base = simulate_with_capacity_events(&trace, &AmfSolver::new(), &config, &events);
            assert_eq!(
                stats,
                EventLoopStats {
                    incremental: false,
                    reallocations: base.reallocations,
                    ..EventLoopStats::default()
                },
                "quantum {quantum:?}"
            );
            assert!(report.all_finished(), "quantum {quantum:?}");
            assert_eq!(report.reallocations, base.reallocations);
            for (a, b) in report.jobs.iter().zip(&base.jobs) {
                assert_eq!(a.completion, b.completion, "quantum {quantum:?}");
            }
            assert_eq!(report.makespan, base.makespan, "quantum {quantum:?}");
        }
    }

    #[test]
    fn policies_without_sessions_fall_back_to_from_scratch() {
        let (trace, _) = online_trace();
        let base = simulate_dynamic(&trace, &crate::SrptPerSite);
        let (inc, stats) = simulate_incremental_with_stats(
            &trace,
            &crate::SrptPerSite,
            &SimConfig::default(),
            &[],
        );
        assert!(!stats.incremental, "SRPT has no incremental session");
        assert_eq!(stats.reallocations, inc.reallocations);
        assert_eq!(inc.reallocations, base.reallocations);
        for (a, b) in inc.jobs.iter().zip(&base.jobs) {
            assert_eq!(a.completion, b.completion, "fallback must be exact");
        }
    }
}
