//! An embeddable, incremental scheduler.
//!
//! [`simulate`](crate::simulate) is an offline harness: it consumes a whole
//! trace and returns a report. A resource manager embedding AMF needs the
//! inverse control flow — *it* owns the clock and the job stream:
//!
//! ```
//! use amf_sim::scheduler::Scheduler;
//! use amf_core::AmfSolver;
//!
//! let mut sched = Scheduler::new(vec![10.0], Box::new(AmfSolver::new()));
//! let a = sched.submit(vec![10.0], vec![10.0]);
//! let b = sched.submit(vec![10.0], vec![10.0]);
//! // Both share the 10-slot site at rate 5 each.
//! let events = sched.advance(2.0);
//! assert_eq!(events.len(), 4); // 2 portion completions + 2 job completions
//! assert_eq!(sched.job(a).completed_at, Some(2.0));
//! assert_eq!(sched.job(b).completed_at, Some(2.0));
//! ```
//!
//! The scheduler reallocates lazily: whenever the demand picture changed
//! (submission, portion/job completion, capacity change) the next
//! [`Scheduler::advance`] or [`Scheduler::allocation`] call re-runs the
//! policy. Between changes, rates are constant and time advances in one
//! step. Each step is the offline engine's own: the scheduler keeps its
//! jobs in the engine's active-set rows and calls the engine's admission
//! rule, next-completion scan and advance-and-retire step, so the two share
//! their fluid semantics and tolerances; the tests cross-check them.

use crate::dynamic::DynamicPolicy;
use crate::engine::{advance_and_retire, check_job, next_completion, ActiveJob, Progress};
use amf_core::Instance;

/// Identifier of a submitted job (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub usize);

/// State of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedJob {
    /// Submission time.
    pub submitted_at: f64,
    /// Completion time, once all portions are done.
    pub completed_at: Option<f64>,
    /// Total resource-time received so far (∫ Σ_s rate dt).
    pub service: f64,
}

/// Events reported by [`Scheduler::advance`], in time order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedEvent {
    /// A job finished its work at one site.
    PortionCompleted {
        /// The job.
        job: JobId,
        /// The site whose portion completed.
        site: usize,
        /// When.
        at: f64,
    },
    /// A job finished its last portion.
    JobCompleted {
        /// The job.
        job: JobId,
        /// When.
        at: f64,
    },
}

/// The incremental scheduler. See the [module docs](self).
pub struct Scheduler {
    capacities: Vec<f64>,
    policy: Box<dyn DynamicPolicy>,
    now: f64,
    jobs: Vec<SchedJob>,
    /// Unfinished jobs (`idx` = submission index), stepped by the engine's
    /// step functions.
    active: Vec<ActiveJob>,
    /// Rates aligned with `active`; rebuilt when `dirty`.
    rates: Vec<Vec<f64>>,
    dirty: bool,
    reallocations: usize,
}

impl Scheduler {
    /// A scheduler over sites with the given capacities, driven by any
    /// [`DynamicPolicy`] (every static
    /// [`AllocationPolicy`](amf_core::AllocationPolicy) qualifies).
    ///
    /// # Panics
    /// Panics on negative capacities.
    pub fn new(capacities: Vec<f64>, policy: Box<dyn DynamicPolicy>) -> Self {
        for (s, &c) in capacities.iter().enumerate() {
            assert!(c >= 0.0 && c.is_finite(), "site {s}: invalid capacity");
        }
        Scheduler {
            capacities,
            policy,
            now: 0.0,
            jobs: Vec::new(),
            active: Vec::new(),
            rates: Vec::new(),
            dirty: true,
            reallocations: 0,
        }
    }

    /// The scheduler clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of unfinished jobs.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Total policy invocations so far.
    pub fn reallocations(&self) -> usize {
        self.reallocations
    }

    /// Submit a job at the current time. Work at a site requires positive
    /// demand there; zero-work jobs complete immediately.
    ///
    /// # Panics
    /// Panics on malformed rows (wrong length, negatives, work without
    /// demand).
    pub fn submit(&mut self, work: Vec<f64>, demand: Vec<f64>) -> JobId {
        if let Err(e) = check_job(&work, &demand, self.capacities.len(), false) {
            panic!("{e}");
        }
        let id = JobId(self.jobs.len());
        let admitted = ActiveJob::admit(id.0, work, demand);
        self.jobs.push(SchedJob {
            submitted_at: self.now,
            completed_at: admitted.is_none().then_some(self.now),
            service: 0.0,
        });
        if let Some(job) = admitted {
            self.active.push(job);
            self.dirty = true;
        }
        id
    }

    /// Change a site's capacity (failure injection / recovery). Takes
    /// effect at the next reallocation.
    ///
    /// # Panics
    /// Panics on an invalid site or capacity.
    pub fn set_capacity(&mut self, site: usize, capacity: f64) {
        assert!(site < self.capacities.len(), "site out of range");
        assert!(capacity >= 0.0 && capacity.is_finite(), "invalid capacity");
        self.capacities[site] = capacity;
        self.dirty = true;
    }

    /// State of a submitted job.
    pub fn job(&self, id: JobId) -> &SchedJob {
        &self.jobs[id.0]
    }

    /// The current rate matrix as `(JobId, per-site rates)` pairs,
    /// reallocating first if anything changed.
    pub fn allocation(&mut self) -> Vec<(JobId, Vec<f64>)> {
        self.reallocate_if_dirty();
        self.active
            .iter()
            .zip(&self.rates)
            .map(|(a, row)| (JobId(a.idx), row.clone()))
            .collect()
    }

    fn reallocate_if_dirty(&mut self) {
        if !self.dirty {
            return;
        }
        if self.active.is_empty() {
            self.rates.clear();
            self.dirty = false;
            return;
        }
        let demands: Vec<Vec<f64>> = self.active.iter().map(|a| a.demand.clone()).collect();
        let remaining: Vec<Vec<f64>> = self.active.iter().map(|a| a.remaining.clone()).collect();
        let inst = Instance::new(self.capacities.clone(), demands)
            .expect("active jobs form a valid instance");
        self.rates = self
            .policy
            .allocate_dynamic(&inst, &remaining)
            .split()
            .to_vec();
        self.reallocations += 1;
        self.dirty = false;
    }

    /// Advance the clock by `dt`, running jobs at the policy's rates and
    /// reallocating at every internal completion. Returns the events that
    /// occurred, in time order.
    ///
    /// # Panics
    /// Panics if `dt` is negative or not finite.
    pub fn advance(&mut self, dt: f64) -> Vec<SchedEvent> {
        assert!(dt >= 0.0 && dt.is_finite(), "invalid dt");
        let deadline = self.now + dt;
        let mut events = Vec::new();

        while self.now < deadline {
            self.reallocate_if_dirty();
            if self.active.is_empty() {
                self.now = deadline;
                break;
            }
            let step = (deadline - self.now).min(next_completion(&self.active, &self.rates));
            let at = self.now + step;
            for (a, row) in self.active.iter().zip(&self.rates) {
                let job = &mut self.jobs[a.idx];
                for (s, &rate) in row.iter().enumerate() {
                    if a.remaining[s] > 0.0 {
                        job.service += rate * step;
                    }
                }
            }
            // Any completion changes the demand picture (and a retirement
            // leaves `rates` misaligned until the reallocation).
            let before = events.len();
            let jobs = &mut self.jobs;
            advance_and_retire(&mut self.active, &self.rates, step, |progress| {
                events.push(match progress {
                    Progress::Portion { idx, site } => SchedEvent::PortionCompleted {
                        job: JobId(idx),
                        site,
                        at,
                    },
                    Progress::Retired { idx } => {
                        jobs[idx].completed_at = Some(at);
                        SchedEvent::JobCompleted {
                            job: JobId(idx),
                            at,
                        }
                    }
                });
            });
            self.dirty |= events.len() > before;
            self.now = at;
            // If nothing can progress and nothing completed, the rest of
            // the interval passes idle (e.g. zero rates from outage).
            if !self.dirty && step >= deadline - self.now {
                self.now = deadline;
                break;
            }
            if !self.dirty && step <= 0.0 {
                self.now = deadline;
                break;
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, simulate_with_capacity_events, CapacityEvent, SimConfig};
    use amf_core::{AmfSolver, PerSiteMaxMin};
    use amf_workload::trace::{Trace, TraceJob};

    #[test]
    fn single_job_completes_at_demand_rate() {
        let mut sched = Scheduler::new(vec![5.0], Box::new(AmfSolver::new()));
        let id = sched.submit(vec![10.0], vec![2.0]);
        let events = sched.advance(10.0);
        assert_eq!(sched.job(id).completed_at, Some(5.0));
        assert!(
            matches!(events.last(), Some(SchedEvent::JobCompleted { at, .. }) if (*at - 5.0).abs() < 1e-9)
        );
        assert_eq!(sched.now(), 10.0);
        assert!((sched.job(id).service - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mid_flight_submission_triggers_reallocation() {
        let mut sched = Scheduler::new(vec![10.0], Box::new(AmfSolver::new()));
        let a = sched.submit(vec![10.0], vec![10.0]);
        sched.advance(0.5); // a runs alone at 10: 5 done.
        let b = sched.submit(vec![10.0], vec![10.0]);
        sched.advance(10.0);
        // They share at 5 each: a finishes at 1.5, b at 2.0.
        assert!((sched.job(a).completed_at.unwrap() - 1.5).abs() < 1e-9);
        assert!((sched.job(b).completed_at.unwrap() - 2.0).abs() < 1e-9);
        assert!(sched.reallocations() >= 3);
    }

    #[test]
    fn capacity_change_takes_effect() {
        let mut sched = Scheduler::new(vec![10.0], Box::new(AmfSolver::new()));
        let id = sched.submit(vec![20.0], vec![10.0]);
        sched.advance(1.0); // 10 done.
        sched.set_capacity(0, 5.0);
        sched.advance(10.0); // remaining 10 at rate 5.
        assert!((sched.job(id).completed_at.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn matches_offline_engine_on_a_batch() {
        let jobs: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![12.0, 4.0], vec![8.0, 8.0]),
            (vec![8.0, 8.0], vec![8.0, 8.0]),
            (vec![0.0, 6.0], vec![0.0, 4.0]),
        ];
        let trace = Trace {
            capacities: vec![8.0, 8.0],
            jobs: jobs
                .iter()
                .map(|(w, d)| TraceJob {
                    arrival: 0.0,
                    work: w.clone(),
                    demand: d.clone(),
                })
                .collect(),
        };
        let offline = simulate(&trace, &AmfSolver::new(), &SimConfig::default());

        let mut sched = Scheduler::new(vec![8.0, 8.0], Box::new(AmfSolver::new()));
        let ids: Vec<JobId> = jobs
            .iter()
            .map(|(w, d)| sched.submit(w.clone(), d.clone()))
            .collect();
        sched.advance(1000.0);
        for (id, outcome) in ids.iter().zip(&offline.jobs) {
            let online = sched.job(*id).completed_at.expect("finished");
            let off = outcome.completion.expect("finished");
            assert_eq!(
                online.to_bits(),
                off.to_bits(),
                "job {id:?}: online {online} vs offline {off}"
            );
        }
    }

    #[test]
    fn zero_work_submission_completes_immediately() {
        let mut sched = Scheduler::new(vec![1.0], Box::new(PerSiteMaxMin));
        let id = sched.submit(vec![0.0], vec![0.0]);
        assert_eq!(sched.job(id).completed_at, Some(0.0));
        assert_eq!(sched.active_count(), 0);
    }

    #[test]
    fn outage_pauses_progress_until_recovery() {
        let mut sched = Scheduler::new(vec![4.0], Box::new(AmfSolver::new()));
        let id = sched.submit(vec![8.0], vec![4.0]);
        sched.advance(1.0); // 4 done.
        sched.set_capacity(0, 0.0);
        let events = sched.advance(5.0); // idle.
        assert!(events.is_empty());
        assert_eq!(sched.job(id).completed_at, None);
        sched.set_capacity(0, 4.0);
        sched.advance(5.0);
        assert!((sched.job(id).completed_at.unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_snapshot_is_consistent() {
        let mut sched = Scheduler::new(vec![6.0], Box::new(AmfSolver::new()));
        let a = sched.submit(vec![6.0], vec![6.0]);
        let b = sched.submit(vec![6.0], vec![6.0]);
        let snapshot = sched.allocation();
        assert_eq!(snapshot.len(), 2);
        for (id, row) in snapshot {
            assert!((row[0] - 3.0).abs() < 1e-9, "{id:?} got {row:?}");
        }
        let _ = (a, b);
    }

    #[test]
    #[should_panic(expected = "work at site 0 but zero demand")]
    fn invalid_submission_rejected() {
        let mut sched = Scheduler::new(vec![1.0], Box::new(AmfSolver::new()));
        sched.submit(vec![1.0], vec![0.0]);
    }

    #[test]
    fn tracks_the_offline_engine_across_arrivals_and_capacity_events() {
        // The same run twice: submissions and capacity changes driven by
        // hand, and a trace with those arrival times and capacity events
        // through the offline engine.
        let mut sched = Scheduler::new(vec![6.0, 9.0], Box::new(AmfSolver::new()));
        let mut ids = Vec::new();
        ids.push(sched.submit(vec![12.0, 0.0], vec![6.0, 0.0]));
        ids.push(sched.submit(vec![12.0, 9.0], vec![6.0, 9.0]));
        sched.advance(1.0);
        ids.push(sched.submit(vec![0.0, 18.0], vec![0.0, 9.0]));
        sched.advance(1.5);
        sched.set_capacity(1, 4.0);
        sched.advance(3.0);
        sched.set_capacity(1, 9.0);
        sched.advance(50.0);

        let job = |arrival: f64, work: Vec<f64>, demand: Vec<f64>| TraceJob {
            arrival,
            work,
            demand,
        };
        let trace = Trace {
            capacities: vec![6.0, 9.0],
            jobs: vec![
                job(0.0, vec![12.0, 0.0], vec![6.0, 0.0]),
                job(0.0, vec![12.0, 9.0], vec![6.0, 9.0]),
                job(1.0, vec![0.0, 18.0], vec![0.0, 9.0]),
            ],
        };
        let events = [
            CapacityEvent {
                time: 2.5,
                site: 1,
                capacity: 4.0,
            },
            CapacityEvent {
                time: 5.5,
                site: 1,
                capacity: 9.0,
            },
        ];
        let offline = simulate_with_capacity_events(
            &trace,
            &AmfSolver::new(),
            &SimConfig::default(),
            &events,
        );
        assert!(offline.all_finished());
        for (id, outcome) in ids.iter().zip(&offline.jobs) {
            let online = sched.job(*id).completed_at.expect("finished");
            let off = outcome.completion.expect("finished");
            assert_eq!(
                online.to_bits(),
                off.to_bits(),
                "job {id:?}: online {online} vs offline {off}"
            );
        }
    }
}
