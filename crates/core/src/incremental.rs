//! Delta-driven incremental AMF sessions.
//!
//! A served tenant (`amf-serve`) edits one instance request by request: a
//! job arrives, a job departs, a demand changes, a site's capacity moves.
//! [`IncrementalAmf`] is that tenant's state, driven by the stream of
//! typed [`Delta`]s. It is an edited instance in front of the one solver.
//!
//! The session holds the live jobs, keyed by stable [`JobId`], and the
//! site capacities. [`apply`](IncrementalAmf::apply) validates one
//! [`Delta`] and edits one entry; it solves nothing, so a burst of deltas
//! costs a single solve. A [`solve`](IncrementalAmf::solve) after any
//! delta builds the [`Instance`] with its rows in ascending `JobId` order
//! and hands it to [`AmfSolver::solve_with_pool`]. The session owns that
//! [`SolverPool`], so every solve reuses the pool's buffers, flow arena
//! and cut storage, and allocates only the instance and the result.
//!
//! There is no second round loop and no cached solver state between
//! solves: the output is, bit for bit, [`AmfSolver::solve`] of
//! [`IncrementalAmf::instance`], and [`SolveStats::rounds_resolved`]
//! equals `rounds` while [`SolveStats::rounds_replayed`] stays 0.

use crate::model::{Allocation, Instance};
use crate::solver::{AmfSolver, SolveOutput, SolveStats, SolverPool};
use amf_numeric::Scalar;
use std::collections::BTreeMap;

/// Caller-chosen stable identifier of a job in an [`IncrementalAmf`]
/// session. Row indices move as jobs come and go; `JobId`s never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A typed change to the live instance of an [`IncrementalAmf`] session.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta<S> {
    /// A new job arrives with the given demand row and weight.
    AddJob {
        /// Caller-chosen id; must not collide with a live job.
        id: JobId,
        /// Demand at each site (length = site count).
        demands: Vec<S>,
        /// Fairness weight (1 for unweighted AMF); must be positive.
        weight: S,
    },
    /// A job departs.
    RemoveJob {
        /// The departing job.
        id: JobId,
    },
    /// One entry of a job's demand row changes (e.g. work completed).
    DemandChange {
        /// The job whose demand changes.
        id: JobId,
        /// The site whose demand entry changes.
        site: usize,
        /// The new demand (>= 0).
        demand: S,
    },
    /// A site's capacity changes.
    CapacityChange {
        /// The site whose capacity changes.
        site: usize,
        /// The new capacity (>= 0).
        capacity: S,
    },
}

/// Why a [`Delta`] was rejected. The session state is unchanged on error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// `AddJob` with an id that is already live.
    DuplicateJob {
        /// The colliding id.
        id: JobId,
    },
    /// A delta referenced a job id that is not live.
    UnknownJob {
        /// The unknown id.
        id: JobId,
    },
    /// A delta referenced a site index outside the session.
    SiteOutOfRange {
        /// The offending index.
        site: usize,
        /// The session's site count.
        n_sites: usize,
    },
    /// `AddJob` with a demand row of the wrong length.
    RaggedDemands {
        /// Expected row length (the session's site count).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// A negative or non-finite demand/capacity, or a non-positive weight.
    InvalidValue {
        /// Which field was invalid.
        what: &'static str,
    },
}

impl DeltaError {
    /// Stable machine-readable error code, suitable for protocol error
    /// frames and log lines (the `Display` text is for humans and may
    /// change; these strings are a wire contract and must not).
    pub fn kind(&self) -> &'static str {
        match self {
            DeltaError::DuplicateJob { .. } => "duplicate_job",
            DeltaError::UnknownJob { .. } => "unknown_job",
            DeltaError::SiteOutOfRange { .. } => "site_out_of_range",
            DeltaError::RaggedDemands { .. } => "ragged_demands",
            DeltaError::InvalidValue { .. } => "invalid_value",
        }
    }
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::DuplicateJob { id } => write!(f, "duplicate {id}"),
            DeltaError::UnknownJob { id } => write!(f, "unknown {id}"),
            DeltaError::SiteOutOfRange { site, n_sites } => {
                write!(f, "site {site} out of range (session has {n_sites} sites)")
            }
            DeltaError::RaggedDemands { expected, got } => {
                write!(f, "demand row has length {got}, expected {expected}")
            }
            DeltaError::InvalidValue { what } => {
                write!(
                    f,
                    "invalid {what} (negative, non-finite, or non-positive weight)"
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// A live job's demand row and weight.
#[derive(Debug, Clone)]
struct Job<S> {
    demands: Vec<S>,
    weight: S,
}

/// Whether `x` is unusable as a demand or capacity (negative or not a
/// number).
fn bad_amount<S: Scalar>(x: S) -> bool {
    x < S::ZERO || !x.is_valid()
}

/// A persistent AMF session that re-solves from typed [`Delta`]s.
///
/// Holds the live instance, edited delta by delta, and solves it with one
/// [`SolverPool`] per session; see the [module docs](self). Every output
/// row belongs to the job at the same index of [`job_ids`](Self::job_ids),
/// which lists the live ids in ascending order.
///
/// ```
/// use amf_core::{AmfSolver, Delta, IncrementalAmf, JobId};
///
/// let mut session = IncrementalAmf::new(AmfSolver::new(), vec![6.0, 2.0]).unwrap();
/// session
///     .apply_all([
///         Delta::AddJob { id: JobId(0), demands: vec![6.0, 0.0], weight: 1.0 },
///         Delta::AddJob { id: JobId(1), demands: vec![6.0, 2.0], weight: 1.0 },
///     ])
///     .unwrap();
/// let out = session.solve();
/// assert!((out.allocation.aggregate(0) - 4.0).abs() < 1e-9);
/// // Job 0 departs; job 1 is now row 0 and takes both sites.
/// session.apply(Delta::RemoveJob { id: JobId(0) }).unwrap();
/// let out = session.solve();
/// assert!((out.allocation.aggregate(0) - 8.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct IncrementalAmf<S> {
    solver: AmfSolver,
    capacities: Vec<S>,
    /// Live jobs; iteration order is the row order of every output.
    jobs: BTreeMap<JobId, Job<S>>,
    output: SolveOutput<S>,
    dirty: bool,
    cumulative: SolveStats,
    pool: SolverPool<S>,
}

impl<S: Scalar> IncrementalAmf<S> {
    /// An empty session over `capacities` driven by `solver`'s fairness
    /// mode.
    pub fn new(solver: AmfSolver, capacities: Vec<S>) -> Result<Self, DeltaError> {
        if capacities.iter().any(|&c| bad_amount(c)) {
            return Err(DeltaError::InvalidValue { what: "capacity" });
        }
        Ok(IncrementalAmf {
            solver,
            capacities,
            jobs: BTreeMap::new(),
            output: SolveOutput {
                allocation: Allocation::from_split(Vec::new()),
                rounds: Vec::new(),
                stats: SolveStats::default(),
            },
            dirty: true,
            cumulative: SolveStats::default(),
            pool: SolverPool::new(),
        })
    }

    /// Number of live jobs.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of sites (fixed at construction).
    pub fn n_sites(&self) -> usize {
        self.capacities.len()
    }

    /// Current site capacities.
    pub fn capacities(&self) -> &[S] {
        &self.capacities
    }

    /// Whether `id` is live in the session.
    pub fn contains(&self, id: JobId) -> bool {
        self.jobs.contains_key(&id)
    }

    /// Whether deltas have arrived since the last [`solve`](Self::solve).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Live job ids in ascending order, which is the row order of
    /// [`solve`](Self::solve)'s output (row `k` of the allocation belongs
    /// to `job_ids()[k]`).
    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.keys().copied().collect()
    }

    /// The live [`Instance`], rows in [`job_ids`](Self::job_ids) order:
    /// exactly what [`solve`](Self::solve) hands the solver.
    pub fn instance(&self) -> Instance<S> {
        let demands = self.jobs.values().map(|job| job.demands.clone()).collect();
        let weights = self.jobs.values().map(|job| job.weight).collect();
        Instance::weighted(self.capacities.clone(), demands, weights)
            .expect("session state is validated delta-by-delta")
    }

    /// Cumulative stats over every solve this session has run.
    pub fn session_stats(&self) -> SolveStats {
        self.cumulative
    }

    /// Apply one delta. On `Err` the session is unchanged.
    pub fn apply(&mut self, delta: Delta<S>) -> Result<(), DeltaError> {
        let m = self.capacities.len();
        match delta {
            Delta::AddJob {
                id,
                demands,
                weight,
            } => {
                if self.jobs.contains_key(&id) {
                    return Err(DeltaError::DuplicateJob { id });
                }
                if demands.len() != m {
                    return Err(DeltaError::RaggedDemands {
                        expected: m,
                        got: demands.len(),
                    });
                }
                if demands.iter().any(|&d| bad_amount(d)) {
                    return Err(DeltaError::InvalidValue { what: "demand" });
                }
                if !weight.is_valid() || !weight.is_positive() {
                    return Err(DeltaError::InvalidValue { what: "weight" });
                }
                self.jobs.insert(id, Job { demands, weight });
            }
            Delta::RemoveJob { id } => {
                self.jobs.remove(&id).ok_or(DeltaError::UnknownJob { id })?;
            }
            Delta::DemandChange { id, site, demand } => {
                let job = self
                    .jobs
                    .get_mut(&id)
                    .ok_or(DeltaError::UnknownJob { id })?;
                if site >= m {
                    return Err(DeltaError::SiteOutOfRange { site, n_sites: m });
                }
                if bad_amount(demand) {
                    return Err(DeltaError::InvalidValue { what: "demand" });
                }
                job.demands[site] = demand;
            }
            Delta::CapacityChange { site, capacity } => {
                if site >= m {
                    return Err(DeltaError::SiteOutOfRange { site, n_sites: m });
                }
                if bad_amount(capacity) {
                    return Err(DeltaError::InvalidValue { what: "capacity" });
                }
                self.capacities[site] = capacity;
            }
        }
        self.dirty = true;
        Ok(())
    }

    /// Apply a batch of deltas; stops at (and returns) the first error —
    /// deltas before it have been applied.
    pub fn apply_all(
        &mut self,
        deltas: impl IntoIterator<Item = Delta<S>>,
    ) -> Result<(), DeltaError> {
        for delta in deltas {
            self.apply(delta)?;
        }
        Ok(())
    }

    /// Solve the current instance with the session's pool. Returns the
    /// cached output unchanged when no delta arrived since the last call.
    /// Rows of the allocation (and job indices inside `rounds`) are in
    /// [`job_ids`](Self::job_ids) order.
    pub fn solve(&mut self) -> &SolveOutput<S> {
        if self.dirty {
            let mut out = self
                .solver
                .solve_with_pool(&self.instance(), &mut self.pool);
            // Every round of a session solve is solved, none replayed.
            out.stats.rounds_resolved = out.stats.rounds;
            // Saturating: a session accumulates across an unbounded number
            // of solves.
            let total = &mut self.cumulative;
            total.rounds = total.rounds.saturating_add(out.stats.rounds);
            total.rounds_resolved = total.rounds_resolved.saturating_add(out.stats.rounds);
            total.saturating_merge_work(&out.stats);
            self.output = out;
            self.dirty = false;
        }
        &self.output
    }

    /// The last computed output (stale if [`is_dirty`](Self::is_dirty)).
    pub fn last_output(&self) -> &SolveOutput<S> {
        &self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_numeric::Rational;

    fn add(id: u64, demands: Vec<f64>) -> Delta<f64> {
        Delta::AddJob {
            id: JobId(id),
            demands,
            weight: 1.0,
        }
    }

    /// Session output must equal a from-scratch solve of the same dense
    /// instance bit for bit (split and rounds). Returns the aggregates.
    fn assert_matches_scratch(session: &mut IncrementalAmf<f64>) -> Vec<f64> {
        let inst = session.instance();
        let reference = session.solver.solve(&inst);
        let out = session.solve();
        assert_eq!(out.allocation.split(), reference.allocation.split());
        assert_eq!(out.rounds, reference.rounds, "freeze rounds diverged");
        out.allocation.aggregates().to_vec()
    }

    #[test]
    fn paper_example_balances_aggregates() {
        let mut session = IncrementalAmf::new(AmfSolver::new(), vec![6.0, 2.0]).unwrap();
        session
            .apply_all([add(0, vec![6.0, 0.0]), add(1, vec![6.0, 2.0])])
            .unwrap();
        let agg = assert_matches_scratch(&mut session);
        assert!((agg[0] - 4.0).abs() < 1e-9);
        assert!((agg[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_job_id_is_a_typed_error() {
        let mut session = IncrementalAmf::new(AmfSolver::new(), vec![1.0]).unwrap();
        session.apply(add(7, vec![1.0])).unwrap();
        let err = session.apply(add(7, vec![0.5])).unwrap_err();
        assert_eq!(err, DeltaError::DuplicateJob { id: JobId(7) });
        // The failed delta left the session untouched.
        assert_eq!(session.n_jobs(), 1);
        let agg = assert_matches_scratch(&mut session);
        assert!((agg[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deltas_on_an_empty_session() {
        let mut session = IncrementalAmf::new(AmfSolver::new(), vec![4.0, 4.0]).unwrap();
        // Capacity events with no jobs live must be accepted and solvable.
        session
            .apply(Delta::CapacityChange {
                site: 1,
                capacity: 2.0,
            })
            .unwrap();
        assert!(session.solve().allocation.aggregates().is_empty());
        assert_eq!(
            session.apply(Delta::RemoveJob { id: JobId(0) }),
            Err(DeltaError::UnknownJob { id: JobId(0) })
        );
        assert_eq!(
            session.apply(Delta::CapacityChange {
                site: 9,
                capacity: 1.0
            }),
            Err(DeltaError::SiteOutOfRange {
                site: 9,
                n_sites: 2
            })
        );
        // The session still works after the rejected deltas: the lone job
        // takes 3 at site 0 plus the (lowered) 2 at site 1.
        session.apply(add(0, vec![3.0, 3.0])).unwrap();
        let agg = assert_matches_scratch(&mut session);
        assert!((agg[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn delta_errors_are_std_errors_with_stable_kinds() {
        // The serving layer surfaces these in protocol error frames: the
        // Display text is human-facing, `kind()` is the wire contract.
        let errs: [(DeltaError, &str); 5] = [
            (DeltaError::DuplicateJob { id: JobId(1) }, "duplicate_job"),
            (DeltaError::UnknownJob { id: JobId(2) }, "unknown_job"),
            (
                DeltaError::SiteOutOfRange {
                    site: 4,
                    n_sites: 2,
                },
                "site_out_of_range",
            ),
            (
                DeltaError::RaggedDemands {
                    expected: 3,
                    got: 1,
                },
                "ragged_demands",
            ),
            (DeltaError::InvalidValue { what: "demand" }, "invalid_value"),
        ];
        for (err, kind) in errs {
            assert_eq!(err.kind(), kind);
            // Usable as a boxed std error (Display + Error), no Debug
            // formatting required.
            let boxed: Box<dyn std::error::Error> = Box::new(err);
            assert!(!boxed.to_string().is_empty());
            assert!(!boxed.to_string().contains("DeltaError"));
        }
    }

    #[test]
    fn invalid_values_are_rejected() {
        let mut session = IncrementalAmf::new(AmfSolver::new(), vec![1.0]).unwrap();
        assert_eq!(
            session.apply(Delta::AddJob {
                id: JobId(0),
                demands: vec![-1.0],
                weight: 1.0
            }),
            Err(DeltaError::InvalidValue { what: "demand" })
        );
        assert_eq!(
            session.apply(Delta::AddJob {
                id: JobId(0),
                demands: vec![1.0, 1.0],
                weight: 1.0
            }),
            Err(DeltaError::RaggedDemands {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            session.apply(Delta::AddJob {
                id: JobId(0),
                demands: vec![1.0],
                weight: 0.0
            }),
            Err(DeltaError::InvalidValue { what: "weight" })
        );
        assert!(IncrementalAmf::<f64>::new(AmfSolver::new(), vec![-1.0]).is_err());
    }

    /// Two bottleneck tiers: site 0 freezes jobs 0-1 in round 1, site 1
    /// freezes jobs 2-3 in round 2.
    fn two_tier_session() -> IncrementalAmf<f64> {
        let mut session = IncrementalAmf::new(AmfSolver::new(), vec![2.0, 100.0]).unwrap();
        session
            .apply_all([
                add(0, vec![2.0, 0.0]),
                add(1, vec![2.0, 0.0]),
                add(2, vec![0.0, 100.0]),
                add(3, vec![0.0, 100.0]),
            ])
            .unwrap();
        session.solve();
        session
    }

    #[test]
    fn capacity_drop_below_committed_flow_is_repaired() {
        let mut session = two_tier_session();
        // Site 0 carried 2.0 in the last allocation; drop its capacity to
        // 0.5, below what the session last handed out.
        session
            .apply(Delta::CapacityChange {
                site: 0,
                capacity: 0.5,
            })
            .unwrap();
        let agg = assert_matches_scratch(&mut session);
        assert!((agg[0] - 0.25).abs() < 1e-9);
        assert!((agg[1] - 0.25).abs() < 1e-9);
        // Raising it back re-solves to the original solution.
        session
            .apply(Delta::CapacityChange {
                site: 0,
                capacity: 2.0,
            })
            .unwrap();
        let agg = assert_matches_scratch(&mut session);
        assert!((agg[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn job_ids_stay_ascending_across_churn() {
        let mut session = IncrementalAmf::new(AmfSolver::new(), vec![10.0]).unwrap();
        session
            .apply_all([add(0, vec![4.0]), add(1, vec![4.0]), add(2, vec![4.0])])
            .unwrap();
        session.solve();
        session.apply(Delta::RemoveJob { id: JobId(1) }).unwrap();
        session.apply(add(9, vec![4.0])).unwrap();
        session.apply(add(1, vec![2.0])).unwrap();
        let ids = vec![JobId(0), JobId(1), JobId(2), JobId(9)];
        assert_eq!(session.job_ids(), ids);
        let agg = assert_matches_scratch(&mut session);
        // Row 1 is the re-added job 1, the only one below the fair share.
        assert_eq!(agg.len(), 4);
        assert!((agg[1] - 2.0).abs() < 1e-9);
        assert!(agg.iter().all(|&a| a <= 8.0 / 3.0 + 1e-9));
        assert!(session.contains(JobId(9)) && !session.contains(JobId(5)));
    }

    #[test]
    fn instance_rows_follow_job_ids() {
        let mut session = IncrementalAmf::new(AmfSolver::new(), vec![5.0, 5.0]).unwrap();
        for id in [8, 3, 5] {
            session
                .apply(Delta::AddJob {
                    id: JobId(id),
                    demands: vec![id as f64, 1.0],
                    weight: id as f64,
                })
                .unwrap();
        }
        session.apply(Delta::RemoveJob { id: JobId(5) }).unwrap();
        session
            .apply(Delta::DemandChange {
                id: JobId(8),
                site: 1,
                demand: 2.0,
            })
            .unwrap();
        assert_eq!(session.job_ids(), vec![JobId(3), JobId(8)]);
        let inst = session.instance();
        assert_eq!(inst.demands(), &[vec![3.0, 1.0], vec![8.0, 2.0]]);
        assert_eq!(inst.weights(), &[3.0, 8.0]);
        assert_eq!(inst.capacities(), session.capacities());
        assert_eq!(session.n_jobs(), 2);
        assert_eq!(session.n_sites(), 2);
    }

    #[test]
    fn zero_demand_jobs_never_enter_rounds() {
        let mut session = IncrementalAmf::new(AmfSolver::new(), vec![4.0]).unwrap();
        session
            .apply_all([add(0, vec![0.0]), add(1, vec![4.0])])
            .unwrap();
        let agg = assert_matches_scratch(&mut session);
        assert_eq!(agg[0], 0.0);
        assert!((agg[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn enhanced_mode_sessions_track_equal_share_floors() {
        let solver = AmfSolver::enhanced();
        let mut session = IncrementalAmf::new(solver, vec![6.0, 2.0]).unwrap();
        session
            .apply_all([add(0, vec![6.0, 0.0]), add(1, vec![6.0, 2.0])])
            .unwrap();
        let inst = session.instance();
        let reference = solver.solve(&inst);
        let out = session.solve();
        for (a, b) in out
            .allocation
            .aggregates()
            .iter()
            .zip(reference.allocation.aggregates())
        {
            assert!((a - b).abs() < 1e-6);
        }
        assert_eq!(out.rounds, reference.rounds);
        // The floors shift when a third job arrives (equal share drops).
        session.apply(add(2, vec![0.0, 2.0])).unwrap();
        let inst = session.instance();
        let reference = solver.solve(&inst);
        let out = session.solve();
        for (a, b) in out
            .allocation
            .aggregates()
            .iter()
            .zip(reference.allocation.aggregates())
        {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rational_sessions_are_bit_exact() {
        let r = Rational::from_int;
        let solver = AmfSolver::new();
        let mut session = IncrementalAmf::new(solver, vec![r(6), r(2)]).unwrap();
        session
            .apply_all([
                Delta::AddJob {
                    id: JobId(0),
                    demands: vec![r(6), r(0)],
                    weight: r(1),
                },
                Delta::AddJob {
                    id: JobId(1),
                    demands: vec![r(6), r(2)],
                    weight: r(1),
                },
            ])
            .unwrap();
        let reference = solver.solve(&session.instance());
        let out = session.solve();
        assert_eq!(
            out.allocation.aggregates(),
            reference.allocation.aggregates(),
            "Rational sessions must agree bit-for-bit"
        );
        assert_eq!(out.rounds, reference.rounds);
        session
            .apply(Delta::DemandChange {
                id: JobId(0),
                site: 0,
                demand: Rational::new(1, 2),
            })
            .unwrap();
        let reference = solver.solve(&session.instance());
        let out = session.solve();
        assert_eq!(
            out.allocation.aggregates(),
            reference.allocation.aggregates()
        );
        assert_eq!(out.rounds, reference.rounds);
    }

    #[test]
    fn session_stats_sum_each_solves_work() {
        let mut session = two_tier_session();
        let mut sum = session.last_output().stats;
        for (id, demand) in [(3, 30.0), (0, 1.5), (2, 0.0)] {
            session
                .apply(Delta::DemandChange {
                    id: JobId(id),
                    site: if id == 0 { 0 } else { 1 },
                    demand,
                })
                .unwrap();
            let stats = session.solve().stats;
            assert_eq!(stats.rounds_replayed, 0);
            assert_eq!(stats.rounds_resolved, stats.rounds);
            sum.rounds += stats.rounds;
            sum.rounds_resolved += stats.rounds_resolved;
            sum.saturating_merge_work(&stats);
        }
        let total = session.session_stats();
        assert_eq!(total, sum);
        assert!(total.max_flows > 0 && total.edges_visited > 0, "{total:?}");
        assert!(total.csr_rebuilds > 0 && total.bitset_words_cleared > 0);
    }

    #[test]
    fn rejected_delta_keeps_a_clean_session_clean() {
        let mut session = two_tier_session();
        let before = session.session_stats();
        assert!(session.apply(add(0, vec![1.0, 1.0])).is_err());
        assert!(session
            .apply(Delta::DemandChange {
                id: JobId(1),
                site: 0,
                demand: f64::NAN,
            })
            .is_err());
        assert!(!session.is_dirty(), "a rejected delta edits nothing");
        session.solve();
        assert_eq!(session.session_stats(), before, "no solve ran");
    }

    #[test]
    fn solve_is_idempotent_when_clean() {
        let mut session = two_tier_session();
        let rounds_before = session.session_stats().rounds;
        let agg: Vec<f64> = session.solve().allocation.aggregates().to_vec();
        assert_eq!(session.solve().allocation.aggregates(), &agg[..]);
        assert_eq!(
            session.session_stats().rounds,
            rounds_before,
            "clean solves must not re-run"
        );
    }
}
