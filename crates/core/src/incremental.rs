//! Delta-driven incremental AMF sessions.
//!
//! The online experiments feed the solver a *stream* of instance changes —
//! a job arrives, a job departs, a demand shrinks as work completes, a
//! site's capacity moves. Solving each snapshot from scratch throws away
//! two things the previous solve already paid for: the warm max flow in
//! the allocation network, and the **freeze-round structure** (which jobs
//! froze at which water levels, and why).
//!
//! [`IncrementalAmf`] keeps both alive across deltas. It owns a long-lived
//! [`AllocationNetwork`] that is *repaired* in place (excess flow is
//! drained off deleted or shrunken arcs, never globally reset) and a
//! **round log** of the previous solve's freeze rounds. On re-solve, the
//! cached rounds are replayed in order and each one is *verified* against
//! the mutated instance; the first round the delta actually touches fails
//! verification, and only the suffix from that round on is re-solved by
//! Dinkelbach descent.
//!
//! # The invalidation invariant (why replay is exact)
//!
//! A cached round `(t_k, F_k)` is accepted iff, on the **current**
//! instance with rounds `1..k` already applied:
//!
//! 1. level `t_k` is feasible (the max flow saturates every target), and
//! 2. the freeze rule at `t_k` — demand-capped or sink-unreachable —
//!    selects **exactly** the cached set `F_k` with the cached reasons, and
//! 3. `t_k` is *maximal*: either some member of `F_k` is bottlenecked on
//!    the strictly-increasing segment of its cap function (raising the
//!    level would overflow its tight set, so no higher level is feasible),
//!    or every active job is demand-capped and `t_k` equals the current
//!    upper bound `max_j ceil_j / w_j`.
//!
//! These are precisely the conditions under which a from-scratch solve's
//! round `k` would produce `(t_k, F_k)`: condition 3 forces the Dinkelbach
//! descent to stop at `t_k`, and conditions 1–2 pin the frozen set. By
//! induction over rounds, an accepted prefix leaves the session in the
//! *identical* state a from-scratch solve would reach — so replay is
//! exact, not approximate. The first rejected round invalidates the whole
//! suffix (later levels depend on the earlier freeze set), which is then
//! re-solved normally. The freeze decisions themselves are flow-invariant:
//! residual sink-reachability after *any* max flow identifies the same
//! canonical tight sets, so verifying on the repaired warm flow and
//! solving from a cold one cannot disagree.
//!
//! In debug builds every [`IncrementalAmf::solve`] additionally
//! cross-checks its aggregates against a from-scratch [`AmfSolver::solve`]
//! of the equivalent dense [`Instance`]; the certificate-level audit
//! (`amf-audit`) runs in the test suites, which sit above this crate.

use crate::levels::{invert_total_with, LevelCap};
use crate::model::{Allocation, Instance};
use crate::solver::{
    close_rel, AmfSolver, FairnessMode, FreezeReason, FreezeRound, SolveOutput, SolveStats,
    SolverPool,
};
use amf_flow::AllocationNetwork;
use amf_numeric::{max2, min2, sum, Scalar};
use std::collections::BTreeMap;

/// Caller-chosen stable identifier of a job in an [`IncrementalAmf`]
/// session. Slot indices move as jobs come and go; `JobId`s never do.
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
    /// A job departs; its flow is drained and its slot recycled.
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

/// A live job pinned to a network slot.
#[derive(Debug, Clone)]
struct SlotJob<S> {
    id: JobId,
    demands: Vec<S>,
    weight: S,
}

/// One cached freeze round, keyed by stable [`JobId`]s so it survives slot
/// recycling.
#[derive(Debug, Clone)]
struct CachedRound<S> {
    level: S,
    frozen: Vec<(JobId, FreezeReason)>,
}

/// A persistent AMF session that re-solves from typed [`Delta`]s.
///
/// Owns a long-lived [`AllocationNetwork`] (repaired in place across
/// deltas) plus the previous solve's round log; [`solve`](Self::solve)
/// replays cached rounds where the verification conditions in the
/// [module docs](self) hold and re-solves only the invalidated suffix.
/// [`SolveStats::rounds_replayed`] / [`SolveStats::rounds_resolved`]
/// report the split.
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
/// // Job 0 departs; only its freeze round is re-solved.
/// session.apply(Delta::RemoveJob { id: JobId(0) }).unwrap();
/// let out = session.solve();
/// assert!((out.allocation.aggregate(0) - 8.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct IncrementalAmf<S> {
    solver: AmfSolver,
    capacities: Vec<S>,
    /// Slot table: `None` marks a retired slot awaiting reuse.
    slots: Vec<Option<SlotJob<S>>>,
    index: BTreeMap<JobId, usize>,
    net: AllocationNetwork<S>,
    round_log: Vec<CachedRound<S>>,
    output: SolveOutput<S>,
    dirty: bool,
    cumulative: SolveStats,
    /// Pool for the delegated suffix solves (Plain mode hands the
    /// invalidated suffix to the from-scratch shrinking-network solver).
    pool: SolverPool<S>,
    // Reusable per-solve buffers (the session-local analogue of the
    // from-scratch paths' `SolverPool`).
    grow_jobs: Vec<bool>,
    grow_sites: Vec<bool>,
    side: Vec<bool>,
    /// Breakpoint buffer of the Dinkelbach step's level inversion.
    events: Vec<(S, S)>,
    split_buf: Vec<Vec<S>>,
}

impl<S: Scalar> IncrementalAmf<S> {
    /// An empty session over `capacities` driven by `solver`'s fairness
    /// mode.
    pub fn new(solver: AmfSolver, capacities: Vec<S>) -> Result<Self, DeltaError> {
        for (s, c) in capacities.iter().enumerate() {
            if *c < S::ZERO || !c.is_valid() {
                let _ = s;
                return Err(DeltaError::InvalidValue { what: "capacity" });
            }
        }
        let net = AllocationNetwork::new(&[] as &[Vec<S>], &capacities);
        Ok(IncrementalAmf {
            solver,
            capacities,
            slots: Vec::new(),
            index: BTreeMap::new(),
            net,
            round_log: Vec::new(),
            output: SolveOutput {
                allocation: Allocation::from_split(Vec::new()),
                rounds: Vec::new(),
                stats: SolveStats::default(),
            },
            dirty: true,
            cumulative: SolveStats::default(),
            pool: SolverPool::new(),
            grow_jobs: Vec::new(),
            grow_sites: Vec::new(),
            side: Vec::new(),
            events: Vec::new(),
            split_buf: Vec::new(),
        })
    }

    /// Number of live jobs.
    pub fn n_jobs(&self) -> usize {
        self.index.len()
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
        self.index.contains_key(&id)
    }

    /// Whether deltas have arrived since the last [`solve`](Self::solve).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Live job ids in the dense order used by [`solve`](Self::solve)'s
    /// output (row `k` of the allocation belongs to `job_ids()[k]`).
    pub fn job_ids(&self) -> Vec<JobId> {
        self.slots.iter().flatten().map(|job| job.id).collect()
    }

    /// The equivalent dense [`Instance`] (rows in [`job_ids`](Self::job_ids)
    /// order) — what a from-scratch solver would be handed right now.
    pub fn instance(&self) -> Instance<S> {
        let mut demands = Vec::with_capacity(self.index.len());
        let mut weights = Vec::with_capacity(self.index.len());
        for job in self.slots.iter().flatten() {
            demands.push(job.demands.clone());
            weights.push(job.weight);
        }
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
                if self.index.contains_key(&id) {
                    return Err(DeltaError::DuplicateJob { id });
                }
                if demands.len() != m {
                    return Err(DeltaError::RaggedDemands {
                        expected: m,
                        got: demands.len(),
                    });
                }
                for d in &demands {
                    if *d < S::ZERO || !d.is_valid() {
                        return Err(DeltaError::InvalidValue { what: "demand" });
                    }
                }
                if !weight.is_valid() || !weight.is_positive() {
                    return Err(DeltaError::InvalidValue { what: "weight" });
                }
                let slot = self.net.add_job(&demands);
                if slot == self.slots.len() {
                    self.slots.push(None);
                }
                debug_assert!(self.slots[slot].is_none(), "network reused a live slot");
                self.slots[slot] = Some(SlotJob {
                    id,
                    demands,
                    weight,
                });
                self.index.insert(id, slot);
            }
            Delta::RemoveJob { id } => {
                let slot = self
                    .index
                    .remove(&id)
                    .ok_or(DeltaError::UnknownJob { id })?;
                self.net.remove_job(slot);
                self.slots[slot] = None;
            }
            Delta::DemandChange { id, site, demand } => {
                let slot = *self.index.get(&id).ok_or(DeltaError::UnknownJob { id })?;
                if site >= m {
                    return Err(DeltaError::SiteOutOfRange { site, n_sites: m });
                }
                if demand < S::ZERO || !demand.is_valid() {
                    return Err(DeltaError::InvalidValue { what: "demand" });
                }
                self.net.set_demand(slot, site, demand);
                self.slots[slot]
                    .as_mut()
                    .expect("indexed slot is live")
                    .demands[site] = demand;
            }
            Delta::CapacityChange { site, capacity } => {
                if site >= m {
                    return Err(DeltaError::SiteOutOfRange { site, n_sites: m });
                }
                if capacity < S::ZERO || !capacity.is_valid() {
                    return Err(DeltaError::InvalidValue { what: "capacity" });
                }
                self.net.set_site_capacity(site, capacity);
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

    /// Solve the current instance, replaying every cached round the
    /// pending deltas did not touch. Returns the cached output unchanged
    /// when no delta arrived since the last call. Rows of the allocation
    /// (and job indices inside `rounds`) are in [`job_ids`](Self::job_ids)
    /// order.
    pub fn solve(&mut self) -> &SolveOutput<S> {
        if self.dirty {
            self.resolve();
            self.dirty = false;
        }
        &self.output
    }

    /// The last computed output (stale if [`is_dirty`](Self::is_dirty)).
    pub fn last_output(&self) -> &SolveOutput<S> {
        &self.output
    }

    /// Per-slot cap functions (`None` for retired slots), mirroring the
    /// from-scratch solver's `build_caps` on the dense instance.
    fn build_slot_caps(&self) -> Vec<Option<LevelCap<S>>> {
        let n_live = S::from_usize(self.index.len().max(1));
        self.slots
            .iter()
            .map(|slot| {
                slot.as_ref().map(|job| {
                    let ceil = sum(job.demands.iter().copied());
                    let floor = match self.solver.mode() {
                        FairnessMode::Plain => S::ZERO,
                        FairnessMode::Enhanced => {
                            let mut share = S::ZERO;
                            for (s, &d) in job.demands.iter().enumerate() {
                                share += min2(d, self.capacities[s] / n_live);
                            }
                            min2(share, ceil)
                        }
                    };
                    LevelCap::new(job.weight, floor, ceil)
                })
            })
            .collect()
    }

    /// Set every slot's source cap for water level `t` (frozen slots pin
    /// their aggregate), *draining* any slot whose cap shrinks so the warm
    /// flow stays feasible, then recompute the max flow. Returns
    /// `(flow, target)`.
    fn set_level_and_flow(
        &mut self,
        t: S,
        caps: &[Option<LevelCap<S>>],
        frozen: &[Option<S>],
        stats: &mut SolveStats,
    ) -> (S, S) {
        let mut target = S::ZERO;
        for slot in 0..self.slots.len() {
            let Some(cap) = &caps[slot] else { continue };
            let u = match frozen[slot] {
                Some(a) => a,
                None => cap.at(t),
            };
            self.net.drain_job_to_cap(slot, u);
            target += u;
        }
        stats.max_flows += 1;
        let flow = self.net.run_max_flow();
        (flow, target)
    }

    /// Verify one cached round against the current instance (see the
    /// module docs for the three conditions). `Some(set)` means round `k`
    /// of a from-scratch solve would be exactly `(cached.level, set)`;
    /// `None` invalidates the round (and therefore the whole suffix).
    fn verify_round(
        &mut self,
        cached: &CachedRound<S>,
        caps: &[Option<LevelCap<S>>],
        frozen: &[Option<S>],
        stats: &mut SolveStats,
    ) -> Option<Vec<(usize, FreezeReason)>> {
        // Every cached member must still be live and still active.
        for (id, _) in &cached.frozen {
            match self.index.get(id) {
                Some(&slot) if frozen[slot].is_none() => {}
                _ => return None,
            }
        }
        let t = cached.level;
        // Condition 1: the level is feasible.
        let (flow, target) = self.set_level_and_flow(t, caps, frozen, stats);
        if !close_rel(flow, target) {
            return None;
        }
        // Condition 2: the freeze rule at `t` reproduces the cached set.
        self.net
            .sink_reachability_into(&mut self.grow_jobs, &mut self.grow_sites);
        let mut expected: Vec<(usize, FreezeReason)> = Vec::new();
        let mut proving_member = false;
        let mut upper_bound = S::ZERO;
        for slot in 0..self.slots.len() {
            if frozen[slot].is_some() {
                continue;
            }
            let cap = caps[slot].as_ref().expect("active slot has caps");
            upper_bound = max2(upper_bound, cap.high_breakpoint());
            let u = cap.at(t);
            if !u.definitely_lt(cap.ceil) {
                expected.push((slot, FreezeReason::DemandCapped));
            } else if !self.grow_jobs[slot] {
                expected.push((slot, FreezeReason::Bottlenecked));
                // A member bottlenecked on the increasing segment of its
                // cap (above its floor breakpoint, below its ceiling)
                // proves maximality: any higher level strictly inflates
                // its tight set past the saturated cut.
                if !t.definitely_lt(cap.low_breakpoint()) {
                    proving_member = true;
                }
            }
        }
        let mut cached_slots: Vec<(usize, FreezeReason)> = cached
            .frozen
            .iter()
            .map(|&(id, reason)| (self.index[&id], reason))
            .collect();
        cached_slots.sort_by_key(|&(slot, _)| slot);
        if expected != cached_slots {
            return None;
        }
        // Condition 3: maximality of the cached level.
        if !proving_member && !close_rel(t, upper_bound) {
            return None;
        }
        Some(expected)
    }

    /// Replay + suffix re-solve. See the module docs.
    fn resolve(&mut self) {
        let n_slots = self.slots.len();
        let m = self.capacities.len();
        let mut stats = SolveStats::default();

        let caps = self.build_slot_caps();
        // `None` = active; `Some(a)` = frozen at aggregate `a`. Retired
        // slots and zero-demand jobs are born frozen at zero (the latter
        // never appear in rounds, matching the from-scratch paths).
        let mut frozen: Vec<Option<S>> = caps
            .iter()
            .map(|cap| match cap {
                Some(c) if c.ceil.is_positive() => None,
                _ => Some(S::ZERO),
            })
            .collect();

        // Dense index of each live slot (solver outputs are dense).
        let mut dense = vec![usize::MAX; n_slots];
        let mut n_live = 0usize;
        for (slot, job) in self.slots.iter().enumerate() {
            if job.is_some() {
                dense[slot] = n_live;
                n_live += 1;
            }
        }

        let mut rounds: Vec<FreezeRound<S>> = Vec::new();
        let mut new_log: Vec<CachedRound<S>> = Vec::new();

        // Phase 1 — replay the cached round log until a round fails
        // verification; everything after the first failure is invalidated.
        let old_log = std::mem::take(&mut self.round_log);
        for cached in &old_log {
            let Some(accepted) = self.verify_round(cached, &caps, &frozen, &mut stats) else {
                break;
            };
            stats.rounds += 1;
            stats.rounds_replayed += 1;
            stats.active_job_rounds += frozen.iter().filter(|f| f.is_none()).count();
            stats.active_site_rounds += m;
            let mut round = FreezeRound {
                level: cached.level,
                frozen: Vec::new(),
            };
            let mut entry = CachedRound {
                level: cached.level,
                frozen: Vec::new(),
            };
            for &(slot, reason) in &accepted {
                let cap = caps[slot].as_ref().expect("accepted slot is live");
                frozen[slot] = Some(match reason {
                    FreezeReason::DemandCapped => cap.ceil,
                    FreezeReason::Bottlenecked => cap.at(cached.level),
                });
                round.frozen.push((dense[slot], reason));
                let id = self.slots[slot].as_ref().expect("live").id;
                entry.frozen.push((id, reason));
            }
            rounds.push(round);
            new_log.push(entry);
        }
        drop(old_log);

        // Phase 2 — re-solve the invalidated suffix.
        //
        // Plain mode *delegates* the suffix to the from-scratch
        // shrinking-network solver on the contracted residual instance:
        // commit the frozen slots' current network splits (exactly what
        // `AmfSolver::solve_with_pool` does after each round) and solve the
        // actives against the leftover capacities. The exactness argument is the
        // solver's own contraction argument, and Plain-mode level caps
        // depend only on demands and weights, so the sub-solve's water
        // levels are the session's absolute levels. Enhanced mode cannot
        // delegate — its equal-share floors are functions of the *full*
        // live instance (`n_live`, original capacities) and a sub-instance
        // would recompute them wrongly — so it keeps the pure slot-indexed
        // Dinkelbach loop with drain-based warm repair below.
        if frozen.iter().any(Option::is_none) && self.solver.mode() == FairnessMode::Plain {
            self.net.split_into(&mut self.split_buf);
            let mut residual = self.capacities.clone();
            for slot in 0..n_slots {
                if frozen[slot].is_some() {
                    for (s, r) in residual.iter_mut().enumerate() {
                        *r = max2(S::ZERO, *r - self.split_buf[slot][s]);
                    }
                }
            }
            let mut act_slots: Vec<usize> = Vec::new();
            let mut sub_demands: Vec<Vec<S>> = Vec::new();
            let mut sub_weights: Vec<S> = Vec::new();
            for slot in 0..n_slots {
                if frozen[slot].is_none() {
                    let job = self.slots[slot].as_ref().expect("active slot is live");
                    act_slots.push(slot);
                    sub_demands.push(job.demands.clone());
                    sub_weights.push(job.weight);
                }
            }
            let sub_inst = Instance::weighted(residual, sub_demands, sub_weights)
                .expect("residual sub-instance is valid by construction");
            let sub = self.solver.solve_with_pool(&sub_inst, &mut self.pool);

            // Graft the delegated rounds into the log at their absolute
            // levels, translating sub-instance indices through the slot map.
            for sub_round in &sub.rounds {
                stats.rounds += 1;
                stats.rounds_resolved += 1;
                let mut round = FreezeRound {
                    level: sub_round.level,
                    frozen: Vec::new(),
                };
                let mut entry = CachedRound {
                    level: sub_round.level,
                    frozen: Vec::new(),
                };
                for &(i, reason) in &sub_round.frozen {
                    let slot = act_slots[i];
                    round.frozen.push((dense[slot], reason));
                    let id = self.slots[slot].as_ref().expect("live").id;
                    entry.frozen.push((id, reason));
                }
                rounds.push(round);
                new_log.push(entry);
            }
            stats.saturating_merge_work(&sub.stats);

            // Seed the warm network with the delegated allocation so the
            // next delta's repair (and the final split read below) starts
            // from the committed flow. Every active slot is drained before
            // any row is written: a stale warm row left on a later slot
            // would otherwise occupy site residuals and clamp the write.
            for &slot in &act_slots {
                self.net.drain_job_to_cap(slot, S::ZERO);
            }
            for (i, &slot) in act_slots.iter().enumerate() {
                self.net.set_job_split(slot, &sub.allocation.split()[i]);
                frozen[slot] = Some(sub.allocation.aggregate(i));
            }
        }

        // Pure slot-indexed suffix loop (Enhanced mode, or nothing active:
        // the from-scratch round loop with drain-based warm repair instead
        // of flow resets).
        while frozen.iter().any(Option::is_none) {
            stats.rounds += 1;
            stats.rounds_resolved += 1;
            stats.active_job_rounds += frozen.iter().filter(|f| f.is_none()).count();
            stats.active_site_rounds += m;

            // Upper bound: every active job at its ceiling.
            let mut t = S::ZERO;
            for slot in 0..n_slots {
                if frozen[slot].is_none() {
                    let cap = caps[slot].as_ref().expect("active slot has caps");
                    t = max2(t, cap.high_breakpoint());
                }
            }

            let t_star = loop {
                stats.dinkelbach_iterations += 1;
                let (flow, target) = self.set_level_and_flow(t, &caps, &frozen, &mut stats);
                if close_rel(flow, target) {
                    break t;
                }
                // Infeasible: the min cut names the violating set J; lower
                // t to where J's polymatroid constraint becomes tight.
                self.net.source_side_jobs_into(&mut self.side);
                let mut budget = S::ZERO;
                for s in 0..m {
                    let mut want = S::ZERO;
                    for slot in 0..n_slots {
                        if self.side[slot] {
                            if let Some(job) = &self.slots[slot] {
                                want += job.demands[s];
                            }
                        }
                    }
                    budget += min2(self.capacities[s], want);
                }
                for slot in 0..n_slots {
                    if self.side[slot] {
                        if let Some(a) = frozen[slot] {
                            budget -= a;
                        }
                    }
                }
                let side = &self.side;
                let active_in_side = |slot: &usize| side[*slot] && frozen[*slot].is_none();
                debug_assert!(
                    (0..n_slots).any(|slot| active_in_side(&slot)),
                    "violating set without active jobs: frozen state infeasible"
                );
                let members = (0..n_slots)
                    .filter(active_in_side)
                    .map(|slot| *caps[slot].as_ref().expect("active slot has caps"));
                let t_next = invert_total_with(members, budget, &mut self.events);
                if !t_next.definitely_lt(t) {
                    // No numerical progress (f64 only): accept and freeze.
                    break t_next;
                }
                t = t_next;
            };

            // Re-establish the max flow at t_star (the descent may exit on
            // a lowered level without re-checking).
            let (flow, target) = self.set_level_and_flow(t_star, &caps, &frozen, &mut stats);
            debug_assert!(
                close_rel(flow, target),
                "level t*={t_star} must be feasible (flow {flow}, target {target})"
            );

            self.net
                .sink_reachability_into(&mut self.grow_jobs, &mut self.grow_sites);
            let mut round = FreezeRound {
                level: t_star,
                frozen: Vec::new(),
            };
            let mut entry = CachedRound {
                level: t_star,
                frozen: Vec::new(),
            };
            for slot in 0..n_slots {
                if frozen[slot].is_some() {
                    continue;
                }
                let cap = caps[slot].as_ref().expect("active slot has caps");
                let u = cap.at(t_star);
                let reason = if !u.definitely_lt(cap.ceil) {
                    frozen[slot] = Some(cap.ceil);
                    FreezeReason::DemandCapped
                } else if !self.grow_jobs[slot] {
                    frozen[slot] = Some(u);
                    FreezeReason::Bottlenecked
                } else {
                    continue;
                };
                round.frozen.push((dense[slot], reason));
                let id = self.slots[slot].as_ref().expect("live").id;
                entry.frozen.push((id, reason));
            }
            if round.frozen.is_empty() {
                // Safety net for f64 rounding (unreachable with exact
                // arithmetic): freeze everything at the current level.
                debug_assert!(!S::EXACT, "exact solve failed to freeze a job");
                stats.fallback_freezes += 1;
                for slot in 0..n_slots {
                    if frozen[slot].is_none() {
                        let cap = caps[slot].as_ref().expect("active slot has caps");
                        frozen[slot] = Some(cap.at(t_star));
                        round.frozen.push((dense[slot], FreezeReason::Bottlenecked));
                        let id = self.slots[slot].as_ref().expect("live").id;
                        entry.frozen.push((id, FreezeReason::Bottlenecked));
                    }
                }
            }
            rounds.push(round);
            new_log.push(entry);
        }

        // The last round's max flow already pins every slot at its frozen
        // aggregate, so the final split is read straight off the network —
        // no extra reset-and-recompute pass.
        self.net.split_into(&mut self.split_buf);
        let mut split: Vec<Vec<S>> = Vec::with_capacity(n_live);
        for slot in 0..n_slots {
            if self.slots[slot].is_some() {
                split.push(std::mem::take(&mut self.split_buf[slot]));
            }
        }
        let allocation = Allocation::from_split(split);

        debug_assert!(
            allocation.is_feasible(&self.instance()),
            "incremental session emitted an infeasible allocation"
        );
        #[cfg(debug_assertions)]
        {
            // Certify against a from-scratch solve (debug/test builds): the
            // replay logic must be invisible in the aggregates.
            let reference = self.solver.solve(&self.instance());
            for (k, (a, b)) in allocation
                .aggregates()
                .iter()
                .zip(reference.allocation.aggregates())
                .enumerate()
            {
                debug_assert!(
                    close_rel(*a, *b),
                    "incremental aggregate {k} diverged from from-scratch: {a} vs {b}"
                );
            }
        }

        self.round_log = new_log;
        // Saturating throughout: a session accumulates across an unbounded
        // number of solves, and `edges_visited`/`active_job_rounds` style
        // work counters are the first to approach their ceilings.
        self.cumulative.rounds = self.cumulative.rounds.saturating_add(stats.rounds);
        self.cumulative.rounds_replayed = self
            .cumulative
            .rounds_replayed
            .saturating_add(stats.rounds_replayed);
        self.cumulative.rounds_resolved = self
            .cumulative
            .rounds_resolved
            .saturating_add(stats.rounds_resolved);
        self.cumulative.saturating_merge_work(&stats);
        self.output = SolveOutput {
            allocation,
            rounds,
            stats,
        };
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

    /// Session output must match a from-scratch solve of the same dense
    /// instance (aggregates and rounds). Returns both outputs' aggregates.
    fn assert_matches_scratch(session: &mut IncrementalAmf<f64>) -> Vec<f64> {
        let inst = session.instance();
        let solver = AmfSolver::new();
        let reference = solver.solve(&inst);
        let out = session.solve();
        assert_eq!(
            out.allocation.aggregates().len(),
            reference.allocation.aggregates().len()
        );
        for (a, b) in out
            .allocation
            .aggregates()
            .iter()
            .zip(reference.allocation.aggregates())
        {
            assert!((a - b).abs() < 1e-6, "aggregate mismatch: {a} vs {b}");
        }
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
    /// freezes jobs 2-3 in round 2. A delta that only touches the later
    /// tier must replay round 1 from the log and re-solve only round 2.
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
    fn late_round_delta_replays_the_early_round() {
        let mut session = two_tier_session();
        assert_eq!(session.last_output().stats.rounds_replayed, 0);
        // Shrink job 3's demand so it becomes demand-capped: round 1
        // (t = 1, jobs 0-1) is untouched, round 2 is invalidated.
        session
            .apply(Delta::DemandChange {
                id: JobId(3),
                site: 1,
                demand: 30.0,
            })
            .unwrap();
        let agg = assert_matches_scratch(&mut session);
        let stats = session.last_output().stats;
        assert_eq!(stats.rounds_replayed, 1, "round 1 must replay from cache");
        assert!(stats.rounds_resolved >= 1, "round 2 must be re-solved");
        assert!((agg[0] - 1.0).abs() < 1e-9);
        assert!((agg[1] - 1.0).abs() < 1e-9);
        assert!((agg[2] - 70.0).abs() < 1e-6);
        assert!((agg[3] - 30.0).abs() < 1e-6);
    }

    #[test]
    fn untouched_instance_replays_every_round() {
        let mut session = two_tier_session();
        // A demand change that does not alter the solution (job 2 stays
        // bottlenecked at 50 either way) must replay both rounds.
        session
            .apply(Delta::DemandChange {
                id: JobId(2),
                site: 1,
                demand: 60.0,
            })
            .unwrap();
        assert_matches_scratch(&mut session);
        let stats = session.last_output().stats;
        assert_eq!(stats.rounds_replayed, 2, "both rounds replay");
        assert_eq!(stats.rounds_resolved, 0);
    }

    #[test]
    fn removing_a_frozen_job_invalidates_its_round() {
        // Remove a job frozen in the FIRST round: the whole log is invalid.
        let mut session = two_tier_session();
        session.apply(Delta::RemoveJob { id: JobId(0) }).unwrap();
        let agg = assert_matches_scratch(&mut session);
        let stats = session.last_output().stats;
        assert_eq!(stats.rounds_replayed, 0, "round 1 cached a removed job");
        assert!(stats.rounds_resolved >= 1);
        // Job 1 now owns site 0 alone.
        assert!((agg[0] - 2.0).abs() < 1e-9);

        // Remove a job frozen in the LAST round: the prefix replays.
        let mut session = two_tier_session();
        session.apply(Delta::RemoveJob { id: JobId(3) }).unwrap();
        let agg = assert_matches_scratch(&mut session);
        let stats = session.last_output().stats;
        assert_eq!(stats.rounds_replayed, 1, "early round must survive");
        assert!(stats.rounds_resolved >= 1);
        assert!((agg[2] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn capacity_drop_below_committed_flow_is_repaired() {
        let mut session = two_tier_session();
        // Site 0 carries 2.0 of committed flow; drop its capacity to 0.5.
        // The network must drain the excess (not panic) and re-solve.
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
    fn slots_are_recycled_and_ids_stay_stable() {
        let mut session = IncrementalAmf::new(AmfSolver::new(), vec![10.0]).unwrap();
        session
            .apply_all([add(0, vec![4.0]), add(1, vec![4.0]), add(2, vec![4.0])])
            .unwrap();
        session.solve();
        session.apply(Delta::RemoveJob { id: JobId(1) }).unwrap();
        session.apply(add(9, vec![4.0])).unwrap();
        assert_eq!(session.job_ids(), vec![JobId(0), JobId(9), JobId(2)]);
        let agg = assert_matches_scratch(&mut session);
        assert_eq!(agg.len(), 3);
        assert!(session.contains(JobId(9)) && !session.contains(JobId(1)));
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
    fn session_stats_accumulate_across_solves() {
        let mut session = two_tier_session();
        let first = session.session_stats();
        assert!(first.rounds >= 2);
        session
            .apply(Delta::DemandChange {
                id: JobId(3),
                site: 1,
                demand: 30.0,
            })
            .unwrap();
        session.solve();
        let second = session.session_stats();
        assert!(second.rounds > first.rounds);
        assert_eq!(second.rounds_replayed, 1);
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
