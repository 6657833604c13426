//! The AMF progressive-filling solver.
//!
//! Computes the Aggregate Max-min Fair allocation: the lexicographically
//! greatest (sorted ascending) feasible vector of aggregate allocations
//! `A_j = Σ_s x[j][s]`, optionally with job weights (fairness on `A_j/w_j`)
//! and per-job floors (Enhanced AMF's sharing-incentive guarantee).
//!
//! # Algorithm
//!
//! Classic progressive filling, with the bottleneck set found by a
//! Dinkelbach iteration over max-flow feasibility checks (Megiddo-style
//! lexicographically optimal flows):
//!
//! 1. Every *active* job targets `u_j(t) = clamp(w_j t, floor_j, D_j)` at
//!    water level `t`; *frozen* jobs keep their fixed aggregate.
//! 2. Level `t` is feasible iff the allocation network admits a flow
//!    saturating every source cap. We search for the largest feasible `t`:
//!    start at the level where every active job is demand-capped; while
//!    infeasible, read the violating job set `J` off the min cut, and lower
//!    `t` to the level at which `J`'s polymatroid constraint
//!    `Σ_{j∈J} u_j(t) = f(J) - Σ_{frozen∈J} A_j` becomes tight
//!    ([`crate::levels::invert_total`]). Each step strictly lowers `t` and
//!    pins a new subset, so the iteration is finite.
//! 3. At the resulting `t*`, freeze every active job that is demand-capped
//!    or has no residual path to the sink (it sits in a tight set and can
//!    never grow). At least one job freezes per round, so there are at most
//!    `n` rounds.
//!
//! # The shrinking network
//!
//! By default the solver **contracts** the allocation network after every
//! freeze round. Frozen jobs and sink-unreachable sites can never gain or
//! lose flow at any later water level (no augmenting path traverses a node
//! without a residual path to the sink, and additional flow injected by
//! raising an *active* job's source cap stays inside the sink-reachable
//! set), so their per-site splits are committed immediately; the flows
//! active jobs hold at removed sites fold into a per-job `base` offset and
//! the committed usage at surviving sites folds into *residual site
//! budgets*. Round `k` then runs its max flows on only the still-active
//! jobs × still-growable sites subgraph, which shrinks geometrically on
//! typical workloads. The legacy full-network path is kept behind
//! [`AmfSolver::without_contraction`] for the ablation benches, and a
//! property test cross-checks the two bit-for-bit on exact rationals.
//!
//! With the exact [`Rational`](amf_numeric::Rational) scalar the result is
//! the exact AMF vector (cross-checked against brute-force subset
//! enumeration in [`crate::reference`]); with `f64` all comparisons use a
//! relative tolerance.

use crate::levels::{invert_total_with, LevelCap};
use crate::model::{Allocation, Instance};
use amf_flow::{AllocationNetwork, FlowBackend, FlowScratch};
use amf_numeric::{max2, min2, sum, Scalar};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which fairness objective the solver computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessMode {
    /// Plain AMF: max-min fairness on the aggregate allocations.
    #[default]
    Plain,
    /// Enhanced AMF: max-min fairness subject to the sharing-incentive
    /// floors `A_j >= e_j` (equal shares). Guarantees sharing incentive.
    Enhanced,
}

/// Why a job's allocation stopped growing in a progressive-filling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeReason {
    /// The job reached its total demand (it wants nothing more).
    DemandCapped,
    /// The job sits in a tight set: the capacity reachable through its
    /// demand edges is exhausted at this level.
    Bottlenecked,
}

/// One progressive-filling round: the water level reached and the jobs
/// frozen at it. The sequence of rounds *explains* an AMF allocation —
/// which jobs are demand-limited, which share which bottleneck, and at
/// what level — which is what an operator asks of a fair scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct FreezeRound<S> {
    /// The water level of this round.
    pub level: S,
    /// `(job, reason)` for every job frozen in this round.
    pub frozen: Vec<(usize, FreezeReason)>,
}

/// Diagnostics from one solver run (used by the ablation benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Progressive-filling rounds executed (each freezes >= 1 job).
    pub rounds: usize,
    /// Total Dinkelbach (feasibility) iterations across rounds.
    pub dinkelbach_iterations: usize,
    /// Total max-flow computations, including any final split extraction.
    pub max_flows: usize,
    /// Feasibility checks that could not keep the previous flow as-is:
    /// on the contracted path the excess is drained per job (the rest of
    /// the warm flow survives); with warm starts disabled every check
    /// discards the flow, so this equals `max_flows`.
    pub flow_resets: usize,
    /// Network contractions performed (0 on the legacy full path).
    pub contractions: usize,
    /// Sum over rounds of the number of jobs still in the working network —
    /// the contracted path's shrinking advantage shows up here.
    pub active_job_rounds: usize,
    /// Sum over rounds of the number of sites still in the working network.
    pub active_site_rounds: usize,
    /// Residual-graph edge inspections performed by the flow kernels and
    /// reachability sweeps (from the [`FlowScratch`] counters).
    pub edges_visited: u64,
    /// Times a kernel invocation found its scratch arena already sized —
    /// i.e. ran allocation-free.
    pub scratch_reuse_hits: u64,
    /// CSR adjacency rebuilds performed by the kernels — one per network
    /// structure actually traversed, however many max flows ran on it
    /// (from the [`FlowScratch`] counters).
    pub csr_rebuilds: u64,
    /// 64-bit words zeroed by frontier-bitset resets in the kernels and
    /// reachability sweeps — the entire cost of clearing visited sets under
    /// the word-packed layout (from the [`FlowScratch`] counters).
    pub bitset_words_cleared: u64,
    /// Freeze rounds an incremental session verified against its cached
    /// round log and replayed without re-solving (always 0 on the
    /// from-scratch paths).
    pub rounds_replayed: usize,
    /// Freeze rounds an incremental session had to re-solve by Dinkelbach
    /// descent after a delta invalidated the cached suffix (always 0 on
    /// the from-scratch paths, where `rounds` counts that work).
    pub rounds_resolved: usize,
}

impl SolveStats {
    /// Fold another run's *work* counters into this one — everything except
    /// the round-log bookkeeping fields (`rounds`, `rounds_replayed`,
    /// `rounds_resolved`), which callers account for separately. Every add
    /// saturates: long-lived incremental sessions accumulate these across
    /// an unbounded number of solves, and a counter pinned at its ceiling
    /// beats a silently wrapped one.
    pub fn saturating_merge_work(&mut self, other: &SolveStats) {
        self.dinkelbach_iterations = self
            .dinkelbach_iterations
            .saturating_add(other.dinkelbach_iterations);
        self.max_flows = self.max_flows.saturating_add(other.max_flows);
        self.flow_resets = self.flow_resets.saturating_add(other.flow_resets);
        self.contractions = self.contractions.saturating_add(other.contractions);
        self.active_job_rounds = self
            .active_job_rounds
            .saturating_add(other.active_job_rounds);
        self.active_site_rounds = self
            .active_site_rounds
            .saturating_add(other.active_site_rounds);
        self.edges_visited = self.edges_visited.saturating_add(other.edges_visited);
        self.scratch_reuse_hits = self
            .scratch_reuse_hits
            .saturating_add(other.scratch_reuse_hits);
        self.csr_rebuilds = self.csr_rebuilds.saturating_add(other.csr_rebuilds);
        self.bitset_words_cleared = self
            .bitset_words_cleared
            .saturating_add(other.bitset_words_cleared);
    }
}

/// Result of an AMF solve: the allocation, the frozen levels, and stats.
#[derive(Debug, Clone)]
pub struct SolveOutput<S> {
    /// The AMF allocation (split + aggregates).
    pub allocation: Allocation<S>,
    /// The freeze structure: one entry per progressive-filling round,
    /// in round order (explains the allocation; see [`FreezeRound`]).
    pub rounds: Vec<FreezeRound<S>>,
    /// Solver diagnostics.
    pub stats: SolveStats,
}

/// How the solver locates the largest feasible water level each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottleneckStrategy {
    /// Descend from the demand-capped upper bound, jumping directly to the
    /// tight level of the min cut's violating set (default; exact and
    /// typically converges in 1–3 feasibility checks per round).
    Dinkelbach,
    /// Classic Megiddo-style bisection: halve a feasible/infeasible
    /// bracket `iterations` times, then run the Dinkelbach tail from the
    /// infeasible side so the final level is still *exact*. Exists for the
    /// algorithm ablation (see the ablation bench); more feasibility
    /// checks, same answers.
    Bisection {
        /// Number of halvings before the exact tail (8–24 is sensible).
        iterations: usize,
    },
}

/// Reusable working memory for [`AmfSolver::solve_with_pool`].
///
/// Holds the flow kernels' [`FlowScratch`] arena plus every per-round
/// buffer the solver needs (cap vectors, cut/reachability masks, preload
/// and split matrices), so a pooled solve performs no per-check heap
/// allocation once the buffers have grown to the instance size. One pool
/// serves any number of sequential solves of any sizes; it is `Send`, so
/// [`AmfSolver::solve_batch`] hands one to each worker thread.
#[derive(Debug)]
pub struct SolverPool<S> {
    scratch: FlowScratch<S>,
    us: Vec<S>,
    side: Vec<bool>,
    grow_jobs: Vec<bool>,
    grow_sites: Vec<bool>,
    freeze: Vec<bool>,
    events: Vec<(S, S)>,
    split: Vec<Vec<S>>,
    frozen_usage: Vec<S>,
    rank_buf: Vec<S>,
    keep_site: Vec<bool>,
    site_map: Vec<usize>,
    /// Warm flows carried into the next round's network, one
    /// `(site, flow)` pair per surviving demand edge, job `i`'s at
    /// `preload[preload_start[i]..preload_start[i + 1]]`.
    preload: Vec<(usize, S)>,
    preload_start: Vec<usize>,
    /// The contracted subproblem of the current round and the one the
    /// contraction builds for the next (swapped after every round).
    cur: Active<S>,
    next: Active<S>,
}

/// The contracted subproblem a round works on (see the module docs).
#[derive(Debug)]
struct Active<S> {
    /// Original indices of the live jobs.
    jobs: Vec<usize>,
    /// Original indices of the live sites.
    sites: Vec<usize>,
    /// Flow each live job has already committed at removed sites.
    base: Vec<S>,
    /// Residual budget of each live site
    /// (`caps[k] + committed_at(sites[k]) == c_s`).
    caps: Vec<S>,
    /// Job `i`'s demand support is `support[start[i]..start[i + 1]]`:
    /// `(k, d)` for every live site `k` (ascending) with `d > 0`. These are
    /// exactly the nonzero terms a dense scan adds, so sums over the support
    /// are bit-identical to dense row sums. The network has demand edges
    /// only for `d.is_positive()` (`d > 1e-9` in `f64`), a subset, so rank
    /// sums must not read the network's edges instead.
    start: Vec<usize>,
    support: Vec<(usize, S)>,
}

impl<S> Active<S> {
    fn new() -> Self {
        Active {
            jobs: Vec::new(),
            sites: Vec::new(),
            base: Vec::new(),
            caps: Vec::new(),
            start: Vec::new(),
            support: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.jobs.clear();
        self.sites.clear();
        self.base.clear();
        self.caps.clear();
        self.start.clear();
        self.support.clear();
    }

    /// Job `i`'s demand support.
    fn support(&self, i: usize) -> &[(usize, S)] {
        &self.support[self.start[i]..self.start[i + 1]]
    }
}

impl<S: Scalar> SolverPool<S> {
    /// An empty pool; buffers grow on first use.
    pub fn new() -> Self {
        SolverPool {
            scratch: FlowScratch::new(),
            us: Vec::new(),
            side: Vec::new(),
            grow_jobs: Vec::new(),
            grow_sites: Vec::new(),
            freeze: Vec::new(),
            events: Vec::new(),
            split: Vec::new(),
            frozen_usage: Vec::new(),
            rank_buf: Vec::new(),
            keep_site: Vec::new(),
            site_map: Vec::new(),
            preload: Vec::new(),
            preload_start: Vec::new(),
            cur: Active::new(),
            next: Active::new(),
        }
    }

    /// The kernel scratch arena, for reading its diagnostic counters.
    pub fn scratch(&self) -> &FlowScratch<S> {
        &self.scratch
    }
}

impl<S: Scalar> Default for SolverPool<S> {
    fn default() -> Self {
        SolverPool::new()
    }
}

/// The AMF solver: progressive filling with flow-based bottleneck
/// detection. See the [module docs](self) for the algorithm.
///
/// ```
/// use amf_core::{AmfSolver, Instance};
/// // Two sites of capacity 6 and 2; job 0 lives only at site 0, job 1 at
/// // both. AMF equalizes the aggregates at 4 each.
/// let inst = Instance::new(
///     vec![6.0, 2.0],
///     vec![vec![6.0, 0.0], vec![6.0, 2.0]],
/// ).unwrap();
/// let out = AmfSolver::new().solve(&inst);
/// assert!((out.allocation.aggregate(0) - 4.0).abs() < 1e-9);
/// assert!((out.allocation.aggregate(1) - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AmfSolver {
    mode: FairnessMode,
    warm_start: bool,
    bottleneck: BottleneckStrategy,
    backend: FlowBackend,
    contraction: bool,
}

impl Default for AmfSolver {
    fn default() -> Self {
        AmfSolver::new()
    }
}

impl AmfSolver {
    /// Plain AMF.
    pub fn new() -> Self {
        AmfSolver {
            mode: FairnessMode::Plain,
            warm_start: true,
            bottleneck: BottleneckStrategy::Dinkelbach,
            backend: FlowBackend::default(),
            contraction: true,
        }
    }

    /// Enhanced AMF (sharing-incentive floors).
    pub fn enhanced() -> Self {
        AmfSolver {
            mode: FairnessMode::Enhanced,
            ..AmfSolver::new()
        }
    }

    /// Disable flow warm starts between feasibility checks. The result is
    /// identical (max-flow values are unique); this exists for the
    /// warm-start ablation bench.
    pub fn without_warm_start(mut self) -> Self {
        self.warm_start = false;
        self
    }

    /// Use bisection bottleneck search (see [`BottleneckStrategy`]).
    pub fn with_bisection(mut self, iterations: usize) -> Self {
        self.bottleneck = BottleneckStrategy::Bisection { iterations };
        self
    }

    /// Disable network contraction: every round runs its max flows on the
    /// full jobs × sites network, as the original solver did. The result
    /// is identical; this exists for the contraction ablation bench.
    pub fn without_contraction(mut self) -> Self {
        self.contraction = false;
        self
    }

    /// Select the max-flow kernel (see [`FlowBackend`]; default Dinic).
    pub fn with_flow_backend(mut self, backend: FlowBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The configured mode.
    pub fn mode(&self) -> FairnessMode {
        self.mode
    }

    /// The configured max-flow backend.
    pub fn flow_backend(&self) -> FlowBackend {
        self.backend
    }

    /// Whether the shrinking-network path is enabled (default true).
    pub fn contraction_enabled(&self) -> bool {
        self.contraction
    }

    /// Compute the AMF allocation for `inst`.
    ///
    /// Allocates a private [`SolverPool`]; callers solving many instances
    /// should hold one and use [`solve_with_pool`](Self::solve_with_pool)
    /// (or [`solve_batch`](Self::solve_batch)) instead.
    pub fn solve<S: Scalar>(&self, inst: &Instance<S>) -> SolveOutput<S> {
        let mut pool = SolverPool::new();
        self.solve_with_pool(inst, &mut pool)
    }

    /// [`solve`](Self::solve) with caller-provided working memory. The
    /// result is identical; repeated calls reuse the pool's buffers and
    /// scratch arena instead of reallocating them.
    pub fn solve_with_pool<S: Scalar>(
        &self,
        inst: &Instance<S>,
        pool: &mut SolverPool<S>,
    ) -> SolveOutput<S> {
        if self.contraction {
            self.solve_contracted(inst, pool)
        } else {
            self.solve_full(inst, pool)
        }
    }

    /// Solve many instances, in parallel when the host has multiple cores.
    ///
    /// Output order matches input order, and each output is identical to a
    /// standalone [`solve`](Self::solve) of that instance. Worker threads
    /// pull instances off a shared index and each owns one [`SolverPool`],
    /// so arenas are reused within a thread and never contended across
    /// threads.
    pub fn solve_batch<S: Scalar>(&self, insts: &[Instance<S>]) -> Vec<SolveOutput<S>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.solve_batch_with(insts, threads)
    }

    /// [`solve_batch`](Self::solve_batch) with an explicit worker-thread
    /// count (clamped to `[1, insts.len()]`; 1 means fully sequential).
    pub fn solve_batch_with<S: Scalar>(
        &self,
        insts: &[Instance<S>],
        threads: usize,
    ) -> Vec<SolveOutput<S>> {
        let threads = threads.max(1).min(insts.len().max(1));
        if threads <= 1 {
            let mut pool = SolverPool::new();
            return insts
                .iter()
                .map(|inst| self.solve_with_pool(inst, &mut pool))
                .collect();
        }
        let solver = *self;
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<SolveOutput<S>>> = (0..insts.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut pool = SolverPool::new();
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= insts.len() {
                                break;
                            }
                            done.push((i, solver.solve_with_pool(&insts[i], &mut pool)));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                for (i, out) in handle.join().expect("solver worker panicked") {
                    slots[i] = Some(out);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every instance solved"))
            .collect()
    }

    /// Per-job cap functions for `inst` under the configured mode.
    fn build_caps<S: Scalar>(&self, inst: &Instance<S>) -> Vec<LevelCap<S>> {
        (0..inst.n_jobs())
            .map(|j| {
                let ceil = inst.total_demand(j);
                let floor = match self.mode {
                    FairnessMode::Plain => S::ZERO,
                    // The equal-share floor: always jointly feasible, and
                    // never above the total demand.
                    FairnessMode::Enhanced => min2(inst.equal_share(j), ceil),
                };
                LevelCap::new(inst.weight(j), floor, ceil)
            })
            .collect()
    }

    /// The shrinking-network solve (default path). See the module docs for
    /// why committing frozen splits and contracting dead sites is exact.
    ///
    /// After the initial scan of the instance, every per-round and
    /// per-check step walks the active jobs' demand supports, so its cost
    /// is linear in the live demand entries rather than in live jobs ×
    /// live sites, and every buffer comes from the pool.
    fn solve_contracted<S: Scalar>(
        &self,
        inst: &Instance<S>,
        pool: &mut SolverPool<S>,
    ) -> SolveOutput<S> {
        let n = inst.n_jobs();
        let m = inst.n_sites();
        let mut stats = SolveStats::default();
        if n == 0 {
            return SolveOutput {
                allocation: Allocation::from_split(Vec::new()),
                rounds: Vec::new(),
                stats,
            };
        }
        let SolverPool {
            scratch,
            us,
            side,
            grow_jobs,
            grow_sites,
            freeze,
            events,
            split,
            frozen_usage,
            rank_buf,
            keep_site,
            site_map,
            preload,
            preload_start,
            cur,
            next,
        } = pool;

        let caps = self.build_caps(inst);
        // `None` = active, `Some(a)` = frozen at aggregate `a`.
        let mut frozen: Vec<Option<S>> = caps
            .iter()
            .map(|c| {
                if c.ceil.is_positive() {
                    None
                } else {
                    Some(S::ZERO)
                }
            })
            .collect();

        // The committed split accumulates here as the network shrinks; its
        // backing rows come from the pool and leave inside the returned
        // `Allocation` (the one unavoidable allocation of the result).
        split.resize(n, Vec::new());
        for row in split.iter_mut() {
            row.clear();
            row.resize(m, S::ZERO);
        }

        // Active subproblem: every job not frozen at zero over every site,
        // each job's support read once off the dense instance.
        cur.clear();
        cur.jobs.extend((0..n).filter(|&j| frozen[j].is_none()));
        cur.sites.extend(0..m);
        cur.base.resize(cur.jobs.len(), S::ZERO);
        cur.caps.extend_from_slice(inst.capacities());
        cur.start.push(0);
        for &j in &cur.jobs {
            for s in 0..m {
                let d = inst.demand(j, s);
                if S::ZERO < d {
                    cur.support.push((s, d));
                }
            }
            cur.start.push(cur.support.len());
        }

        let arena = std::mem::take(scratch);
        let edges0 = arena.edges_visited();
        let reuse0 = arena.reuse_hits();
        let csr0 = arena.csr_rebuilds();
        let words0 = arena.bitset_words_cleared();
        let mut net = AllocationNetwork::new_sparse_with_scratch(
            &cur.start,
            &cur.support,
            &cur.caps,
            self.backend,
            arena,
        );

        let mut rounds: Vec<FreezeRound<S>> = Vec::new();

        while !cur.jobs.is_empty() {
            stats.rounds += 1;
            stats.active_job_rounds += cur.jobs.len();
            stats.active_site_rounds += cur.sites.len();

            // Upper bound: the level at which every active job is at its
            // ceiling (u_j flat beyond its high breakpoint).
            let mut t = S::ZERO;
            for &j in &cur.jobs {
                t = max2(t, caps[j].high_breakpoint());
            }

            // Bisection pre-bracketing (ablation mode): narrow [lo, hi]
            // by halving before the exact Dinkelbach tail.
            if let BottleneckStrategy::Bisection { iterations } = self.bottleneck {
                let mut lo = S::ZERO;
                let mut hi = t;
                stats.max_flows += 1;
                let (flow, target) =
                    self.check_level_contracted(&mut net, &caps, cur, hi, &mut stats, us);
                if !close_rel(flow, target) {
                    for _ in 0..iterations {
                        let mid = (lo + hi) / S::from_usize(2);
                        stats.max_flows += 1;
                        let (flow, target) =
                            self.check_level_contracted(&mut net, &caps, cur, mid, &mut stats, us);
                        if close_rel(flow, target) {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    // Resume the exact tail from the infeasible side.
                    t = hi;
                    let _ = lo;
                }
            }

            // Dinkelbach descent to the largest feasible level. When the
            // loop exits on a feasible check the network already holds the
            // max flow at t*, so the legacy re-check is skipped.
            let mut at_t_star = false;
            let t_star = loop {
                stats.dinkelbach_iterations += 1;
                stats.max_flows += 1;
                let (flow, target) =
                    self.check_level_contracted(&mut net, &caps, cur, t, &mut stats, us);
                if close_rel(flow, target) {
                    at_t_star = true;
                    break t;
                }
                // Infeasible: the min cut names the violating job set J.
                // The tight level satisfies Σ_{i∈J} u_i(t') = f'(J) + Σ base,
                // with f' the rank of the *contracted* network — the
                // incremental form of the legacy full-network residual
                // budget, checked against the invariant in debug builds.
                net.source_side_jobs_into(side);
                debug_assert!(
                    residual_budget_agrees(inst, &cur.sites, &cur.caps, split),
                    "incrementally maintained site budgets drifted from c_s - committed"
                );
                let mut budget = contracted_rank(cur, side, rank_buf);
                debug_assert!(
                    bit_identical(budget, dense_contracted_rank(inst, cur, side)),
                    "sparse contracted rank differs from the dense sum"
                );
                for (i, &inside) in side.iter().enumerate() {
                    if inside {
                        budget += cur.base[i];
                    }
                }
                debug_assert!(
                    side.iter().any(|&inside| inside),
                    "violating set without active jobs: frozen state infeasible"
                );
                let members = side
                    .iter()
                    .zip(&cur.jobs)
                    .filter(|&(&inside, _)| inside)
                    .map(|(_, &j)| caps[j]);
                let t_next = invert_total_with(members, budget, events);
                if !t_next.definitely_lt(t) {
                    // No numerical progress (f64 only): accept the current
                    // level; the freeze step below still terminates.
                    break t_next;
                }
                t = t_next;
            };

            if !at_t_star {
                // Re-establish the max flow at t_star (only needed when the
                // loop exited on a lowered level without re-checking).
                stats.max_flows += 1;
                let (flow, target) =
                    self.check_level_contracted(&mut net, &caps, cur, t_star, &mut stats, us);
                debug_assert!(
                    close_rel(flow, target),
                    "level t*={t_star} must be feasible (flow {flow}, target {target})"
                );
            }

            // Freeze demand-capped jobs and bottlenecked jobs.
            net.sink_reachability_into(grow_jobs, grow_sites);
            freeze.clear();
            freeze.resize(cur.jobs.len(), false);
            let mut round = FreezeRound {
                level: t_star,
                frozen: Vec::new(),
            };
            for (i, &j) in cur.jobs.iter().enumerate() {
                let u = caps[j].at(t_star);
                if !u.definitely_lt(caps[j].ceil) {
                    frozen[j] = Some(caps[j].ceil);
                    round.frozen.push((j, FreezeReason::DemandCapped));
                    freeze[i] = true;
                } else if !grow_jobs[i] {
                    frozen[j] = Some(u);
                    round.frozen.push((j, FreezeReason::Bottlenecked));
                    freeze[i] = true;
                }
            }
            if round.frozen.is_empty() {
                // Safety net for f64 rounding: freeze everything at the
                // current level rather than loop forever. Unreachable with
                // exact arithmetic (a maximal feasible level always has a
                // tight set).
                debug_assert!(!S::EXACT, "exact solve failed to freeze a job");
                for (i, &j) in cur.jobs.iter().enumerate() {
                    frozen[j] = Some(caps[j].at(t_star));
                    round.frozen.push((j, FreezeReason::Bottlenecked));
                    freeze[i] = true;
                }
            }
            let n_frozen_now = round.frozen.len();
            rounds.push(round);

            if n_frozen_now == cur.jobs.len() {
                // Last round: commit every remaining split and finish.
                for (i, &j) in cur.jobs.iter().enumerate() {
                    for (k, v) in net.job_split(i) {
                        if v.is_positive() {
                            split[j][cur.sites[k]] += v;
                        }
                    }
                }
                cur.jobs.clear();
                continue;
            }

            // Contract: commit frozen jobs' splits (their flows can never
            // change again), fold survivors' flows at dying sites into
            // `base`, shrink the site budgets, and rebuild the network over
            // the survivors with the warm flow preloaded.
            stats.contractions += 1;
            frozen_usage.clear();
            frozen_usage.resize(cur.sites.len(), S::ZERO);
            for (i, &j) in cur.jobs.iter().enumerate() {
                if freeze[i] {
                    for (k, v) in net.job_split(i) {
                        if v.is_positive() {
                            split[j][cur.sites[k]] += v;
                            frozen_usage[k] += v;
                        }
                    }
                }
            }
            // A site survives iff it can still absorb flow (residual path
            // to the sink) and some surviving job has demand there.
            keep_site.clear();
            keep_site.resize(cur.sites.len(), false);
            for i in (0..cur.jobs.len()).filter(|&i| !freeze[i]) {
                for &(k, d) in cur.support(i) {
                    if d.is_positive() {
                        keep_site[k] = true;
                    }
                }
            }
            next.clear();
            site_map.clear();
            site_map.resize(cur.sites.len(), usize::MAX);
            for (k, &s) in cur.sites.iter().enumerate() {
                keep_site[k] &= grow_sites[k];
                if keep_site[k] {
                    site_map[k] = next.sites.len();
                    next.sites.push(s);
                    next.caps.push(max2(cur.caps[k] - frozen_usage[k], S::ZERO));
                }
            }
            // Survivors' flows at kept sites become the successor's warm
            // start: restricted to the kept subgraph they stay feasible.
            // Their flows at dying sites commit and fold into `base`.
            preload.clear();
            preload_start.clear();
            preload_start.push(0);
            next.start.push(0);
            for (i, &j) in cur.jobs.iter().enumerate() {
                if freeze[i] {
                    continue;
                }
                let mut b = cur.base[i];
                for (k, v) in net.job_split(i) {
                    if keep_site[k] {
                        preload.push((site_map[k], v));
                    } else if v.is_positive() {
                        split[j][cur.sites[k]] += v;
                        b += v;
                    }
                }
                preload_start.push(preload.len());
                next.jobs.push(j);
                next.base.push(b);
                for &(k, d) in cur.support(i) {
                    if keep_site[k] {
                        next.support.push((site_map[k], d));
                    }
                }
                next.start.push(next.support.len());
            }
            let arena = net.take_scratch();
            net = AllocationNetwork::new_sparse_with_scratch(
                &next.start,
                &next.support,
                &next.caps,
                self.backend,
                arena,
            );
            if self.warm_start {
                // Job caps start at zero; raise each to its preloaded total
                // (summed in `preload_job_split`'s own edge order so the f64
                // results are bitwise identical) before pushing the flow.
                for (i2, w) in preload_start.windows(2).enumerate() {
                    let flows = &preload[w[0]..w[1]];
                    let mut job_total = S::ZERO;
                    for &(_, v) in flows {
                        if v.is_positive() {
                            job_total += v;
                        }
                    }
                    if job_total.is_positive() {
                        net.set_job_cap(i2, job_total);
                    }
                    net.preload_job_split(i2, flows.iter().copied());
                }
            }
            std::mem::swap(cur, next);
        }

        *scratch = net.take_scratch();
        stats.edges_visited = scratch.edges_visited() - edges0;
        stats.scratch_reuse_hits = scratch.reuse_hits() - reuse0;
        stats.csr_rebuilds = scratch.csr_rebuilds() - csr0;
        stats.bitset_words_cleared = scratch.bitset_words_cleared() - words0;

        let allocation = Allocation::from_split(std::mem::take(split));
        debug_assert!(
            allocation.is_feasible(inst),
            "solver emitted an infeasible allocation"
        );
        debug_assert!(
            close_rel(
                allocation.total(),
                sum(frozen.iter().map(|a| a.expect("all jobs frozen")))
            ),
            "committed split does not realize the frozen aggregates"
        );

        SolveOutput {
            allocation,
            rounds,
            stats,
        }
    }

    /// Set contracted source caps for level `t`, recompute the max flow,
    /// and return `(flow, target)` where both exclude committed flow.
    ///
    /// Job `i`'s contracted cap is `max(u_j(t) - base_i, 0)`: the part of
    /// its target not already committed at removed sites. For any `t` at or
    /// above the previous round's level the clamp is inert (`u >= base`);
    /// below it (bisection probes) both networks report feasible, so the
    /// bracketing logic is unaffected.
    fn check_level_contracted<S: Scalar>(
        &self,
        net: &mut AllocationNetwork<S>,
        caps: &[LevelCap<S>],
        active: &Active<S>,
        t: S,
        stats: &mut SolveStats,
        us: &mut Vec<S>,
    ) -> (S, S) {
        us.clear();
        us.extend(
            active
                .jobs
                .iter()
                .zip(&active.base)
                .map(|(&j, &b)| max2(caps[j].at(t) - b, S::ZERO)),
        );
        let mut target = S::ZERO;
        if self.warm_start {
            // Per-job repair instead of a global reset: a cap that dropped
            // below the job's warm flow drains only its own excess
            // (edge-local cancellation keeps conservation), everything else
            // keeps its flow with the cap clamped up by any f64 hair.
            // The subsequent max flow augments the surviving warm flow, so
            // Dinkelbach descent never recomputes from zero.
            let mut repaired = false;
            for (i, &u) in us.iter().enumerate() {
                if u.definitely_lt(net.job_flow(i)) {
                    net.drain_job_to_cap(i, u);
                    repaired = true;
                } else {
                    net.set_job_cap(i, max2(u, net.job_flow(i)));
                }
                target += u;
            }
            if repaired {
                stats.flow_resets += 1;
            }
        } else {
            net.reset_flow();
            stats.flow_resets += 1;
            for (i, &u) in us.iter().enumerate() {
                net.set_job_cap(i, u);
                target += u;
            }
        }
        let flow = net.run_max_flow();
        (flow, target)
    }

    /// The legacy full-network solve, kept for the contraction ablation
    /// (identical results; every round pays max flows on all n×m nodes).
    fn solve_full<S: Scalar>(
        &self,
        inst: &Instance<S>,
        pool: &mut SolverPool<S>,
    ) -> SolveOutput<S> {
        let n = inst.n_jobs();
        let mut stats = SolveStats::default();
        if n == 0 {
            return SolveOutput {
                allocation: Allocation::from_split(Vec::new()),
                rounds: Vec::new(),
                stats,
            };
        }
        let SolverPool {
            scratch,
            us,
            side,
            split,
            events,
            ..
        } = pool;

        let caps = self.build_caps(inst);
        let mut frozen: Vec<Option<S>> = caps
            .iter()
            .map(|c| {
                if c.ceil.is_positive() {
                    None
                } else {
                    Some(S::ZERO)
                }
            })
            .collect();

        let arena = std::mem::take(scratch);
        let edges0 = arena.edges_visited();
        let reuse0 = arena.reuse_hits();
        let csr0 = arena.csr_rebuilds();
        let words0 = arena.bitset_words_cleared();
        let mut net = AllocationNetwork::new_with_scratch(
            inst.demands(),
            inst.capacities(),
            self.backend,
            arena,
        );
        let mut rounds: Vec<FreezeRound<S>> = Vec::new();

        while frozen.iter().any(Option::is_none) {
            stats.rounds += 1;
            stats.active_job_rounds += frozen.iter().filter(|f| f.is_none()).count();
            stats.active_site_rounds += inst.n_sites();
            // Upper bound: the level at which every active job is at its
            // ceiling (u_j flat beyond its high breakpoint).
            let mut t = S::ZERO;
            for (j, c) in caps.iter().enumerate() {
                if frozen[j].is_none() {
                    t = max2(t, c.high_breakpoint());
                }
            }

            // Bisection pre-bracketing (ablation mode): narrow [lo, hi]
            // by halving before the exact Dinkelbach tail.
            if let BottleneckStrategy::Bisection { iterations } = self.bottleneck {
                let mut lo = S::ZERO;
                let mut hi = t;
                stats.max_flows += 1;
                let (flow, target) = self.check_level(&mut net, &caps, &frozen, hi, &mut stats, us);
                if !close_rel(flow, target) {
                    for _ in 0..iterations {
                        let mid = (lo + hi) / S::from_usize(2);
                        stats.max_flows += 1;
                        let (flow, target) =
                            self.check_level(&mut net, &caps, &frozen, mid, &mut stats, us);
                        if close_rel(flow, target) {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    // Resume the exact tail from the infeasible side.
                    t = hi;
                    let _ = lo;
                }
            }

            // Dinkelbach descent to the largest feasible level.
            let t_star = loop {
                stats.dinkelbach_iterations += 1;
                stats.max_flows += 1;
                let (flow, target) = self.check_level(&mut net, &caps, &frozen, t, &mut stats, us);
                if close_rel(flow, target) {
                    break t;
                }
                // Infeasible: the min cut names the violating job set J.
                net.source_side_jobs_into(side);
                let budget = residual_budget(inst, &frozen, side);
                let active_in_side = |j: &usize| side[*j] && frozen[*j].is_none();
                debug_assert!(
                    (0..n).any(|j| active_in_side(&j)),
                    "violating set without active jobs: frozen state infeasible"
                );
                let members = (0..n).filter(active_in_side).map(|j| caps[j]);
                let t_next = invert_total_with(members, budget, events);
                if !t_next.definitely_lt(t) {
                    // No numerical progress (f64 only): accept the current
                    // level; the freeze step below still terminates.
                    break t_next;
                }
                t = t_next;
            };

            // Re-establish the max flow at t_star if the loop exited on a
            // lowered level without re-checking.
            stats.max_flows += 1;
            let (flow, target) = self.check_level(&mut net, &caps, &frozen, t_star, &mut stats, us);
            debug_assert!(
                close_rel(flow, target),
                "level t*={t_star} must be feasible (flow {flow}, target {target})"
            );

            // Freeze demand-capped jobs and bottlenecked jobs.
            let can_grow = net.jobs_with_residual_to_sink();
            let mut round = FreezeRound {
                level: t_star,
                frozen: Vec::new(),
            };
            for j in 0..n {
                if frozen[j].is_some() {
                    continue;
                }
                let u = caps[j].at(t_star);
                if !u.definitely_lt(caps[j].ceil) {
                    frozen[j] = Some(caps[j].ceil);
                    round.frozen.push((j, FreezeReason::DemandCapped));
                } else if !can_grow[j] {
                    frozen[j] = Some(u);
                    round.frozen.push((j, FreezeReason::Bottlenecked));
                }
            }
            if round.frozen.is_empty() {
                // Safety net for f64 rounding: freeze everything at the
                // current level rather than loop forever. Unreachable with
                // exact arithmetic (a maximal feasible level always has a
                // tight set).
                debug_assert!(!S::EXACT, "exact solve failed to freeze a job");
                for j in 0..n {
                    if frozen[j].is_none() {
                        frozen[j] = Some(caps[j].at(t_star));
                        round.frozen.push((j, FreezeReason::Bottlenecked));
                    }
                }
            }
            rounds.push(round);
        }

        // Final split: fix every source cap to the frozen aggregate.
        net.reset_flow();
        for (j, a) in frozen.iter().enumerate() {
            net.set_job_cap(j, a.expect("all jobs frozen"));
        }
        stats.max_flows += 1;
        let total = net.run_max_flow();
        let expected = sum(frozen.iter().map(|a| a.expect("all jobs frozen")));
        debug_assert!(
            close_rel(total, expected),
            "final split does not realize the frozen aggregates"
        );
        net.split_into(split);
        *scratch = net.take_scratch();
        stats.edges_visited = scratch.edges_visited() - edges0;
        stats.scratch_reuse_hits = scratch.reuse_hits() - reuse0;
        stats.csr_rebuilds = scratch.csr_rebuilds() - csr0;
        stats.bitset_words_cleared = scratch.bitset_words_cleared() - words0;
        let allocation = Allocation::from_split(std::mem::take(split));
        // Self-audit in debug builds: the flow network guarantees these by
        // construction, so a failure here means the network itself is bad.
        // (The full certificate auditor lives in `amf-audit`, which sits
        // above this crate; see `SolverAuditExt::solve_audited`.)
        debug_assert!(
            allocation.is_feasible(inst),
            "solver emitted an infeasible allocation"
        );

        SolveOutput {
            allocation,
            rounds,
            stats,
        }
    }

    /// Set source caps for level `t`, recompute the max flow, and return
    /// `(flow, target)`.
    ///
    /// Warm start: when every new cap is at least the flow already on its
    /// source edge, the current flow remains feasible and Dinic only
    /// augments. Caps shrink only on Dinkelbach descents, which then pay
    /// one full recompute. Max-flow values are unique, so warm and cold
    /// paths give identical results.
    fn check_level<S: Scalar>(
        &self,
        net: &mut AllocationNetwork<S>,
        caps: &[LevelCap<S>],
        frozen: &[Option<S>],
        t: S,
        stats: &mut SolveStats,
        us: &mut Vec<S>,
    ) -> (S, S) {
        us.clear();
        us.extend(caps.iter().enumerate().map(|(j, c)| match frozen[j] {
            Some(a) => a,
            None => c.at(t),
        }));
        let keep_flow = self.warm_start
            && us
                .iter()
                .enumerate()
                .all(|(j, &u)| !u.definitely_lt(net.job_flow(j)));
        if !keep_flow {
            net.reset_flow();
            stats.flow_resets += 1;
        }
        let mut target = S::ZERO;
        for (j, &u) in us.iter().enumerate() {
            // With f64 a kept flow may exceed the new cap by <= eps; clamp
            // the cap up so the invariant `flow <= cap` holds exactly.
            let u_safe = if keep_flow {
                max2(u, net.job_flow(j))
            } else {
                u
            };
            net.set_job_cap(j, u_safe);
            target += u;
        }
        let flow = net.run_max_flow();
        (flow, target)
    }
}

/// `f(J) - Σ_{frozen j ∈ J} A_j`: the resource left for the active members
/// of the violating set `J` (legacy full-network form; the contracted path
/// uses [`contracted_rank`] over the shrunk subgraph instead).
fn residual_budget<S: Scalar>(inst: &Instance<S>, frozen: &[Option<S>], side: &[bool]) -> S {
    let mut budget = inst.rank(side);
    for (j, &inside) in side.iter().enumerate() {
        if inside {
            if let Some(a) = frozen[j] {
                budget -= a;
            }
        }
    }
    budget
}

/// Polymatroid rank of the job set `side` (indices into `active.jobs`) in
/// the contracted network:
/// `Σ_k min(caps[k], Σ_{i∈side} d[jobs[i]][sites[k]])`.
///
/// Walks only the demand supports of the jobs in `side`, so a Dinkelbach
/// step costs O(their demand entries + live sites) instead of the dense
/// O(live jobs × live sites). Each site's sum still adds its jobs in
/// ascending active index and skips only exact zeros, so the f64 result
/// is bitwise identical to the dense form ([`dense_contracted_rank`],
/// checked in debug builds).
fn contracted_rank<S: Scalar>(active: &Active<S>, side: &[bool], demand_sums: &mut Vec<S>) -> S {
    demand_sums.clear();
    demand_sums.resize(active.sites.len(), S::ZERO);
    for (i, &inside) in side.iter().enumerate() {
        if inside {
            for &(k, d) in active.support(i) {
                demand_sums[k] += d;
            }
        }
    }
    let mut total = S::ZERO;
    for (&cap, &demand) in active.caps.iter().zip(demand_sums.iter()) {
        total += min2(cap, demand);
    }
    total
}

/// Debug oracle for [`contracted_rank`]: the same rank read off the dense
/// instance rows, every live site of every job in `side`.
fn dense_contracted_rank<S: Scalar>(inst: &Instance<S>, active: &Active<S>, side: &[bool]) -> S {
    let mut total = S::ZERO;
    for (k, &s) in active.sites.iter().enumerate() {
        let mut demand = S::ZERO;
        for (i, &j) in active.jobs.iter().enumerate() {
            if side[i] {
                demand += inst.demand(j, s);
            }
        }
        total += min2(active.caps[k], demand);
    }
    total
}

/// Equal values with equal `f64` bit patterns (exact types: equal values).
fn bit_identical<S: Scalar>(a: S, b: S) -> bool {
    a == b && a.to_f64().to_bits() == b.to_f64().to_bits()
}

/// Debug check: every incrementally maintained residual site budget equals
/// the original capacity minus the flow committed there so far.
fn residual_budget_agrees<S: Scalar>(
    inst: &Instance<S>,
    act_sites: &[usize],
    cur_caps: &[S],
    split: &[Vec<S>],
) -> bool {
    act_sites.iter().enumerate().all(|(k, &s)| {
        let committed = sum(split.iter().map(|row| row[s]));
        close_rel(cur_caps[k] + committed, inst.capacity(s))
    })
}

/// Relative-tolerance equality used for flow-vs-target comparisons, where
/// both sides are sums over up to `n` jobs. Exact types compare exactly.
pub(crate) fn close_rel<S: Scalar>(a: S, b: S) -> bool {
    let diff = if a > b { a - b } else { b - a };
    let scale = S::ONE + max2(a, b);
    !(diff > S::eps() * scale)
}

#[cfg(test)]
mod tests;
