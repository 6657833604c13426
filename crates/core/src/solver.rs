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
//!    start at the lowest upper bound already known (see *The cut cache*
//!    below; at worst the level where every active job is demand-capped);
//!    while infeasible, read the violating job set `J` off the min cut, and
//!    lower `t` to the level at which `J`'s polymatroid constraint
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
//! The solver **contracts** the allocation network after every freeze
//! round. Frozen jobs and sink-unreachable sites can never gain or
//! lose flow at any later water level (no augmenting path traverses a node
//! without a residual path to the sink, and additional flow injected by
//! raising an *active* job's source cap stays inside the sink-reachable
//! set), so their per-site splits are committed immediately; the flows
//! active jobs hold at removed sites fold into a per-job `base` offset and
//! the committed usage at surviving sites folds into *residual site
//! budgets*. Round `k` then runs its max flows on only the still-active
//! jobs × still-growable sites subgraph, which shrinks geometrically on
//! typical workloads. Every feasibility check warm-starts from the previous
//! max flow, and Dinic augments it.
//!
//! # The cut cache
//!
//! Every infeasible check names a violating set `J` and its budget `C_J`
//! (the contracted rank plus the members' committed `base`). Whatever the
//! later rounds do, their flow together with the flow committed since is a
//! feasible flow of the network the cut was read from, so
//! `Σ_{active j∈J} u_j(t) <= C_J - Σ_{frozen j∈J} held_j` bounds every later
//! level, where `held_j` is the flow job `j` actually committed when it
//! froze. The solver keeps every such cut for the rest of the solve, and
//! each round starts its descent at the lowest level any of them allows
//! instead of at the top breakpoint. That costs no flow, and on typical
//! workloads the start level is already `t*`, so a round takes one max flow.
//! With exact arithmetic every cut level is an upper bound on `t*`, so the
//! answer and the freeze rounds are the same as from the top; with `f64` a
//! round whose cached start freezes nothing is re-run from the top before
//! the rounding safety net may fire (`SolveStats::cut_start_retries`).
//!
//! This is the solver's only path. Its correctness is cross-checked by
//! oracles that share no code with it: brute-force subset enumeration
//! ([`reference_aggregates`](crate::reference_aggregates)), the `amf-audit`
//! certificate, exact [`Rational`](amf_numeric::Rational) arithmetic, and
//! max-flow/min-cut duality in the flow kernel's own tests. With the exact
//! scalar the result is the exact AMF vector; with `f64` all comparisons
//! use a relative tolerance.

use crate::levels::{invert_total_with, LevelCap};
use crate::model::{Allocation, Instance};
use crate::parallel::par_map_init;
use amf_flow::{AllocationNetwork, FlowScratch};
use amf_numeric::{max2, min2, sum, Scalar};

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

/// Work counters from one solver run: rounds, feasibility checks, network
/// sizes and flow-kernel effort, as `bench_solver` and the event-loop
/// benchmarks report them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Progressive-filling rounds executed (each freezes >= 1 job).
    pub rounds: usize,
    /// Total Dinkelbach (feasibility) iterations across rounds.
    pub dinkelbach_iterations: usize,
    /// Total max-flow computations, including any final split extraction.
    pub max_flows: usize,
    /// Feasibility checks that could not keep the previous flow as-is,
    /// because a job's cap fell below its warm flow. Only that job's
    /// excess is drained; the rest of the warm flow survives.
    pub flow_resets: usize,
    /// Network contractions performed: one after every round but the last.
    pub contractions: usize,
    /// Sum over rounds of the number of jobs still in the working network;
    /// contraction's shrinking shows up here.
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
    /// Freeze rounds replayed from a cache instead of solved. Always 0:
    /// every round is solved. Kept because the benchmark reports and the
    /// CLI print it.
    pub rounds_replayed: usize,
    /// Freeze rounds an [`IncrementalAmf`](crate::IncrementalAmf) session
    /// solved: equal to `rounds` on a session solve, 0 on a direct
    /// [`AmfSolver`] solve.
    pub rounds_resolved: usize,
    /// Rounds in which the `f64` safety net froze every remaining job at
    /// the current level because no job was demand-capped or bottlenecked
    /// there. Always 0 with exact arithmetic.
    pub fallback_freezes: usize,
    /// Rounds whose descent started at a cached cut's level, froze nothing
    /// and was re-run from the top breakpoint (`f64` rounding only; always
    /// 0 with exact arithmetic).
    pub cut_start_retries: usize,
}

impl SolveStats {
    /// Fold another run's *work* counters into this one — everything except
    /// the round counters (`rounds`, `rounds_replayed`, `rounds_resolved`),
    /// which callers account for separately. Every add
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
        self.fallback_freezes = self.fallback_freezes.saturating_add(other.fallback_freezes);
        self.cut_start_retries = self
            .cut_start_retries
            .saturating_add(other.cut_start_retries);
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
    cuts: CutCache<S>,
}

/// The violating sets found so far in one solve (see the module docs).
#[derive(Debug)]
struct CutCache<S> {
    /// Members (original ids) of every cut, each cut's in its own range.
    jobs: Vec<usize>,
    cuts: Vec<Cut<S>>,
    /// Flow each frozen job committed (its split row sum when it froze), by
    /// original id.
    held: Vec<S>,
}

/// One cached cut as of the round `stamp`.
#[derive(Debug, Clone, Copy)]
struct Cut<S> {
    /// Its members are `jobs[start..end]`: those still active in round
    /// `stamp`, plus any frozen since.
    start: usize,
    end: usize,
    /// `C_J` less the flow the members frozen before round `stamp`
    /// committed.
    budget: S,
    /// The level at which the round-`stamp` members' caps reach `budget`.
    /// Freezing a member never lowers it (see [`CutCache::tighten`]), so an
    /// older level is a lower bound on the current one.
    level: S,
    stamp: usize,
}

impl<S: Scalar> CutCache<S> {
    fn new() -> Self {
        CutCache {
            jobs: Vec::new(),
            cuts: Vec::new(),
            held: Vec::new(),
        }
    }

    fn clear(&mut self, n: usize) {
        self.jobs.clear();
        self.cuts.clear();
        self.held.clear();
        self.held.resize(n, S::ZERO);
    }

    /// Keep the violating set `members` (original ids, at least one) found
    /// in round `stamp` with budget `budget`, and return its level: the
    /// largest `t` with `Σ_{j∈members} u_j(t) <= budget`.
    fn record(
        &mut self,
        members: impl IntoIterator<Item = usize>,
        budget: S,
        stamp: usize,
        caps: &[LevelCap<S>],
        events: &mut Vec<(S, S)>,
    ) -> S {
        let start = self.jobs.len();
        self.jobs.extend(members);
        let end = self.jobs.len();
        let level = invert_total_with(
            self.jobs[start..end].iter().map(|&j| caps[j]),
            budget,
            events,
        );
        self.cuts.push(Cut {
            start,
            end,
            budget,
            level,
            stamp,
        });
        level
    }

    /// The lowest level any cached cut allows in round `stamp`, if one
    /// still binds.
    ///
    /// Bringing a cut up to date folds its members frozen since out of it
    /// (their `held` flow leaves the budget) and re-inverts the rest. That
    /// never lowers its level: at the old level `L >= t*` the frozen job
    /// `j` would take `u_j(L) >= u_j(t*) = held_j`, so the remaining members
    /// fit the new budget at `L` (exactly; up to rounding on `f64`). So the
    /// cuts are brought up to date lazily, lowest old level first, until the
    /// lowest is current. A cut is dropped once no member is active, or once
    /// its budget reaches its active members' total ceiling: freezing `j`
    /// lowers the budget by `held_j` and the ceiling total by
    /// `D_j >= held_j`, so such a cut never binds again. The inversion
    /// therefore always has a member and a crossing.
    fn tighten(
        &mut self,
        stamp: usize,
        frozen: &[Option<S>],
        caps: &[LevelCap<S>],
        events: &mut Vec<(S, S)>,
    ) -> Option<S> {
        loop {
            let (c, cut) = self
                .cuts
                .iter()
                .enumerate()
                .reduce(|a, b| if b.1.level < a.1.level { b } else { a })
                .map(|(c, cut)| (c, *cut))?;
            if cut.stamp == stamp {
                return Some(cut.level);
            }
            let (mut budget, mut write) = (cut.budget, cut.start);
            let (mut floors, mut ceils) = (S::ZERO, S::ZERO);
            for r in cut.start..cut.end {
                let j = self.jobs[r];
                if frozen[j].is_some() {
                    budget -= self.held[j];
                } else {
                    self.jobs[write] = j;
                    write += 1;
                    floors += caps[j].floor;
                    ceils += caps[j].ceil;
                }
            }
            // `floors > budget` is f64 rounding on a cut that can only pin
            // the previous level; dropping a cut only loses a hint.
            if write == cut.start || !(budget < ceils) || floors.definitely_gt(budget) {
                self.cuts.swap_remove(c);
                continue;
            }
            let level = if write == cut.end {
                cut.level
            } else {
                let members = self.jobs[cut.start..write].iter().map(|&j| caps[j]);
                invert_total_with(members, budget, events)
            };
            debug_assert!(
                !S::EXACT || cut.level <= level,
                "a cut's level fell from {} to {level}",
                cut.level
            );
            self.cuts[c] = Cut {
                end: write,
                budget,
                level,
                stamp,
                ..cut
            };
        }
    }
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
            cuts: CutCache::new(),
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
        }
    }

    /// Enhanced AMF (sharing-incentive floors).
    pub fn enhanced() -> Self {
        AmfSolver {
            mode: FairnessMode::Enhanced,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> FairnessMode {
        self.mode
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
        par_map_init(insts, threads, SolverPool::new, |pool, inst| {
            self.solve_with_pool(inst, pool)
        })
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

    /// [`solve`](Self::solve) with caller-provided working memory. The
    /// result is identical; repeated calls reuse the pool's buffers and
    /// scratch arena instead of reallocating them.
    ///
    /// See the module docs for why committing frozen splits and contracting
    /// dead sites is exact. After the initial scan of the instance, every
    /// per-round and per-check step walks the active jobs' demand supports,
    /// so its cost is linear in the live demand entries rather than in live
    /// jobs × live sites, and every buffer comes from the pool.
    pub fn solve_with_pool<S: Scalar>(
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
            cuts,
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
        let mut net =
            AllocationNetwork::new_sparse_with_scratch(&cur.start, &cur.support, &cur.caps, arena);

        let mut rounds: Vec<FreezeRound<S>> = Vec::new();
        cuts.clear(n);
        // Every cut the descent reads, unaltered, for the end-of-solve check
        // that each still holds on the final allocation.
        #[cfg(debug_assertions)]
        let mut cut_log: Vec<(Vec<usize>, S)> = Vec::new();

        while !cur.jobs.is_empty() {
            stats.rounds += 1;
            stats.active_job_rounds += cur.jobs.len();
            stats.active_site_rounds += cur.sites.len();

            // Upper bound: the level at which every active job is at its
            // ceiling (u_j flat beyond its high breakpoint), lowered to the
            // tightest cached cut but never below the previous round.
            let mut top = S::ZERO;
            for &j in &cur.jobs {
                top = max2(top, caps[j].high_breakpoint());
            }
            let t_prev = rounds.last().map_or(S::ZERO, |r| r.level);
            let mut t = match cuts.tighten(stats.rounds, &frozen, &caps, events) {
                Some(level) if level < top => max2(level, t_prev),
                _ => top,
            };
            let mut from_cut = t < top;

            let (t_star, mut round) = loop {
                // Dinkelbach descent to the largest feasible level. When
                // the loop exits on a feasible check the network already
                // holds the max flow at t*, so no re-check is needed.
                let mut at_t_star = false;
                let t_star = loop {
                    stats.dinkelbach_iterations += 1;
                    stats.max_flows += 1;
                    let (flow, target) = check_level(&mut net, &caps, cur, t, &mut stats, us);
                    if close_rel(flow, target) {
                        at_t_star = true;
                        break t;
                    }
                    // Infeasible: the min cut names the violating job set J.
                    net.source_side_jobs_into(side);
                    if !side.iter().any(|&inside| inside) {
                        // Every source edge is saturated within the
                        // network's tolerance, so the shortfall is f64
                        // rounding: the level is feasible.
                        debug_assert!(!S::EXACT, "violating set without active jobs");
                        at_t_star = true;
                        break t;
                    }
                    // The tight level satisfies Σ_{i∈J} u_i(t') = f'(J) +
                    // Σ base, with f' the rank of the *contracted* network;
                    // the residual site budgets it reads are checked against
                    // `c_s - committed` in debug builds.
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
                    let members = side
                        .iter()
                        .zip(&cur.jobs)
                        .filter(|&(&inside, _)| inside)
                        .map(|(_, &j)| j);
                    #[cfg(debug_assertions)]
                    cut_log.push((members.clone().collect(), budget));
                    let t_next = cuts.record(members, budget, stats.rounds, &caps, events);
                    if !t_next.definitely_lt(t) {
                        // No numerical progress (f64 only): accept the
                        // current level; the freeze step below still
                        // terminates.
                        break t_next;
                    }
                    t = t_next;
                };

                if !at_t_star {
                    // Re-establish the max flow at t_star (only needed when
                    // the loop exited on a lowered level without
                    // re-checking).
                    stats.max_flows += 1;
                    let (flow, target) = check_level(&mut net, &caps, cur, t_star, &mut stats, us);
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
                if round.frozen.is_empty() && from_cut {
                    // A cached cut's level came out a rounding hair below
                    // t* (f64 only: exactly, every cut level bounds t* from
                    // above). Descend again from the top breakpoint.
                    debug_assert!(!S::EXACT, "a cached cut started the round below t*");
                    stats.cut_start_retries += 1;
                    t = top;
                    from_cut = false;
                    continue;
                }
                break (t_star, round);
            };
            if round.frozen.is_empty() {
                // Safety net for f64 rounding: freeze everything at the
                // current level rather than loop forever. Unreachable with
                // exact arithmetic (a maximal feasible level always has a
                // tight set).
                debug_assert!(!S::EXACT, "exact solve failed to freeze a job");
                stats.fallback_freezes += 1;
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
                    let mut held = cur.base[i];
                    for (k, v) in net.job_split(i) {
                        if v.is_positive() {
                            split[j][cur.sites[k]] += v;
                            frozen_usage[k] += v;
                            held += v;
                        }
                    }
                    cuts.held[j] = held;
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
                arena,
            );
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
        #[cfg(debug_assertions)]
        for (members, budget) in &cut_log {
            let used = sum(members.iter().map(|&j| allocation.aggregate(j)));
            debug_assert!(
                !(used - *budget > S::eps() * (S::ONE + max2(used, *budget))),
                "cached cut {members:?} violated: aggregates {used} above its budget {budget}"
            );
        }

        SolveOutput {
            allocation,
            rounds,
            stats,
        }
    }
}

/// Set contracted source caps for level `t`, recompute the max flow, and
/// return `(flow, target)` where both exclude committed flow.
///
/// Job `i`'s contracted cap is `max(u_j(t) - base_i, 0)`: the part of its
/// target not already committed at removed sites. Every level checked is
/// at or above the previous round's, so the clamp is inert (`u >= base`)
/// up to `f64` rounding.
///
/// Per-job repair instead of a global reset: a cap that dropped below the
/// job's warm flow drains only its own excess (edge-local cancellation
/// keeps conservation), everything else keeps its flow with the cap
/// clamped up by any f64 hair. The max flow then augments the surviving
/// warm flow, so Dinkelbach descent never recomputes from zero.
fn check_level<S: Scalar>(
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
    let flow = net.run_max_flow();
    (flow, target)
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
