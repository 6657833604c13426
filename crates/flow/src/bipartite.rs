//! The jobs-by-sites allocation network driven by the AMF solver.

use crate::dinic;
use crate::graph::{EdgeId, FlowNetwork, NodeId};
use crate::scratch::FlowScratch;
use amf_numeric::{max2, min2, Scalar};

/// Recycled [`AllocationNetwork`] side structures (edge-id maps), stashed
/// in the [`FlowScratch`] by
/// [`AllocationNetwork::take_scratch`] so the solver's per-contraction
/// rebuild reuses every vector instead of reallocating them.
#[derive(Debug, Clone, Default)]
pub(crate) struct AllocSpares {
    pub(crate) job_cap_edges: Vec<EdgeId>,
    pub(crate) site_cap_edges: Vec<EdgeId>,
    pub(crate) demand_edges: Vec<Vec<(usize, EdgeId)>>,
}

/// Node id of job `j`: nodes 0 and 1 are the source and the sink, the
/// jobs follow, then the sites.
fn job_node(j: usize) -> NodeId {
    (2 + j) as NodeId
}

/// Node id of site `s` in a network of `n_jobs` jobs.
fn site_node(n_jobs: usize, s: usize) -> NodeId {
    (2 + n_jobs + s) as NodeId
}

/// Bipartite allocation network
/// `source --(u_j)--> job_j --(d[j][s])--> site_s --(c_s)--> sink`.
///
/// The AMF progressive-filling solver repeatedly adjusts the per-job source
/// caps `u_j` (the water-level targets), recomputes the max flow, and asks
/// structural questions: is the level feasible? which jobs sit on the source
/// side of a min cut? which jobs still have a residual path to the sink?
/// This wrapper owns that vocabulary so the solver reads like the paper's
/// pseudo-code rather than like graph plumbing.
///
/// The network owns a [`FlowScratch`] arena, so repeated max flows and
/// reachability sweeps are allocation-free; when the solver contracts to a
/// smaller network it moves the arena over with
/// [`take_scratch`](Self::take_scratch) /
/// [`new_sparse_with_scratch`](Self::new_sparse_with_scratch).
#[derive(Debug, Clone)]
pub struct AllocationNetwork<S> {
    net: FlowNetwork<S>,
    n_jobs: usize,
    n_sites: usize,
    source: NodeId,
    sink: NodeId,
    job_cap_edges: Vec<EdgeId>,
    site_cap_edges: Vec<EdgeId>,
    /// Per job: `(site, edge)` for every strictly positive demand.
    demand_edges: Vec<Vec<(usize, EdgeId)>>,
    scratch: FlowScratch<S>,
}

impl<S: Scalar> AllocationNetwork<S> {
    /// Build the network for `demands[j][s]` and site `capacities[s]`.
    /// Job source caps start at zero; set them with
    /// [`set_job_cap`](Self::set_job_cap) before calling
    /// [`run_max_flow`](Self::run_max_flow).
    ///
    /// # Panics
    /// Panics on negative demands/capacities or ragged demand rows.
    pub fn new(demands: &[Vec<S>], capacities: &[S]) -> Self {
        for row in demands {
            assert_eq!(
                row.len(),
                capacities.len(),
                "demand row length != site count"
            );
        }
        let rows = demands.iter().map(|row| row.iter().copied().enumerate());
        Self::build(rows, capacities, FlowScratch::new())
    }

    /// [`new`](Self::new) from sparse demand rows, reusing a
    /// [`FlowScratch`] arena (typically recovered from a retired network
    /// via [`take_scratch`](Self::take_scratch)): job `j`'s demands are
    /// `entries[offsets[j]..offsets[j + 1]]`, as `(site, demand)` pairs in
    /// ascending site order, and every site not listed has zero demand.
    /// Builds exactly the network the equivalent dense rows give (the same
    /// edges in the same order), in time linear in the listed entries
    /// rather than in jobs × sites.
    ///
    /// # Panics
    /// Panics on negative demands/capacities, on a site index out of range,
    /// or if `offsets` is empty or not ascending.
    pub fn new_sparse_with_scratch(
        offsets: &[usize],
        entries: &[(usize, S)],
        capacities: &[S],
        scratch: FlowScratch<S>,
    ) -> Self {
        assert!(!offsets.is_empty(), "sparse rows need offsets[0]");
        let n_sites = capacities.len();
        let rows = offsets.windows(2).map(|w| {
            entries[w[0]..w[1]].iter().map(move |&(s, d)| {
                assert!(s < n_sites, "demand site {s} out of range");
                (s, d)
            })
        });
        Self::build(rows, capacities, scratch)
    }

    /// Shared constructor body: one iterator of `(site, demand)` pairs per
    /// job, sites ascending; an edge is added for every positive demand.
    fn build<R>(
        rows: impl ExactSizeIterator<Item = R>,
        capacities: &[S],
        scratch: FlowScratch<S>,
    ) -> Self
    where
        R: Iterator<Item = (usize, S)>,
    {
        let n_jobs = rows.len();
        let n_sites = capacities.len();
        let mut scratch = scratch;
        // Recycle a retired network's edge arena and side-structure
        // vectors when the scratch carries them (the solver's contraction
        // loop does), so rebuilds allocate nothing in steady state.
        let mut net: FlowNetwork<S> = FlowNetwork::new_reusing(2 + n_jobs + n_sites, &mut scratch);
        let AllocSpares {
            mut job_cap_edges,
            mut site_cap_edges,
            mut demand_edges,
        } = std::mem::take(&mut scratch.alloc_spares);
        let source: NodeId = 0;
        let sink: NodeId = 1;
        let site_node = |s: usize| site_node(n_jobs, s);

        job_cap_edges.clear();
        job_cap_edges.extend((0..n_jobs).map(|j| net.add_edge(source, job_node(j), S::ZERO)));
        // Rows beyond the new job count are dropped (networks only shrink
        // across contractions); kept rows reuse their allocations and are
        // cleared before filling.
        demand_edges.truncate(n_jobs);
        demand_edges.resize(n_jobs, Vec::new());
        for (j, row) in rows.enumerate() {
            let edges = &mut demand_edges[j];
            edges.clear();
            for (s, d) in row {
                assert!(!(d < S::ZERO), "negative demand d[{j}][{s}]");
                if d.is_positive() {
                    edges.push((s, net.add_edge(job_node(j), site_node(s), d)));
                }
            }
        }
        site_cap_edges.clear();
        site_cap_edges.extend(capacities.iter().enumerate().map(|(s, &c)| {
            assert!(!(c < S::ZERO), "negative capacity c[{s}]");
            net.add_edge(site_node(s), sink, c)
        }));

        AllocationNetwork {
            net,
            n_jobs,
            n_sites,
            source,
            sink,
            job_cap_edges,
            site_cap_edges,
            demand_edges,
            scratch,
        }
    }

    /// Move the scratch arena out (leaving an empty one behind), so a
    /// successor network can inherit its buffers and counters. The
    /// retiring network's edge arena is salvaged into the scratch on the
    /// way out (this network must not be used again), letting
    /// [`new_sparse_with_scratch`](Self::new_sparse_with_scratch) rebuild
    /// without allocating.
    pub fn take_scratch(&mut self) -> FlowScratch<S> {
        self.net.salvage_into(&mut self.scratch);
        self.scratch.alloc_spares = AllocSpares {
            job_cap_edges: std::mem::take(&mut self.job_cap_edges),
            site_cap_edges: std::mem::take(&mut self.site_cap_edges),
            demand_edges: std::mem::take(&mut self.demand_edges),
        };
        std::mem::take(&mut self.scratch)
    }

    /// The scratch arena, for reading its diagnostic counters.
    pub fn scratch(&self) -> &FlowScratch<S> {
        &self.scratch
    }

    /// Set job `j`'s source cap (its water-level target `u_j`).
    ///
    /// Shrinking a cap below the current flow requires
    /// [`reset_flow`](Self::reset_flow) first.
    pub fn set_job_cap(&mut self, j: usize, cap: S) {
        self.net.set_capacity(self.job_cap_edges[j], cap);
    }

    /// Zero all flows (capacities are kept).
    pub fn reset_flow(&mut self) {
        self.net.reset_flow();
    }

    /// Compute a maximum flow with Dinic's algorithm, augmenting on top of
    /// any existing flow, and return the **total** flow now leaving the
    /// source.
    pub fn run_max_flow(&mut self) -> S {
        dinic::max_flow_with(&mut self.net, self.source, self.sink, &mut self.scratch);
        self.total_flow()
    }

    /// Total flow currently leaving the source.
    ///
    /// Summed over the job source edges in slot order — the same order the
    /// old adjacency-list `net_outflow(source)` used (no edge enters the
    /// source), so `f64` totals are bitwise identical — and O(jobs)
    /// instead of O(E).
    pub fn total_flow(&self) -> S {
        let mut total = S::ZERO;
        for &e in &self.job_cap_edges {
            total += self.net.flow(e);
        }
        total
    }

    /// Aggregate flow (allocation) currently assigned to job `j`.
    pub fn job_flow(&self, j: usize) -> S {
        self.net.flow(self.job_cap_edges[j])
    }

    /// Flow on each site edge of job `j` as `(site, amount)` pairs —
    /// i.e. a per-site split of its aggregate allocation.
    pub fn job_split(&self, j: usize) -> impl Iterator<Item = (usize, S)> + '_ {
        self.demand_edges[j]
            .iter()
            .map(move |&(s, e)| (s, self.net.flow(e)))
    }

    /// The full split as a dense `n_jobs x n_sites` matrix.
    pub fn split_matrix(&self) -> Vec<Vec<S>> {
        (0..self.n_jobs)
            .map(|j| {
                let mut row = vec![S::ZERO; self.n_sites];
                for &(s, e) in &self.demand_edges[j] {
                    row[s] = self.net.flow(e);
                }
                row
            })
            .collect()
    }

    /// Preload a known-feasible split (flows along source→job→site→sink for
    /// every positive entry of `x`). Call on a reset network; afterwards
    /// [`run_max_flow`](Self::run_max_flow) augments on top of it.
    ///
    /// # Panics
    /// Panics if `x` violates a demand, source-cap, or site capacity.
    pub fn preload_split(&mut self, x: &[Vec<S>]) {
        assert_eq!(x.len(), self.n_jobs, "preload_split: row count");
        for (j, row) in x.iter().enumerate() {
            self.preload_job_split(j, row.iter().copied().enumerate());
        }
    }

    /// Preload job `j`'s share of a known-feasible split on a network with
    /// no flow through its edges yet: `flows` yields `(site, amount)` pairs
    /// in ascending site order, and every positive amount is pushed along
    /// source→job→site→sink. Sites without a demand edge may be listed as
    /// long as their amount is not positive. Jobs preloaded in ascending
    /// order add onto each site edge in job order, so a sparse caller gets
    /// the bits [`preload_split`](Self::preload_split) gives the equivalent
    /// dense matrix, in time linear in the listed entries.
    ///
    /// # Panics
    /// Panics if a positive amount has no demand edge, the sites are not
    /// ascending, or an amount violates a demand, source-cap, or site
    /// capacity.
    pub fn preload_job_split(&mut self, j: usize, flows: impl IntoIterator<Item = (usize, S)>) {
        let edges = &self.demand_edges[j];
        let mut next = 0;
        let mut job_total = S::ZERO;
        for (site, v) in flows {
            if !v.is_positive() {
                continue;
            }
            while next < edges.len() && edges[next].0 < site {
                next += 1;
            }
            assert!(
                next < edges.len() && edges[next].0 == site,
                "preload: job {j} has no demand edge at site {site}"
            );
            let e = edges[next].1;
            next += 1;
            self.net.add_flow(e, v);
            self.net.add_flow(self.site_cap_edges[site], v);
            job_total += v;
        }
        if job_total.is_positive() {
            self.net.add_flow(self.job_cap_edges[j], job_total);
        }
    }

    /// After a max flow: the jobs on the **source side** of the minimum cut
    /// (i.e. the violating set when the current level is infeasible), into
    /// a caller-provided buffer (resized to the job count).
    pub fn source_side_jobs_into(&mut self, out: &mut Vec<bool>) {
        self.net
            .residual_reachable_with(self.source, &mut self.scratch);
        out.clear();
        out.extend((0..self.n_jobs).map(|j| self.scratch.is_seen(job_node(j) as usize)));
    }

    /// After a max flow: which job nodes and which site nodes still have a
    /// residual path to the sink, into caller-provided buffers (each
    /// resized). A job in the set could grow if its source cap were raised;
    /// jobs outside it are bottlenecked; sites outside the
    /// set can never absorb more flow at any higher water level, which is
    /// what licenses contracting them out of the network.
    pub fn sink_reachability_into(&mut self, jobs: &mut Vec<bool>, sites: &mut Vec<bool>) {
        self.net
            .residual_coreachable_with(self.sink, &mut self.scratch);
        let n_jobs = self.n_jobs;
        jobs.clear();
        jobs.extend((0..n_jobs).map(|j| self.scratch.is_seen(job_node(j) as usize)));
        sites.clear();
        sites
            .extend((0..self.n_sites).map(|s| self.scratch.is_seen(site_node(n_jobs, s) as usize)));
    }

    /// Drain job `j`'s flow down to at most `cap`, then set its source cap
    /// to `cap` (widened by any floating-point hair the drain left). This is
    /// the solver's warm repair: when a job's water-level target shrinks,
    /// only the excess above the new target is cancelled, edge-locally along
    /// source→job→site→sink so conservation holds throughout, and the rest
    /// of the warm flow survives — no global [`reset_flow`](Self::reset_flow).
    pub fn drain_job_to_cap(&mut self, j: usize, cap: S) {
        assert!(!(cap < S::ZERO), "negative job cap u[{j}]");
        let cap_edge = self.job_cap_edges[j];
        let mut excess = self.net.flow(cap_edge) - cap;
        if excess.is_positive() {
            for k in 0..self.demand_edges[j].len() {
                let (s, e) = self.demand_edges[j][k];
                let v = self.net.flow(e);
                if v.is_positive() {
                    let r = min2(v, excess);
                    self.net.remove_flow(e, r);
                    self.net.remove_flow(self.site_cap_edges[s], r);
                    self.net.remove_flow(cap_edge, r);
                    excess -= r;
                    if !excess.is_positive() {
                        break;
                    }
                }
            }
        }
        let f = self.net.flow(cap_edge);
        self.net.set_capacity(cap_edge, max2(cap, f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_numeric::Rational;

    fn r(n: i128) -> Rational {
        Rational::from_int(n)
    }

    /// Which jobs still have a residual path to the sink.
    fn growable_jobs<S: Scalar>(net: &mut AllocationNetwork<S>) -> Vec<bool> {
        let (mut jobs, mut sites) = (Vec::new(), Vec::new());
        net.sink_reachability_into(&mut jobs, &mut sites);
        jobs
    }

    fn job_cap<S: Scalar>(net: &AllocationNetwork<S>, j: usize) -> S {
        net.net.capacity(net.job_cap_edges[j])
    }

    /// Demand edges with positive capacity.
    fn open_demand_edges<S: Scalar>(net: &AllocationNetwork<S>) -> usize {
        net.demand_edges
            .iter()
            .flatten()
            .filter(|&&(_, e)| net.net.capacity(e).is_positive())
            .count()
    }

    /// Two jobs, one site of capacity 10; both demand 10 there.
    #[test]
    fn contention_on_single_site() {
        let demands = vec![vec![10.0], vec![10.0]];
        let mut net = AllocationNetwork::new(&demands, &[10.0]);
        net.set_job_cap(0, 10.0);
        net.set_job_cap(1, 10.0);
        let total = net.run_max_flow();
        assert_eq!(total, 10.0);
        // With caps 5 each, both can be satisfied exactly.
        let mut net2 = AllocationNetwork::new(&demands, &[10.0]);
        net2.set_job_cap(0, 5.0);
        net2.set_job_cap(1, 5.0);
        assert_eq!(net2.run_max_flow(), 10.0);
        assert_eq!(net2.job_flow(0), 5.0);
        assert_eq!(net2.job_flow(1), 5.0);
    }

    #[test]
    fn split_respects_demands_and_capacities() {
        let demands = vec![vec![3.0, 1.0], vec![0.0, 4.0]];
        let caps = [3.0, 4.0];
        let mut net = AllocationNetwork::new(&demands, &caps);
        net.set_job_cap(0, 4.0);
        net.set_job_cap(1, 4.0);
        let total = net.run_max_flow();
        assert!((total - 7.0).abs() < 1e-12);
        let x = net.split_matrix();
        for (j, row) in x.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                assert!(v <= demands[j][s] + 1e-12);
            }
        }
        for s in 0..2 {
            let used: f64 = x.iter().map(|row| row[s]).sum();
            assert!(used <= caps[s] + 1e-12);
        }
    }

    #[test]
    fn source_side_identifies_bottleneck_set() {
        // Job 0 only at site 0 (cap 1); job 1 only at site 1 (cap 100).
        // With both caps 10, job 0 is bottlenecked: min cut separates it.
        // Job 1's demand (20) leaves headroom above its source cap, so it
        // could still grow.
        let demands = vec![vec![10.0, 0.0], vec![0.0, 20.0]];
        let mut net = AllocationNetwork::new(&demands, &[1.0, 100.0]);
        net.set_job_cap(0, 10.0);
        net.set_job_cap(1, 10.0);
        net.run_max_flow();
        let mut side = Vec::new();
        net.source_side_jobs_into(&mut side);
        assert!(side[0], "bottlenecked job must be on the source side");
        assert!(!side[1]);
        let grow = growable_jobs(&mut net);
        assert!(!grow[0]);
        // Job 1 is capped by its source edge, not by the site: it could grow.
        assert!(grow[1]);
    }

    #[test]
    fn sink_reachability_classifies_sites() {
        // Site 0 saturated (cap 1 fully used), site 1 has slack.
        let demands = vec![vec![10.0, 0.0], vec![0.0, 20.0]];
        let mut net = AllocationNetwork::new(&demands, &[1.0, 100.0]);
        net.set_job_cap(0, 10.0);
        net.set_job_cap(1, 10.0);
        net.run_max_flow();
        let mut jobs = Vec::new();
        let mut sites = Vec::new();
        net.sink_reachability_into(&mut jobs, &mut sites);
        assert_eq!(jobs, vec![false, true]);
        assert!(!sites[0], "saturated site cannot absorb more flow");
        assert!(sites[1], "slack site still reaches the sink");
    }

    #[test]
    fn site_residual_reports_slack() {
        // One job demanding 2 at a site of capacity 5: the site edge
        // carries 2 and keeps 3 of slack, so the site still reaches the
        // sink while the demand-capped job does not.
        let demands = vec![vec![2.0]];
        let mut net = AllocationNetwork::new(&demands, &[5.0]);
        net.set_job_cap(0, 2.0);
        assert_eq!(net.run_max_flow(), 2.0);
        let site_edge = net.site_cap_edges[0];
        assert_eq!(net.net.capacity(site_edge) - net.net.flow(site_edge), 3.0);
        let (mut jobs, mut sites) = (Vec::new(), Vec::new());
        net.sink_reachability_into(&mut jobs, &mut sites);
        assert_eq!(sites, vec![true]);
        assert_eq!(jobs, vec![false]);
    }

    #[test]
    fn max_flow_matches_the_brute_force_min_cut() {
        // The min cut of `source -> jobs -> sites -> sink` keeps some job
        // set `A` on the source side (paying `u_j` for every job outside
        // it) and then, site by site, cuts the cheaper of the site edge
        // `c_s` or the demand edges from `A`, `sum_{j in A} d[j][s]`.
        // Enumerating every `A` gives the max-flow value independently.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let n = rng.gen_range(1..9usize);
            let m = rng.gen_range(1..6usize);
            let demands: Vec<Vec<Rational>> = (0..n)
                .map(|_| (0..m).map(|_| r(rng.gen_range(0..8))).collect())
                .collect();
            let caps: Vec<Rational> = (0..m).map(|_| r(rng.gen_range(0..20))).collect();
            let job_caps: Vec<Rational> = (0..n)
                .map(|_| Rational::new(2 * rng.gen_range(0..10) + 1, 2))
                .collect();
            let mut net = AllocationNetwork::new(&demands, &caps);
            for (j, &c) in job_caps.iter().enumerate() {
                net.set_job_cap(j, c);
            }
            let flow = net.run_max_flow();
            let min_cut = (0u32..1 << n)
                .map(|a| {
                    let in_a = |j: usize| a & (1 << j) != 0;
                    let jobs_cut: Rational =
                        (0..n).filter(|&j| !in_a(j)).map(|j| job_caps[j]).sum();
                    let sites_cut: Rational = (0..m)
                        .map(|s| {
                            let from_a: Rational =
                                (0..n).filter(|&j| in_a(j)).map(|j| demands[j][s]).sum();
                            min2(caps[s], from_a)
                        })
                        .sum();
                    jobs_cut + sites_cut
                })
                .min()
                .expect("at least the empty job set");
            assert_eq!(flow, min_cut, "n={n} m={m}");
        }
    }

    #[test]
    fn split_matrix_matches_job_splits() {
        // Job 1 has no demand at site 1: its row keeps an explicit zero.
        let demands = vec![vec![r(3), r(2)], vec![r(4), r(0)], vec![r(1), r(5)]];
        let mut net = AllocationNetwork::new(&demands, &[r(5), r(4)]);
        for j in 0..3 {
            net.set_job_cap(j, r(3));
        }
        assert_eq!(net.run_max_flow(), r(9));
        let x = net.split_matrix();
        assert_eq!(x.len(), 3);
        for (j, row) in x.iter().enumerate() {
            assert_eq!(row.len(), 2);
            assert_eq!(row.iter().copied().sum::<Rational>(), net.job_flow(j));
            for (s, v) in net.job_split(j) {
                assert_eq!(row[s], v);
            }
        }
        assert_eq!(x[1][1], r(0));
    }

    #[test]
    fn preload_then_augment_reaches_max() {
        let demands = vec![vec![2.0, 2.0], vec![2.0, 2.0]];
        let caps = [3.0, 3.0];
        let mut net = AllocationNetwork::new(&demands, &caps);
        net.set_job_cap(0, 3.0);
        net.set_job_cap(1, 3.0);
        // Preload a deliberately suboptimal feasible split.
        let x0 = vec![vec![2.0, 0.0], vec![1.0, 0.0]];
        net.preload_split(&x0);
        assert_eq!(net.total_flow(), 3.0);
        let total = net.run_max_flow();
        assert!((total - 6.0).abs() < 1e-12);
        assert!((net.job_flow(0) - 3.0).abs() < 1e-12);
        assert!((net.job_flow(1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_rational_allocation() {
        let demands = vec![vec![r(7)], vec![r(7)], vec![r(7)]];
        let mut net = AllocationNetwork::new(&demands, &[r(7)]);
        for j in 0..3 {
            net.set_job_cap(j, Rational::new(7, 3));
        }
        let total = net.run_max_flow();
        assert_eq!(total, r(7));
        for j in 0..3 {
            assert_eq!(net.job_flow(j), Rational::new(7, 3));
        }
    }

    #[test]
    fn zero_demand_job_gets_nothing() {
        let demands = vec![vec![0.0, 0.0], vec![5.0, 0.0]];
        let mut net = AllocationNetwork::new(&demands, &[5.0, 5.0]);
        net.set_job_cap(0, 10.0);
        net.set_job_cap(1, 10.0);
        net.run_max_flow();
        assert_eq!(net.job_flow(0), 0.0);
        assert_eq!(net.job_flow(1), 5.0);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn ragged_demands_panic() {
        AllocationNetwork::new(&[vec![1.0], vec![1.0, 2.0]], &[1.0]);
    }

    /// Conservation at every non-terminal node (drain repair must keep it).
    fn assert_conserved(net: &AllocationNetwork<f64>) {
        for v in 2..net.net.node_count() {
            let out = net.net.net_outflow(v as NodeId);
            assert!(out.abs() < 1e-9, "conservation violated at node {v}: {out}");
        }
    }

    #[test]
    fn drain_job_to_cap_is_partial_reset() {
        let demands = vec![vec![3.0, 3.0], vec![3.0, 3.0]];
        let mut net = AllocationNetwork::new(&demands, &[4.0, 4.0]);
        net.set_job_cap(0, 6.0);
        net.set_job_cap(1, 2.0);
        assert!((net.run_max_flow() - 8.0).abs() < 1e-12);
        net.drain_job_to_cap(0, 4.0);
        assert_conserved(&net);
        assert!((net.job_flow(0) - 4.0).abs() < 1e-9);
        assert!((job_cap(&net, 0) - 4.0).abs() < 1e-9);
        assert!(
            (net.job_flow(1) - 2.0).abs() < 1e-12,
            "job 1 flow untouched"
        );
        // Raising the other cap and augmenting recovers a max flow.
        net.set_job_cap(1, 4.0);
        assert!((net.run_max_flow() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rational_drain_is_exact() {
        let demands = vec![vec![r(6)], vec![r(6)]];
        let mut net = AllocationNetwork::new(&demands, &[r(6)]);
        net.set_job_cap(0, r(3));
        net.set_job_cap(1, r(3));
        assert_eq!(net.run_max_flow(), r(6));
        net.drain_job_to_cap(0, Rational::new(3, 2));
        assert_eq!(net.job_flow(0), Rational::new(3, 2));
        assert_eq!(job_cap(&net, 0), Rational::new(3, 2));
        assert_eq!(net.total_flow(), Rational::new(9, 2));
        // The drained capacity goes to job 1 once its cap allows it.
        net.set_job_cap(1, r(6));
        assert_eq!(net.run_max_flow(), r(6));
        assert_eq!(net.job_flow(1), Rational::new(9, 2));
    }

    #[test]
    fn scratch_moves_between_networks() {
        let demands = vec![vec![4.0, 4.0], vec![4.0, 4.0]];
        let caps = [4.0, 4.0];
        let mut net = AllocationNetwork::new(&demands, &caps);
        net.set_job_cap(0, 4.0);
        net.set_job_cap(1, 4.0);
        net.run_max_flow();
        let visited = net.scratch().edges_visited();
        assert!(visited > 0);
        let scratch = net.take_scratch();
        // Successor network inherits buffers and counters.
        let mut small =
            AllocationNetwork::new_sparse_with_scratch(&[0, 1], &[(0, 4.0)], &[4.0], scratch);
        small.set_job_cap(0, 4.0);
        small.run_max_flow();
        assert!(small.scratch().edges_visited() > visited);
        assert!(small.scratch().reuse_hits() >= 1);
    }

    #[test]
    fn sparse_build_and_job_preload_match_dense() {
        // Demands in (0, 1e-9] are listed in the sparse rows but get no
        // edge, exactly as in the dense build.
        let demands = vec![
            vec![3.0, 5e-10, 2.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1e-10, 4.0, 0.0, 6.5],
        ];
        let caps = [2.5, 3.0, 1.0, 4.0];
        let x = vec![
            vec![1.5, 5e-10, 1.0, 0.0],
            vec![0.0; 4],
            vec![1e-10, 2.0, 0.0, 3.25],
        ];
        let mut offsets = vec![0];
        let mut entries = Vec::new();
        for row in &demands {
            entries.extend(row.iter().copied().enumerate().filter(|&(_, d)| d > 0.0));
            offsets.push(entries.len());
        }
        let mut dense = AllocationNetwork::new(&demands, &caps);
        let mut sparse = AllocationNetwork::new_sparse_with_scratch(
            &offsets,
            &entries,
            &caps,
            FlowScratch::new(),
        );
        assert_eq!(open_demand_edges(&sparse), open_demand_edges(&dense));
        for net in [&mut dense, &mut sparse] {
            for j in 0..3 {
                net.set_job_cap(j, 10.0);
            }
        }
        dense.preload_split(&x);
        for (j, row) in x.iter().enumerate() {
            let listed = offsets[j]..offsets[j + 1];
            sparse.preload_job_split(j, entries[listed].iter().map(|&(s, _)| (s, row[s])));
        }
        let (a, b) = (&dense.net, &sparse.net);
        assert_eq!(a.edge_count(), b.edge_count());
        for e in 0..a.edge_count() as EdgeId {
            assert_eq!(a.head(e), b.head(e));
            assert_eq!(a.capacity(e).to_bits(), b.capacity(e).to_bits());
            assert_eq!(a.flow(e).to_bits(), b.flow(e).to_bits());
        }
        assert_eq!(
            dense.run_max_flow().to_bits(),
            sparse.run_max_flow().to_bits()
        );
        assert_eq!(dense.split_matrix(), sparse.split_matrix());
    }

    #[test]
    #[should_panic(expected = "no demand edge")]
    fn preload_without_demand_edge_panics() {
        let mut net = AllocationNetwork::new(&[vec![1e-10, 1.0]], &[1.0, 1.0]);
        net.set_job_cap(0, 1.0);
        net.preload_job_split(0, [(0, 0.5)]);
    }
}
