//! The jobs-by-sites allocation network driven by the AMF solver.

use crate::dinic;
use crate::graph::{EdgeId, FlowNetwork, NodeId};
use crate::scratch::FlowScratch;
use amf_numeric::{max2, min2, Scalar};

/// Recycled [`AllocationNetwork`] side structures (edge-id maps, liveness
/// flags), stashed in the [`FlowScratch`] by
/// [`AllocationNetwork::take_scratch`] so the solver's per-contraction
/// rebuild reuses every vector instead of reallocating them.
#[derive(Debug, Clone, Default)]
pub(crate) struct AllocSpares {
    pub(crate) job_cap_edges: Vec<EdgeId>,
    pub(crate) site_cap_edges: Vec<EdgeId>,
    pub(crate) demand_edges: Vec<Vec<(usize, EdgeId)>>,
    pub(crate) job_nodes: Vec<NodeId>,
    pub(crate) site_nodes: Vec<NodeId>,
    pub(crate) live: Vec<bool>,
    pub(crate) free_slots: Vec<usize>,
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
    /// Node id of each job slot (stable across add/remove; appended jobs
    /// land after the site nodes, so the id is stored, not computed).
    job_nodes: Vec<NodeId>,
    site_nodes: Vec<NodeId>,
    /// Whether each job slot currently holds a live job. Retired slots keep
    /// their node and source edge (at capacity zero) and are reused by
    /// [`add_job`](Self::add_job) before any new node is appended.
    live: Vec<bool>,
    free_slots: Vec<usize>,
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
            mut job_nodes,
            mut site_nodes,
            mut live,
            mut free_slots,
        } = std::mem::take(&mut scratch.alloc_spares);
        let source: NodeId = 0;
        let sink: NodeId = 1;
        let job_node = |j: usize| (2 + j) as NodeId;
        let site_node = |s: usize| (2 + n_jobs + s) as NodeId;

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
        job_nodes.clear();
        job_nodes.extend((0..n_jobs).map(job_node));
        site_nodes.clear();
        site_nodes.extend((0..n_sites).map(site_node));
        live.clear();
        live.resize(n_jobs, true);
        free_slots.clear();

        AllocationNetwork {
            net,
            n_jobs,
            n_sites,
            source,
            sink,
            job_cap_edges,
            site_cap_edges,
            demand_edges,
            job_nodes,
            site_nodes,
            live,
            free_slots,
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
            job_nodes: std::mem::take(&mut self.job_nodes),
            site_nodes: std::mem::take(&mut self.site_nodes),
            live: std::mem::take(&mut self.live),
            free_slots: std::mem::take(&mut self.free_slots),
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
        let mut x = Vec::new();
        self.split_into(&mut x);
        x
    }

    /// Write the full split into a caller-provided matrix, reusing its row
    /// allocations — the allocation-free form of
    /// [`split_matrix`](Self::split_matrix) used by the incremental
    /// session.
    pub fn split_into(&self, out: &mut Vec<Vec<S>>) {
        out.resize(self.n_jobs, Vec::new());
        for (j, row) in out.iter_mut().enumerate() {
            row.clear();
            row.resize(self.n_sites, S::ZERO);
            for &(s, e) in &self.demand_edges[j] {
                row[s] = self.net.flow(e);
            }
        }
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
        out.extend(
            self.job_nodes
                .iter()
                .map(|&v| self.scratch.is_seen(v as usize)),
        );
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
        jobs.clear();
        jobs.extend(
            self.job_nodes
                .iter()
                .map(|&v| self.scratch.is_seen(v as usize)),
        );
        sites.clear();
        sites.extend(
            self.site_nodes
                .iter()
                .map(|&v| self.scratch.is_seen(v as usize)),
        );
    }

    // ----- In-place mutation & residual-flow repair (incremental sessions) -----
    //
    // These keep the warm flow alive across instance changes: instead of
    // rebuilding the network (and rerunning max flow from zero), excess flow
    // is *drained* — cancelled edge-locally along source→job→site→sink
    // triples, which preserves conservation at every intermediate state —
    // and the next `run_max_flow` only augments the difference.

    /// Add a job with the given demand row and a zero source cap, reusing a
    /// retired slot when one exists (its node and source edge come back into
    /// service; fresh demand edges are appended for the new row). Returns
    /// the slot index, which is stable for the job's whole lifetime.
    ///
    /// # Panics
    /// Panics on a ragged or negative demand row.
    pub fn add_job(&mut self, demands: &[S]) -> usize {
        assert_eq!(
            demands.len(),
            self.n_sites,
            "demand row length != site count"
        );
        for (s, d) in demands.iter().enumerate() {
            assert!(!(*d < S::ZERO), "negative demand at site {s}");
        }
        let j = if let Some(slot) = self.free_slots.pop() {
            slot
        } else {
            let node = self.net.add_node();
            self.job_nodes.push(node);
            let cap_edge = self.net.add_edge(self.source, node, S::ZERO);
            self.job_cap_edges.push(cap_edge);
            self.demand_edges.push(Vec::new());
            self.live.push(false);
            self.n_jobs += 1;
            self.n_jobs - 1
        };
        debug_assert!(!self.live[j]);
        debug_assert!(self.demand_edges[j].is_empty());
        let node = self.job_nodes[j];
        for (s, &d) in demands.iter().enumerate() {
            if d.is_positive() {
                let e = self.net.add_edge(node, self.site_nodes[s], d);
                self.demand_edges[j].push((s, e));
            }
        }
        self.live[j] = true;
        j
    }

    /// Remove job `j`: cancel all its flow (demand edges, its source edge
    /// and the matching site-edge shares), zero its capacities, and retire
    /// the slot for reuse. Other jobs' flow is untouched — removing a job
    /// only frees capacity, so the remaining flow stays feasible.
    ///
    /// # Panics
    /// Panics if the slot is not live.
    pub fn remove_job(&mut self, j: usize) {
        assert!(self.live[j], "remove_job: slot {j} is not live");
        let row = std::mem::take(&mut self.demand_edges[j]);
        for &(s, e) in &row {
            // Drain strictly positive flow, not merely `is_positive` flow:
            // the retired edge's capacity drops to exactly zero below, so
            // even sub-epsilon floating-point residue must be cancelled.
            let v = self.net.flow(e);
            if v > S::ZERO {
                self.net.remove_flow(e, v);
                self.net.remove_flow(self.site_cap_edges[s], v);
            }
            self.net.set_capacity(e, S::ZERO);
        }
        // The retired edges stay in the graph at capacity zero; the cleared
        // row guarantees split/iteration code never sees them again.
        let cap_edge = self.job_cap_edges[j];
        let jf = self.net.flow(cap_edge);
        if jf > S::ZERO {
            self.net.remove_flow(cap_edge, jf);
        }
        self.net.set_capacity(cap_edge, S::ZERO);
        self.live[j] = false;
        self.free_slots.push(j);
    }

    /// Change site `s`'s capacity in place. Lowering it below the site's
    /// committed flow first drains the excess back across incident demand
    /// edges (and the owning jobs' source edges), so the surviving flow is
    /// feasible for the new capacity before the edge shrinks.
    pub fn set_site_capacity(&mut self, s: usize, capacity: S) {
        assert!(!(capacity < S::ZERO), "negative capacity c[{s}]");
        let edge = self.site_cap_edges[s];
        let mut excess = self.net.flow(edge) - capacity;
        if excess.is_positive() {
            'drain: for j in 0..self.n_jobs {
                for k in 0..self.demand_edges[j].len() {
                    let (site, e) = self.demand_edges[j][k];
                    if site != s {
                        continue;
                    }
                    let v = self.net.flow(e);
                    if v.is_positive() {
                        let r = min2(v, excess);
                        self.net.remove_flow(e, r);
                        self.net.remove_flow(self.job_cap_edges[j], r);
                        self.net.remove_flow(edge, r);
                        excess -= r;
                        if !excess.is_positive() {
                            break 'drain;
                        }
                    }
                }
            }
        }
        // Widen by any floating-point hair the drain left behind (exact
        // scalars drain to the capacity precisely) — same clamp idiom as the
        // solver's warm-start target safety net.
        let f = self.net.flow(edge);
        self.net.set_capacity(edge, max2(capacity, f));
    }

    /// Change job `j`'s demand at site `s` in place. Lowering below the
    /// edge's current flow drains the excess first; raising a demand that
    /// was previously zero appends a fresh edge.
    pub fn set_demand(&mut self, j: usize, s: usize, demand: S) {
        assert!(self.live[j], "set_demand: slot {j} is not live");
        assert!(!(demand < S::ZERO), "negative demand d[{j}][{s}]");
        let mut found = None;
        for k in 0..self.demand_edges[j].len() {
            if self.demand_edges[j][k].0 == s {
                found = Some(self.demand_edges[j][k].1);
                break;
            }
        }
        match found {
            Some(e) => {
                let excess = self.net.flow(e) - demand;
                if excess.is_positive() {
                    self.net.remove_flow(e, excess);
                    self.net.remove_flow(self.job_cap_edges[j], excess);
                    self.net.remove_flow(self.site_cap_edges[s], excess);
                }
                let f = self.net.flow(e);
                self.net.set_capacity(e, max2(demand, f));
            }
            None => {
                if demand.is_positive() {
                    let e = self
                        .net
                        .add_edge(self.job_nodes[j], self.site_nodes[s], demand);
                    self.demand_edges[j].push((s, e));
                }
            }
        }
    }

    /// Drain job `j`'s flow down to at most `cap`, then set its source cap
    /// to `cap` (widened by any floating-point hair the drain left). This is
    /// the incremental session's warm repair: when a job's water-level
    /// target shrinks, only the excess above the new target is cancelled and
    /// the rest of the warm flow survives — no global
    /// [`reset_flow`](Self::reset_flow).
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

    /// Overwrite job `j`'s split with `row` (one entry per site): the old
    /// flow is fully drained, the source cap becomes the row's total, and
    /// each positive entry is re-pushed as flow, clamped against the demand
    /// edge's and the site edge's residuals so the network stays feasible
    /// even when `row` carries floating-point hair. This is the incremental
    /// session's write-back after it delegates a suffix solve to the
    /// from-scratch solver: the warm flow is re-seeded with the committed
    /// allocation so the next delta's repair starts from it.
    ///
    /// # Panics
    /// Panics if the slot is not live or `row` has the wrong length.
    pub fn set_job_split(&mut self, j: usize, row: &[S]) {
        assert!(self.live[j], "set_job_split: slot {j} is not live");
        assert_eq!(row.len(), self.n_sites, "set_job_split: row length");
        let cap_edge = self.job_cap_edges[j];
        // Strictly positive drains (not eps-tolerant): the row is rebuilt
        // from an exactly-zero base so exact scalars stay exact.
        for k in 0..self.demand_edges[j].len() {
            let (s, e) = self.demand_edges[j][k];
            let v = self.net.flow(e);
            if v > S::ZERO {
                self.net.remove_flow(e, v);
                self.net.remove_flow(self.site_cap_edges[s], v);
            }
        }
        let jf = self.net.flow(cap_edge);
        if jf > S::ZERO {
            self.net.remove_flow(cap_edge, jf);
        }
        let mut total = S::ZERO;
        for v in row {
            total += *v;
        }
        self.net.set_capacity(cap_edge, total);
        for k in 0..self.demand_edges[j].len() {
            let (s, e) = self.demand_edges[j][k];
            let want = row[s];
            if !want.is_positive() {
                continue;
            }
            let room = min2(
                self.net.residual(cap_edge),
                min2(
                    self.net.residual(e),
                    self.net.residual(self.site_cap_edges[s]),
                ),
            );
            let amt = min2(want, room);
            if amt.is_positive() {
                self.net.add_flow(e, amt);
                self.net.add_flow(cap_edge, amt);
                self.net.add_flow(self.site_cap_edges[s], amt);
            }
        }
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

    fn site_cap<S: Scalar>(net: &AllocationNetwork<S>, s: usize) -> S {
        net.net.capacity(net.site_cap_edges[s])
    }

    /// Demand edges that can still carry flow (retired ones sit at zero).
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
    fn remove_job_drains_and_frees_slot() {
        let demands = vec![vec![4.0, 0.0], vec![4.0, 4.0]];
        let mut net = AllocationNetwork::new(&demands, &[6.0, 6.0]);
        net.set_job_cap(0, 4.0);
        net.set_job_cap(1, 8.0);
        assert!((net.run_max_flow() - 10.0).abs() < 1e-12);
        net.remove_job(0);
        assert!(!net.live[0]);
        assert_conserved(&net);
        assert_eq!(net.job_flow(0), 0.0);
        // Job 1 keeps its warm flow and can now grow into freed capacity.
        assert!(net.job_flow(1) > 0.0);
        let total = net.run_max_flow();
        assert!((total - 8.0).abs() < 1e-12, "got {total}");
        // The freed slot is reused by the next add_job.
        let slot = net.add_job(&[1.0, 1.0]);
        assert_eq!(slot, 0);
        assert!(net.live[0]);
        net.set_job_cap(0, 2.0);
        let total = net.run_max_flow();
        assert!((total - 10.0).abs() < 1e-12, "got {total}");
        assert_conserved(&net);
    }

    #[test]
    fn add_job_appends_node_when_no_free_slot() {
        let demands = vec![vec![2.0]];
        let mut net = AllocationNetwork::new(&demands, &[10.0]);
        net.set_job_cap(0, 2.0);
        net.run_max_flow();
        let j = net.add_job(&[5.0]);
        assert_eq!(j, 1);
        assert_eq!(net.n_jobs, 2);
        net.set_job_cap(j, 5.0);
        let total = net.run_max_flow();
        assert!((total - 7.0).abs() < 1e-12);
        // Reachability buffers must track the appended node id: both jobs
        // are fully satisfied (demand edges saturated), so neither grows,
        // and the vector covers the appended slot.
        let grow = growable_jobs(&mut net);
        assert_eq!(grow, vec![false, false]);
        net.set_demand(j, 0, 9.0);
        let grow = growable_jobs(&mut net);
        assert_eq!(grow, vec![false, true], "raised demand reopens growth");
    }

    #[test]
    fn shrink_site_capacity_drains_excess() {
        let demands = vec![vec![6.0], vec![6.0]];
        let mut net = AllocationNetwork::new(&demands, &[12.0]);
        net.set_job_cap(0, 6.0);
        net.set_job_cap(1, 6.0);
        assert!((net.run_max_flow() - 12.0).abs() < 1e-12);
        net.set_site_capacity(0, 5.0);
        assert_conserved(&net);
        assert!((site_cap(&net, 0) - 5.0).abs() < 1e-9);
        let total = net.total_flow();
        assert!(total <= 5.0 + 1e-9, "drained flow {total} exceeds new cap");
        // Remaining flow is still a valid warm start.
        assert!((net.run_max_flow() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn grow_site_capacity_keeps_flow() {
        let demands = vec![vec![8.0]];
        let mut net = AllocationNetwork::new(&demands, &[4.0]);
        net.set_job_cap(0, 8.0);
        assert!((net.run_max_flow() - 4.0).abs() < 1e-12);
        net.set_site_capacity(0, 8.0);
        assert_eq!(net.total_flow(), 4.0, "raising capacity keeps warm flow");
        assert!((net.run_max_flow() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn set_demand_lowers_and_raises_in_place() {
        let demands = vec![vec![4.0, 0.0]];
        let mut net = AllocationNetwork::new(&demands, &[10.0, 10.0]);
        net.set_job_cap(0, 4.0);
        assert!((net.run_max_flow() - 4.0).abs() < 1e-12);
        assert_eq!(open_demand_edges(&net), 1);
        // Lowering below committed flow drains the edge.
        net.set_demand(0, 0, 1.0);
        assert_conserved(&net);
        assert!(net.job_flow(0) <= 1.0 + 1e-12);
        // A previously-zero demand gets a fresh edge.
        net.set_demand(0, 1, 3.0);
        assert_eq!(open_demand_edges(&net), 2);
        let total = net.run_max_flow();
        assert!((total - 4.0).abs() < 1e-12, "got {total}");
        // Lowering to zero closes the edge.
        net.set_demand(0, 1, 0.0);
        assert_conserved(&net);
        assert_eq!(open_demand_edges(&net), 1);
        assert!(net.job_flow(0) <= 1.0 + 1e-12);
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
    fn rational_mutations_are_exact() {
        let demands = vec![vec![r(6)], vec![r(6)]];
        let mut net = AllocationNetwork::new(&demands, &[r(6)]);
        net.set_job_cap(0, r(3));
        net.set_job_cap(1, r(3));
        assert_eq!(net.run_max_flow(), r(6));
        net.set_site_capacity(0, r(4));
        assert_eq!(net.total_flow(), r(4), "exact drain to the new capacity");
        assert_eq!(site_cap(&net, 0), r(4));
        net.remove_job(1);
        assert_eq!(net.total_flow(), net.job_flow(0));
        assert_eq!(net.run_max_flow(), r(3), "freed capacity reabsorbed");
        net.drain_job_to_cap(0, Rational::new(3, 2));
        assert_eq!(net.job_flow(0), Rational::new(3, 2));
        assert_eq!(job_cap(&net, 0), Rational::new(3, 2));
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn removing_retired_slot_panics() {
        let mut net = AllocationNetwork::new(&[vec![1.0]], &[1.0]);
        net.remove_job(0);
        net.remove_job(0);
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
