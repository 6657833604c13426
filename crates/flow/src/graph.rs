//! Residual flow-network representation: a flat struct-of-arrays edge
//! arena with a cached CSR adjacency view.
//!
//! The edge arena is three parallel vectors (`to`, `cap`, `flow`) indexed
//! by [`EdgeId`]; edges are created in pairs so `e ^ 1` is always the
//! residual companion, and the tail of an edge is recovered as
//! `to[e ^ 1]` — no separate `from` array. Adjacency is *not* stored as
//! per-node `Vec`s: the kernels traverse a CSR view (`offsets` +
//! `targets`, both `u32`) that is rebuilt by counting sort only when the
//! structure changes. The view lives in the network's own
//! [`FlowScratch`], so one flag — set by every structural mutation — is
//! all it takes to keep it valid across any number of max flows,
//! reachability sweeps, and capacity/flow updates.

use crate::scratch::FlowScratch;
use amf_numeric::Scalar;

/// Index of a node in a [`FlowNetwork`] (`u32`: node counts are bounded by
/// `2 + jobs + sites`, far below 2^32, and half-width indices keep the CSR
/// arrays cache-dense).
pub type NodeId = u32;

/// Index of a (directed) edge in a [`FlowNetwork`].
///
/// Edges are created in pairs: `add_edge` returns the id of the forward
/// edge; `e ^ 1` is always its reverse (residual) companion.
pub type EdgeId = u32;

/// A cached CSR (compressed sparse row) adjacency view of a
/// [`FlowNetwork`]: `targets[offsets[v]..offsets[v + 1]]` are the ids of
/// every edge slot leaving `v` (forward edges and residual companions),
/// in ascending edge-id order — the same deterministic order the old
/// adjacency-of-`Vec`s produced, so traversals are bit-for-bit stable.
#[derive(Debug, Default)]
pub struct Csr {
    /// `n + 1` prefix offsets into `targets`.
    pub(crate) offsets: Vec<u32>,
    /// Edge ids grouped by tail node.
    pub(crate) targets: Vec<u32>,
    /// Counting-sort cursors (reused between rebuilds).
    cursor: Vec<u32>,
    /// Rebuilds performed (feeds `SolveStats::csr_rebuilds`).
    pub(crate) rebuilds: u64,
}

impl Csr {
    /// The half-open range of positions in [`Self::targets`] for node `v`.
    #[inline]
    pub(crate) fn range(&self, v: usize) -> (usize, usize) {
        (self.offsets[v] as usize, self.offsets[v + 1] as usize)
    }
}

/// A directed flow network with residual edges, generic over the scalar.
///
/// Storage is struct-of-arrays: `to[e]` is the head of edge `e`, `cap[e]`
/// its capacity, `flow[e]` its current flow. Every call to
/// [`FlowNetwork::add_edge`] inserts the forward edge and a zero-capacity
/// reverse edge at consecutive indices, so residual bookkeeping is `e ^ 1`
/// and the tail of `e` is `to[e ^ 1]`.
///
/// The network owns the kernels' working memory ([`FlowScratch`]) and
/// keeps every buffer across [`clear`](Self::clear), so a caller that
/// rebuilds one network over and over allocates nothing once the buffers
/// have grown.
#[derive(Debug)]
pub struct FlowNetwork<S> {
    n_nodes: usize,
    to: Vec<u32>,
    cap: Vec<S>,
    flow: Vec<S>,
    /// The kernels' working memory, including the cached CSR view.
    pub(crate) work: FlowScratch,
    /// Whether `work.csr` lags the edge arena: set by every structural
    /// mutation, cleared by the rebuild.
    csr_stale: bool,
    /// The sweep `work.seen` holds, as `(origin, reverse)`, while nothing
    /// changed since: every flow, capacity or structure mutation resets it.
    /// Dinic's final failed BFS sets it, because that BFS is the
    /// source-side sweep of the minimum cut.
    pub(crate) seen_sweep: Option<(NodeId, bool)>,
}

// Manual impl so a clone starts with fresh working memory: a cold CSR
// view, no recorded sweep and zeroed counters.
impl<S: Clone> Clone for FlowNetwork<S> {
    fn clone(&self) -> Self {
        FlowNetwork {
            n_nodes: self.n_nodes,
            to: self.to.clone(),
            cap: self.cap.clone(),
            flow: self.flow.clone(),
            work: FlowScratch::default(),
            csr_stale: true,
            seen_sweep: None,
        }
    }
}

impl<S: Scalar> FlowNetwork<S> {
    /// An empty network with `n` nodes (add more with [`add_node`](Self::add_node)).
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n_nodes: n,
            to: Vec::new(),
            cap: Vec::new(),
            flow: Vec::new(),
            work: FlowScratch::default(),
            csr_stale: true,
            seen_sweep: None,
        }
    }

    /// Remove every edge and resize to `n` nodes, keeping every buffer
    /// (the edge arena and the working memory) for the edges added next.
    pub fn clear(&mut self, n: usize) {
        self.n_nodes = n;
        self.to.clear();
        self.cap.clear();
        self.flow.clear();
        self.csr_stale = true;
        self.seen_sweep = None;
    }

    /// The working memory of the kernels, for reading its counters.
    pub fn scratch(&self) -> &FlowScratch {
        &self.work
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Number of directed edges **including** residual companions.
    pub fn edge_count(&self) -> usize {
        self.to.len()
    }

    /// Append a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.n_nodes += 1;
        self.csr_stale = true;
        self.seen_sweep = None;
        (self.n_nodes - 1) as NodeId
    }

    /// Add a directed edge `from -> to` with capacity `cap`; returns the
    /// forward edge id (its residual companion is `id ^ 1`).
    ///
    /// # Panics
    /// Panics if `cap < 0` or a node id is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: S) -> EdgeId {
        assert!(!(cap < S::ZERO), "add_edge: negative capacity {cap}");
        assert!(
            (from as usize) < self.n_nodes && (to as usize) < self.n_nodes,
            "add_edge: node out of range"
        );
        let id = self.to.len();
        assert!(id + 2 <= u32::MAX as usize, "add_edge: edge arena full");
        self.to.push(to);
        self.cap.push(cap);
        self.flow.push(S::ZERO);
        self.to.push(from);
        self.cap.push(S::ZERO);
        self.flow.push(S::ZERO);
        self.csr_stale = true;
        self.seen_sweep = None;
        id as EdgeId
    }

    /// Make `work.csr` a valid adjacency view of this network, rebuilding
    /// by counting sort only when the structure changed since the last
    /// rebuild. O(V + E) on a rebuild, O(1) otherwise.
    pub(crate) fn ensure_csr(&mut self) {
        if !self.csr_stale {
            return;
        }
        self.csr_stale = false;
        let csr = &mut self.work.csr;
        csr.rebuilds += 1;
        let n = self.n_nodes;
        let m = self.to.len();
        csr.offsets.clear();
        csr.offsets.resize(n + 1, 0);
        for e in 0..m {
            // Tail of edge `e` is the head of its companion.
            csr.offsets[self.to[e ^ 1] as usize + 1] += 1;
        }
        for v in 0..n {
            csr.offsets[v + 1] += csr.offsets[v];
        }
        csr.cursor.clear();
        csr.cursor.extend_from_slice(&csr.offsets[..n]);
        csr.targets.clear();
        csr.targets.resize(m, 0);
        for e in 0..m {
            let v = self.to[e ^ 1] as usize;
            csr.targets[csr.cursor[v] as usize] = e as u32;
            csr.cursor[v] += 1;
        }
    }

    /// Current flow on a forward edge (may be negative on residual ids).
    #[inline]
    pub fn flow(&self, e: EdgeId) -> S {
        self.flow[e as usize]
    }

    /// Capacity of an edge.
    #[inline]
    pub fn capacity(&self, e: EdgeId) -> S {
        self.cap[e as usize]
    }

    /// Residual capacity `cap - flow` of an edge.
    #[inline]
    pub fn residual(&self, e: EdgeId) -> S {
        self.cap[e as usize] - self.flow[e as usize]
    }

    /// Replace the capacity of edge `e`.
    ///
    /// # Panics
    /// Panics if the new capacity is below the edge's current flow — callers
    /// must [`reset_flow`](Self::reset_flow) first when shrinking capacities
    /// (the AMF solver lowers the water level only between full recomputes).
    pub fn set_capacity(&mut self, e: EdgeId, cap: S) {
        assert!(
            !(cap < self.flow[e as usize]),
            "set_capacity below current flow; reset_flow first"
        );
        self.cap[e as usize] = cap;
        self.seen_sweep = None;
    }

    /// Zero all flows, keeping capacities.
    pub fn reset_flow(&mut self) {
        for f in &mut self.flow {
            *f = S::ZERO;
        }
        self.seen_sweep = None;
    }

    /// Push `amount` of flow along edge `e` (and pull it on `e ^ 1`).
    ///
    /// Used to preload a known-feasible flow before augmenting (warm start).
    ///
    /// # Panics
    /// Panics if the push exceeds the edge capacity beyond tolerance.
    #[inline]
    pub fn add_flow(&mut self, e: EdgeId, amount: S) {
        let e = e as usize;
        let new = self.flow[e] + amount;
        assert!(
            !new.definitely_gt(self.cap[e]),
            "add_flow: exceeds capacity"
        );
        self.flow[e] = new;
        self.flow[e ^ 1] -= amount;
        self.seen_sweep = None;
    }

    /// Cancel `amount` of flow on edge `e` (and restore it on `e ^ 1`) —
    /// the inverse of [`add_flow`](Self::add_flow), used by the
    /// incremental repair paths to drain excess flow off an arc whose
    /// capacity is about to shrink (or whose endpoint is being retired)
    /// while keeping conservation intact at both endpoints.
    ///
    /// # Panics
    /// Panics if `amount` exceeds the flow currently on `e` beyond
    /// tolerance (draining must never drive a forward flow negative).
    pub fn remove_flow(&mut self, e: EdgeId, amount: S) {
        let e = e as usize;
        assert!(
            !amount.definitely_gt(self.flow[e]),
            "remove_flow: amount exceeds current flow"
        );
        self.flow[e] -= amount;
        self.flow[e ^ 1] += amount;
        self.seen_sweep = None;
    }

    /// Head node of edge `e`.
    #[inline]
    pub fn head(&self, e: EdgeId) -> NodeId {
        self.to[e as usize]
    }

    /// Tail node of edge `e` (the head of its residual companion).
    #[inline]
    pub fn tail(&self, e: EdgeId) -> NodeId {
        self.to[(e ^ 1) as usize]
    }

    /// Net flow out of `v` (useful for conservation checks in tests).
    ///
    /// O(E) scan over the edge arena — diagnostics and tests only; hot
    /// paths track the totals they need (e.g.
    /// [`AllocationNetwork::total_flow`](crate::AllocationNetwork::total_flow)
    /// sums its source edges directly). Summation order matches the old
    /// adjacency-list order (ascending edge id), so `f64` results are
    /// bitwise identical.
    pub fn net_outflow(&self, v: NodeId) -> S {
        let mut total = S::ZERO;
        for e in 0..self.to.len() {
            // Forward edges carry +flow; residual companions carry -flow of
            // their partner, so summing `flow` over all edge slots leaving
            // `v` yields the net outflow directly.
            if self.to[e ^ 1] == v {
                total += self.flow[e];
            }
        }
        total
    }

    /// Mark the nodes reachable from `src` in the residual graph (residual
    /// above eps); read the marks with [`is_seen`](Self::is_seen). After a
    /// max flow this is the source side of a minimum cut.
    pub fn residual_reachable(&mut self, src: NodeId) {
        self.sweep(src, false);
    }

    /// Mark the nodes with a residual path **to** `dst` (reverse sweep over
    /// residual companions); read the marks with [`is_seen`](Self::is_seen).
    /// After a max flow with `dst = sink`, a node outside this set can never
    /// receive more flow — the structural fact behind both bottleneck
    /// freezing and network contraction in the AMF solver.
    pub fn residual_coreachable(&mut self, dst: NodeId) {
        self.sweep(dst, true);
    }

    /// Whether node `v` was marked by the last
    /// [`residual_reachable`](Self::residual_reachable) or
    /// [`residual_coreachable`](Self::residual_coreachable) sweep.
    #[inline]
    pub fn is_seen(&self, v: NodeId) -> bool {
        self.work.seen.get(v as usize)
    }

    /// Depth-first residual sweep from `origin` over the cached CSR view,
    /// marking `work.seen`. Forward, node `u` is marked through a residual
    /// arc `v → u`; in `reverse`, through a residual arc `u → v` (the
    /// companion of the slot leaving `v`). Skipped when `work.seen` already
    /// holds this sweep of the current network state (typically left
    /// behind by Dinic's final failed BFS).
    fn sweep(&mut self, origin: NodeId, reverse: bool) {
        if self.seen_sweep == Some((origin, reverse)) {
            self.work.seen_sweeps_skipped += 1;
            return;
        }
        self.ensure_csr();
        let FlowScratch {
            csr,
            seen,
            stack,
            edges_visited,
            ..
        } = &mut self.work;
        let flip = usize::from(reverse);
        seen.reset(self.n_nodes);
        stack.clear();
        stack.push(origin);
        seen.set(origin as usize);
        while let Some(v) = stack.pop() {
            let (lo, hi) = csr.range(v as usize);
            *edges_visited += (hi - lo) as u64;
            for &e in &csr.targets[lo..hi] {
                let u = self.to[e as usize] as usize;
                let arc = e as usize ^ flip;
                if !seen.get(u) && (self.cap[arc] - self.flow[arc]).is_positive() {
                    seen.set(u);
                    stack.push(u as u32);
                }
            }
        }
        self.seen_sweep = Some((origin, reverse));
    }

    /// Reconstruct the per-node adjacency lists (edge ids leaving each
    /// node, ascending). O(V + E); diagnostics and equivalence tests only —
    /// kernels traverse the cached CSR view instead.
    pub fn adjacency(&self) -> Vec<Vec<EdgeId>> {
        let mut adj = vec![Vec::new(); self.n_nodes];
        for e in 0..self.to.len() {
            adj[self.to[e ^ 1] as usize].push(e as EdgeId);
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(2);
        let c = g.add_node();
        assert_eq!(c, 2);
        let e = g.add_edge(0, 1, 5.0);
        assert_eq!(g.capacity(e), 5.0);
        assert_eq!(g.flow(e), 0.0);
        assert_eq!(g.residual(e), 5.0);
        assert_eq!(g.head(e), 1);
        assert_eq!(g.tail(e), 0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn add_flow_updates_residuals() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 5.0);
        g.add_flow(e, 3.0);
        assert_eq!(g.flow(e), 3.0);
        assert_eq!(g.residual(e), 2.0);
        // Reverse edge gained residual capacity.
        assert_eq!(g.residual(e ^ 1), 3.0);
        g.reset_flow();
        assert_eq!(g.flow(e), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn add_flow_over_capacity_panics() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 1.0);
        g.add_flow(e, 2.0);
    }

    #[test]
    #[should_panic(expected = "negative capacity")]
    fn negative_capacity_panics() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(2);
        g.add_edge(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "below current flow")]
    fn shrinking_capacity_under_flow_panics() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 5.0);
        g.add_flow(e, 4.0);
        g.set_capacity(e, 3.0);
    }

    #[test]
    fn residual_reachability_respects_saturation() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(3);
        let e01 = g.add_edge(0, 1, 1.0);
        let _e12 = g.add_edge(1, 2, 1.0);
        g.add_flow(e01, 1.0);
        g.residual_reachable(0);
        assert!(g.is_seen(0));
        assert!(!g.is_seen(1), "saturated edge must block reachability");
        assert!(!g.is_seen(2));
    }

    #[test]
    fn csr_view_is_cached_until_structure_changes() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.ensure_csr();
        assert_eq!(g.scratch().csr_rebuilds(), 1);
        // Flow and capacity updates do not invalidate the view.
        g.add_flow(0, 1.0);
        g.set_capacity(2, 3.0);
        g.reset_flow();
        g.ensure_csr();
        assert_eq!(
            g.scratch().csr_rebuilds(),
            1,
            "non-structural updates reuse the CSR"
        );
        // A structural change rebuilds it.
        g.add_edge(0, 2, 1.0);
        g.ensure_csr();
        assert_eq!(g.scratch().csr_rebuilds(), 2);
    }

    #[test]
    fn csr_matches_adjacency_order() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 0, 2.0);
        g.add_edge(0, 3, 3.0);
        g.ensure_csr();
        let adj = g.adjacency();
        for v in 0..4usize {
            let (lo, hi) = g.work.csr.range(v);
            assert_eq!(&g.work.csr.targets[lo..hi], adj[v].as_slice(), "node {v}");
        }
        // Node 0: forward edges 0 and 4, plus companion 3 of edge 2→0.
        assert_eq!(adj[0], vec![0, 3, 4]);
    }

    #[test]
    fn clear_keeps_buffers_and_starts_clean() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 5.0);
        g.add_flow(e, 5.0);
        g.residual_reachable(0);
        assert!(!g.is_seen(1));
        let arena = g.to.capacity();
        g.clear(3);
        assert_eq!(g.edge_count(), 0, "cleared network is edgeless");
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.to.capacity(), arena, "clear keeps the edge arena");
        let e = g.add_edge(0, 2, 7.0);
        assert_eq!(g.capacity(e), 7.0);
        assert_eq!(g.flow(e), 0.0, "rebuilt edges start without flow");
        // The sweep is not answered from the pre-clear marks, and it lowers
        // the new structure once.
        g.residual_reachable(0);
        assert!(g.is_seen(2));
        assert_eq!(g.scratch().seen_sweeps_skipped(), 0);
        assert_eq!(g.scratch().csr_rebuilds(), 2);
    }
}
