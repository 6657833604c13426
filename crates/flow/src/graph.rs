//! Residual flow-network representation: a flat struct-of-arrays edge
//! arena with a cached CSR adjacency view.
//!
//! The edge arena is three parallel vectors (`to`, `cap`, `flow`) indexed
//! by [`EdgeId`]; edges are created in pairs so `e ^ 1` is always the
//! residual companion, and the tail of an edge is recovered as
//! `to[e ^ 1]` — no separate `from` array. Adjacency is *not* stored as
//! per-node `Vec`s: the kernels traverse a CSR view (`offsets` +
//! `targets`, both `u32`) that is rebuilt by counting sort only when the
//! structure changes. Every structural mutation stamps the network from a
//! process-global counter, so a CSR view cached in a
//! [`FlowScratch`](crate::FlowScratch) stays valid across any number of
//! max flows, reachability sweeps, and capacity/flow updates — and is
//! never mistaken for the view of a different network.

use crate::scratch::FlowScratch;
use amf_numeric::Scalar;
use std::sync::atomic::{AtomicU64, Ordering};

/// Index of a node in a [`FlowNetwork`] (`u32`: node counts are bounded by
/// `2 + jobs + sites`, far below 2^32, and half-width indices keep the CSR
/// arrays cache-dense).
pub type NodeId = u32;

/// Index of a (directed) edge in a [`FlowNetwork`].
///
/// Edges are created in pairs: `add_edge` returns the id of the forward
/// edge; `e ^ 1` is always its reverse (residual) companion.
pub type EdgeId = u32;

/// Source of globally unique network identities. Starts at 1 so an id of
/// 0 in a cached CSR view always means "never built". Identity is taken
/// once per network (creation, recycle, clone, salvage) so structural
/// mutations on the hot path bump only a local version counter — no
/// atomics per `add_edge`.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A cached CSR (compressed sparse row) adjacency view of a
/// [`FlowNetwork`]: `targets[offsets[v]..offsets[v + 1]]` are the ids of
/// every edge slot leaving `v` (forward edges and residual companions),
/// in ascending edge-id order — the same deterministic order the old
/// adjacency-of-`Vec`s produced, so traversals are bit-for-bit stable.
///
/// Owned by [`FlowScratch`](crate::FlowScratch) so the buffers travel
/// across network rebuilds; validity is tracked by the originating
/// network's structure stamp.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    /// `n + 1` prefix offsets into `targets`.
    pub(crate) offsets: Vec<u32>,
    /// Edge ids grouped by tail node.
    pub(crate) targets: Vec<u32>,
    /// Counting-sort cursors (reused between rebuilds).
    cursor: Vec<u32>,
    /// Identity of the network this view was built from (0 = never built).
    net_id: u64,
    /// Structure version of that network at build time.
    version: u64,
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

/// Provenance of the `seen` bitset in a [`FlowScratch`](crate::FlowScratch):
/// which network state and which sweep filled it. While the key matches the
/// network's current `(id, version, flow_epoch)`, the bitset still holds a
/// valid reachability answer and the sweep can be skipped — Dinic records a
/// key for its final failed BFS, which *is* the source-side min-cut sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SeenKey {
    /// Network identity (0 = no valid sweep recorded).
    pub(crate) net_id: u64,
    /// Structure version at sweep time.
    pub(crate) version: u64,
    /// Flow epoch at sweep time.
    pub(crate) flow_epoch: u64,
    /// Sweep origin node.
    pub(crate) node: u32,
    /// `false` = reachable-from `node`, `true` = co-reachable-to `node`.
    pub(crate) reverse: bool,
}

/// A directed flow network with residual edges, generic over the scalar.
///
/// Storage is struct-of-arrays: `to[e]` is the head of edge `e`, `cap[e]`
/// its capacity, `flow[e]` its current flow. Every call to
/// [`FlowNetwork::add_edge`] inserts the forward edge and a zero-capacity
/// reverse edge at consecutive indices, so residual bookkeeping is `e ^ 1`
/// and the tail of `e` is `to[e ^ 1]`.
#[derive(Debug)]
pub struct FlowNetwork<S> {
    n_nodes: usize,
    to: Vec<u32>,
    cap: Vec<S>,
    flow: Vec<S>,
    /// Globally unique identity (fresh per creation/recycle/clone).
    id: u64,
    /// Structure version, bumped by every structural mutation so cached
    /// [`Csr`] views self-invalidate; an `(id, version)` pair never
    /// revalidates against a different network.
    version: u64,
    /// Flow/capacity epoch, bumped by every residual-graph mutation
    /// (`add_flow`, `remove_flow`, `set_capacity`, `reset_flow`). Lets a
    /// [`FlowScratch`](crate::FlowScratch) prove its `seen` bitset still
    /// holds a valid reachability sweep — in particular, Dinic's final
    /// (failed) BFS *is* the source-side sweep of the min cut, so the
    /// solver's follow-up `residual_reachable_with` call is free.
    flow_epoch: u64,
}

// Manual impl so a clone gets a fresh identity: two networks that diverge
// structurally after a clone must never validate each other's cached CSR
// views, even at equal version counts.
impl<S: Clone> Clone for FlowNetwork<S> {
    fn clone(&self) -> Self {
        FlowNetwork {
            n_nodes: self.n_nodes,
            to: self.to.clone(),
            cap: self.cap.clone(),
            flow: self.flow.clone(),
            id: fresh_id(),
            version: 0,
            flow_epoch: 0,
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
            id: fresh_id(),
            version: 0,
            flow_epoch: 0,
        }
    }

    /// [`new`](Self::new) reusing the edge-arena buffers salvaged into
    /// `scratch` by a retired network (see
    /// [`salvage_into`](Self::salvage_into)), so rebuild-heavy callers (the
    /// solver's per-round contraction) allocate nothing in steady state.
    pub fn new_reusing(n: usize, scratch: &mut FlowScratch<S>) -> Self {
        let (mut to, mut cap, mut flow) = scratch.take_edge_buffers();
        to.clear();
        cap.clear();
        flow.clear();
        FlowNetwork {
            n_nodes: n,
            to,
            cap,
            flow,
            id: fresh_id(),
            version: 0,
            flow_epoch: 0,
        }
    }

    /// Move the edge-arena buffers into `scratch` for a successor network
    /// to reuse. The network is left edgeless and must not be used again —
    /// call this only when retiring it.
    pub fn salvage_into(&mut self, scratch: &mut FlowScratch<S>) {
        scratch.store_edge_buffers(
            std::mem::take(&mut self.to),
            std::mem::take(&mut self.cap),
            std::mem::take(&mut self.flow),
        );
        self.id = fresh_id();
        self.version = 0;
        self.flow_epoch = 0;
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
        self.version += 1;
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
        self.version += 1;
        id as EdgeId
    }

    /// Make `csr` a valid adjacency view of this network, rebuilding by
    /// counting sort only when the structure `(id, version)` moved.
    /// O(V + E) on a rebuild, O(1) on a cache hit.
    pub(crate) fn ensure_csr(&self, csr: &mut Csr) {
        if csr.net_id == self.id && csr.version == self.version {
            return;
        }
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
        csr.net_id = self.id;
        csr.version = self.version;
    }

    /// The [`SeenKey`] describing a sweep of this network's current state.
    #[inline]
    pub(crate) fn sweep_key(&self, node: NodeId, reverse: bool) -> SeenKey {
        SeenKey {
            net_id: self.id,
            version: self.version,
            flow_epoch: self.flow_epoch,
            node,
            reverse,
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
        self.flow_epoch += 1;
    }

    /// Zero all flows, keeping capacities.
    pub fn reset_flow(&mut self) {
        for f in &mut self.flow {
            *f = S::ZERO;
        }
        self.flow_epoch += 1;
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
        self.flow_epoch += 1;
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
        self.flow_epoch += 1;
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

    /// Nodes reachable from `src` in the residual graph (residual > eps).
    /// After a max-flow this is the source side of a minimum cut.
    ///
    /// Convenience form that allocates a private scratch; the solver hot
    /// path uses [`residual_reachable_with`](Self::residual_reachable_with).
    pub fn residual_reachable(&self, src: NodeId) -> Vec<bool> {
        let mut scratch = FlowScratch::new();
        self.residual_reachable_with(src, &mut scratch);
        (0..self.n_nodes).map(|v| scratch.seen.get(v)).collect()
    }

    /// Mark the nodes reachable from `src` in the residual graph into
    /// `scratch.seen` (readable via [`FlowScratch::is_seen`]) — the
    /// allocation-free form the solver hot path uses. Uses the cached CSR
    /// view and bitset frontier in `scratch`.
    pub fn residual_reachable_with(&self, src: NodeId, scratch: &mut FlowScratch<S>) {
        let key = self.sweep_key(src, false);
        if scratch.seen_key == key {
            // `seen` already holds this exact sweep (typically left behind
            // by Dinic's final failed BFS); nothing to do.
            scratch.seen_sweeps_skipped += 1;
            return;
        }
        self.ensure_csr(&mut scratch.csr);
        let FlowScratch {
            csr,
            seen,
            stack,
            edges_visited,
            ..
        } = scratch;
        seen.reset(self.n_nodes);
        stack.clear();
        stack.push(src);
        seen.set(src as usize);
        while let Some(v) = stack.pop() {
            let (lo, hi) = csr.range(v as usize);
            *edges_visited += (hi - lo) as u64;
            for &e in &csr.targets[lo..hi] {
                let to = self.to[e as usize] as usize;
                if !seen.get(to) && self.residual(e).is_positive() {
                    seen.set(to);
                    stack.push(to as u32);
                }
            }
        }
        scratch.seen_key = key;
    }

    /// Mark the nodes with a residual path **to** `dst` (reverse sweep over
    /// residual companions) into `scratch.seen`. After a max flow with
    /// `dst = sink`, a node outside this set can never receive more flow —
    /// the structural fact behind both bottleneck freezing and network
    /// contraction in the AMF solver.
    pub fn residual_coreachable_with(&self, dst: NodeId, scratch: &mut FlowScratch<S>) {
        let key = self.sweep_key(dst, true);
        if scratch.seen_key == key {
            scratch.seen_sweeps_skipped += 1;
            return;
        }
        self.ensure_csr(&mut scratch.csr);
        let FlowScratch {
            csr,
            seen,
            stack,
            edges_visited,
            ..
        } = scratch;
        seen.reset(self.n_nodes);
        stack.clear();
        stack.push(dst);
        seen.set(dst as usize);
        while let Some(v) = stack.pop() {
            // Arcs into `v` are the companions (`e ^ 1`) of arcs leaving it:
            // `u` reaches `dst` iff some residual arc u→v exists with `v`
            // already known to reach `dst`.
            let (lo, hi) = csr.range(v as usize);
            *edges_visited += (hi - lo) as u64;
            for &e in &csr.targets[lo..hi] {
                let u = self.to[e as usize] as usize;
                if !seen.get(u) && self.residual(e ^ 1).is_positive() {
                    seen.set(u);
                    stack.push(u as u32);
                }
            }
        }
        scratch.seen_key = key;
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
        let seen = g.residual_reachable(0);
        assert!(seen[0]);
        assert!(!seen[1], "saturated edge must block reachability");
        assert!(!seen[2]);
    }

    #[test]
    fn csr_view_is_cached_until_structure_changes() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        let mut csr = Csr::default();
        g.ensure_csr(&mut csr);
        assert_eq!(csr.rebuilds, 1);
        // Flow and capacity updates do not invalidate the view.
        g.add_flow(0, 1.0);
        g.set_capacity(2, 3.0);
        g.reset_flow();
        g.ensure_csr(&mut csr);
        assert_eq!(csr.rebuilds, 1, "non-structural updates reuse the CSR");
        // A structural change rebuilds it.
        g.add_edge(0, 2, 1.0);
        g.ensure_csr(&mut csr);
        assert_eq!(csr.rebuilds, 2);
    }

    #[test]
    fn csr_never_aliases_across_networks() {
        let g1: FlowNetwork<f64> = FlowNetwork::new(2);
        let mut g2: FlowNetwork<f64> = FlowNetwork::new(2);
        g2.add_edge(0, 1, 1.0);
        let mut csr = Csr::default();
        g1.ensure_csr(&mut csr);
        let after_g1 = csr.rebuilds;
        g2.ensure_csr(&mut csr);
        assert_eq!(
            csr.rebuilds,
            after_g1 + 1,
            "a different network must rebuild the view even at equal age"
        );
        assert_eq!(csr.targets.len(), 2);
    }

    #[test]
    fn csr_matches_adjacency_order() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 0, 2.0);
        g.add_edge(0, 3, 3.0);
        let mut csr = Csr::default();
        g.ensure_csr(&mut csr);
        let adj = g.adjacency();
        for v in 0..4usize {
            let (lo, hi) = csr.range(v);
            assert_eq!(&csr.targets[lo..hi], adj[v].as_slice(), "node {v}");
        }
        // Node 0: forward edges 0 and 4, plus companion 3 of edge 2→0.
        assert_eq!(adj[0], vec![0, 3, 4]);
    }

    #[test]
    fn salvage_and_reuse_recycles_edge_buffers() {
        let mut scratch: FlowScratch<f64> = FlowScratch::new();
        let mut g: FlowNetwork<f64> = FlowNetwork::new(2);
        g.add_edge(0, 1, 5.0);
        g.salvage_into(&mut scratch);
        assert_eq!(g.edge_count(), 0, "salvaged network is edgeless");
        let mut g2: FlowNetwork<f64> = FlowNetwork::new_reusing(3, &mut scratch);
        assert_eq!(g2.edge_count(), 0);
        let e = g2.add_edge(0, 2, 7.0);
        assert_eq!(g2.capacity(e), 7.0);
        assert_eq!(g2.flow(e), 0.0, "recycled buffers start clean");
    }
}
