//! Reusable scratch buffers for the flow kernels.
//!
//! Every max-flow call needs per-node working state: BFS levels and queue,
//! DFS edge cursors, reachability marks.
//! Allocating that state on every call dominates the cost of small repeated
//! solves — the AMF solver runs dozens of max flows per instance and the
//! sim engine thousands per trace. [`FlowScratch`] owns the buffers once
//! and is threaded through [`dinic::max_flow_with`](crate::dinic::max_flow_with)
//! and the [`AllocationNetwork`](crate::AllocationNetwork) helpers, so
//! steady-state kernel calls are allocation-free.
//!
//! Since the CSR lowering, the scratch also owns the cached [`Csr`]
//! adjacency view (so one rebuild serves every kernel call until the
//! structure changes), the [`BitSet`] frontiers, and a set of spare
//! edge-arena buffers that let a retiring network hand its `to`/`cap`/`flow`
//! vectors to its contracted successor (see
//! [`FlowNetwork::new_reusing`](crate::FlowNetwork::new_reusing)).

use crate::bipartite::AllocSpares;
use crate::bitset::BitSet;
use crate::graph::{Csr, SeenKey};
use amf_numeric::Scalar;

/// Reusable working memory for the max-flow kernels and the reachability
/// helpers.
///
/// Create one with [`FlowScratch::new`] (or recover it from a retired
/// network with [`AllocationNetwork::take_scratch`](crate::AllocationNetwork::take_scratch))
/// and thread it through repeated solves. Buffers grow to the largest
/// network seen and are then reused without further allocation; the
/// [`reuse_hits`](Self::reuse_hits), [`edges_visited`](Self::edges_visited),
/// [`csr_rebuilds`](Self::csr_rebuilds) and
/// [`bitset_words_cleared`](Self::bitset_words_cleared) counters let
/// callers attribute the savings.
#[derive(Debug, Clone)]
pub struct FlowScratch<S> {
    /// Cached CSR adjacency view (stamp-validated against the network).
    pub(crate) csr: Csr,
    /// Dinic BFS levels (valid only where `seen` is set).
    pub(crate) level: Vec<u32>,
    /// Dinic per-node cursors: absolute positions into `csr.targets`,
    /// initialized lazily for BFS-reached nodes only.
    pub(crate) iter: Vec<u32>,
    /// Dinic BFS queue: flat vector scanned by a head index, doubling as
    /// the list of reached nodes.
    pub(crate) queue: Vec<u32>,
    /// Visited/membership marks (Dinic level graph, reachability sweeps).
    pub(crate) seen: BitSet,
    /// Provenance of the current `seen` contents: which network state and
    /// sweep filled it. While it matches, a repeat sweep is skipped —
    /// Dinic's final failed BFS records the source-side min-cut sweep here.
    pub(crate) seen_key: SeenKey,
    /// Reachability sweeps answered from `seen_key` without traversal.
    pub(crate) seen_sweeps_skipped: u64,
    /// DFS stack for reachability sweeps.
    pub(crate) stack: Vec<u32>,
    /// Recycled allocation-network side structures (edge-id maps, liveness
    /// flags) from a retired [`AllocationNetwork`](crate::AllocationNetwork),
    /// reused on the next rebuild.
    pub(crate) alloc_spares: AllocSpares,
    /// Spare edge-arena heads salvaged from a retired network.
    spare_to: Vec<u32>,
    /// Spare edge-arena capacities.
    spare_cap: Vec<S>,
    /// Spare edge-arena flows.
    spare_flow: Vec<S>,
    /// Residual edge inspections since the last [`reset_counters`](Self::reset_counters).
    pub(crate) edges_visited: u64,
    /// Kernel invocations that found their buffers already sized (no
    /// allocation performed) since the last counter reset.
    pub(crate) reuse_hits: u64,
}

impl<S: Scalar> FlowScratch<S> {
    /// An empty scratch arena; buffers are sized lazily by the kernels.
    pub fn new() -> Self {
        FlowScratch {
            csr: Csr::default(),
            level: Vec::new(),
            iter: Vec::new(),
            queue: Vec::new(),
            seen: BitSet::new(),
            seen_key: SeenKey::default(),
            seen_sweeps_skipped: 0,
            stack: Vec::new(),
            alloc_spares: AllocSpares::default(),
            spare_to: Vec::new(),
            spare_cap: Vec::new(),
            spare_flow: Vec::new(),
            edges_visited: 0,
            reuse_hits: 0,
        }
    }

    /// Size every per-node `Vec` buffer for an `n`-node network, recording
    /// a reuse hit when no allocation was needed. Buffer *contents* are
    /// stale; each kernel initializes what it reads (the bitsets size
    /// themselves on their own `reset`).
    pub(crate) fn ensure_nodes(&mut self, n: usize) {
        if self.level.capacity() >= n && self.iter.capacity() >= n {
            self.reuse_hits += 1;
        }
        self.level.resize(n, u32::MAX);
        self.iter.resize(n, 0);
    }

    /// Whether node `v` was marked by the most recent kernel call or
    /// reachability sweep that used this scratch (e.g.
    /// [`FlowNetwork::residual_reachable_with`](crate::FlowNetwork::residual_reachable_with)).
    #[inline]
    pub fn is_seen(&self, v: usize) -> bool {
        self.seen.get(v)
    }

    /// Residual edge inspections performed by kernels using this scratch
    /// since the last [`reset_counters`](Self::reset_counters).
    pub fn edges_visited(&self) -> u64 {
        self.edges_visited
    }

    /// Kernel calls that reused already-sized buffers (performed no
    /// allocation) since the last counter reset.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// CSR adjacency rebuilds since the last counter reset — one per
    /// structural change actually observed by a kernel, however many max
    /// flows ran in between.
    pub fn csr_rebuilds(&self) -> u64 {
        self.csr.rebuilds
    }

    /// Total 64-bit words zeroed by frontier-bitset resets since the last
    /// counter reset (the whole cost of clearing visited sets).
    pub fn bitset_words_cleared(&self) -> u64 {
        self.seen.words_cleared()
    }

    /// Reachability sweeps answered from a still-valid previous sweep (no
    /// traversal performed) since the last counter reset.
    pub fn seen_sweeps_skipped(&self) -> u64 {
        self.seen_sweeps_skipped
    }

    /// Zero every diagnostic counter.
    pub fn reset_counters(&mut self) {
        self.edges_visited = 0;
        self.reuse_hits = 0;
        self.csr.rebuilds = 0;
        self.seen_sweeps_skipped = 0;
        self.seen.reset_counter();
    }

    /// Stash a retired network's edge-arena buffers for reuse by
    /// [`FlowNetwork::new_reusing`](crate::FlowNetwork::new_reusing).
    /// Larger donors win so capacity ratchets up to the biggest network
    /// seen.
    pub(crate) fn store_edge_buffers(&mut self, to: Vec<u32>, cap: Vec<S>, flow: Vec<S>) {
        if to.capacity() >= self.spare_to.capacity() {
            self.spare_to = to;
            self.spare_cap = cap;
            self.spare_flow = flow;
        }
    }

    /// Take the spare edge-arena buffers (empty vectors when none stashed).
    pub(crate) fn take_edge_buffers(&mut self) -> (Vec<u32>, Vec<S>, Vec<S>) {
        (
            std::mem::take(&mut self.spare_to),
            std::mem::take(&mut self.spare_cap),
            std::mem::take(&mut self.spare_flow),
        )
    }
}

impl<S: Scalar> Default for FlowScratch<S> {
    fn default() -> Self {
        FlowScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_is_counted_after_first_sizing() {
        let mut s: FlowScratch<f64> = FlowScratch::new();
        s.ensure_nodes(8);
        assert_eq!(s.reuse_hits(), 0, "first sizing allocates");
        s.ensure_nodes(8);
        s.ensure_nodes(4);
        assert_eq!(s.reuse_hits(), 2, "same-or-smaller sizes reuse");
        s.reset_counters();
        assert_eq!(s.reuse_hits(), 0);
    }

    #[test]
    fn edge_buffer_spares_keep_the_larger_donor() {
        let mut s: FlowScratch<f64> = FlowScratch::new();
        s.store_edge_buffers(vec![0; 8], vec![0.0; 8], vec![0.0; 8]);
        s.store_edge_buffers(vec![0; 2], vec![0.0; 2], vec![0.0; 2]);
        let (to, cap, flow) = s.take_edge_buffers();
        assert!(
            to.capacity() >= 8,
            "small donor must not evict a large spare"
        );
        assert!(cap.capacity() >= 8 && flow.capacity() >= 8);
        let (to2, ..) = s.take_edge_buffers();
        assert_eq!(to2.capacity(), 0, "spares are taken at most once");
    }
}
