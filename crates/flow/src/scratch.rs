//! The flow kernels' working memory.
//!
//! Every max-flow call needs per-node working state: BFS levels and queue,
//! DFS edge cursors, reachability marks.
//! Allocating that state on every call dominates the cost of small repeated
//! solves — the AMF solver runs dozens of max flows per instance and the
//! sim engine thousands per trace. Each [`FlowNetwork`](crate::FlowNetwork)
//! owns one [`FlowScratch`], together with the cached [`Csr`] adjacency
//! view (so one rebuild serves every kernel call until the structure
//! changes) and the [`BitSet`] frontiers, and keeps it across
//! [`FlowNetwork::clear`](crate::FlowNetwork::clear), so steady-state
//! kernel calls and network rebuilds are allocation-free.

use crate::bitset::BitSet;
use crate::graph::Csr;

/// A network's working memory for the max-flow kernel and the
/// reachability sweeps, with the counters that attribute its work.
///
/// Read it through [`FlowNetwork::scratch`](crate::FlowNetwork::scratch).
/// Buffers grow to the largest network the owner has held and are then
/// reused without further allocation; the
/// [`reuse_hits`](Self::reuse_hits), [`edges_visited`](Self::edges_visited),
/// [`csr_rebuilds`](Self::csr_rebuilds) and
/// [`bitset_words_cleared`](Self::bitset_words_cleared) counters let
/// callers attribute the savings. The counters run from the network's
/// creation (or clone) and survive
/// [`FlowNetwork::clear`](crate::FlowNetwork::clear); callers measure one
/// piece of work as the difference of two readings.
#[derive(Debug, Default)]
pub struct FlowScratch {
    /// Cached CSR adjacency view (valid while the owner's `csr_stale` is
    /// unset).
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
    /// Reachability sweeps answered from the previous sweep without
    /// traversal.
    pub(crate) seen_sweeps_skipped: u64,
    /// DFS stack for reachability sweeps.
    pub(crate) stack: Vec<u32>,
    /// Residual edge inspections.
    pub(crate) edges_visited: u64,
    /// Kernel invocations that found their buffers already sized (no
    /// allocation performed).
    pub(crate) reuse_hits: u64,
}

impl FlowScratch {
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

    /// Residual edge inspections performed by the kernels.
    pub fn edges_visited(&self) -> u64 {
        self.edges_visited
    }

    /// Kernel calls that reused already-sized buffers (performed no
    /// allocation).
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// CSR adjacency rebuilds — one per structural change actually
    /// observed by a kernel, however many max flows ran in between.
    pub fn csr_rebuilds(&self) -> u64 {
        self.csr.rebuilds
    }

    /// Total 64-bit words zeroed by frontier-bitset resets (the whole cost
    /// of clearing visited sets).
    pub fn bitset_words_cleared(&self) -> u64 {
        self.seen.words_cleared()
    }

    /// Reachability sweeps answered from a still-valid previous sweep (no
    /// traversal performed).
    pub fn seen_sweeps_skipped(&self) -> u64 {
        self.seen_sweeps_skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_is_counted_after_first_sizing() {
        let mut s = FlowScratch::default();
        s.ensure_nodes(8);
        assert_eq!(s.reuse_hits(), 0, "first sizing allocates");
        s.ensure_nodes(8);
        s.ensure_nodes(4);
        assert_eq!(s.reuse_hits(), 2, "same-or-smaller sizes reuse");
    }
}
