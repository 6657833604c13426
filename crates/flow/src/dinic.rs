//! Dinic's max-flow algorithm, generic over the scalar type.
//!
//! Dinic is strongly polynomial — its `O(V^2 E)` bound counts augmenting
//! phases, not capacity units — so it terminates for exact rational
//! capacities as well as for `f64` (where "saturated" means residual within
//! [`Scalar::eps`]). It also augments *from the current flow*, which the
//! JCT add-on uses to complete a preloaded feasible split into one meeting
//! every aggregate allocation exactly, and which the AMF solver's warm
//! starts rely on.
//!
//! The kernel traverses the CSR adjacency view cached in the network's
//! [`FlowScratch`] (rebuilt only when the network structure changed) and
//! tracks level-graph membership in a word-packed [`BitSet`]: the BFS
//! clears one bitset word per 64 nodes instead of refilling a `level`
//! array, and the flat BFS queue doubles as the list of reached nodes, so
//! per-phase setup touches only the reached subgraph. Its BFS/DFS working
//! state is the network's own, so repeated calls allocate nothing.

use crate::bitset::BitSet;
use crate::graph::{Csr, FlowNetwork, NodeId};
use crate::scratch::FlowScratch;
use amf_numeric::{min2, Scalar};

/// Run Dinic's algorithm from `source` to `sink`, augmenting on top of any
/// flow already present. Returns the **additional** flow pushed.
///
/// The total flow out of the source after the call is
/// `net.net_outflow(source)`. Works in the network's own
/// [`FlowScratch`]: zero allocations once it has grown to the network size.
pub fn max_flow<S: Scalar>(net: &mut FlowNetwork<S>, source: NodeId, sink: NodeId) -> S {
    assert!(source != sink, "max_flow: source == sink");
    net.ensure_csr();
    // The kernel pushes flow on `net` while it uses the network's working
    // memory, so it holds that memory by value for the run.
    let mut work = std::mem::take(&mut net.work);
    work.ensure_nodes(net.node_count());
    let FlowScratch {
        csr,
        level,
        iter,
        queue,
        seen,
        edges_visited,
        ..
    } = &mut work;
    let mut pushed = S::ZERO;

    while bfs_levels(
        net,
        source,
        sink,
        csr,
        level,
        iter,
        queue,
        seen,
        edges_visited,
    ) {
        loop {
            let f = augment(
                net,
                source,
                sink,
                csr,
                level,
                seen,
                iter,
                None,
                edges_visited,
            );
            if !f.is_positive() {
                break;
            }
            pushed += f;
        }
    }
    net.work = work;
    // The loop exits on a failed BFS, which marks exactly the nodes the
    // source can still reach in the residual graph — i.e. the source side
    // of a minimum cut. Record it so a follow-up
    // `residual_reachable(source)` is answered without traversal.
    net.seen_sweep = Some((source, false));
    pushed
}

/// Build the BFS level graph; returns false when the sink is unreachable.
///
/// `seen` membership gates every `level` read (levels of unreached nodes
/// are stale), and DFS cursors in `iter` are initialized here, exactly
/// once per reached node — unreached nodes cost nothing.
#[allow(clippy::too_many_arguments)]
fn bfs_levels<S: Scalar>(
    net: &FlowNetwork<S>,
    source: NodeId,
    sink: NodeId,
    csr: &Csr,
    level: &mut [u32],
    iter: &mut [u32],
    queue: &mut Vec<u32>,
    seen: &mut BitSet,
    edges_visited: &mut u64,
) -> bool {
    seen.reset(net.node_count());
    queue.clear();
    queue.push(source);
    seen.set(source as usize);
    level[source as usize] = 0;
    let (src_lo, _) = csr.range(source as usize);
    iter[source as usize] = src_lo as u32;
    let mut head = 0;
    let mut sink_level = u32::MAX;
    while head < queue.len() {
        let v = queue[head] as usize;
        head += 1;
        // Stop once the frontier reaches the sink's level: deeper nodes
        // cannot lie on a shortest (strictly level-increasing) augmenting
        // path, and the DFS never follows an unmarked node, so the blocking
        // flow is unchanged. A failed BFS (sink never found) still sweeps
        // the full reachable set — which is what makes its `seen` marks the
        // source side of a minimum cut.
        if level[v] >= sink_level {
            break;
        }
        let (lo, hi) = csr.range(v);
        *edges_visited += (hi - lo) as u64;
        for &e in &csr.targets[lo..hi] {
            let to = net.head(e) as usize;
            if !seen.get(to) && net.residual(e).is_positive() {
                seen.set(to);
                level[to] = level[v] + 1;
                let (to_lo, _) = csr.range(to);
                iter[to] = to_lo as u32;
                queue.push(to as u32);
                if to == sink as usize {
                    sink_level = level[to];
                }
            }
        }
    }
    seen.get(sink as usize)
}

/// DFS one blocking-path augmentation in the level graph.
#[allow(clippy::too_many_arguments)]
fn augment<S: Scalar>(
    net: &mut FlowNetwork<S>,
    v: NodeId,
    sink: NodeId,
    csr: &Csr,
    level: &[u32],
    seen: &BitSet,
    it: &mut [u32],
    limit: Option<S>,
    edges_visited: &mut u64,
) -> S {
    if v == sink {
        // Unlimited at the sink: the caller's bottleneck applies.
        return limit.unwrap_or({
            // No limit along the path can only happen if source == sink,
            // which is rejected upfront; treat as zero to be safe.
            S::ZERO
        });
    }
    let v = v as usize;
    let end = csr.range(v).1 as u32;
    while it[v] < end {
        let e = csr.targets[it[v] as usize];
        let to = net.head(e) as usize;
        let res = net.residual(e);
        *edges_visited += 1;
        if res.is_positive() && seen.get(to) && level[to] == level[v] + 1 {
            let next_limit = Some(match limit {
                None => res,
                Some(l) => min2(l, res),
            });
            let f = augment(
                net,
                to as NodeId,
                sink,
                csr,
                level,
                seen,
                it,
                next_limit,
                edges_visited,
            );
            if f.is_positive() {
                net.add_flow(e, f);
                return f;
            }
        }
        it[v] += 1;
    }
    S::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_numeric::Rational;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn single_edge() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(2);
        g.add_edge(0, 1, 7.0);
        assert_eq!(max_flow(&mut g, 0, 1), 7.0);
    }

    #[test]
    fn classic_diamond() {
        // 0 -> {1,2} -> 3 with a cross edge; known max flow.
        let mut g: FlowNetwork<f64> = FlowNetwork::new(4);
        g.add_edge(0, 1, 3.0);
        g.add_edge(0, 2, 2.0);
        g.add_edge(1, 2, 5.0);
        g.add_edge(1, 3, 2.0);
        g.add_edge(2, 3, 3.0);
        assert_eq!(max_flow(&mut g, 0, 3), 5.0);
    }

    #[test]
    fn exact_rational_flow() {
        let mut g: FlowNetwork<Rational> = FlowNetwork::new(4);
        g.add_edge(0, 1, r(1, 3));
        g.add_edge(0, 2, r(1, 6));
        g.add_edge(1, 3, r(1, 4));
        g.add_edge(2, 3, r(1, 2));
        // min(1/3,1/4) + min(1/6,remaining 1/2) = 1/4 + 1/6 = 5/12.
        assert_eq!(max_flow(&mut g, 0, 3), r(5, 12));
    }

    #[test]
    fn warm_start_counts_only_additional_flow() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(3);
        let e01 = g.add_edge(0, 1, 4.0);
        let e12 = g.add_edge(1, 2, 4.0);
        g.add_flow(e01, 1.5);
        g.add_flow(e12, 1.5);
        let extra = max_flow(&mut g, 0, 2);
        assert!((extra - 2.5).abs() < 1e-12);
        assert!((g.net_outflow(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_gives_zero() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        assert_eq!(max_flow(&mut g, 0, 3), 0.0);
    }

    #[test]
    fn min_cut_after_max_flow() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 10.0);
        g.add_edge(1, 3, 10.0);
        g.add_edge(2, 3, 1.0);
        assert_eq!(max_flow(&mut g, 0, 3), 2.0);
        g.residual_reachable(0);
        assert!(g.is_seen(0) && g.is_seen(2));
        assert!(!g.is_seen(1) && !g.is_seen(3));
    }

    #[test]
    #[should_panic(expected = "source == sink")]
    fn same_source_sink_panics() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(1);
        max_flow(&mut g, 0, 0);
    }

    #[test]
    fn rebuilt_network_reuses_its_buffers_at_any_size() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(0);
        for (round, n) in [8usize, 2, 6, 3].into_iter().enumerate() {
            g.clear(n);
            for v in 0..n - 1 {
                g.add_edge(v as NodeId, (v + 1) as NodeId, 1.0);
            }
            assert_eq!(max_flow(&mut g, 0, (n - 1) as NodeId), 1.0);
            assert_eq!(g.scratch().reuse_hits(), round as u64);
        }
        assert_eq!(g.scratch().csr_rebuilds(), 4, "one per structure");
        assert!(g.scratch().edges_visited() > 0);
        assert!(g.scratch().bitset_words_cleared() > 0);
    }

    #[test]
    fn csr_is_rebuilt_once_per_structure() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(3);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 2.0);
        max_flow(&mut g, 0, 2);
        assert_eq!(g.scratch().csr_rebuilds(), 1);
        g.reset_flow();
        max_flow(&mut g, 0, 2);
        assert_eq!(
            g.scratch().csr_rebuilds(),
            1,
            "re-solving an unchanged structure must reuse the CSR"
        );
        g.add_edge(0, 2, 1.0);
        max_flow(&mut g, 0, 2);
        assert_eq!(g.scratch().csr_rebuilds(), 2);
    }

    #[test]
    fn final_bfs_answers_the_source_sweep() {
        let mut g: FlowNetwork<f64> = FlowNetwork::new(3);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 1.0);
        max_flow(&mut g, 0, 2);
        g.residual_reachable(0);
        assert_eq!(g.scratch().seen_sweeps_skipped(), 1);
        assert!(g.is_seen(0) && g.is_seen(1) && !g.is_seen(2));
        // Any flow change forgets the sweep.
        g.reset_flow();
        g.residual_reachable(0);
        assert_eq!(g.scratch().seen_sweeps_skipped(), 1);
        assert!(g.is_seen(2));
    }
}
