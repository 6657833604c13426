//! Property tests pinning the cached CSR adjacency view to the dynamic
//! edge arena it is lowered from.
//!
//! The kernels never walk the arena directly — they traverse the CSR
//! snapshot cached in the network's working memory — so these tests drive
//! random build
//! and delta sequences through both representations and demand agreement
//! on everything observable: the per-node edge multiset, residual
//! reachability, and the max-flow value, which must equal the capacity of
//! the model's residual-reachable cut, for `f64` and exact [`Rational`]
//! scalars alike.

use amf_flow::{dinic, EdgeId, FlowNetwork, NodeId};
use amf_numeric::{Rational, Scalar};
use proptest::prelude::*;

/// A mutation applied after the initial build, as generated data.
///
/// Indices are drawn from a large range and reduced modulo the live edge
/// or node count at application time, so every generated sequence is valid
/// for every intermediate network shape.
#[derive(Debug, Clone)]
enum Delta {
    /// Append a fresh edge between two (reduced) existing nodes.
    AddEdge(usize, usize, i64),
    /// Retarget the capacity of a (reduced) existing forward edge.
    SetCapacity(usize, i64),
    /// Append an isolated node, shifting the id space.
    AddNode,
    /// Zero all flow, leaving the structure intact.
    ResetFlow,
}

fn delta_strategy() -> impl Strategy<Value = Delta> {
    // Weighted choice over the four variants (the vendored proptest has no
    // `prop_oneof`): 4 parts AddEdge, 3 SetCapacity, 1 AddNode, 2 ResetFlow.
    (0usize..10, 0usize..64, 0usize..64, 0i64..20).prop_map(|(k, a, b, c)| match k {
        0..=3 => Delta::AddEdge(a, b, c),
        4..=6 => Delta::SetCapacity(a, c),
        7 => Delta::AddNode,
        _ => Delta::ResetFlow,
    })
}

/// Initial shape plus a delta tail: `n` nodes, seed edges, mutations.
fn scenario() -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>, Vec<Delta>)> {
    (3usize..8).prop_flat_map(|n| {
        let edges = proptest::collection::vec(
            (0..n, 0..n, 0i64..20).prop_filter("no self-loops", |(a, b, _)| a != b),
            1..16,
        );
        let deltas = proptest::collection::vec(delta_strategy(), 0..12);
        (Just(n), edges, deltas)
    })
}

/// Reference model: the forward-edge list `(from, to)` in insertion order.
/// Arena ids are derived, never stored: forward edge `k` is id `2k`, its
/// residual twin `2k + 1`.
struct Model {
    n_nodes: usize,
    arcs: Vec<(usize, usize)>,
}

impl Model {
    /// Tail of arena edge `e` under the paired-residual convention.
    fn tail(&self, e: usize) -> usize {
        let (from, to) = self.arcs[e / 2];
        if e.is_multiple_of(2) {
            from
        } else {
            to
        }
    }

    /// Independently reconstructed adjacency: for each node, the ascending
    /// arena ids (forward and residual) leaving it.
    fn adjacency(&self) -> Vec<Vec<EdgeId>> {
        let mut adj = vec![Vec::new(); self.n_nodes];
        for e in 0..self.arcs.len() * 2 {
            adj[self.tail(e)].push(e as EdgeId);
        }
        adj
    }

    /// Residual reachability by BFS over the model adjacency, reading
    /// residuals from the network. Exercises none of the crate's traversal
    /// machinery — plain `Vec` queue, plain `bool` marks.
    fn residual_reachable<S: Scalar>(&self, net: &FlowNetwork<S>, src: usize) -> Vec<bool> {
        let mut seen = vec![false; self.n_nodes];
        let adj = self.adjacency();
        let mut queue = vec![src];
        seen[src] = true;
        while let Some(v) = queue.pop() {
            for &e in &adj[v] {
                let to = net.head(e) as usize;
                if !seen[to] && net.residual(e).is_positive() {
                    seen[to] = true;
                    queue.push(to);
                }
            }
        }
        seen
    }

    /// Capacity of the cut the model's residual reachability from `src`
    /// induces: every forward arc leaving the reached set.
    fn reachable_cut<S: Scalar>(&self, net: &FlowNetwork<S>, src: usize) -> S {
        let side = self.residual_reachable(net, src);
        let mut cut = S::ZERO;
        for (k, &(from, to)) in self.arcs.iter().enumerate() {
            if side[from] && !side[to] {
                cut += net.capacity((2 * k) as EdgeId);
            }
        }
        cut
    }
}

/// Drive one scenario against a network of scalar type `S`, checking the
/// model and the arena agree after the build and after every delta.
fn check_scenario<S: Scalar>(n: usize, edges: &[(usize, usize, i64)], deltas: &[Delta]) {
    let mut net: FlowNetwork<S> = FlowNetwork::new(n);
    let mut model = Model {
        n_nodes: n,
        arcs: Vec::new(),
    };
    for &(a, b, c) in edges {
        net.add_edge(a as NodeId, b as NodeId, S::from_ratio(c, 1));
        model.arcs.push((a, b));
    }
    check_state(&mut net, &model);
    run_kernels(&mut net, &model);
    prop_assert_eq!(
        net.scratch().csr_rebuilds(),
        1,
        "first kernel run lowers the arena once"
    );

    for d in deltas {
        let structural = match *d {
            Delta::AddEdge(a, b, c) => {
                let (a, b) = (a % model.n_nodes, b % model.n_nodes);
                if a == b {
                    continue;
                }
                net.add_edge(a as NodeId, b as NodeId, S::from_ratio(c, 1));
                model.arcs.push((a, b));
                true
            }
            Delta::SetCapacity(e, c) => {
                let e = (e % model.arcs.len()) * 2;
                net.reset_flow();
                net.set_capacity(e as EdgeId, S::from_ratio(c, 1));
                false
            }
            Delta::AddNode => {
                net.add_node();
                model.n_nodes += 1;
                true
            }
            Delta::ResetFlow => {
                net.reset_flow();
                false
            }
        };
        // Capacity and flow deltas must be served from the cached CSR; only
        // structural deltas may trigger a rebuild (exactly one, however
        // many sweeps and max flows follow).
        let rebuilds_before = net.scratch().csr_rebuilds();
        check_state(&mut net, &model);
        run_kernels(&mut net, &model);
        let rebuilt = net.scratch().csr_rebuilds() - rebuilds_before;
        prop_assert_eq!(rebuilt, u64::from(structural), "delta {:?}", d);
    }
}

/// The structural agreement checks for one network state.
fn check_state<S: Scalar>(net: &mut FlowNetwork<S>, model: &Model) {
    // Edge multiset: the arena's reconstructed adjacency must equal the
    // model's, node by node, in ascending id order.
    prop_assert_eq!(net.edge_count(), model.arcs.len() * 2);
    prop_assert_eq!(net.node_count(), model.n_nodes);
    let got = net.adjacency();
    let want = model.adjacency();
    prop_assert_eq!(&got, &want, "adjacency diverged from the edge arena");

    // Residual reachability from every node: the CSR-driven sweep inside
    // `residual_reachable` must mark exactly the model-BFS set.
    for src in 0..model.n_nodes {
        net.residual_reachable(src as NodeId);
        let got: Vec<bool> = (0..model.n_nodes)
            .map(|v| net.is_seen(v as NodeId))
            .collect();
        let want = model.residual_reachable(net, src);
        prop_assert_eq!(&got, &want, "reachability from {} diverged", src);
    }
}

/// Kernel checks for the current state: Dinic on the network itself (whose
/// working memory persists, so CSR cache hits/misses are observable) vs
/// cold Dinic on a clone starting from identical flow, and the total
/// source outflow against the model's min-cut capacity (max-flow/min-cut
/// duality certifies it optimal).
fn run_kernels<S: Scalar>(net: &mut FlowNetwork<S>, model: &Model) {
    let mut cold = net.clone();
    prop_assert_eq!(cold.scratch().csr_rebuilds(), 0, "a clone starts cold");
    let warm_v = dinic::max_flow(net, 0, 1);
    let cold_v = dinic::max_flow(&mut cold, 0, 1);
    // Dinic augments on top of whatever flow the previous round left, so
    // the two Dinic paths are compared on the additional flow.
    prop_assert_eq!(&warm_v, &cold_v, "scratch-cached CSR changed Dinic");
    prop_assert!(
        !model.residual_reachable(net, 0)[1],
        "sink reachable after max flow"
    );
    let total = net.net_outflow(0);
    let cut = model.reachable_cut(net, 0);
    if S::EXACT {
        prop_assert_eq!(&total, &cut, "max-flow != min-cut");
    } else {
        prop_assert!(
            (total.to_f64() - cut.to_f64()).abs() < 1e-9,
            "Dinic total {:?} vs min-cut capacity {:?}",
            total,
            cut
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact arithmetic: every agreement is bit-for-bit.
    #[test]
    fn csr_matches_arena_rational((n, edges, deltas) in scenario()) {
        check_scenario::<Rational>(n, &edges, &deltas);
    }

    /// Floating point: same structural agreements; the flow is compared
    /// with the cut capacity within tolerance (Dinic vs Dinic is exact).
    #[test]
    fn csr_matches_arena_f64((n, edges, deltas) in scenario()) {
        check_scenario::<f64>(n, &edges, &deltas);
    }
}
