//! Property-based tests of the max-flow substrate: flow conservation,
//! max-flow = min-cut duality (against both the residual cut and a
//! brute-force cut enumeration), and warm-start invariance on random
//! networks with exact rational capacities.

use amf_flow::{dinic, FlowNetwork};
use amf_numeric::Rational;
use proptest::prelude::*;

/// A random small network as an edge list over `n` nodes; node 0 is the
/// source and node 1 the sink.
fn random_network() -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>)> {
    (3usize..8).prop_flat_map(|n| {
        let edges = proptest::collection::vec(
            (0..n, 0..n, 0i64..20).prop_filter("no self-loops", |(a, b, _)| a != b),
            1..20,
        );
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(usize, usize, i64)]) -> FlowNetwork<Rational> {
    let mut g = FlowNetwork::new(n);
    for &(a, b, c) in edges {
        g.add_edge(a as u32, b as u32, Rational::from_int(c as i128));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After a max flow: conservation at every internal node, and the flow
    /// value equals the capacity of the residual-reachability cut
    /// (max-flow/min-cut duality).
    #[test]
    fn conservation_and_duality((n, edges) in random_network()) {
        let mut g = build(n, &edges);
        let flow = dinic::max_flow(&mut g, 0, 1);
        prop_assert!(flow >= Rational::ZERO);
        // Conservation: net outflow zero everywhere except source/sink.
        for v in 2..n {
            prop_assert_eq!(g.net_outflow(v as u32), Rational::ZERO, "node {} leaks", v);
        }
        prop_assert_eq!(g.net_outflow(0), flow);
        prop_assert_eq!(g.net_outflow(1), -flow);
        // Duality: sum capacities of edges crossing the reachability cut.
        let side = g.residual_reachable(0);
        prop_assert!(side[0]);
        prop_assert!(!side[1], "sink reachable after max flow");
        let mut cut = Rational::ZERO;
        for &(a, b, c) in &edges {
            if side[a] && !side[b] {
                cut += Rational::from_int(c as i128);
            }
        }
        prop_assert_eq!(flow, cut, "max-flow != min-cut");
    }

    /// Dinic's value equals the minimum over every s-t cut, found by
    /// enumerating all `2^(n-2)` ways to place the internal nodes — an
    /// oracle that shares nothing with the residual graph.
    #[test]
    fn dinic_matches_brute_force_min_cut((n, edges) in random_network()) {
        let mut g = build(n, &edges);
        let flow = dinic::max_flow(&mut g, 0, 1);
        let min_cut = (0u32..1 << (n - 2))
            .map(|mask| {
                // Node 0 is always on the source side, node 1 never.
                let source_side = |v: usize| v == 0 || (v >= 2 && mask & (1 << (v - 2)) != 0);
                edges
                    .iter()
                    .filter(|&&(a, b, _)| source_side(a) && !source_side(b))
                    .map(|&(_, _, c)| Rational::from_int(c as i128))
                    .fold(Rational::ZERO, |acc, c| acc + c)
            })
            .min()
            .expect("at least one cut");
        prop_assert_eq!(flow, min_cut);
    }

    /// Warm starts never change the final flow value: preloading part of a
    /// previously computed max flow and re-augmenting reaches the same
    /// total.
    #[test]
    fn warm_start_reaches_same_value((n, edges) in random_network()) {
        let mut reference = build(n, &edges);
        let full = dinic::max_flow(&mut reference, 0, 1);
        // Halve the reference flow as the preload, then re-augment.
        let mut warm = build(n, &edges);
        for e in (0..warm.edge_count() as u32).step_by(2) {
            let f = reference.flow(e);
            if f > Rational::ZERO {
                warm.add_flow(e, f * Rational::new(1, 2));
            }
        }
        dinic::max_flow(&mut warm, 0, 1);
        prop_assert_eq!(warm.net_outflow(0), full);
    }
}
