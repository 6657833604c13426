//! Solver work pin on the E8 family (EXPERIMENTS.md E8): Zipf-skewed
//! placement with contention held at 2×. Rounds, max flows and edges
//! visited are deterministic for a fixed instance, so each is pinned
//! exactly: a change that moves them makes the solver do different work,
//! and must say why and update this table.

use amf_audit::audit;
use amf_bench::experiments::skewed_workload;
use amf_core::{AmfSolver, FairnessMode, Instance};

/// The E8 instance: `skewed_workload(1.2, n, m, min(m, 5), 99)` with every
/// capacity set to 15·n/m.
fn e8_instance(n: usize, m: usize) -> Instance<f64> {
    let mut workload = skewed_workload(1.2, n, m, m.min(5), 99);
    workload.capacities = vec![15.0 * n as f64 / m as f64; m];
    workload.instance()
}

#[test]
fn e8_solver_work_is_pinned_and_certified() {
    // (jobs, sites, rounds, max_flows, edges_visited)
    const PINS: [(usize, usize, usize, usize, u64); 5] = [
        (50, 20, 8, 16, 9_802),
        (100, 20, 9, 18, 28_998),
        (200, 20, 6, 12, 49_787),
        (400, 20, 11, 22, 77_502),
        (400, 5, 1, 2, 33_269),
    ];
    for (n, m, rounds, max_flows, edges_visited) in PINS {
        let inst = e8_instance(n, m);
        let out = AmfSolver::new().solve(&inst);
        let got = (
            out.stats.rounds,
            out.stats.max_flows,
            out.stats.edges_visited,
        );
        assert_eq!(
            got,
            (rounds, max_flows, edges_visited),
            "{n}x{m}: (rounds, max_flows, edges_visited) moved"
        );
        assert!(
            audit(&inst, &out.allocation, FairnessMode::Plain).is_certified_amf(),
            "{n}x{m}: the audit does not certify the allocation"
        );
    }
}
