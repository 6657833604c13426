//! One [`AllocationNetwork`] rebuilt in place through a sequence of shapes
//! behaves exactly like a fresh network built for each shape.
//!
//! The solver rebuilds one network at every contraction and keeps it
//! across solves, so the rebuilt network carries the previous shape's edge
//! arena, edge-id maps, CSR view, frontier bitset and counters. These
//! tests grow and shrink it through random sparse shapes — with tiny
//! demands that get no edge, preloaded warm flows and drained job caps —
//! and require, at every step, the bits a fresh
//! [`AllocationNetwork::new_sparse`] gives: both max-flow totals, every job
//! flow, the split, both reachability sets, and the step's
//! `edges_visited` and `csr_rebuilds`.

use amf_flow::AllocationNetwork;
use proptest::prelude::*;

/// One rebuild: sparse demand rows, site capacities, and what to drive.
#[derive(Debug, Clone)]
struct Step {
    offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
    capacities: Vec<f64>,
    /// Per job: source cap, preload fraction of each demand (in quarters),
    /// and whether to drain it to half its flow after the first max flow.
    jobs: Vec<(f64, u8, bool)>,
}

/// A demand cell: kind 0 no demand, 1 a demand in `(0, 1e-9]` (listed
/// but without an edge), otherwise a normal demand.
fn cell(kind: u8, v: u32) -> Option<f64> {
    match kind {
        0 => None,
        1 => Some(f64::from(v + 1) * 1e-11),
        _ => Some(f64::from(v + 1) / 4.0),
    }
}

/// Up to 7 jobs on 1 to 5 sites.
fn step() -> impl Strategy<Value = Step> {
    (0usize..8, 1usize..6).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(proptest::collection::vec((0u8..5, 0u32..40), m), n),
            proptest::collection::vec(0u32..60, m),
            proptest::collection::vec((0u32..60, 0u8..5, 0u8..2), n),
        )
            .prop_map(|(rows, caps, jobs)| {
                let mut offsets = vec![0];
                let mut entries = Vec::new();
                for row in rows {
                    for (s, (kind, v)) in row.into_iter().enumerate() {
                        if let Some(d) = cell(kind, v) {
                            entries.push((s, d));
                        }
                    }
                    offsets.push(entries.len());
                }
                Step {
                    offsets,
                    entries,
                    capacities: caps.into_iter().map(|c| f64::from(c) / 4.0).collect(),
                    jobs: jobs
                        .into_iter()
                        .map(|(u, q, drain)| (f64::from(u) / 4.0, q, drain == 1))
                        .collect(),
                }
            })
    })
}

/// Everything observable after driving one step, as bits.
#[derive(Debug, PartialEq)]
struct Observed {
    totals: Vec<u64>,
    job_flows: Vec<u64>,
    split: Vec<Vec<u64>>,
    source_side: Vec<bool>,
    grow_jobs: Vec<bool>,
    grow_sites: Vec<bool>,
}

/// A feasible warm split: each job's preload fraction of its demands,
/// scaled down at every site the fractions over-subscribe.
fn preload(step: &Step) -> Vec<f64> {
    let mut x: Vec<f64> = Vec::with_capacity(step.entries.len());
    for (j, w) in step.offsets.windows(2).enumerate() {
        let q = f64::from(step.jobs[j].1) / 4.0;
        x.extend(step.entries[w[0]..w[1]].iter().map(|&(_, d)| d * q));
    }
    let mut load = vec![0.0; step.capacities.len()];
    for (&(s, _), &v) in step.entries.iter().zip(&x) {
        load[s] += v;
    }
    for (&(s, _), v) in step.entries.iter().zip(x.iter_mut()) {
        if load[s] > step.capacities[s] {
            *v *= step.capacities[s] / load[s];
        }
    }
    x
}

/// Drive `net`, freshly (re)built for `step`: caps, preload, max flow,
/// drains, max flow again, then read everything back.
fn drive(net: &mut AllocationNetwork<f64>, step: &Step) -> Observed {
    let x = preload(step);
    let mut totals = Vec::new();
    for (j, w) in step.offsets.windows(2).enumerate() {
        let flows: Vec<(usize, f64)> = (w[0]..w[1]).map(|k| (step.entries[k].0, x[k])).collect();
        let preloaded: f64 = flows.iter().map(|&(_, v)| v).filter(|&v| v > 1e-9).sum();
        net.set_job_cap(j, step.jobs[j].0.max(preloaded));
        net.preload_job_split(j, flows);
    }
    totals.push(net.run_max_flow().to_bits());
    for (j, &(_, _, drain)) in step.jobs.iter().enumerate() {
        if drain {
            net.drain_job_to_cap(j, net.job_flow(j) / 2.0);
        }
    }
    totals.push(net.run_max_flow().to_bits());
    let (mut source_side, mut grow_jobs, mut grow_sites) = (Vec::new(), Vec::new(), Vec::new());
    net.source_side_jobs_into(&mut source_side);
    net.sink_reachability_into(&mut grow_jobs, &mut grow_sites);
    Observed {
        totals,
        job_flows: (0..step.jobs.len())
            .map(|j| net.job_flow(j).to_bits())
            .collect(),
        split: net
            .split_matrix()
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect(),
        source_side,
        grow_jobs,
        grow_sites,
    }
}

/// `(edges_visited, csr_rebuilds)` of a network so far.
fn work(net: &AllocationNetwork<f64>) -> (u64, u64) {
    (net.scratch().edges_visited(), net.scratch().csr_rebuilds())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn rebuilt_network_matches_a_fresh_one(steps in proptest::collection::vec(step(), 1..7)) {
        let mut reused = AllocationNetwork::default();
        for (k, step) in steps.iter().enumerate() {
            let before = work(&reused);
            reused.rebuild_sparse(&step.offsets, &step.entries, &step.capacities);
            let mut fresh = AllocationNetwork::new_sparse(&step.offsets, &step.entries, &step.capacities);
            let got = drive(&mut reused, step);
            let want = drive(&mut fresh, step);
            prop_assert_eq!(&got, &want, "step {} observables", k);
            let after = work(&reused);
            prop_assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                work(&fresh),
                "step {} work counters",
                k
            );
        }
    }
}
