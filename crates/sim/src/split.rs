//! The JCT add-on: per-site split optimization under fixed aggregates.
//!
//! An AMF allocation pins each job's **aggregate** `A_j`, but the per-site
//! split realizing it is generally not unique. A job's completion time is
//! `max_s r[j][s] / x[j][s]` (its slowest portion), so for a fixed
//! aggregate the best split puts rate proportional to remaining work —
//! then all portions finish simultaneously. The paper proposes an add-on
//! that optimizes completion times under AMF; its exact procedure is
//! unavailable (abstract-only source, see DESIGN.md), so this module
//! implements the natural reconstruction with the same contract: **the
//! fair aggregates are preserved exactly**, only the split changes.
//!
//! Procedure ([`balanced_progress_split`]):
//! 1. *Ideal split*: fill each job's `A_j` over its sites with rates
//!    proportional to remaining work, respecting demand caps (a weighted
//!    water-fill with the remaining work as weights).
//! 2. *Repair*: scale down over-subscribed sites and re-fill each job's
//!    deficit onto sites with headroom, for a fixed number of rounds
//!    (Sinkhorn-style; the round count is an ablation knob).
//! 3. *Exactness*: load the (feasible) repaired split into the allocation
//!    network and augment — max-flow restores every aggregate to exactly
//!    `A_j`, which is possible because the aggregates came from a feasible
//!    allocation.

use amf_core::water_fill_weighted_into;
use amf_flow::{AllocationNetwork, FlowScratch};

/// How the engine splits aggregate allocations across sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Use the split the policy returned (AMF's is an arbitrary max-flow
    /// decomposition; PSMF's is already site-determined).
    #[default]
    PolicySplit,
    /// The JCT add-on: re-split each job's aggregate proportional to its
    /// remaining work per site.
    BalancedProgress {
        /// Repair rounds for site over-subscription (2–8 is plenty; the
        /// ablation bench sweeps this).
        repair_rounds: usize,
    },
}

/// Compute a work-proportional split of the given aggregates.
///
/// * `capacities[s]` — site capacities;
/// * `demands[j][s]` — current demand caps (0 where the portion is done);
/// * `aggregates[j]` — the fair aggregate to preserve for each job;
/// * `remaining[j][s]` — remaining work per site;
/// * `repair_rounds` — over-subscription repair iterations.
///
/// Returns a feasible split whose row sums equal `aggregates` (up to f64
/// tolerance).
///
/// Each job's rate can only be nonzero where its demand is, so the fill
/// and repair steps run over each job's *demand support* (the sites with
/// `d > 0`, read once per call) with buffers shared by every job, and
/// never touch the rest of the `n × m` matrix. Only exact zeros are
/// skipped, so every entry has the bits a dense sweep over all sites
/// would give (`tests/split_equivalence.rs` holds that dense form as an
/// oracle). Demands in `(0, 1e-9]` belong to the support even though the
/// allocation network of step 3 has no edge for them.
///
/// # Panics
/// Panics if the aggregates are infeasible for `(capacities, demands)` —
/// they must come from a feasible allocation.
pub fn balanced_progress_split(
    capacities: &[f64],
    demands: &[Vec<f64>],
    aggregates: &[f64],
    remaining: &[Vec<f64>],
    repair_rounds: usize,
) -> Vec<Vec<f64>> {
    let n = demands.len();
    let m = capacities.len();
    assert_eq!(aggregates.len(), n, "aggregate count mismatch");
    assert_eq!(remaining.len(), n, "remaining-work count mismatch");

    // Job j's support entries are `start[j]..start[j + 1]`: the site and
    // its demand cap, the fill weight, and the rate `x` (zero off
    // support). Finished portions (remaining work 0) get a negligible
    // positive weight so stray demand can still absorb allocation if the
    // work-bearing sites cannot take it all.
    let mut start = Vec::with_capacity(n + 1);
    let mut support = Vec::new();
    let mut weight = Vec::new();
    start.push(0);
    for (j, (row, work)) in demands.iter().zip(remaining).enumerate() {
        assert_eq!(row.len(), m, "demand row length != site count");
        for (s, &d) in row.iter().enumerate() {
            assert!(!(d < 0.0), "negative demand d[{j}][{s}]");
            if d > 0.0 {
                support.push((s, d));
                weight.push(if work[s] > 0.0 { work[s] } else { 1e-6 });
            }
        }
        start.push(support.len());
    }
    let mut x = vec![0.0; support.len()];
    let mut fill = Fill::default();

    // Step 1: per-job ideal split — weighted water-fill of A_j over sites,
    // weight = remaining work (so x ∝ r until a demand cap binds).
    for (j, &a) in aggregates.iter().enumerate() {
        let e = start[j]..start[j + 1];
        fill.gather(
            support[e.clone()].iter().map(|&(_, d)| d),
            &weight[e.clone()],
        );
        fill.add(a, &mut x[e]);
    }

    // Step 2: repair rounds — scale over-subscribed sites, re-fill deficits.
    let mut load = vec![0.0; m];
    let mut scale = vec![1.0; m];
    for _ in 0..repair_rounds {
        if !scale_oversubscribed(capacities, &support, &mut x, &mut load, &mut scale) {
            break;
        }
        // Re-fill each job's deficit onto residual caps, still weighted by
        // remaining work.
        for (j, &a) in aggregates.iter().enumerate() {
            let e = start[j]..start[j + 1];
            let got: f64 = x[e.clone()].iter().sum();
            let deficit = a - got;
            if deficit > 1e-12 {
                let residual = support[e.clone()]
                    .iter()
                    .zip(&x[e.clone()])
                    .map(|(&(_, d), &v)| (d - v).max(0.0));
                let headroom = fill.gather(residual, &weight[e.clone()]);
                fill.add(deficit.min(headroom), &mut x[e]);
            }
        }
    }

    // Make strictly feasible before preloading (repair may have re-filled
    // past a capacity on the last round).
    scale_oversubscribed(capacities, &support, &mut x, &mut load, &mut scale);
    // Clamp rounding residue above demand caps.
    for (v, &(_, d)) in x.iter_mut().zip(&support) {
        *v = v.min(d);
    }

    // Step 3: augment to restore the aggregates exactly. The network keeps
    // only the demands above the `1e-9` tolerance; the rates the support
    // holds beyond them are at most that small and are not preloaded.
    let mut net = AllocationNetwork::new_sparse_with_scratch(
        &start,
        &support,
        capacities,
        FlowScratch::new(),
    );
    for (j, &a) in aggregates.iter().enumerate() {
        net.set_job_cap(j, a);
    }
    for j in 0..n {
        let e = start[j]..start[j + 1];
        let rates = support[e.clone()].iter().zip(&x[e]);
        net.preload_job_split(j, rates.map(|(&(s, _), &v)| (s, v)));
    }
    let total = net.run_max_flow();
    let want: f64 = aggregates.iter().sum();
    assert!(
        (total - want).abs() <= 1e-6 * (1.0 + want),
        "aggregates infeasible: reached {total} of {want}"
    );
    net.split_matrix()
}

/// Scale every over-subscribed site's rates down to its capacity. Site
/// loads add the jobs in ascending order, as a dense column sum would.
/// Returns whether any site was over-subscribed.
fn scale_oversubscribed(
    capacities: &[f64],
    support: &[(usize, f64)],
    x: &mut [f64],
    load: &mut [f64],
    scale: &mut [f64],
) -> bool {
    load.fill(0.0);
    for (&(s, _), &v) in support.iter().zip(x.iter()) {
        load[s] += v;
    }
    let mut oversubscribed = false;
    for ((sc, &l), &c) in scale.iter_mut().zip(load.iter()).zip(capacities) {
        *sc = 1.0;
        if l > c && l > 0.0 {
            *sc = c / l;
            oversubscribed = true;
        }
    }
    if oversubscribed {
        for (&(s, _), v) in support.iter().zip(x.iter_mut()) {
            *v *= scale[s];
        }
    }
    oversubscribed
}

/// One job's weighted water-fill over the entries of its support with
/// positive cap, in buffers reused by every fill of a call: rate ∝ weight
/// until a cap binds; entries with zero cap get nothing.
#[derive(Default)]
struct Fill {
    /// Support positions (within the job) that take part in the fill.
    idx: Vec<usize>,
    caps: Vec<f64>,
    weights: Vec<f64>,
    filled: Vec<f64>,
    events: Vec<(f64, f64)>,
}

impl Fill {
    /// Collect the job's entries with a positive cap and return their cap
    /// total (summed in site order; the zeros skipped never change it).
    fn gather(&mut self, caps: impl Iterator<Item = f64>, weights: &[f64]) -> f64 {
        self.idx.clear();
        self.caps.clear();
        self.weights.clear();
        let mut total = 0.0;
        for (k, (c, &w)) in caps.zip(weights).enumerate() {
            if c > 0.0 {
                self.idx.push(k);
                self.caps.push(c);
                self.weights.push(w);
                total += c;
            }
        }
        total
    }

    /// Water-fill `amount` over the gathered entries and add the rates onto
    /// the job's entries of `x`. A non-positive amount fills nothing.
    fn add(&mut self, amount: f64, x: &mut [f64]) {
        if amount <= 0.0 {
            return;
        }
        self.filled.clear();
        self.filled.resize(self.idx.len(), 0.0);
        water_fill_weighted_into(
            amount,
            &self.caps,
            &self.weights,
            &mut self.filled,
            &mut self.events,
        );
        for (&k, &v) in self.idx.iter().zip(&self.filled) {
            x[k] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_split_is_work_proportional() {
        // One job, A = 6, remaining (2, 1) → split (4, 2): both portions
        // finish at the same instant.
        let x = balanced_progress_split(
            &[10.0, 10.0],
            &[vec![10.0, 10.0]],
            &[6.0],
            &[vec![2.0, 1.0]],
            4,
        );
        assert!((x[0][0] - 4.0).abs() < 1e-9);
        assert!((x[0][1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn demand_caps_bind() {
        // Proportional wants (4, 2) but site-0 demand cap is 3: the
        // overflow moves to site 1.
        let x = balanced_progress_split(
            &[10.0, 10.0],
            &[vec![3.0, 10.0]],
            &[6.0],
            &[vec![2.0, 1.0]],
            4,
        );
        assert!((x[0][0] - 3.0).abs() < 1e-9);
        assert!((x[0][1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn aggregates_preserved_under_contention() {
        // Two jobs pile onto site 0; the repair + augment phases must keep
        // both aggregates intact.
        let capacities = [4.0, 4.0];
        let demands = vec![vec![4.0, 4.0], vec![4.0, 4.0]];
        let aggregates = [4.0, 4.0];
        let remaining = vec![vec![10.0, 1.0], vec![10.0, 1.0]];
        let x = balanced_progress_split(&capacities, &demands, &aggregates, &remaining, 4);
        for (j, row) in x.iter().enumerate() {
            let total: f64 = row.iter().sum();
            assert!(
                (total - aggregates[j]).abs() < 1e-6,
                "job {j} aggregate drifted: {total}"
            );
        }
        for s in 0..2 {
            let load: f64 = x.iter().map(|row| row[s]).sum();
            assert!(load <= capacities[s] + 1e-6);
        }
    }

    #[test]
    fn balanced_beats_arbitrary_split_on_finish_time() {
        // Job with work (9, 1) and aggregate 5. Balanced: rates (4.5, 0.5)
        // → finish at 2.0. A lopsided split like (2.5, 2.5) finishes at
        // 9/2.5 = 3.6.
        let x = balanced_progress_split(
            &[10.0, 10.0],
            &[vec![10.0, 10.0]],
            &[5.0],
            &[vec![9.0, 1.0]],
            4,
        );
        let finish = (9.0 / x[0][0]).max(1.0 / x[0][1]);
        assert!((finish - 2.0).abs() < 1e-6, "finish {finish}");
    }

    #[test]
    fn zero_aggregate_job() {
        let x = balanced_progress_split(
            &[5.0],
            &[vec![5.0], vec![5.0]],
            &[0.0, 5.0],
            &[vec![1.0], vec![1.0]],
            2,
        );
        assert_eq!(x[0][0], 0.0);
        assert!((x[1][0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn finished_portion_attracts_no_rate_when_work_elsewhere() {
        // Site 0's portion is done (remaining 0) but demand lingers; the
        // split should put (almost) everything on site 1 where work is.
        let x = balanced_progress_split(
            &[10.0, 10.0],
            &[vec![5.0, 5.0]],
            &[5.0],
            &[vec![0.0, 3.0]],
            2,
        );
        assert!(x[0][1] > 4.9, "work-bearing site starved: {:?}", x[0]);
    }

    #[test]
    #[should_panic(expected = "aggregates infeasible")]
    fn infeasible_aggregates_rejected() {
        balanced_progress_split(&[1.0], &[vec![1.0]], &[5.0], &[vec![1.0]], 2);
    }
}
