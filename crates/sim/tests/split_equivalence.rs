//! Bit-exactness of the sparse balanced-progress split.
//!
//! [`balanced_progress_split`] walks each job's demand support; the dense
//! form below sweeps every site of every row, as the split did before the
//! sparse rewrite, and is kept verbatim as the oracle. Both must agree on
//! the bits of every entry, for inputs that include all-zero demand rows,
//! zero aggregates, finished portions (no remaining work but demand left),
//! heavy contention, and demands in `(0, 1e-9]` (in the split's support but
//! without an edge in the allocation network).

use amf_core::water_fill_weighted;
use amf_flow::AllocationNetwork;
use amf_numeric::Scalar;
use amf_sim::split::balanced_progress_split;
use proptest::prelude::*;

// ---- Oracle: the dense split, verbatim ----

fn dense_balanced_progress_split(
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

    // Step 1: per-job ideal split — weighted water-fill of A_j over sites,
    // weight = remaining work (so x ∝ r until a demand cap binds).
    let mut x: Vec<Vec<f64>> = vec![vec![0.0; m]; n];
    for j in 0..n {
        fill_job(&mut x[j], aggregates[j], &demands[j], &remaining[j]);
    }

    // Step 2: repair rounds — scale over-subscribed sites, re-fill deficits.
    for _ in 0..repair_rounds {
        let mut oversubscribed = false;
        for s in 0..m {
            let load: f64 = x.iter().map(|row| row[s]).sum();
            if load > capacities[s] && load > 0.0 {
                let scale = capacities[s] / load;
                for row in x.iter_mut() {
                    row[s] *= scale;
                }
                oversubscribed = true;
            }
        }
        if !oversubscribed {
            break;
        }
        // Re-fill each job's deficit onto residual caps, still weighted by
        // remaining work.
        for j in 0..n {
            let got: f64 = x[j].iter().sum();
            let deficit = aggregates[j] - got;
            if deficit > 1e-12 {
                let residual_caps: Vec<f64> =
                    (0..m).map(|s| (demands[j][s] - x[j][s]).max(0.0)).collect();
                let mut extra = vec![0.0; m];
                fill_job(
                    &mut extra,
                    deficit.min(sum_of(&residual_caps)),
                    &residual_caps,
                    &remaining[j],
                );
                for s in 0..m {
                    x[j][s] += extra[s];
                }
            }
        }
    }

    // Make strictly feasible before preloading (repair may have re-filled
    // past a capacity on the last round).
    for s in 0..m {
        let load: f64 = x.iter().map(|row| row[s]).sum();
        if load > capacities[s] && load > 0.0 {
            let scale = capacities[s] / load;
            for row in x.iter_mut() {
                row[s] *= scale;
            }
        }
    }
    // Clamp rounding residue above demand caps.
    for j in 0..n {
        for s in 0..m {
            x[j][s] = x[j][s].min(demands[j][s]);
        }
    }
    // Scale back rows whose preload total passes their aggregate.
    for j in 0..n {
        let total = x[j]
            .iter()
            .filter(|&&v| Scalar::is_positive(v))
            .fold(0.0, |t, &v| t + v);
        if total.definitely_gt(aggregates[j]) {
            for v in x[j].iter_mut() {
                *v *= aggregates[j] / total;
            }
        }
    }

    // Step 3: augment to restore the aggregates exactly.
    let mut net = AllocationNetwork::new(demands, capacities);
    for (j, &a) in aggregates.iter().enumerate() {
        net.set_job_cap(j, a);
    }
    net.preload_split(&x);
    let total = net.run_max_flow();
    let want: f64 = aggregates.iter().sum();
    assert!(
        (total - want).abs() <= 1e-6 * (1.0 + want),
        "aggregates infeasible: reached {total} of {want}"
    );
    net.split_matrix()
}

/// Weighted water-fill of `amount` over one job's sites: rate ∝ weight
/// until a cap binds. Sites with zero weight and zero cap get nothing.
fn fill_job(out: &mut [f64], amount: f64, caps: &[f64], weights: &[f64]) {
    if amount <= 0.0 {
        out.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    // Indices with usable capacity. Weights of finished portions are 0;
    // give them a negligible positive weight so stray demand can still
    // absorb allocation if the work-bearing sites cannot take it all.
    let idx: Vec<usize> = (0..caps.len()).filter(|&s| caps[s] > 0.0).collect();
    if idx.is_empty() {
        out.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let caps_v: Vec<f64> = idx.iter().map(|&s| caps[s]).collect();
    let weights_v: Vec<f64> = idx
        .iter()
        .map(|&s| if weights[s] > 0.0 { weights[s] } else { 1e-6 })
        .collect();
    let filled = water_fill_weighted(amount, &caps_v, &weights_v);
    out.iter_mut().for_each(|v| *v = 0.0);
    for (k, &s) in idx.iter().enumerate() {
        out[s] = filled[k];
    }
}

fn sum_of(v: &[f64]) -> f64 {
    v.iter().sum()
}

// ---- Inputs ----

/// One split call's inputs.
#[derive(Debug, Clone)]
struct Case {
    capacities: Vec<f64>,
    demands: Vec<Vec<f64>>,
    aggregates: Vec<f64>,
    remaining: Vec<Vec<f64>>,
    repair_rounds: usize,
}

/// A demand cell: `(kind, value, work)`. Kind 0 is no demand, 1 a demand
/// in `(0, 1e-9]`, 2..=3 a normal demand, 4 a normal demand whose portion
/// is finished (no remaining work).
type Cell = (u8, f64, f64);

fn cell_value((kind, value, work): Cell) -> (f64, f64) {
    match kind {
        0 => (0.0, 0.0),
        1 => (value * 1e-9, work),
        4 => (value * 20.0, 0.0),
        _ => (value * 20.0, work),
    }
}

/// Row sums of the feasible split that scales every over-subscribed site's
/// demands down to its capacity, so contended sites are exactly full.
fn proportional_aggregates(capacities: &[f64], demands: &[Vec<f64>]) -> Vec<f64> {
    let scale: Vec<f64> = capacities
        .iter()
        .enumerate()
        .map(|(s, &c)| {
            let load: f64 = demands.iter().map(|row| row[s]).sum();
            if load > c {
                c / load
            } else {
                1.0
            }
        })
        .collect();
    demands
        .iter()
        .map(|row| row.iter().zip(&scale).map(|(d, k)| d * k).sum())
        .collect()
}

/// Up to 40 jobs on up to 12 sites. Capacities are small next to the
/// demands (heavy contention) and sometimes zero; a row flag zeroes whole
/// demand rows; aggregates are those of a feasible proportional split,
/// scaled per job by 0, 1 or a random factor.
fn case() -> impl Strategy<Value = Case> {
    (1usize..13, 1usize..41).prop_flat_map(|(m, n)| {
        (
            proptest::collection::vec((0u8..6, 0.0f64..12.0), m),
            proptest::collection::vec(
                (
                    0u8..8,
                    0u8..3,
                    0.0f64..1.0,
                    proptest::collection::vec((0u8..5, 0.0f64..1.0, 0.5f64..50.0), m),
                ),
                n,
            ),
            0usize..7,
        )
            .prop_map(|(sites, jobs, repair_rounds)| {
                let capacities: Vec<f64> = sites
                    .iter()
                    .map(|&(kind, c)| if kind == 0 { 0.0 } else { c })
                    .collect();
                let mut demands = Vec::new();
                let mut remaining = Vec::new();
                let mut factors = Vec::new();
                for (row_kind, factor_kind, factor, cells) in jobs {
                    let (d, r): (Vec<f64>, Vec<f64>) = cells
                        .into_iter()
                        .map(|c| {
                            if row_kind == 0 {
                                (0.0, 0.0)
                            } else {
                                cell_value(c)
                            }
                        })
                        .unzip();
                    demands.push(d);
                    remaining.push(r);
                    factors.push(match factor_kind {
                        0 => 0.0,
                        1 => 1.0,
                        _ => factor,
                    });
                }
                let aggregates = proportional_aggregates(&capacities, &demands)
                    .iter()
                    .zip(&factors)
                    .map(|(a, f)| a * f)
                    .collect();
                Case {
                    capacities,
                    demands,
                    aggregates,
                    remaining,
                    repair_rounds,
                }
            })
    })
}

/// Run one split form, turning a panic into its message.
fn run(split: SplitFn, case: &Case) -> Result<Vec<Vec<f64>>, String> {
    std::panic::catch_unwind(|| {
        split(
            &case.capacities,
            &case.demands,
            &case.aggregates,
            &case.remaining,
            case.repair_rounds,
        )
    })
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

type SplitFn = fn(&[f64], &[Vec<f64>], &[f64], &[Vec<f64>], usize) -> Vec<Vec<f64>>;

/// The two forms return the same bits. Every generated case has feasible
/// aggregates, so neither form may panic.
fn assert_bit_identical(case: &Case) {
    let dense = run(dense_balanced_progress_split, case);
    let sparse = run(balanced_progress_split, case);
    let (dense, sparse) = match (dense, sparse) {
        (Ok(d), Ok(s)) => (d, s),
        (d, s) => panic!(
            "a form panicked on feasible aggregates: dense {:?}, sparse {:?} in {case:?}",
            d.err(),
            s.err()
        ),
    };
    assert_eq!(dense.len(), sparse.len(), "row count");
    for (j, (d, s)) in dense.iter().zip(&sparse).enumerate() {
        assert_eq!(d.len(), s.len(), "row {j} length");
        for (k, (a, b)) in d.iter().zip(s).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "entry [{j}][{k}]: dense {a:e} vs sparse {b:e} in {case:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    fn sparse_split_is_bit_identical_to_dense(case in case()) {
        assert_bit_identical(&case);
    }
}

#[test]
fn edge_cases_are_bit_identical() {
    let cases = [
        // All-zero demand row beside a contended one.
        Case {
            capacities: vec![2.0, 3.0],
            demands: vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![4.0, 1.0]],
            aggregates: vec![0.0, 2.5, 2.5],
            remaining: vec![vec![0.0, 0.0], vec![3.0, 1.0], vec![1.0, 9.0]],
            repair_rounds: 4,
        },
        // Sub-1e-9 demands next to real ones, and a finished portion.
        Case {
            capacities: vec![1.0, 1.0, 4.0],
            demands: vec![vec![1e-10, 2.0, 3.0], vec![5e-10, 0.0, 9.0]],
            aggregates: vec![2.0, 3.0],
            remaining: vec![vec![7.0, 0.0, 2.0], vec![1.0, 0.0, 3.0]],
            repair_rounds: 3,
        },
        // Zero repair rounds and zero aggregates everywhere.
        Case {
            capacities: vec![1.0],
            demands: vec![vec![1.0], vec![1.0]],
            aggregates: vec![0.0, 0.0],
            remaining: vec![vec![1.0], vec![1.0]],
            repair_rounds: 0,
        },
        // No jobs at all.
        Case {
            capacities: vec![1.0, 2.0],
            demands: vec![],
            aggregates: vec![],
            remaining: vec![],
            repair_rounds: 4,
        },
    ];
    for case in &cases {
        assert_bit_identical(case);
    }
}
