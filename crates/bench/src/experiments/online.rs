//! E7 — online simulation with Poisson arrivals across offered loads.

use crate::ExpContext;
use amf_core::{AllocationPolicy, AmfSolver, PerSiteMaxMin};
use amf_metrics::{fmt2, fmt4, percentile, Table};
use amf_sim::{simulate_many, SimConfig, SimReport, SplitStrategy};
use amf_workload::arrivals::{poisson_arrivals, rate_for_load};
use amf_workload::trace::Trace;
use amf_workload::{CapacityModel, DemandModel, SitePlacement, SiteSkew, SizeDist, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Parameters for E7.
#[derive(Debug, Clone)]
pub struct OnlineParams {
    /// Offered loads swept (fraction of total capacity).
    pub loads: Vec<f64>,
    /// Jobs per run.
    pub n_jobs: usize,
    /// Sites.
    pub n_sites: usize,
    /// Sites each job touches.
    pub sites_per_job: usize,
    /// Skew of the per-job site distribution.
    pub alpha: f64,
    /// Mean job work (task-seconds).
    pub mean_work: f64,
    /// Seeds averaged over.
    pub seeds: u64,
}

impl Default for OnlineParams {
    fn default() -> Self {
        OnlineParams {
            loads: vec![0.3, 0.5, 0.7, 0.9],
            n_jobs: 120,
            n_sites: 10,
            sites_per_job: 5,
            alpha: 1.2,
            mean_work: 800.0,
            seeds: 3,
        }
    }
}

impl OnlineParams {
    /// Tiny configuration for smoke tests.
    pub fn fast() -> Self {
        OnlineParams {
            loads: vec![0.5],
            n_jobs: 10,
            n_sites: 3,
            sites_per_job: 2,
            alpha: 1.2,
            mean_work: 200.0,
            seeds: 1,
        }
    }
}

/// The E7 trace of one `(load, seed)` cell: a Zipf-skewed elastic
/// workload with Poisson arrivals at offered load `rho`.
fn e7_trace(params: &OnlineParams, rho: f64, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31) + 17);
    let workload = WorkloadConfig {
        n_sites: params.n_sites,
        site_capacity: 100.0,
        capacity_model: CapacityModel::Uniform,
        n_jobs: params.n_jobs,
        sites_per_job: params.sites_per_job,
        total_work: SizeDist::Exponential {
            mean: params.mean_work,
        },
        total_parallelism: SizeDist::Constant { value: 30.0 },
        skew: SiteSkew::Zipf {
            alpha: params.alpha,
        },
        placement: SitePlacement::Popularity { gamma: 1.0 },
        demand_model: DemandModel::ElasticPerSite,
    }
    .generate(&mut rng);
    let total_capacity = 100.0 * params.n_sites as f64;
    let rate = rate_for_load(rho, total_capacity, params.mean_work);
    let arrivals = poisson_arrivals(params.n_jobs, rate, &mut rng);
    Trace::with_arrivals(&workload, &arrivals)
}

/// E7: mean and tail JCT under Poisson arrivals as offered load grows,
/// AMF (+ JCT add-on) vs the per-site baseline.
pub fn online_load(ctx: &ExpContext, params: &OnlineParams) -> Table {
    ctx.log(&format!("[E7] online load sweep: {params:?}"));
    type MakePolicy = fn() -> Box<dyn AllocationPolicy<f64>>;
    let contenders: Vec<(&'static str, MakePolicy, SimConfig)> = vec![
        (
            "amf+jct",
            || Box::new(AmfSolver::new()),
            SimConfig {
                split: SplitStrategy::BalancedProgress { repair_rounds: 4 },
                ..SimConfig::default()
            },
        ),
        (
            "per-site-max-min",
            || Box::new(PerSiteMaxMin),
            SimConfig {
                split: SplitStrategy::PolicySplit,
                ..SimConfig::default()
            },
        ),
    ];

    let rows: Vec<(f64, &'static str, f64, f64, f64)> = params
        .loads
        .par_iter()
        .flat_map_iter(|&rho| {
            let mut acc = vec![(0.0f64, 0.0f64, 0.0f64); contenders.len()];
            // Build every seed's trace up front, then fan the batch out to
            // worker threads (one pooled policy instance per worker).
            let traces: Vec<Trace> = (0..params.seeds)
                .map(|seed| e7_trace(params, rho, seed))
                .collect();
            for (c, (_, make_policy, config)) in contenders.iter().enumerate() {
                let reports: Vec<SimReport> = simulate_many(&traces, make_policy, config);
                for report in reports {
                    let jcts = report.jcts();
                    acc[c].0 += report.mean_jct();
                    acc[c].1 += percentile(&jcts, 95.0);
                    acc[c].2 += report.mean_utilization;
                }
            }
            contenders
                .iter()
                .enumerate()
                .map(|(c, (name, _, _))| {
                    let k = params.seeds as f64;
                    (rho, *name, acc[c].0 / k, acc[c].1 / k, acc[c].2 / k)
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let mut table = Table::new(
        "E7: online JCT vs offered load (Poisson arrivals)",
        &["load", "policy", "mean_jct", "p95_jct", "util"],
    );
    for (rho, name, mean, p95, util) in rows {
        table.row(vec![
            format!("{rho:.2}"),
            name.to_owned(),
            fmt2(mean),
            fmt2(p95),
            fmt4(util),
        ]);
    }
    ctx.emit("e7_online_load", &table);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_metrics::ToCsv;
    use amf_sim::simulate;

    #[test]
    fn e7_runs() {
        let table = online_load(&ExpContext::silent(), &OnlineParams::fast());
        assert_eq!(table.n_rows(), 2);
    }

    #[test]
    fn e7_amf_row_matches_sequential_simulate() {
        // The AMF arm fans seeds out over pooled solvers; its row must be
        // what one plain solver reports when run over each trace in turn.
        let params = OnlineParams {
            seeds: 3,
            ..OnlineParams::fast()
        };
        let table = online_load(&ExpContext::silent(), &params);
        let rho = params.loads[0];
        let config = SimConfig {
            split: SplitStrategy::BalancedProgress { repair_rounds: 4 },
            ..SimConfig::default()
        };
        let (mut mean, mut p95, mut util) = (0.0, 0.0, 0.0);
        for seed in 0..params.seeds {
            let report = simulate(&e7_trace(&params, rho, seed), &AmfSolver::new(), &config);
            assert!(report.all_finished(), "seed {seed}");
            mean += report.mean_jct();
            p95 += percentile(&report.jcts(), 95.0);
            util += report.mean_utilization;
        }
        let k = params.seeds as f64;
        let row = format!(
            "{rho:.2},amf+jct,{},{},{}",
            fmt2(mean / k),
            fmt2(p95 / k),
            fmt4(util / k)
        );
        let csv = table.to_csv();
        assert!(csv.lines().any(|line| line == row), "{row:?} not in\n{csv}");
    }
}
