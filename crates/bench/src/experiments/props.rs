//! E5 — fairness-property satisfaction rates; E6 — sharing-incentive
//! shortfall distribution.
//!
//! Abstract claims under test: AMF satisfies Pareto efficiency,
//! envy-freeness and strategy-proofness but *not necessarily* sharing
//! incentive; Enhanced AMF guarantees sharing incentive.

use crate::ExpContext;
use amf_audit::{envy_cert, pareto_cert, si_cert};
use amf_core::properties::probe_strategy_proofness;
use amf_core::{AllocationPolicy, AmfSolver, Instance, PerSiteMaxMin};
use amf_metrics::{fmt4, Table};
use amf_numeric::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Parameters for E5.
#[derive(Debug, Clone, Copy)]
pub struct PropertyParams {
    /// Random instances checked.
    pub trials: usize,
    /// Max jobs per instance.
    pub max_jobs: usize,
    /// Max sites per instance.
    pub max_sites: usize,
    /// Strategy-proofness probes per instance.
    pub probes_per_instance: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for PropertyParams {
    fn default() -> Self {
        PropertyParams {
            trials: 2000,
            max_jobs: 6,
            max_sites: 4,
            probes_per_instance: 2,
            seed: 7,
        }
    }
}

impl PropertyParams {
    /// Tiny configuration for smoke tests.
    pub fn fast() -> Self {
        PropertyParams {
            trials: 40,
            max_jobs: 4,
            max_sites: 3,
            probes_per_instance: 1,
            seed: 7,
        }
    }
}

fn random_instance(rng: &mut StdRng, max_jobs: usize, max_sites: usize) -> Instance<Rational> {
    let n = rng.gen_range(1..=max_jobs);
    let m = rng.gen_range(1..=max_sites);
    Instance::new(
        (0..m)
            .map(|_| Rational::from_int(rng.gen_range(0..12)))
            .collect(),
        (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| Rational::from_int(rng.gen_range(0..10)))
                    .collect()
            })
            .collect(),
    )
    .expect("random instance is valid")
}

#[derive(Default, Clone, Copy)]
struct Counts {
    pareto_ok: usize,
    envy_free_ok: usize,
    sharing_ok: usize,
    sp_violations: usize,
    sp_probes: usize,
}

impl Counts {
    fn merge(mut self, other: Counts) -> Counts {
        self.pareto_ok += other.pareto_ok;
        self.envy_free_ok += other.envy_free_ok;
        self.sharing_ok += other.sharing_ok;
        self.sp_violations += other.sp_violations;
        self.sp_probes += other.sp_probes;
        self
    }
}

/// E5: satisfaction rates of the four properties over random instances,
/// verified with exact rational arithmetic.
pub fn property_rates(ctx: &ExpContext, params: &PropertyParams) -> Table {
    ctx.log(&format!("[E5] property rates: {params:?}"));
    let policy_names = ["amf", "amf-enhanced", "per-site-max-min"];

    let per_policy: Vec<Counts> = (0..3)
        .into_par_iter()
        .map(|p| {
            let policy: Box<dyn AllocationPolicy<Rational>> = match p {
                0 => Box::new(AmfSolver::new()),
                1 => Box::new(AmfSolver::enhanced()),
                _ => Box::new(PerSiteMaxMin),
            };
            (0..params.trials)
                .into_par_iter()
                .map(|trial| {
                    let mut rng =
                        StdRng::seed_from_u64(params.seed ^ (trial as u64).wrapping_mul(0x9E37));
                    let inst = random_instance(&mut rng, params.max_jobs, params.max_sites);
                    let alloc = policy.allocate(&inst);
                    let mut c = Counts::default();
                    if pareto_cert(&inst, &alloc).is_proved() {
                        c.pareto_ok += 1;
                    }
                    if envy_cert(&inst, &alloc).is_proved() {
                        c.envy_free_ok += 1;
                    }
                    if si_cert(&inst, &alloc).is_proved() {
                        c.sharing_ok += 1;
                    }
                    for _ in 0..params.probes_per_instance {
                        let j = rng.gen_range(0..inst.n_jobs());
                        let lie: Vec<Rational> = (0..inst.n_sites())
                            .map(|s| {
                                inst.demand(j, s)
                                    * Rational::new(rng.gen_range(0..5), rng.gen_range(1..3))
                                    + Rational::from_int(rng.gen_range(0..3))
                            })
                            .collect();
                        let probe = probe_strategy_proofness(&inst, j, lie, policy.as_ref());
                        c.sp_probes += 1;
                        if probe.lie_helped() {
                            c.sp_violations += 1;
                        }
                    }
                    c
                })
                .reduce(Counts::default, Counts::merge)
        })
        .collect();

    let mut table = Table::new(
        "E5: property satisfaction over random instances (exact arithmetic)",
        &[
            "policy",
            "pareto",
            "envy_free",
            "sharing_incentive",
            "sp_violations",
        ],
    );
    for (name, c) in policy_names.iter().zip(&per_policy) {
        let rate = |k: usize| fmt4(k as f64 / params.trials as f64);
        table.row(vec![
            name.to_string(),
            rate(c.pareto_ok),
            rate(c.envy_free_ok),
            rate(c.sharing_ok),
            format!("{}/{}", c.sp_violations, c.sp_probes),
        ]);
    }
    ctx.emit("e5_property_rates", &table);
    table
}

/// Parameters for E6.
#[derive(Debug, Clone)]
pub struct SharingIncentiveParams {
    /// Demand-sparsity levels swept (probability a demand entry is zero —
    /// sparse demand patterns are where plain AMF's SI violations live;
    /// the dense, well-covered workloads of E1 produce none).
    pub sparsity_levels: Vec<f64>,
    /// Random instances per sparsity level.
    pub trials: usize,
    /// Max jobs per instance.
    pub max_jobs: usize,
    /// Max sites per instance.
    pub max_sites: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for SharingIncentiveParams {
    fn default() -> Self {
        SharingIncentiveParams {
            sparsity_levels: vec![0.0, 0.2, 0.4, 0.6, 0.8],
            trials: 2000,
            max_jobs: 6,
            max_sites: 4,
            seed: 11,
        }
    }
}

impl SharingIncentiveParams {
    /// Tiny configuration for smoke tests.
    pub fn fast() -> Self {
        SharingIncentiveParams {
            sparsity_levels: vec![0.2],
            trials: 60,
            max_jobs: 4,
            max_sites: 3,
            seed: 11,
        }
    }
}

/// E6: how often and by how much plain AMF drops a job below its equal
/// share, versus Enhanced AMF, as demand sparsity varies. Relative
/// shortfall is `(e_j - A_j) / e_j`.
pub fn sharing_incentive(ctx: &ExpContext, params: &SharingIncentiveParams) -> Table {
    ctx.log(&format!("[E6] sharing incentive shortfalls: {params:?}"));
    let mut table = Table::new(
        "E6: sharing-incentive shortfalls vs demand sparsity",
        &[
            "sparsity",
            "policy",
            "frac_jobs_below",
            "mean_rel_shortfall",
            "max_rel_shortfall",
        ],
    );
    for &sparsity in &params.sparsity_levels {
        for (name, solver) in [
            ("amf", AmfSolver::new()),
            ("amf-enhanced", AmfSolver::enhanced()),
        ] {
            let mut below = 0usize;
            let mut total_jobs = 0usize;
            let mut sum_rel = 0.0f64;
            let mut max_rel = 0.0f64;
            for trial in 0..params.trials {
                let mut rng =
                    StdRng::seed_from_u64(params.seed ^ (trial as u64).wrapping_mul(0x51_7C));
                let n = rng.gen_range(2..=params.max_jobs.max(2));
                let m = rng.gen_range(2..=params.max_sites.max(2));
                let inst: Instance<f64> = Instance::new(
                    (0..m).map(|_| rng.gen_range(1..12) as f64).collect(),
                    (0..n)
                        .map(|_| {
                            (0..m)
                                .map(|_| {
                                    if rng.gen_bool(sparsity) {
                                        0.0
                                    } else {
                                        rng.gen_range(1..10) as f64
                                    }
                                })
                                .collect()
                        })
                        .collect(),
                )
                .expect("valid instance");
                let alloc = solver.allocate(&inst);
                total_jobs += inst.n_jobs();
                for v in si_cert(&inst, &alloc)
                    .counterexample()
                    .into_iter()
                    .flatten()
                {
                    if v.shortfall > 1e-6 {
                        below += 1;
                        let rel = v.shortfall / v.equal_share;
                        sum_rel += rel;
                        max_rel = max_rel.max(rel);
                    }
                }
            }
            table.row(vec![
                format!("{sparsity:.1}"),
                name.to_owned(),
                fmt4(below as f64 / total_jobs as f64),
                fmt4(if below > 0 {
                    sum_rel / below as f64
                } else {
                    0.0
                }),
                fmt4(max_rel),
            ]);
        }
    }
    ctx.emit("e6_sharing_incentive", &table);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_metrics::ToCsv;

    /// The table's data rows, split into cells.
    fn rows(table: &Table) -> Vec<Vec<String>> {
        let csv = table.to_csv();
        let cells = |line: &str| line.split(',').map(str::to_owned).collect();
        csv.lines().skip(1).map(cells).collect()
    }

    #[test]
    fn e5_rates_match_paper_claims() {
        let params = PropertyParams::fast();
        let rows = rows(&property_rates(&ExpContext::silent(), &params));
        // AMF is Pareto efficient, envy-free and strategy-proof on every
        // instance and probe, but not always sharing-incentive; Enhanced
        // AMF restores SI and stays Pareto efficient.
        let (amf, enhanced) = (&rows[0], &rows[1]);
        assert_eq!(amf[..3], ["amf", "1.0000", "1.0000"], "{amf:?}");
        assert_ne!(amf[3], "1.0000", "plain AMF never failed SI: {amf:?}");
        assert_eq!(
            amf[4],
            format!("0/{}", params.trials * params.probes_per_instance)
        );
        assert_eq!(enhanced[..2], ["amf-enhanced", "1.0000"], "{enhanced:?}");
        assert_eq!(enhanced[3], "1.0000", "{enhanced:?}");
    }

    #[test]
    fn e6_enhanced_never_falls_below() {
        let params = SharingIncentiveParams::fast();
        let table = sharing_incentive(&ExpContext::silent(), &params);
        let rows = rows(&table);
        assert_eq!(rows.len(), params.sparsity_levels.len() * 2);
        for row in &rows {
            match row[1].as_str() {
                "amf-enhanced" => assert_eq!(row[2..], ["0.0000"; 3], "{row:?}"),
                "amf" => assert_ne!(row[2], "0.0000", "plain AMF shorted no job: {row:?}"),
                other => panic!("unexpected policy {other}"),
            }
        }
    }
}
