//! The paper's qualitative claims, asserted end-to-end. These are the
//! "shape" checks from EXPERIMENTS.md: who wins, and where it matters.

use amf::audit::{envy_cert, pareto_cert, si_cert};
use amf::core::{AllocationPolicy, AmfSolver, Instance, PerSiteMaxMin};
use amf::metrics::jain_index;
use amf::numeric::Rational;
use amf::sim::{simulate, SimConfig, SplitStrategy};
use amf::workload::trace::Trace;
use amf::workload::{
    CapacityModel, DemandModel, SitePlacement, SiteSkew, SizeDist, WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload(alpha: f64, seed: u64, demand_model: DemandModel) -> amf::workload::Workload {
    WorkloadConfig {
        n_sites: 8,
        site_capacity: 100.0,
        capacity_model: CapacityModel::Uniform,
        n_jobs: 40,
        sites_per_job: 4,
        total_work: SizeDist::Exponential { mean: 900.0 },
        total_parallelism: SizeDist::Constant { value: 30.0 },
        skew: SiteSkew::Zipf { alpha },
        placement: SitePlacement::Popularity { gamma: 1.0 },
        demand_model,
    }
    .generate(&mut StdRng::seed_from_u64(seed))
}

/// Demand caps track work shares: the static-balance regime (E1/E2/E6).
fn skewed(alpha: f64, seed: u64) -> amf::workload::Workload {
    workload(alpha, seed, DemandModel::ProportionalToWork)
}

/// Elastic demand caps: the completion-time regime (E3/E4/E7).
fn elastic(alpha: f64, seed: u64) -> amf::workload::Workload {
    workload(alpha, seed, DemandModel::ElasticPerSite)
}

/// Claim: AMF balances aggregate allocations better than per-site max-min,
/// particularly under skew (abstract, evaluated in E1).
#[test]
fn amf_balances_better_than_psmf_under_skew() {
    let seeds = 5;
    let mut amf_jain = 0.0;
    let mut psmf_jain = 0.0;
    for seed in 0..seeds {
        let inst = skewed(1.6, seed).instance();
        amf_jain += jain_index(AmfSolver::new().allocate(&inst).aggregates());
        psmf_jain += jain_index(PerSiteMaxMin.allocate(&inst).aggregates());
    }
    assert!(
        amf_jain > psmf_jain + 0.02 * seeds as f64,
        "AMF {amf_jain} vs PSMF {psmf_jain} (sum over {seeds} seeds)"
    );
}

/// Claim: the skew dependence — the AMF advantage grows with α (E1).
#[test]
fn amf_advantage_grows_with_skew() {
    let gap = |alpha: f64| -> f64 {
        let mut g = 0.0;
        for seed in 0..5 {
            let inst = skewed(alpha, seed).instance();
            g += jain_index(AmfSolver::new().allocate(&inst).aggregates())
                - jain_index(PerSiteMaxMin.allocate(&inst).aggregates());
        }
        g
    };
    let low = gap(0.0);
    let high = gap(2.0);
    assert!(
        high > low,
        "advantage should grow with skew: gap(0)={low} gap(2)={high}"
    );
}

/// Claim: AMF (with the JCT add-on) improves completion times over the
/// per-site baseline on skewed batches (E3).
#[test]
fn amf_with_addon_beats_psmf_jct_under_skew() {
    let mut amf_jct = 0.0;
    let mut psmf_jct = 0.0;
    for seed in 0..3 {
        let trace = Trace::batch(&elastic(1.6, seed));
        amf_jct += simulate(
            &trace,
            &AmfSolver::new(),
            &SimConfig {
                split: SplitStrategy::BalancedProgress { repair_rounds: 4 },
                ..SimConfig::default()
            },
        )
        .mean_jct();
        psmf_jct += simulate(&trace, &PerSiteMaxMin, &SimConfig::default()).mean_jct();
    }
    assert!(
        amf_jct < psmf_jct,
        "AMF+addon mean JCT {amf_jct} should beat PSMF {psmf_jct}"
    );
}

/// Claim: AMF is Pareto efficient and envy-free but does NOT always
/// satisfy sharing incentive; Enhanced AMF does (abstract, E5/E6).
#[test]
fn property_claims_on_the_canonical_counterexample() {
    let ri = Rational::from_int;
    // Job A spreads (5,5); job B is pinned to site 1 with demand 10.
    let inst = Instance::new(
        vec![ri(10), ri(10)],
        vec![vec![ri(5), ri(5)], vec![ri(0), ri(10)]],
    )
    .unwrap();
    let amf = AmfSolver::new().allocate(&inst);
    assert!(pareto_cert(&inst, &amf).is_proved());
    assert!(envy_cert(&inst, &amf).is_proved());
    assert!(
        si_cert(&inst, &amf).is_violated(),
        "plain AMF must violate SI here"
    );
    let enhanced = AmfSolver::enhanced().allocate(&inst);
    assert!(si_cert(&inst, &enhanced).is_proved());
    assert!(pareto_cert(&inst, &enhanced).is_proved());
}

/// Claim: Enhanced AMF never drops any job below its equal share, on any
/// generated workload (E6).
#[test]
fn enhanced_amf_sharing_incentive_holds_broadly() {
    for seed in 0..4 {
        for alpha in [0.0, 1.0, 2.0] {
            let inst = skewed(alpha, seed).instance();
            let alloc = AmfSolver::enhanced().allocate(&inst);
            assert!(
                si_cert(&inst, &alloc).is_proved(),
                "enhanced AMF violated SI at alpha={alpha} seed={seed}"
            );
        }
    }
}

/// Claim: the JCT add-on never hurts versus plain AMF splits on average
/// (it only re-splits within the same fair aggregates).
#[test]
fn jct_addon_does_not_hurt_mean_jct() {
    let mut plain = 0.0;
    let mut addon = 0.0;
    for seed in 0..3 {
        let trace = Trace::batch(&elastic(1.2, seed));
        plain += simulate(&trace, &AmfSolver::new(), &SimConfig::default()).mean_jct();
        addon += simulate(
            &trace,
            &AmfSolver::new(),
            &SimConfig {
                split: SplitStrategy::BalancedProgress { repair_rounds: 4 },
                ..SimConfig::default()
            },
        )
        .mean_jct();
    }
    assert!(
        addon <= plain * 1.02,
        "add-on should not hurt: addon {addon} vs plain {plain}"
    );
}
