#![allow(clippy::needless_range_loop)]

//! Property-based integration tests on exact rational instances: the
//! flow-based solver against brute force, and the paper's properties.

use amf::audit::{envy_cert, pareto_cert, si_cert};
use amf::core::properties::leximin_cmp;
use amf::core::PerSiteMaxMin;
use amf::core::{reference_aggregates, AllocationPolicy, AmfSolver, FairnessMode, Instance};
use amf::numeric::Rational;
use proptest::prelude::*;

fn small_exact_instance() -> impl Strategy<Value = Instance<Rational>> {
    (1usize..5, 1usize..4).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(0i64..12, m),
            proptest::collection::vec(proptest::collection::vec(0i64..10, m), n),
        )
            .prop_map(|(caps, demands)| {
                Instance::new(
                    caps.into_iter()
                        .map(|v| Rational::from_int(v as i128))
                        .collect(),
                    demands
                        .into_iter()
                        .map(|row| {
                            row.into_iter()
                                .map(|v| Rational::from_int(v as i128))
                                .collect()
                        })
                        .collect(),
                )
                .expect("valid instance")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flow solver reproduces the brute-force max-min vector exactly.
    #[test]
    fn flow_solver_matches_reference(inst in small_exact_instance()) {
        for mode in [FairnessMode::Plain, FairnessMode::Enhanced] {
            let solver = match mode {
                FairnessMode::Plain => AmfSolver::new(),
                FairnessMode::Enhanced => AmfSolver::enhanced(),
            };
            let got = solver.solve(&inst);
            let want = reference_aggregates(&inst, mode);
            for j in 0..inst.n_jobs() {
                prop_assert_eq!(got.allocation.aggregate(j), want[j]);
            }
        }
    }

    /// Pareto efficiency and envy-freeness hold on every instance (the
    /// paper's positive results), exactly.
    #[test]
    fn amf_properties_hold_exactly(inst in small_exact_instance()) {
        let alloc = AmfSolver::new().allocate(&inst);
        prop_assert!(alloc.is_feasible(&inst));
        prop_assert!(pareto_cert(&inst, &alloc).is_proved());
        prop_assert!(envy_cert(&inst, &alloc).is_proved());
    }

    /// Enhanced AMF always satisfies sharing incentive (the paper's fix),
    /// and stays Pareto efficient.
    #[test]
    fn enhanced_amf_guarantees_sharing_incentive(inst in small_exact_instance()) {
        let alloc = AmfSolver::enhanced().allocate(&inst);
        prop_assert!(alloc.is_feasible(&inst));
        prop_assert!(si_cert(&inst, &alloc).is_proved());
        prop_assert!(pareto_cert(&inst, &alloc).is_proved());
    }

    /// The aggregate vector is monotone under capacity growth: adding
    /// capacity never shrinks the sorted allocation vector (a polymatroid
    /// max-min sanity property).
    #[test]
    fn capacity_growth_never_hurts_the_minimum(inst in small_exact_instance()) {
        let alloc = AmfSolver::new().allocate(&inst);
        let min_before = alloc.aggregates().iter().min().copied();
        let grown = Instance::new(
            inst.capacities().iter().map(|&c| c + Rational::from_int(1)).collect(),
            inst.demands().to_vec(),
        ).unwrap();
        let after = AmfSolver::new().allocate(&grown);
        let min_after = after.aggregates().iter().min().copied();
        prop_assert!(min_after >= min_before);
    }

    /// Leximin optimality — the *definition* of AMF: its aggregate vector
    /// is leximin-greatest among feasible vectors. Checked against every
    /// baseline's (feasible) aggregate vector and against random feasible
    /// perturbations.
    #[test]
    fn amf_is_leximin_greatest(inst in small_exact_instance(), seed in 0u64..1000) {
        use amf::core::{AllocationPolicy, EqualDivision, ProportionalToDemand};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let amf = AmfSolver::new().allocate(&inst);
        for alt in [
            PerSiteMaxMin.allocate(&inst),
            EqualDivision.allocate(&inst),
            ProportionalToDemand.allocate(&inst),
        ] {
            prop_assert!(
                leximin_cmp(amf.aggregates(), alt.aggregates()) != std::cmp::Ordering::Less
            );
        }
        // A random feasible allocation: random split scaled into capacity.
        let mut rng = StdRng::seed_from_u64(seed);
        let m = inst.n_sites();
        let mut split: Vec<Vec<Rational>> = (0..inst.n_jobs())
            .map(|j| (0..m).map(|s| {
                inst.demand(j, s) * Rational::new(rng.gen_range(0..4), 4)
            }).collect())
            .collect();
        for s in 0..m {
            let used: Rational = split.iter().map(|row| row[s]).sum();
            if used > inst.capacity(s) {
                // Scale the column down to fit.
                let scale = inst.capacity(s) / used;
                for row in split.iter_mut() {
                    row[s] *= scale;
                }
            }
        }
        let random_alloc = amf::core::Allocation::from_split(split);
        prop_assert!(random_alloc.is_feasible(&inst));
        prop_assert!(
            leximin_cmp(amf.aggregates(), random_alloc.aggregates())
                != std::cmp::Ordering::Less
        );
    }

    /// Positive homogeneity: AMF(k·I) = k·AMF(I) — the property that
    /// makes `Instance::normalized` sound.
    #[test]
    fn amf_is_positively_homogeneous(inst in small_exact_instance(), k_num in 1i64..7, k_den in 1i64..7) {
        let k = Rational::new(k_num as i128, k_den as i128);
        let scaled = Instance::new(
            inst.capacities().iter().map(|&c| c * k).collect(),
            inst.demands()
                .iter()
                .map(|row| row.iter().map(|&d| d * k).collect())
                .collect(),
        ).unwrap();
        let base = AmfSolver::new().allocate(&inst);
        let big = AmfSolver::new().allocate(&scaled);
        for j in 0..inst.n_jobs() {
            prop_assert_eq!(big.aggregate(j), base.aggregate(j) * k);
        }
    }

    /// The f64 solver tracks the exact solver closely.
    #[test]
    fn f64_solver_tracks_exact(inst in small_exact_instance()) {
        let exact = AmfSolver::new().allocate(&inst);
        let approx = AmfSolver::new().allocate(&inst.map(|v| v.to_f64()));
        for j in 0..inst.n_jobs() {
            let d = (exact.aggregate(j).to_f64() - approx.aggregate(j)).abs();
            prop_assert!(d < 1e-6, "job {}: deviation {}", j, d);
        }
    }
}
