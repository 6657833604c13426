use super::*;
use amf_numeric::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn r(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

fn ri(n: i128) -> Rational {
    Rational::from_int(n)
}

fn random_rational_instance(rng: &mut StdRng) -> Instance<Rational> {
    let n = rng.gen_range(1..7usize);
    let m = rng.gen_range(1..5usize);
    Instance::new(
        (0..m).map(|_| ri(rng.gen_range(0..12))).collect(),
        (0..n)
            .map(|_| (0..m).map(|_| ri(rng.gen_range(0..10))).collect())
            .collect(),
    )
    .unwrap()
}

#[test]
fn empty_instance() {
    let inst = Instance::<f64>::new(vec![5.0], vec![]).unwrap();
    let out = AmfSolver::new().solve(&inst);
    assert_eq!(out.allocation.n_jobs(), 0);
}

#[test]
fn single_site_matches_water_filling() {
    // AMF on one site must equal conventional max-min fairness.
    let inst = Instance::new(vec![7.0], vec![vec![1.0], vec![10.0], vec![10.0]]).unwrap();
    let out = AmfSolver::new().solve(&inst);
    let a = out.allocation.aggregates();
    assert!((a[0] - 1.0).abs() < 1e-9);
    assert!((a[1] - 3.0).abs() < 1e-9);
    assert!((a[2] - 3.0).abs() < 1e-9);
}

#[test]
fn aggregate_fairness_across_sites() {
    // The motivating example: job 0 is locked to site 0, job 1 can use
    // both. Per-site fairness would give job 1 an aggregate of 3+2=5
    // and job 0 only 3; AMF equalizes at 4/4.
    let inst = Instance::new(vec![6.0, 2.0], vec![vec![6.0, 0.0], vec![6.0, 2.0]]).unwrap();
    let out = AmfSolver::new().solve(&inst);
    assert!((out.allocation.aggregate(0) - 4.0).abs() < 1e-9);
    assert!((out.allocation.aggregate(1) - 4.0).abs() < 1e-9);
    assert!(out.allocation.is_feasible(&inst));
}

#[test]
fn exact_rational_three_jobs_share_one_site() {
    let inst = Instance::new(vec![ri(7)], vec![vec![ri(7)], vec![ri(7)], vec![ri(7)]]).unwrap();
    let out = AmfSolver::new().solve(&inst);
    for j in 0..3 {
        assert_eq!(out.allocation.aggregate(j), r(7, 3));
    }
}

#[test]
fn demand_capped_job_frees_capacity() {
    // Job 0 demands only 1; jobs 1,2 split the rest.
    let inst = Instance::new(vec![ri(10)], vec![vec![ri(1)], vec![ri(10)], vec![ri(10)]]).unwrap();
    let out = AmfSolver::new().solve(&inst);
    assert_eq!(out.allocation.aggregate(0), ri(1));
    assert_eq!(out.allocation.aggregate(1), r(9, 2));
    assert_eq!(out.allocation.aggregate(2), r(9, 2));
}

#[test]
fn multi_level_freezing() {
    // Three bottleneck levels: job 0 stuck at a tiny site, job 1 at a
    // medium one, job 2 rich.
    let inst = Instance::new(
        vec![ri(1), ri(4), ri(100)],
        vec![
            vec![ri(50), ri(0), ri(0)],
            vec![ri(0), ri(50), ri(0)],
            vec![ri(0), ri(0), ri(50)],
        ],
    )
    .unwrap();
    let out = AmfSolver::new().solve(&inst);
    assert_eq!(out.allocation.aggregate(0), ri(1));
    assert_eq!(out.allocation.aggregate(1), ri(4));
    assert_eq!(out.allocation.aggregate(2), ri(50));
    assert!(out.stats.rounds >= 2);
}

#[test]
fn shared_bottleneck_splits_equally() {
    // Jobs 0 and 1 share a site of capacity 2; job 1 also reaches a
    // second site. AMF: raise both; job 0 freezes when site 0 is
    // exhausted *after* job 1 has shifted its usage away.
    let inst = Instance::new(
        vec![ri(2), ri(3)],
        vec![vec![ri(2), ri(0)], vec![ri(2), ri(3)]],
    )
    .unwrap();
    let out = AmfSolver::new().solve(&inst);
    // Feasible aggregates: f({0}) = 2, f({0,1}) = 2 + 3 = 5.
    // Water level: t=2 needs 4 total <= f = 5 ok and f({0}) = 2 -> job0
    // freezes at 2; then job 1 grows to 5 - 2 = 3.
    assert_eq!(out.allocation.aggregate(0), ri(2));
    assert_eq!(out.allocation.aggregate(1), ri(3));
}

#[test]
fn weighted_amf_respects_weights() {
    let inst = Instance::weighted(
        vec![ri(4)],
        vec![vec![ri(10)], vec![ri(10)]],
        vec![ri(1), ri(3)],
    )
    .unwrap();
    let out = AmfSolver::new().solve(&inst);
    assert_eq!(out.allocation.aggregate(0), ri(1));
    assert_eq!(out.allocation.aggregate(1), ri(3));
}

#[test]
fn enhanced_mode_guarantees_equal_share() {
    let inst = Instance::new(
        vec![ri(6), ri(6)],
        vec![vec![ri(6), ri(0)], vec![ri(6), ri(6)], vec![ri(6), ri(6)]],
    )
    .unwrap();
    let out = AmfSolver::enhanced().solve(&inst);
    for j in 0..3 {
        assert!(
            out.allocation.aggregate(j) >= inst.equal_share(j),
            "job {j} below its equal share"
        );
    }
    assert!(out.allocation.is_feasible(&inst));
}

#[test]
fn f64_and_rational_agree() {
    let inst_q = Instance::new(
        vec![ri(5), ri(9), ri(2)],
        vec![
            vec![ri(3), ri(1), ri(2)],
            vec![ri(4), ri(9), ri(0)],
            vec![ri(0), ri(5), ri(2)],
            vec![ri(2), ri(2), ri(2)],
        ],
    )
    .unwrap();
    let inst_f = inst_q.map(|v| v.to_f64());
    let out_q = AmfSolver::new().solve(&inst_q);
    let out_f = AmfSolver::new().solve(&inst_f);
    for j in 0..4 {
        let exact = out_q.allocation.aggregate(j).to_f64();
        let approx = out_f.allocation.aggregate(j);
        assert!(
            (exact - approx).abs() < 1e-6,
            "job {j}: exact {exact} vs f64 {approx}"
        );
    }
}

#[test]
fn total_is_maximal() {
    // AMF is Pareto efficient, so the total allocation equals the rank
    // of the full job set.
    let inst = Instance::new(
        vec![ri(5), ri(3)],
        vec![vec![ri(2), ri(3)], vec![ri(4), ri(0)], vec![ri(1), ri(1)]],
    )
    .unwrap();
    let out = AmfSolver::new().solve(&inst);
    let all = vec![true; 3];
    assert_eq!(out.allocation.total(), inst.rank(&all));
}

#[test]
fn freeze_rounds_explain_the_allocation() {
    // Job 0 stuck at a tiny site (bottlenecked early), job 1 demand-
    // capped on a huge one.
    let inst = Instance::new(
        vec![ri(1), ri(100)],
        vec![vec![ri(50), ri(0)], vec![ri(0), ri(8)]],
    )
    .unwrap();
    let out = AmfSolver::new().solve(&inst);
    assert_eq!(out.rounds.len(), 2);
    // Round 1: level 1 — job 0 bottlenecked at the 1-slot site.
    assert_eq!(out.rounds[0].level, ri(1));
    assert_eq!(out.rounds[0].frozen, vec![(0, FreezeReason::Bottlenecked)]);
    // Round 2: level 8 — job 1 hits its total demand.
    assert_eq!(out.rounds[1].level, ri(8));
    assert_eq!(out.rounds[1].frozen, vec![(1, FreezeReason::DemandCapped)]);
    // Levels are nondecreasing and every job appears exactly once.
    let mut seen = std::collections::HashSet::new();
    for w in out.rounds.windows(2) {
        assert!(w[0].level <= w[1].level);
    }
    for round in &out.rounds {
        for (j, _) in &round.frozen {
            assert!(seen.insert(*j), "job {j} frozen twice");
        }
    }
    assert_eq!(seen.len(), 2);
}

#[test]
fn stats_are_populated() {
    let inst = Instance::new(vec![4.0], vec![vec![4.0], vec![4.0]]).unwrap();
    let out = AmfSolver::new().solve(&inst);
    assert!(out.stats.rounds >= 1);
    assert!(out.stats.max_flows >= out.stats.rounds);
    assert!(out.stats.dinkelbach_iterations >= 1);
    assert!(out.stats.active_job_rounds >= out.stats.rounds);
    assert!(out.stats.active_site_rounds >= out.stats.rounds);
    assert!(out.stats.edges_visited > 0);
}

#[test]
fn solver_matches_the_reference_exactly() {
    // Exact rationals: the aggregates equal brute-force subset enumeration
    // bit for bit in both modes, and every round but the last contracts.
    let mut rng = StdRng::seed_from_u64(97);
    for trial in 0..40 {
        let inst = random_rational_instance(&mut rng);
        let (solver, mode) = if trial % 2 == 0 {
            (AmfSolver::new(), FairnessMode::Plain)
        } else {
            (AmfSolver::enhanced(), FairnessMode::Enhanced)
        };
        let out = solver.solve(&inst);
        assert_eq!(
            out.allocation.aggregates(),
            &crate::reference_aggregates(&inst, mode)[..],
            "aggregates disagree with the reference on trial {trial}"
        );
        assert!(out.allocation.is_feasible(&inst));
        assert_eq!(out.stats.contractions, out.stats.rounds.saturating_sub(1));
    }
}

#[test]
fn contraction_shrinks_the_working_network() {
    // Disjoint bottlenecks force one freeze per round, at levels 1, 4, 9
    // and the demand cap 50. Each contraction drops the frozen job and its
    // saturated site, so the rounds see 4 + 3 + 2 + 1 jobs and sites, not
    // rounds × 4.
    let inst = Instance::new(
        vec![ri(1), ri(4), ri(9), ri(100)],
        vec![
            vec![ri(50), ri(0), ri(0), ri(0)],
            vec![ri(0), ri(50), ri(0), ri(0)],
            vec![ri(0), ri(0), ri(50), ri(0)],
            vec![ri(0), ri(0), ri(0), ri(50)],
        ],
    )
    .unwrap();
    let out = AmfSolver::new().solve(&inst);
    assert_eq!(
        out.allocation.aggregates(),
        &crate::reference_aggregates(&inst, FairnessMode::Plain)[..]
    );
    assert_eq!(out.allocation.aggregates(), &[ri(1), ri(4), ri(9), ri(50)]);
    assert_eq!(out.stats.rounds, 4);
    assert_eq!(out.stats.contractions, 3);
    assert_eq!(out.stats.active_job_rounds, 10);
    assert_eq!(out.stats.active_site_rounds, 10);
}

#[test]
fn pooled_solves_match_fresh_solves() {
    let mut rng = StdRng::seed_from_u64(201);
    let mut pool = SolverPool::new();
    let solver = AmfSolver::new();
    for _ in 0..20 {
        let inst = random_rational_instance(&mut rng);
        let pooled = solver.solve_with_pool(&inst, &mut pool);
        let fresh = solver.solve(&inst);
        assert_eq!(
            pooled.allocation.aggregates(),
            fresh.allocation.aggregates()
        );
        assert_eq!(pooled.rounds, fresh.rounds);
    }
    // After the first solve the arena should be getting reused.
    assert!(pool.scratch().reuse_hits() > 0);
}

#[test]
fn batch_matches_sequential_and_preserves_order() {
    let mut rng = StdRng::seed_from_u64(77);
    let insts: Vec<Instance<Rational>> = (0..12)
        .map(|_| random_rational_instance(&mut rng))
        .collect();
    let solver = AmfSolver::new();
    let sequential: Vec<_> = insts.iter().map(|inst| solver.solve(inst)).collect();
    for threads in [1usize, 2, 4] {
        let batch = solver.solve_batch_with(&insts, threads);
        assert_eq!(batch.len(), insts.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            assert_eq!(
                b.allocation.aggregates(),
                s.allocation.aggregates(),
                "instance {i} disagrees at {threads} threads"
            );
            assert_eq!(b.rounds, s.rounds);
        }
    }
    // Default thread-count entry point.
    let batch = solver.solve_batch(&insts);
    assert_eq!(batch.len(), insts.len());
}

#[test]
fn batch_of_nothing_is_empty() {
    let insts: Vec<Instance<f64>> = Vec::new();
    assert!(AmfSolver::new().solve_batch(&insts).is_empty());
}

#[test]
fn contracted_f64_matches_rational_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(319);
    for _ in 0..20 {
        let inst_q = random_rational_instance(&mut rng);
        let inst_f = inst_q.map(|v| v.to_f64());
        let out_q = AmfSolver::new().solve(&inst_q);
        let out_f = AmfSolver::new().solve(&inst_f);
        for j in 0..inst_q.n_jobs() {
            let exact = out_q.allocation.aggregate(j).to_f64();
            let approx = out_f.allocation.aggregate(j);
            assert!(
                (exact - approx).abs() < 1e-6,
                "job {j}: exact {exact} vs f64 {approx}"
            );
        }
        assert!(out_f.allocation.is_feasible(&inst_f));
    }
}

#[test]
fn saturating_merge_work_pins_counters_at_max() {
    let mut total = SolveStats {
        edges_visited: u64::MAX - 5,
        active_job_rounds: usize::MAX - 1,
        max_flows: 3,
        ..SolveStats::default()
    };
    let step = SolveStats {
        edges_visited: 10,
        active_job_rounds: 7,
        max_flows: 2,
        csr_rebuilds: 4,
        bitset_words_cleared: 1_000,
        ..SolveStats::default()
    };
    total.saturating_merge_work(&step);
    assert_eq!(total.edges_visited, u64::MAX, "must clamp, not wrap");
    assert_eq!(total.active_job_rounds, usize::MAX);
    assert_eq!(total.max_flows, 5, "unsaturated counters still add");
    assert_eq!(total.csr_rebuilds, 4);
    assert_eq!(total.bitset_words_cleared, 1_000);
    // Merging again keeps saturated fields pinned.
    total.saturating_merge_work(&step);
    assert_eq!(total.edges_visited, u64::MAX);
    assert_eq!(total.max_flows, 7);
}

#[test]
fn sub_eps_demands_keep_the_sparse_rank_exact() {
    // Demands in (0, 1e-9] get no edge in the allocation network but do
    // enter the contracted rank's sums; in debug builds every Dinkelbach
    // step checks the sparse rank against the dense one bit for bit.
    let mut rng = StdRng::seed_from_u64(1009);
    let mut rank_steps = 0;
    let mut tiny_entries = 0;
    for _ in 0..200 {
        let n = rng.gen_range(2..12usize);
        let m = rng.gen_range(1..6usize);
        let capacities: Vec<f64> = (0..m).map(|_| rng.gen_range(1.0..10.0)).collect();
        let demands: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| match rng.gen_range(0..4u8) {
                        0 => 0.0,
                        1 => {
                            tiny_entries += 1;
                            rng.gen_range(1e-12..1e-9)
                        }
                        _ => rng.gen_range(0.5..8.0),
                    })
                    .collect()
            })
            .collect();
        let inst = Instance::new(capacities, demands).unwrap();
        let out = AmfSolver::new().solve(&inst);
        let reference = crate::reference_aggregates(&inst, FairnessMode::Plain);
        rank_steps += out.stats.dinkelbach_iterations - out.stats.rounds;
        assert!(out.allocation.is_feasible(&inst));
        for (j, &want) in reference.iter().enumerate() {
            let got = out.allocation.aggregate(j);
            assert!(
                (got - want).abs() < 1e-6,
                "job {j}: solver {got} vs reference {want}"
            );
        }
    }
    assert!(
        tiny_entries > 0 && rank_steps > 0,
        "the rank path never ran"
    );
}

/// Plain-AMF solve of an f64 instance, checked feasible and within 1e-6 of
/// [`reference_aggregates`](crate::reference_aggregates).
fn solve_near_the_reference(inst: &Instance<f64>) -> SolveOutput<f64> {
    let out = AmfSolver::new().solve(inst);
    assert!(out.allocation.is_feasible(inst));
    let reference = crate::reference_aggregates(inst, FairnessMode::Plain);
    for (j, &want) in reference.iter().enumerate() {
        let got = out.allocation.aggregate(j);
        assert!(
            (got - want).abs() < 1e-6,
            "job {j}: solver {got} vs reference {want}"
        );
    }
    out
}

#[test]
fn zero_capacity_site_with_sub_eps_demands_solves() {
    // A zero-capacity site plus demands in (0, 1e-9]: the min cut of an
    // infeasible check can hold no active job, because every source edge
    // is saturated within the network's tolerance. The solver used to
    // invert that empty set and panic.
    let inst = Instance::new(
        vec![0.0, 0.0, 2.645339087994525],
        vec![
            vec![0.6848094026036105, 3.4112140102342448, 0.0],
            vec![1.1294139937837106e-10, 0.0, 0.5866433682363832],
            vec![3.3942342391766562, 0.0, 4.2401012979828273e-10],
            vec![
                6.465781479165431e-10,
                3.300695301931978e-10,
                8.087405748263891e-10,
            ],
            vec![0.0, 0.0, 1.0802863353644787e-10],
        ],
    )
    .unwrap();
    solve_near_the_reference(&inst);
}

#[test]
fn cut_cache_starts_each_round_at_its_level() {
    // The disjoint bottlenecks of `contraction_shrinks_the_working_network`,
    // solved by hand. Round 1 descends from the top breakpoint 50 through
    // the cuts {0,1,2} (budget 1+4+9 = 14, level 14/3), {0,1} (budget 5,
    // level 5/2) and {0} (level 1), where the fourth check is feasible and
    // job 0 freezes holding 1. Round 2 starts at the tightest remaining
    // cut, {0,1} less job 0's 1 = 4, which is t*; round 3 at {0,1,2} less
    // 1 + 4 = 9, which is t*; round 4 has no binding cut and checks 50 once.
    // That is 4 + 1 + 1 + 1 = 7 max flows, where descending from the top
    // every round takes 4 + 3 + 2 + 1 = 10.
    let inst = Instance::new(
        vec![ri(1), ri(4), ri(9), ri(100)],
        vec![
            vec![ri(50), ri(0), ri(0), ri(0)],
            vec![ri(0), ri(50), ri(0), ri(0)],
            vec![ri(0), ri(0), ri(50), ri(0)],
            vec![ri(0), ri(0), ri(0), ri(50)],
        ],
    )
    .unwrap();
    let out = AmfSolver::new().solve(&inst);
    assert_eq!(out.allocation.aggregates(), &[ri(1), ri(4), ri(9), ri(50)]);
    let levels: Vec<Rational> = out.rounds.iter().map(|r| r.level).collect();
    assert_eq!(levels, [ri(1), ri(4), ri(9), ri(50)]);
    assert_eq!(out.stats.rounds, 4);
    assert_eq!(out.stats.dinkelbach_iterations, 7);
    assert_eq!(out.stats.max_flows, 7);
    assert_eq!(out.stats.cut_start_retries, 0);
    assert_eq!(out.stats.fallback_freezes, 0);
}

#[test]
fn cut_budgets_give_back_held_flow_not_frozen_aggregates() {
    // Jobs 1, 6 and 7 demand only amounts in (0, 1e-9]: the network has no
    // edge for them, so each freezes at its total demand while holding no
    // flow. A cut they belong to keeps that share of its budget. Taking
    // their frozen aggregates out of it instead starts a later round a
    // hair below t*, where nothing freezes and the round has to be
    // re-run from the top.
    let inst = Instance::new(
        vec![6.664716527558151, 5.398191331235495, 2.758004745467901],
        vec![
            vec![7.021595436486771, 8.482250243485163e-10, 0.0],
            vec![1.3117469977133915e-10, 0.0, 0.0],
            vec![5.866008796283522e-10, 0.0, 5.098689344783764],
            vec![0.0, 8.17887107022837e-10, 1.1936606376078758],
            vec![6.1495131082689225, 3.573012141960941, 7.406711093803563e-10],
            vec![7.47934831476034, 8.975341419597661e-10, 1.9234870500305914],
            vec![0.0, 0.0, 9.49629369504028e-10],
            vec![
                2.507274905130306e-10,
                2.672310759625343e-10,
                1.4888192164650063e-10,
            ],
            vec![4.128911560162743, 0.0, 7.539115094650831],
            vec![
                2.496693397547154e-10,
                2.3818718061786552,
                1.765722630981405e-10,
            ],
        ],
    )
    .unwrap();
    let out = solve_near_the_reference(&inst);
    assert!(out.stats.rounds >= 2);
    assert_eq!(out.stats.cut_start_retries, 0);
    assert_eq!(out.stats.fallback_freezes, 0);
}

#[test]
fn a_cached_start_that_freezes_nothing_reruns_from_the_top() {
    // Here rounding puts one cached start a hair below t*: the check there
    // is feasible and no job is tight yet. The round is re-run from the
    // top breakpoint, which finds t* itself, so the f64 safety net (freeze
    // everything where it stands) never fires.
    let inst = Instance::new(
        vec![
            9.585196814748283,
            8.881045952587764,
            5.6302062867189,
            9.193792213693674,
            8.815390559953247,
        ],
        vec![
            vec![
                0.0,
                6.6464421949653385,
                2.8611778307249825e-11,
                6.481505279932427,
                7.046141862229915,
            ],
            vec![
                7.237169528848724e-10,
                2.6417972490758035,
                5.675110506765052e-10,
                2.2907741292792054e-10,
                4.856199963257706e-10,
            ],
            vec![
                0.0,
                1.6776015734062872e-10,
                5.139772270735706,
                0.0,
                7.409401719856643e-10,
            ],
            vec![
                0.0,
                2.4288323623030736,
                9.891912130159747e-10,
                5.886156555704827,
                5.797689753212691,
            ],
            vec![
                3.1229633447654786e-10,
                6.408229184978022,
                4.402393771405837e-10,
                7.9908267050544755,
                6.294233191373528e-10,
            ],
            vec![
                8.579592589096924e-10,
                7.522324912523519,
                7.743653916601544,
                6.721962498534158e-10,
                8.597103139060649e-10,
            ],
        ],
    )
    .unwrap();
    let out = solve_near_the_reference(&inst);
    assert_eq!(out.stats.cut_start_retries, 1);
    assert_eq!(out.stats.fallback_freezes, 0);
}
