//! Ablations of design choices called out in DESIGN.md:
//!
//! * JCT add-on repair-round budget (split quality vs cost);
//! * exact Rational arithmetic vs f64 in the solver;
//! * fluid vs slot-granular simulation.

use amf_bench::experiments::skewed_workload;
use amf_core::AmfSolver;
use amf_numeric::Rational;
use amf_sim::{simulate, slots::simulate_slots, SimConfig, SplitStrategy};
use amf_workload::trace::Trace;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_repair_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("jct_addon_repair_rounds");
    group.sample_size(10);
    let trace = Trace::batch(&skewed_workload(1.6, 25, 8, 4, 3));
    for &rounds in &[0usize, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(rounds), &rounds, |b, &r| {
            b.iter(|| {
                black_box(simulate(
                    &trace,
                    &AmfSolver::new(),
                    &SimConfig {
                        split: SplitStrategy::BalancedProgress { repair_rounds: r },
                        ..SimConfig::default()
                    },
                ))
            });
        });
    }
    group.finish();
}

fn bench_exact_vs_f64(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_scalar_type");
    group.sample_size(10);
    let inst_f = skewed_workload(1.2, 30, 6, 3, 9).instance();
    // Integerize so the rational instance stays small-denominator.
    let inst_q = inst_f.map(|v| Rational::from_int(v.round() as i128));
    group.bench_function("f64", |b| {
        b.iter(|| black_box(AmfSolver::new().solve(black_box(&inst_f))));
    });
    group.bench_function("rational", |b| {
        b.iter(|| black_box(AmfSolver::new().solve(black_box(&inst_q))));
    });
    group.finish();
}

fn bench_fluid_vs_slots(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_vs_slots");
    group.sample_size(10);
    let trace = Trace::batch(&skewed_workload(1.2, 20, 6, 3, 11));
    group.bench_function("fluid", |b| {
        b.iter(|| black_box(simulate(&trace, &AmfSolver::new(), &SimConfig::default())));
    });
    group.bench_function("slots", |b| {
        b.iter(|| black_box(simulate_slots(&trace, &AmfSolver::new())));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_repair_rounds,
    bench_exact_vs_f64,
    bench_fluid_vs_slots
);
criterion_main!(benches);
