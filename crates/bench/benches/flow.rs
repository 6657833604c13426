//! Dinic max-flow kernel timings on allocation-shaped networks.

use amf_flow::{dinic, FlowNetwork};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Build a random bipartite allocation network: source=0, sink=1, `jobs`
/// job nodes, `sites` site nodes.
fn build(jobs: usize, sites: usize, density: f64, seed: u64) -> FlowNetwork<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g: FlowNetwork<f64> = FlowNetwork::new(2 + jobs + sites);
    for j in 0..jobs {
        g.add_edge(0, (2 + j) as u32, rng.gen_range(1.0..50.0));
        for s in 0..sites {
            if rng.gen_bool(density) {
                g.add_edge(
                    (2 + j) as u32,
                    (2 + jobs + s) as u32,
                    rng.gen_range(1.0..20.0),
                );
            }
        }
    }
    for s in 0..sites {
        g.add_edge((2 + jobs + s) as u32, 1, rng.gen_range(10.0..100.0));
    }
    g
}

fn bench_max_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_flow_bipartite");
    group.sample_size(20);
    for &(jobs, sites) in &[(50usize, 10usize), (200, 20), (500, 32)] {
        let proto = build(jobs, sites, 0.4, 42);
        group.bench_with_input(
            BenchmarkId::new("dinic", format!("{jobs}x{sites}")),
            &proto,
            |b, proto| {
                b.iter_batched(
                    || proto.clone(),
                    |mut g| black_box(dinic::max_flow(&mut g, 0, 1)),
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_max_flow);
criterion_main!(benches);
