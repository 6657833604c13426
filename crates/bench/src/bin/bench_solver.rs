//! Pinned solver benchmark — `cargo xtask bench`.
//!
//! Measures the solver (contracted network, Dinkelbach descent, warm
//! starts, Dinic) on a fixed instance sweep and writes a machine-readable
//! report (schema `amf-bench-solver/v5`) with five sections:
//!
//! * `sweep` — per-point wall time (min of reps after a warm-up) of the
//!   `contracted-dinic` arm, with work counters (rounds, max flows, edges
//!   visited, CSR rebuilds, bitset words cleared) and an audit verdict;
//! * `e8_400x20` — the headline point: the solver on the E8 400-job /
//!   20-site instance, plus its speedup against two pinned baselines, the
//!   pre-optimization seed solver and the deleted full-network path;
//! * `batch` — `solve_batch_with` thread-scaling sweep;
//! * `kernels` — raw Dinic max-flow micro-timing, with per-run edges
//!   visited and the derived ns/edge figure, the layout-sensitive number
//!   the CSR arena is meant to move;
//! * `event_loop` — online simulation wall time on a staggered-arrival
//!   400×20 trace with capacity events, re-solved from scratch at every
//!   scheduling event on one pooled solver (`simulate_with_capacity_events`,
//!   the `amf simulate --jct-addon` path).
//!
//! v5 drops the event loop's incremental-session arm and its counters;
//! the same loop's work is pinned exactly by `BENCH_online.json`. v4
//! dropped the arms and kernel row of the deleted alternatives
//! (full-network path, push–relabel and `Auto` backends) and replaced the
//! timed `legacy_ms` headline with the pinned `legacy_full_baseline_ms`.
//!
//! Flags: `--smoke` (1 rep, small batch — CI wiring check), `--out PATH`
//! (default `BENCH_solver.json` in the current directory).

use amf_audit::audit;
use amf_bench::experiments::skewed_workload;
use amf_core::{AmfSolver, FairnessMode, Instance, SolveOutput, SolverPool};
use amf_flow::AllocationNetwork;
use amf_sim::{simulate_with_capacity_events, CapacityEvent, SimConfig, SplitStrategy};
use amf_workload::trace::Trace;
use serde::Serialize;
use std::time::Instant;

/// Wall time of the seed solver (mean of 3 reps) on the 400×20 E8 point,
/// measured on this machine immediately before the shrinking-network work
/// landed. The headline speedup is reported against this pin.
const SEED_BASELINE_400X20_MS: f64 = 16.7257;

/// Wall time of the legacy full-network path (every round's max flows on
/// all n×m nodes; min of 5 reps) on the same point, as last recorded in
/// `BENCH_solver.json` before that path was deleted.
const LEGACY_FULL_400X20_MS: f64 = 12.95173;

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    smoke: bool,
    reps: usize,
    hardware: Hardware,
    sweep: Vec<SweepPoint>,
    e8_400x20: Headline,
    batch: BatchSection,
    kernels: Vec<KernelTiming>,
    event_loop: EventLoopSection,
}

#[derive(Serialize)]
struct Hardware {
    available_parallelism: usize,
    note: String,
}

#[derive(Serialize)]
struct SweepPoint {
    jobs: usize,
    sites: usize,
    arms: Vec<ArmResult>,
    /// The allocation earned the `amf-audit` AMF certificate.
    audit_certified: bool,
}

#[derive(Serialize)]
struct ArmResult {
    name: &'static str,
    ms: f64,
    rounds: usize,
    max_flows: usize,
    contractions: usize,
    active_job_rounds: usize,
    edges_visited: u64,
    scratch_reuse_hits: u64,
    csr_rebuilds: u64,
    bitset_words_cleared: u64,
}

#[derive(Serialize)]
struct Headline {
    jobs: usize,
    sites: usize,
    seed_baseline_ms: f64,
    legacy_full_baseline_ms: f64,
    contracted_ms: f64,
    speedup_vs_seed_baseline: f64,
    speedup_vs_legacy: f64,
}

#[derive(Serialize)]
struct BatchSection {
    instances: usize,
    jobs: usize,
    sites: usize,
    points: Vec<BatchPoint>,
}

#[derive(Serialize)]
struct BatchPoint {
    threads: usize,
    ms: f64,
    speedup_vs_one_thread: f64,
}

#[derive(Serialize)]
struct EventLoopSection {
    jobs: usize,
    sites: usize,
    capacity_events: usize,
    /// Scheduling events (arrival / portion completion / departure /
    /// capacity change), one solve and split each.
    reallocations: usize,
    from_scratch_ms: f64,
}

#[derive(Serialize)]
struct KernelTiming {
    kernel: &'static str,
    jobs: usize,
    sites: usize,
    ms: f64,
    total_flow: f64,
    /// Residual-edge inspections in one cold max-flow run (deterministic
    /// for a fixed instance and kernel).
    edges_visited: u64,
    /// `ms` normalized by `edges_visited` — the per-edge traversal cost the
    /// CSR layout is meant to keep flat as instances grow.
    ns_per_edge: f64,
    /// CSR lowerings during the timed reps (0: the cached view is reused).
    csr_rebuilds: u64,
    /// Bitset words zeroed across the timed reps (frontier reset cost).
    bitset_words_cleared: u64,
}

/// The E8 instance family: Zipf-skewed placement, contention held at 2×.
fn e8_instance(n: usize, m: usize) -> Instance<f64> {
    let mut workload = skewed_workload(1.2, n, m, m.min(5), 99);
    workload.capacities = vec![15.0 * n as f64 / m as f64; m];
    workload.instance()
}

/// Min-of-reps wall time through a persistent pool (one warm-up first).
fn time_solver(solver: &AmfSolver, inst: &Instance<f64>, reps: usize) -> (f64, SolveOutput<f64>) {
    let mut pool = SolverPool::new();
    let mut out = solver.solve_with_pool(inst, &mut pool);
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = solver.solve_with_pool(inst, &mut pool);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best_ms, out)
}

fn sweep_point(n: usize, m: usize, reps: usize) -> SweepPoint {
    let inst = e8_instance(n, m);
    let (ms, out) = time_solver(&AmfSolver::new(), &inst, reps);
    SweepPoint {
        jobs: n,
        sites: m,
        arms: vec![ArmResult {
            name: "contracted-dinic",
            ms,
            rounds: out.stats.rounds,
            max_flows: out.stats.max_flows,
            contractions: out.stats.contractions,
            active_job_rounds: out.stats.active_job_rounds,
            edges_visited: out.stats.edges_visited,
            scratch_reuse_hits: out.stats.scratch_reuse_hits,
            csr_rebuilds: out.stats.csr_rebuilds,
            bitset_words_cleared: out.stats.bitset_words_cleared,
        }],
        audit_certified: audit(&inst, &out.allocation, FairnessMode::Plain).is_certified_amf(),
    }
}

fn headline(reps: usize) -> Headline {
    let inst = e8_instance(400, 20);
    let (contracted_ms, _) = time_solver(&AmfSolver::new(), &inst, reps);
    Headline {
        jobs: 400,
        sites: 20,
        seed_baseline_ms: SEED_BASELINE_400X20_MS,
        legacy_full_baseline_ms: LEGACY_FULL_400X20_MS,
        contracted_ms,
        speedup_vs_seed_baseline: SEED_BASELINE_400X20_MS / contracted_ms,
        speedup_vs_legacy: LEGACY_FULL_400X20_MS / contracted_ms,
    }
}

fn batch_section(smoke: bool, reps: usize) -> BatchSection {
    let (count, n, m) = if smoke { (4, 40, 8) } else { (16, 150, 12) };
    let instances: Vec<Instance<f64>> = (0..count)
        .map(|k| {
            let mut workload = skewed_workload(1.2, n, m, m.min(5), 1000 + k as u64);
            workload.capacities = vec![15.0 * n as f64 / m as f64; m];
            workload.instance()
        })
        .collect();
    let solver = AmfSolver::new();
    let mut points = Vec::new();
    let mut one_thread_ms = f64::INFINITY;
    for threads in [1usize, 2, 4, 8] {
        let _ = solver.solve_batch_with(&instances, threads);
        let mut best_ms = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let outs = solver.solve_batch_with(&instances, threads);
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(outs.len(), instances.len());
        }
        if threads == 1 {
            one_thread_ms = best_ms;
        }
        points.push(BatchPoint {
            threads,
            ms: best_ms,
            speedup_vs_one_thread: one_thread_ms / best_ms,
        });
    }
    BatchSection {
        instances: count,
        jobs: n,
        sites: m,
        points,
    }
}

fn kernel_timings(smoke: bool, reps: usize) -> Vec<KernelTiming> {
    let (n, m) = if smoke { (60, 10) } else { (400, 20) };
    let inst = e8_instance(n, m);
    let mut net = AllocationNetwork::new(inst.demands(), inst.capacities());
    for j in 0..inst.n_jobs() {
        let cap: f64 = inst.demands()[j].iter().sum();
        net.set_job_cap(j, cap);
    }
    // Warm-up sizes the scratch arena; the timed reps run allocation-free.
    net.reset_flow();
    let mut total_flow = net.run_max_flow();
    let edges0 = net.scratch().edges_visited();
    let rebuilds0 = net.scratch().csr_rebuilds();
    let words0 = net.scratch().bitset_words_cleared();
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        net.reset_flow();
        let t0 = Instant::now();
        total_flow = net.run_max_flow();
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    // Each rep replays the identical cold run, so per-run work is the
    // accumulated delta divided by the rep count.
    let edges_visited = (net.scratch().edges_visited() - edges0) / reps as u64;
    vec![KernelTiming {
        kernel: "dinic",
        jobs: n,
        sites: m,
        ms: best_ms,
        total_flow,
        edges_visited,
        ns_per_edge: if edges_visited == 0 {
            0.0
        } else {
            best_ms * 1e6 / edges_visited as f64
        },
        csr_rebuilds: net.scratch().csr_rebuilds() - rebuilds0,
        bitset_words_cleared: (net.scratch().bitset_words_cleared() - words0) / reps as u64,
    }]
}

/// Online event-loop throughput: a staggered-arrival trace plus capacity
/// events, solved from scratch per scheduling event through one persistent
/// [`SolverPool`], then split with the balanced-progress JCT add-on.
fn event_loop_section(smoke: bool, reps: usize) -> EventLoopSection {
    let (n, m) = if smoke { (60, 10) } else { (400, 20) };
    let mut workload = skewed_workload(1.2, n, m, m.min(5), 99);
    let base_cap = 15.0 * n as f64 / m as f64;
    workload.capacities = vec![base_cap; m];
    // Jobs trickle in over 50 time units, so most scheduling events touch a
    // single job.
    let arrivals: Vec<f64> = (0..n).map(|j| j as f64 * 50.0 / n as f64).collect();
    let trace = Trace::with_arrivals(&workload, &arrivals);
    let mut events = Vec::new();
    for k in 0..m / 2 {
        let site = (2 * k) % m;
        let t = 8.0 + 12.0 * k as f64;
        events.push(CapacityEvent {
            time: t,
            site,
            capacity: 0.6 * base_cap,
        });
        events.push(CapacityEvent {
            time: t + 6.0,
            site,
            capacity: base_cap,
        });
    }
    let config = SimConfig {
        split: SplitStrategy::BalancedProgress { repair_rounds: 4 },
        ..SimConfig::default()
    };
    let solver = AmfSolver::new();

    let mut report = simulate_with_capacity_events(&trace, &solver, &config, &events);
    let mut from_scratch_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        report = simulate_with_capacity_events(&trace, &solver, &config, &events);
        from_scratch_ms = from_scratch_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    assert!(
        report.all_finished(),
        "the event-loop trace runs to completion"
    );
    EventLoopSection {
        jobs: n,
        sites: m,
        capacity_events: events.len(),
        reallocations: report.reallocations,
        from_scratch_ms,
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_solver.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown flag {other}; usage: bench_solver [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let reps = if smoke { 1 } else { 5 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let sweep_points: &[(usize, usize)] = &[(50, 20), (100, 20), (200, 20), (400, 20), (400, 5)];
    eprintln!(
        "bench_solver: sweep ({} points, {reps} reps)...",
        sweep_points.len()
    );
    let sweep: Vec<SweepPoint> = sweep_points
        .iter()
        .map(|&(n, m)| sweep_point(n, m, reps))
        .collect();
    eprintln!("bench_solver: headline 400x20...");
    let e8 = headline(reps);
    eprintln!("bench_solver: batch thread sweep...");
    let batch = batch_section(smoke, reps);
    eprintln!("bench_solver: kernel micro-timings...");
    let kernels = kernel_timings(smoke, reps);
    eprintln!("bench_solver: online event loop...");
    let event_loop = event_loop_section(smoke, reps);

    let report = Report {
        schema: "amf-bench-solver/v5",
        smoke,
        reps,
        hardware: Hardware {
            available_parallelism: threads,
            note: format!(
                "std::thread::available_parallelism() = {threads}; batch scaling beyond \
                 that worker count measures scheduling overhead, not parallel speedup"
            ),
        },
        sweep,
        e8_400x20: e8,
        batch,
        kernels,
        event_loop,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark report");
    println!(
        "wrote {out_path}: 400x20 contracted {:.4} ms, {:.2}x vs pinned legacy full-network \
         {:.4} ms, {:.2}x vs pinned seed baseline {:.4} ms",
        report.e8_400x20.contracted_ms,
        report.e8_400x20.speedup_vs_legacy,
        LEGACY_FULL_400X20_MS,
        report.e8_400x20.speedup_vs_seed_baseline,
        SEED_BASELINE_400X20_MS,
    );
    println!(
        "event loop {}x{}: from-scratch {:.4} ms over {} reallocations",
        report.event_loop.jobs,
        report.event_loop.sites,
        report.event_loop.from_scratch_ms,
        report.event_loop.reallocations,
    );
    for point in &report.sweep {
        assert!(
            point.audit_certified,
            "audit failed at {}x{}",
            point.jobs, point.sites
        );
    }
}
