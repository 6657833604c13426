//! `online-skewed`: the E8 event loop, re-solved from scratch at every
//! scheduling event.
//!
//! A run drives [`TRACES`] event loops of [`JOBS`] jobs, each over its own
//! trace generated from the run's seed. Smaller traces than E8's 400 jobs
//! fit more passes into a run, and several of them average out what one
//! trace's few longest jobs do to the figures: over five seeds, a single
//! 400-job trace moved the light-decision median by 29% (interquartile
//! range over median), three 200-job traces by 14%.
//!
//! The benchmark implements [`IncrementalSession`] as a from-scratch
//! session that takes exactly the steps of
//! [`simulate_with_capacity_events`] (the `amf simulate --jct-addon` path):
//! build the [`Instance`] of the active set, solve it with
//! [`AmfSolver::solve_with_pool`] on one pooled [`SolverPool`], then run
//! [`balanced_progress_split`]. Driving that session through
//! [`simulate_incremental_with_stats`] lets the benchmark time every
//! decision and, in the traced run, record a span for each reallocation
//! with two children, solve and split.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use amf_audit::audit;
use amf_bench::experiments::skewed_workload;
use amf_core::{Allocation, AmfSolver, Delta, FairnessMode, Instance, SolveStats, SolverPool};
use amf_sim::split::balanced_progress_split;
use amf_sim::{
    simulate_incremental_with_stats, simulate_with_capacity_events, CapacityEvent, DynamicPolicy,
    IncrementalSession, SessionCtx, SimConfig, SimReport, SplitStrategy,
};
use amf_workload::trace::Trace;

use crate::report::{Metrics, Outcome};
use crate::spans::{self, Recorder, SpanId};
use crate::stats::{self, ratio, tail};

/// Jobs per trace.
pub const JOBS: usize = 200;
/// Traces (event loops) per run.
pub const TRACES: usize = 3;
/// Sites in the trace.
pub const SITES: usize = 20;
/// Repair rounds of the balanced-progress split (the CLI default).
pub const REPAIR_ROUNDS: usize = 4;
/// Every this-many-th decision is audited.
pub const AUDIT_EVERY: usize = 50;

/// Generated inputs of one event loop.
pub struct Inputs {
    /// Jobs with staggered arrivals.
    pub trace: Trace,
    /// Ten sites dip to 60% for 6 time units each (20 events).
    pub events: Vec<CapacityEvent>,
}

/// The run's [`TRACES`] event loops. Trace `k` of seed `s` is generated
/// from seed `s·TRACES + k`, so no two runs share a trace.
pub fn inputs(seed: u64) -> Vec<Inputs> {
    (0..TRACES)
        .map(|k| {
            let trace_seed = seed.wrapping_mul(TRACES as u64).wrapping_add(k as u64);
            inputs_sized(trace_seed, JOBS, SITES)
        })
        .collect()
}

/// One event loop of the E8 family (`skewed_workload(1.2, jobs, sites, 5,
/// seed)`, capacities 15·n/m), with arrivals spread evenly over 50 time
/// units and `sites` capacity events: half the sites dip to 60% for 6
/// units each. `sites` is even; small sizes serve the tests.
pub fn inputs_sized(seed: u64, jobs: usize, sites: usize) -> Inputs {
    let mut workload = skewed_workload(1.2, jobs, sites, sites.min(5), seed);
    let base_capacity = 15.0 * jobs as f64 / sites as f64;
    workload.capacities = vec![base_capacity; sites];
    let arrivals: Vec<f64> = (0..jobs).map(|j| j as f64 * 50.0 / jobs as f64).collect();
    let trace = Trace::with_arrivals(&workload, &arrivals);
    let mut events = Vec::new();
    for k in 0..sites / 2 {
        let site = (2 * k) % sites;
        let t = 8.0 + 12.0 * k as f64;
        events.push(CapacityEvent {
            time: t,
            site,
            capacity: 0.6 * base_capacity,
        });
        events.push(CapacityEvent {
            time: t + 6.0,
            site,
            capacity: base_capacity,
        });
    }
    Inputs { trace, events }
}

fn config() -> SimConfig {
    SimConfig {
        split: SplitStrategy::BalancedProgress {
            repair_rounds: REPAIR_ROUNDS,
        },
        ..SimConfig::default()
    }
}

/// One audited decision: the instance, the solver's allocation, and the
/// rate matrix the split produced.
struct Sample {
    inst: Instance<f64>,
    alloc: Allocation<f64>,
    split: Vec<Vec<f64>>,
}

/// What the session records while the engine drives it.
#[derive(Default)]
struct Probe {
    /// Per decision: wall time (ns) and the number of active jobs.
    decisions: Vec<(f64, usize)>,
    /// Solver work summed over every solve.
    work: SolveStats,
    rounds: usize,
    samples: Vec<Sample>,
    recorder: Option<Recorder>,
    root: Option<SpanId>,
    /// Request id of this loop's first decision.
    first_request: u64,
}

impl Probe {
    fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let request = self.first_request + self.decisions.len() as u64;
        self.recorder
            .as_mut()
            .map(|r| r.open(name, parent, request))
    }

    fn close(&mut self, id: Option<SpanId>) {
        if let (Some(r), Some(id)) = (self.recorder.as_mut(), id) {
            r.close(id);
        }
    }
}

/// The from-scratch policy handed to the engine; its session shares the
/// [`Probe`] with the benchmark.
struct ScratchPolicy {
    probe: Arc<Mutex<Probe>>,
}

struct ScratchSession {
    solver: AmfSolver,
    pool: SolverPool<f64>,
    probe: Arc<Mutex<Probe>>,
}

impl DynamicPolicy for ScratchPolicy {
    fn name(&self) -> &'static str {
        "amf-from-scratch"
    }

    fn allocate_dynamic(&self, inst: &Instance<f64>, remaining: &[Vec<f64>]) -> Allocation<f64> {
        let alloc = AmfSolver::new().solve(inst).allocation;
        Allocation::from_split(balanced_progress_split(
            inst.capacities(),
            inst.demands(),
            alloc.aggregates(),
            remaining,
            REPAIR_ROUNDS,
        ))
    }

    fn incremental_session(&self, _capacities: &[f64]) -> Option<Box<dyn IncrementalSession>> {
        // One fresh pool per event loop, as the default path holds.
        Some(Box::new(ScratchSession {
            solver: AmfSolver::new(),
            pool: SolverPool::new(),
            probe: Arc::clone(&self.probe),
        }))
    }
}

impl IncrementalSession for ScratchSession {
    fn apply(&mut self, _delta: &Delta<f64>) {
        // From scratch: every decision rebuilds the instance from the
        // engine's active set, so deltas carry nothing the session needs.
    }

    fn rates(&mut self, ctx: &SessionCtx<'_>) -> Vec<Vec<f64>> {
        let mut guard = self.probe.lock().expect("probe lock poisoned");
        let probe = &mut *guard;
        let started = Instant::now();
        let realloc = probe.open("reallocation", probe.root);
        let inst = Instance::new(ctx.capacities.to_vec(), ctx.demands.to_vec())
            .expect("the active set forms a valid instance");
        let solve = probe.open("solve", realloc);
        let out = self.solver.solve_with_pool(&inst, &mut self.pool);
        probe.close(solve);
        let split_span = probe.open("split", realloc);
        let split = balanced_progress_split(
            inst.capacities(),
            inst.demands(),
            out.allocation.aggregates(),
            ctx.remaining,
            REPAIR_ROUNDS,
        );
        probe.close(split_span);
        probe.close(realloc);
        let elapsed_ns = started.elapsed().as_nanos() as f64;

        if probe.decisions.len().is_multiple_of(AUDIT_EVERY) {
            probe.samples.push(Sample {
                inst,
                alloc: out.allocation.clone(),
                split: split.clone(),
            });
        }
        probe.decisions.push((elapsed_ns, ctx.ids.len()));
        probe.work.saturating_merge_work(&out.stats);
        probe.rounds += out.stats.rounds;
        split
    }

    fn stats(&self) -> SolveStats {
        let probe = self.probe.lock().expect("probe lock poisoned");
        SolveStats {
            rounds: probe.rounds,
            ..probe.work
        }
    }
}

/// Setup: generate the inputs, then run the seeding solves, one cold
/// solve per trace of the instance holding every job at once, so code and
/// allocator are warm before timing.
pub fn setup(seed: u64) -> Vec<Inputs> {
    let loops = inputs(seed);
    for inputs in &loops {
        let demands: Vec<Vec<f64>> = inputs.trace.jobs.iter().map(|j| j.demand.clone()).collect();
        let full = Instance::new(inputs.trace.capacities.clone(), demands)
            .expect("the generated workload is a valid instance");
        let out = AmfSolver::new().solve(&full);
        assert_eq!(out.allocation.aggregates().len(), inputs.trace.jobs.len());
    }
    loops
}

/// One pass of the event loop through the benchmark's session.
pub struct Pass {
    /// Wall time of the whole event loop.
    pub wall_s: f64,
    /// The engine's report.
    pub report: SimReport,
    probe: Probe,
}

/// Run the event loop once. With a recorder, the pass records its spans
/// there (its decisions numbered from `first_request`) and hands the
/// recorder back in [`Pass`].
fn pass(inputs: &Inputs, recorder: Option<Recorder>, first_request: u64) -> Pass {
    let mut probe = Probe {
        first_request,
        ..Probe::default()
    };
    if let Some(mut rec) = recorder {
        probe.root = Some(rec.open("event_loop", None, first_request));
        probe.recorder = Some(rec);
    }
    let policy = ScratchPolicy {
        probe: Arc::new(Mutex::new(probe)),
    };
    let started = Instant::now();
    let (report, loop_stats) =
        simulate_incremental_with_stats(&inputs.trace, &policy, &config(), &inputs.events);
    let wall_s = started.elapsed().as_secs_f64();
    assert!(
        loop_stats.incremental,
        "the benchmark session must drive the loop"
    );
    let probe_arc = policy.probe;
    let mut probe = Arc::try_unwrap(probe_arc)
        .ok()
        .expect("the engine dropped its session")
        .into_inner()
        .expect("probe lock poisoned");
    if let (Some(rec), Some(root)) = (probe.recorder.as_mut(), probe.root) {
        rec.close(root);
    }
    Pass {
        wall_s,
        report,
        probe,
    }
}

/// Completion times as raw bits (`None` as all ones), for bit-exact
/// comparison between passes.
fn completion_bits(report: &SimReport) -> Vec<u64> {
    report
        .jobs
        .iter()
        .map(|j| j.completion.map_or(u64::MAX, f64::to_bits))
        .collect()
}

/// Audit the sampled decisions: the allocation must be certified AMF and
/// every split row must sum to its fair aggregate within 1e-9 relative.
/// Returns `(checked, violations)`.
fn audit_samples(samples: &[Sample]) -> (u64, u64) {
    let mut violations = 0;
    for (k, s) in samples.iter().enumerate() {
        let certified = audit(&s.inst, &s.alloc, FairnessMode::Plain).is_certified_amf();
        let rows_ok = s.split.iter().zip(s.alloc.aggregates()).all(|(row, &agg)| {
            let sum: f64 = row.iter().sum();
            (sum - agg).abs() <= 1e-9 * agg.abs().max(1.0)
        });
        if !certified || !rows_ok || s.split.len() != s.inst.n_jobs() {
            eprintln!("online-skewed: audit violation at sampled decision {k} (certified {certified}, rows {rows_ok})");
            violations += 1;
        }
    }
    (samples.len() as u64, violations)
}

/// Per-decision bests of one event loop across the passes of a run.
struct LoopBest {
    /// Completions of the first pass, as bits.
    reference: Option<Vec<u64>>,
    /// Per decision: fastest latency (ns) over the passes, and the number
    /// of active jobs.
    best: Vec<(f64, usize)>,
    /// Fastest time of a pass outside its decisions (the engine's own).
    engine_best_s: f64,
}

/// The untraced run: repeat rounds, each one pass of every event loop,
/// until `seconds` are used (at least one round), and report the
/// end-to-end metrics. Each pass is checked and its audit samples dropped
/// before the next starts, so memory does not grow with the passes.
///
/// Every pass of a loop makes the same decisions (completions are checked
/// to be bit-identical), so decision `i` of one pass is the same work as
/// decision `i` of any other. Its latency is taken as the fastest of the
/// passes: a stall of the machine that lasts a few seconds then slows one
/// pass's segment of the loop, not the result. On a shared two-core host
/// the wall time of identical passes ranged from 3.7 to 5.7 s within one
/// run (see METRICS.md).
pub fn run_untraced(loops: &[Inputs], seconds: f64, m: &mut Metrics) -> Outcome {
    let started = Instant::now();
    let mut correct = true;
    let (mut checked, mut violations) = (0, 0);
    let mut state: Vec<LoopBest> = loops
        .iter()
        .map(|_| LoopBest {
            reference: None,
            best: Vec::new(),
            engine_best_s: f64::INFINITY,
        })
        .collect();
    let mut round_s = Vec::new();
    loop {
        let round_started = Instant::now();
        for (inputs, st) in loops.iter().zip(&mut state) {
            let p = pass(inputs, None, 0);
            let bits = completion_bits(&p.report);
            match &st.reference {
                None => {
                    if bits.contains(&u64::MAX) {
                        eprintln!("online-skewed: some job never completed");
                        correct = false;
                    }
                    st.reference = Some(bits);
                    st.best = p.probe.decisions.clone();
                }
                Some(r) if *r != bits || st.best.len() != p.probe.decisions.len() => {
                    eprintln!("online-skewed: passes made different decisions");
                    correct = false;
                }
                Some(_) => {
                    for (b, &(ns, _)) in st.best.iter_mut().zip(&p.probe.decisions) {
                        b.0 = b.0.min(ns);
                    }
                }
            }
            let (c, v) = audit_samples(&p.probe.samples);
            checked += c;
            violations += v;
            let decisions_s: f64 = p.probe.decisions.iter().map(|d| d.0).sum::<f64>() / 1e9;
            st.engine_best_s = st.engine_best_s.min(p.wall_s - decisions_s);
        }
        let r = round_started.elapsed().as_secs_f64();
        round_s.push(r);
        if started.elapsed().as_secs_f64() + r > seconds {
            break;
        }
    }
    // Light decisions hold at most half their loop's largest active set,
    // heavy ones more: a split by the solver's input size, which every
    // seed fills, rather than by event times, whose share moves with the
    // seed.
    let (mut light, mut heavy) = (Vec::new(), Vec::new());
    for st in &state {
        let peak = st.best.iter().map(|d| d.1).max().unwrap_or(0);
        for &(ns, active) in &st.best {
            let class = if 2 * active > peak {
                &mut heavy
            } else {
                &mut light
            };
            class.push(ns / 1e3);
        }
    }
    let (light, heavy) = (stats::sorted(light), stats::sorted(heavy));
    let decisions: usize = state.iter().map(|st| st.best.len()).sum();
    // Event loop time on the fastest footing: every decision at its best,
    // plus the engine's best time outside the decisions.
    let best_loop_s: f64 = state
        .iter()
        .map(|st| st.best.iter().map(|d| d.0).sum::<f64>() / 1e9 + st.engine_best_s)
        .sum();
    println!(
        "online-skewed: {} rounds over {} loops of {:?} decisions, event_loop_s median {:.4} \
         (rounds {round_s:?}), best-of-passes {best_loop_s:.4}; decisions: {} light (highest \
         resolved {:?}), {} heavy (highest resolved {:?}); {checked} audited, {violations} violations",
        round_s.len(),
        loops.len(),
        state.iter().map(|st| st.best.len()).collect::<Vec<_>>(),
        stats::median(&round_s),
        light.len(),
        stats::highest_resolved(&light).map(|(bp, v)| (stats::percentile_label(bp), v)),
        heavy.len(),
        stats::highest_resolved(&heavy).map(|(bp, v)| (stats::percentile_label(bp), v)),
    );
    m.set("throughput_per_s", decisions as f64 / best_loop_s);
    m.set(
        "light_p50_us",
        stats::percentile(&light, 5000).unwrap_or(f64::NAN),
    );
    m.set(
        "heavy_p50_us",
        stats::percentile(&heavy, 5000).unwrap_or(f64::NAN),
    );
    Outcome {
        correct: correct && violations == 0,
        attempted: (decisions * round_s.len()) as u64,
        failed: 0,
    }
}

/// The traced run: per event loop, one untraced pass, one traced pass and
/// one pass of the default path ([`simulate_with_capacity_events`]);
/// completions must be bit-identical across all three. Reports the
/// per-layer metrics, summed over the loops.
pub fn run_traced(loops: &[Inputs], m: &mut Metrics, spans_out: &std::path::Path) -> Outcome {
    let mut correct = true;
    let mut rec = Some(Recorder::new());
    let mut roots = Vec::new();
    let (mut checked, mut violations) = (0, 0);
    let mut work = SolveStats::default();
    let (mut rounds, mut decisions, mut reallocations) = (0, 0, 0);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for inputs in loops {
        let plain = pass(inputs, None, 0);
        let mut traced = pass(inputs, rec.take(), decisions as u64);
        rec = traced.probe.recorder.take();
        let default_path = simulate_with_capacity_events(
            &inputs.trace,
            &AmfSolver::new(),
            &config(),
            &inputs.events,
        );
        let reference = completion_bits(&plain.report);
        if reference.contains(&u64::MAX) {
            eprintln!("online-skewed: some job never completed");
            correct = false;
        }
        if completion_bits(&traced.report) != reference {
            eprintln!("online-skewed: traced completions differ from untraced");
            correct = false;
        }
        if completion_bits(&default_path) != reference {
            eprintln!("online-skewed: default-path completions differ from the benchmark session");
            correct = false;
        }
        let (c, v) = audit_samples(&traced.probe.samples);
        checked += c;
        violations += v;
        roots.extend(traced.probe.root);
        work.saturating_merge_work(&traced.probe.work);
        rounds += traced.probe.rounds;
        decisions += traced.probe.decisions.len();
        reallocations += traced.report.reallocations;
        untraced_s += plain.wall_s;
        traced_s += traced.wall_s;
    }

    let rec = rec.expect("the recorder comes back from every traced pass");
    let all = rec.spans();
    let solve_ns = stats::sorted(spans::durations(all, "solve"));
    let split_ns = stats::sorted(spans::durations(all, "split"));
    let realloc_ns = stats::sorted(spans::durations(all, "reallocation"));
    let self_ns = spans::self_times(all);
    let engine_self_ns: u64 = roots.iter().map(|&r| self_ns[r]).sum();
    let solve_busy_ns: f64 = solve_ns.iter().sum();

    m.set("flow.edges_visited", work.edges_visited as f64);
    m.set("flow.csr_rebuilds", work.csr_rebuilds as f64);
    m.set(
        "flow.bitset_words_cleared",
        work.bitset_words_cleared as f64,
    );
    m.set(
        "flow.solve_ns_per_edge",
        ratio(solve_busy_ns, work.edges_visited as f64).value,
    );
    m.set("core.solves", solve_ns.len() as f64);
    m.set("core.solve_busy_s", solve_busy_ns / 1e9);
    m.set("core.solve_p50_us", tail(&solve_ns, 5000) / 1e3);
    m.set("core.solve_p99_us", tail(&solve_ns, 9900) / 1e3);
    m.set("core.rounds", rounds as f64);
    m.set("core.max_flows", work.max_flows as f64);
    m.set(
        "core.dinkelbach_iterations",
        work.dinkelbach_iterations as f64,
    );
    m.set(
        "core.max_flows_per_round",
        ratio(work.max_flows as f64, rounds as f64).value,
    );
    m.set("sim.reallocations", reallocations as f64);
    m.set("sim.realloc_p50_ms", tail(&realloc_ns, 5000) / 1e6);
    m.set("sim.realloc_p99_ms", tail(&realloc_ns, 9900) / 1e6);
    m.set("sim.split_busy_s", split_ns.iter().sum::<f64>() / 1e9);
    m.set("sim.split_p50_us", tail(&split_ns, 5000) / 1e3);
    m.set("sim.split_p99_us", tail(&split_ns, 9900) / 1e3);
    m.set("sim.engine_self_s", engine_self_ns as f64 / 1e9);
    m.set("audit.checked", checked as f64);
    m.set("audit.violations", violations as f64);
    m.set("trace.untraced_s", untraced_s);
    m.set("trace.traced_s", traced_s);
    m.set("trace.overhead_s", traced_s - untraced_s);
    m.set("trace.spans", all.len() as f64);
    if let Err(e) = rec.write_jsonl(spans_out) {
        eprintln!("online-skewed: could not write spans: {e}");
    }
    println!(
        "online-skewed traced: {} loops, untraced {untraced_s:.4} s, traced {traced_s:.4} s, \
         {} spans, engine self {:.4} s",
        loops.len(),
        all.len(),
        engine_self_ns as f64 / 1e9
    );
    Outcome {
        correct: correct && violations == 0,
        attempted: decisions as u64,
        failed: 0,
    }
}
