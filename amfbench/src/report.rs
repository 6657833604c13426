//! Metric names, units and the result line.
//!
//! The names here are the benchmark's contract: `BENCHMARK.json` at the
//! repository root lists the same names and units (a test checks this).

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("light_p50_us", "us"),
    ("heavy_p50_us", "us"),
];

/// Serve operations that get per-operation layer metrics.
pub const SERVE_OPS: [&str; 3] = ["apply_deltas", "solve", "get_allocation"];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. Layers
/// a workload does not use read 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("flow.edges_visited", "count"),
        ("flow.csr_rebuilds", "count"),
        ("flow.bitset_words_cleared", "count"),
        ("flow.solve_ns_per_edge", "ns"),
        ("core.solves", "count"),
        ("core.solve_busy_s", "s"),
        ("core.solve_p50_us", "us"),
        ("core.solve_p99_us", "us"),
        ("core.rounds", "count"),
        ("core.max_flows", "count"),
        ("core.dinkelbach_iterations", "count"),
        ("core.max_flows_per_round", "ratio"),
        ("core.session_applies", "count"),
        ("core.session_apply_p50_us", "us"),
        ("core.session_solves", "count"),
        ("core.session_solve_p50_us", "us"),
        ("core.session_solve_p99_us", "us"),
        ("core.rounds_replayed", "count"),
        ("core.rounds_resolved", "count"),
        ("core.replay_ratio", "ratio"),
        ("core.replay_base", "count"),
        ("sim.reallocations", "count"),
        ("sim.realloc_p50_ms", "ms"),
        ("sim.realloc_p99_ms", "ms"),
        ("sim.split_busy_s", "s"),
        ("sim.split_p50_us", "us"),
        ("sim.split_p99_us", "us"),
        ("sim.engine_self_s", "s"),
        ("serve.requests", "count"),
        ("serve.failed", "count"),
        ("serve.overloaded", "count"),
        ("serve.solves", "count"),
        ("serve.solves_per_request", "ratio"),
        ("serve.deltas_applied", "count"),
        ("serve.deltas_coalesced", "count"),
        ("serve.coalesce_ratio", "ratio"),
        ("serve.reply_bytes_p50", "bytes"),
        ("serve.generator_lag_p99_us", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for op in SERVE_OPS {
        for (stem, unit) in [
            ("serve.decode_us", "us"),
            ("serve.handler_us", "us"),
            ("serve.encode_us", "us"),
            ("serve.server_op_p50_us_bucketed", "us"),
            ("serve.transport_p50_us", "us"),
            ("serve.queue_wait_p50_us", "us"),
        ] {
            names.push((format!("{stem}.{op}"), unit));
        }
    }
    names.extend(
        [
            ("audit.checked", "count"),
            ("audit.violations", "count"),
            ("trace.untraced_s", "s"),
            ("trace.traced_s", "s"),
            ("trace.overhead_s", "s"),
            ("trace.spans", "count"),
            ("env.available_parallelism", "count"),
            ("load.threads", "count"),
            ("load.connections", "count"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    names
}

/// How often a run sets up; `setup_s` is the median of the setups.
#[derive(Debug, Clone, Copy)]
pub struct SetupPlan {
    /// Set up at least this many times...
    pub min_count: usize,
    /// ...and until the setups took at least this long in all.
    pub min_s: f64,
}

impl SetupPlan {
    /// The plan of a benchmark run. A time floor, not only a count: a
    /// setup of a few milliseconds is otherwise timed within one short
    /// stretch of the machine's load.
    pub const RUN: SetupPlan = SetupPlan {
        min_count: 15,
        min_s: 0.5,
    };

    /// Whether another setup is due after `done` setups took `spent_s`.
    pub fn more(&self, done: usize, spent_s: f64) -> bool {
        done < self.min_count || spent_s < self.min_s
    }
}

/// Outcome of one run of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (decisions or requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

/// Metric values gathered by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Set (or overwrite) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, listing exactly the metrics of `wanted` in that
/// order. Fails when one is missing or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    wanted: &[(String, &'static str)],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `std::thread::available_parallelism`: the CPUs this process may run on
/// (the affinity mask `nproc` prints, narrowed by any cgroup CPU quota).
/// The load generator uses at most this many threads and connections.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
