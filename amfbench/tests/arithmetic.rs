//! Tests of the benchmark's own arithmetic and checks: the percentile
//! rule, self time under nested and overlapping spans, ratios with their
//! base, traced against untraced runs, and the metric list against
//! `BENCHMARK.json`.

use amfbench::online;
use amfbench::report::{self, Metrics, SetupPlan, END_TO_END};
use amfbench::serve::{self, Mix, Shape};
use amfbench::spans::{self_times, Recorder, Span};
use amfbench::stats::{highest_resolved, median, percentile, ratio, sorted, MIN_BEYOND};

#[test]
fn percentile_is_nearest_rank() {
    let s: Vec<f64> = (1..=1000).map(f64::from).collect();
    // rank ceil(0.99 * 1000) = 990 -> the 990th value; 10 lie beyond.
    assert_eq!(percentile(&s, 9900), Some(990.0));
    assert_eq!(percentile(&s, 5000), Some(500.0));
    assert_eq!(percentile(&s, 9000), Some(900.0));
}

#[test]
fn percentile_needs_ten_samples_beyond() {
    // 999 samples: p99 rank = ceil(989.01) = 990, only 9 beyond.
    let s: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(percentile(&s, 9900), None);
    // p95 of 999: rank 950, 49 beyond.
    assert_eq!(percentile(&s, 9500), Some(950.0));
    assert_eq!(highest_resolved(&s), Some((9500, 950.0)));
    // Exactly MIN_BEYOND beyond is enough.
    let s: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&s, 5000), Some(10.0));
    assert_eq!(s.len() - 10, MIN_BEYOND);
    // Too few for any candidate.
    assert_eq!(highest_resolved(&[1.0, 2.0, 3.0]), None);
    assert_eq!(percentile(&[], 5000), None);
}

#[test]
fn failed_requests_sort_last() {
    let s = sorted(vec![3.0, f64::INFINITY, 1.0, 2.0]);
    assert_eq!(s, vec![1.0, 2.0, 3.0, f64::INFINITY]);
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 50, 90, Some(0)),
        span("b.inner", 60, 70, Some(2)),
    ];
    assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 50, Some(0)),
        span("b", 30, 70, Some(0)),
        // Runs past its parent: only [90, 100] is covered.
        span("c", 90, 120, Some(0)),
        // Entirely outside its parent: covers nothing.
        span("d", 150, 160, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
}

#[test]
fn recorder_spans_nest_in_time() {
    let mut rec = Recorder::new();
    let root = rec.open("root", None, 7);
    let child = rec.open("child", Some(root), 7);
    rec.close(child);
    rec.close(root);
    let s = rec.spans();
    assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    let own = self_times(s);
    assert_eq!(own[0] + own[1], s[0].duration_ns());
}

#[test]
fn ratios_carry_their_base() {
    let r = ratio(3.0, 12.0);
    assert_eq!((r.value, r.base), (0.25, 12.0));
    let empty = ratio(5.0, 0.0);
    assert_eq!((empty.value, empty.base), (0.0, 0.0));
}

#[test]
fn result_line_has_exactly_the_wanted_metrics() {
    let mut m = Metrics::default();
    m.set("a", 1.5);
    m.set("b", 2.0);
    m.set("extra", 9.0);
    let wanted = vec![("a".to_string(), "s"), ("b".to_string(), "count")];
    let line = report::result_line(true, 3, 0, &m, &wanted).expect("all present");
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
    );
    m.set("b", f64::NAN);
    assert!(report::result_line(true, 3, 0, &m, &wanted).is_err());
    let missing = vec![("c".to_string(), "s")];
    assert!(report::result_line(true, 3, 0, &m, &missing).is_err());
}

#[test]
fn traced_event_loop_matches_untraced_and_default_path() {
    let loops = [
        online::inputs_sized(3, 24, 4),
        online::inputs_sized(4, 24, 4),
    ];
    let mut m = Metrics::default();
    let out_dir = std::env::temp_dir().join(format!("amfbench-test-{}", std::process::id()));
    let outcome = online::run_traced(&loops, &mut m, &out_dir.join("online.jsonl"));
    assert!(
        outcome.correct,
        "traced, untraced and default-path completions must agree"
    );
    assert!(m.get("sim.reallocations").unwrap_or(0.0) > 0.0);
    assert_eq!(m.get("core.solves"), m.get("sim.reallocations"));
    // One reallocation span with two children per decision, plus one root
    // per loop.
    assert_eq!(
        m.get("trace.spans"),
        Some(3.0 * m.get("sim.reallocations").unwrap_or(0.0) + loops.len() as f64)
    );
    let _ = std::fs::remove_dir_all(out_dir);
}

#[test]
fn replay_matches_a_tiny_served_script() {
    let shape = Shape {
        name: "tiny",
        tenants: 2,
        sites: 3,
        jobs: 6,
        mix: Mix::ReadsAndWrites,
        light_rps: 200.0,
        heavy_rps: 400.0,
        closed_rps: 2000.0,
        audit_every: 2,
        max_audits: 8,
    };
    let mut m = Metrics::default();
    for (name, _) in report::per_layer() {
        m.set(name, 0.0);
    }
    let out_dir = std::env::temp_dir().join(format!("amfbench-test-serve-{}", std::process::id()));
    let outcome = serve::run(
        &shape,
        5,
        1.5,
        true,
        SetupPlan {
            min_count: 1,
            min_s: 0.0,
        },
        &mut m,
        &out_dir.join("serve.jsonl"),
    );
    assert!(
        outcome.correct,
        "replayed replies must equal the served ones"
    );
    assert_eq!(outcome.failed, 0);
    assert!(m.get("serve.requests").unwrap_or(0.0) > 0.0);
    assert!(m.get("audit.checked").unwrap_or(0.0) > 0.0);
    assert_eq!(m.get("audit.violations"), Some(0.0));
    let _ = std::fs::remove_dir_all(out_dir);
}

/// `BENCHMARK.json` at the repository root lists exactly the metrics the
/// benchmark prints, with the same units.
#[test]
fn benchmark_json_matches_the_metric_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let root = doc.as_obj().expect("an object");
    let listed = |key: &str| -> Vec<(String, String)> {
        serde::field(root, key)
            .as_arr()
            .expect("a list")
            .iter()
            .map(|e| {
                let e = e.as_obj().expect("an entry object");
                (
                    serde::field(e, "name")
                        .as_str()
                        .expect("a name")
                        .to_string(),
                    serde::field(e, "unit")
                        .as_str()
                        .expect("a unit")
                        .to_string(),
                )
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = report::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
}
