//! Workspace automation driver, invoked as `cargo xtask <command>`.
//!
//! Commands:
//!
//! * `lint` — the static-analysis gate: rustfmt `--check`, then
//!   `clippy -D warnings` across the workspace, then a second, stricter
//!   clippy pass over the numeric-discipline crates (see
//!   [`STRICT_CRATES`]) with the `clippy.toml` disallowed-methods list
//!   promoted to hard errors (raw `f64` equality,
//!   `partial_cmp().unwrap()`, unwrapping flow results), then
//!   `cargo doc --workspace --no-deps` with rustdoc warnings (dangling or
//!   private intra-doc links, redundant link targets) denied.
//! * `fmt` — apply rustfmt to the whole workspace.
//! * `bench` — run the pinned solver benchmark (`bench_solver`) and the
//!   serve load generator (`bench_serve`), both release profile, and
//!   validate the `BENCH_solver.json` / `BENCH_serve.json` they write at
//!   the workspace root. `--smoke` forwards the bins' quick mode for CI.
//!   `--check` turns the run into a regression gate: reports are written
//!   to `target/` instead, and compared against the committed baselines —
//!   deterministic solver work counters and the serve codec reply's length
//!   and hash must match exactly, and (full mode only) wall-clock ratios
//!   must stay within the tolerance, default 1.25×,
//!   overridable with `--tolerance X` or the `AMF_BENCH_TOLERANCE` env var.
//!   Both modes also run the benchmark's traced `online-skewed` pass (seed
//!   1, see [`ONLINE_ARGS`]) and record its deterministic work counters in
//!   `BENCH_online.json`; `--check` requires them to equal the committed
//!   ones exactly.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::env;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

fn main() -> ExitCode {
    let task = env::args().nth(1);
    match task.as_deref() {
        Some("lint") => lint(),
        Some("fmt") => fmt(),
        Some("bench") => match BenchOptions::parse(env::args().skip(2)) {
            Ok(opts) => bench(&opts),
            Err(msg) => {
                eprintln!("xtask: {msg}");
                usage();
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("unknown task `{other}`");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

/// Parsed `cargo xtask bench` flags.
struct BenchOptions {
    smoke: bool,
    check: bool,
    tolerance: f64,
}

impl BenchOptions {
    /// Parse flags; the regression tolerance resolves as
    /// `--tolerance` > `AMF_BENCH_TOLERANCE` > 1.25.
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = BenchOptions {
            smoke: false,
            check: false,
            tolerance: match env::var("AMF_BENCH_TOLERANCE") {
                Ok(v) => v
                    .parse::<f64>()
                    .map_err(|_| format!("AMF_BENCH_TOLERANCE is not a number: {v:?}"))?,
                Err(_) => 1.25,
            },
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--check" => opts.check = true,
                "--tolerance" => {
                    let v = args.next().ok_or("--tolerance requires a value")?;
                    opts.tolerance = v
                        .parse::<f64>()
                        .map_err(|_| format!("--tolerance is not a number: {v:?}"))?;
                }
                other => return Err(format!("unknown bench flag {other}")),
            }
        }
        if !(opts.tolerance.is_finite() && opts.tolerance >= 1.0) {
            return Err(format!(
                "tolerance must be a finite ratio >= 1.0, got {}",
                opts.tolerance
            ));
        }
        Ok(opts)
    }
}

fn usage() {
    eprintln!("usage: cargo xtask <lint|fmt|bench [--smoke] [--check] [--tolerance X]>");
    eprintln!(
        "  lint   run the static-analysis gate (rustfmt --check + clippy + rustdoc, -D warnings)"
    );
    eprintln!("  fmt    apply rustfmt to the workspace");
    eprintln!(
        "  bench  run the solver benchmark, the serve load generator and the traced\n\
         \x20        online-skewed pass, and validate their reports; --check gates against\n\
         \x20        the committed BENCH_*.json baselines (tolerance 1.25x; override with\n\
         \x20        --tolerance or AMF_BENCH_TOLERANCE)"
    );
}

/// The workspace root: one level above this crate's manifest directory.
///
/// The directory is read at run time (`cargo run` sets
/// `CARGO_MANIFEST_DIR` for the binary it starts), so a copy of the
/// repository that reuses an xtask built in another checkout acts on its
/// own tree; the compile-time value is only the fallback.
fn workspace_root() -> PathBuf {
    let manifest_dir =
        env::var_os("CARGO_MANIFEST_DIR").unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into());
    Path::new(&manifest_dir)
        .parent()
        .expect("xtask lives one level below the workspace root")
        .to_path_buf()
}

/// Run a command in the workspace root; report whether it succeeded.
fn run(label: &str, program: &str, args: &[&str]) -> bool {
    run_with_env(label, program, args, &[])
}

/// [`run`] with extra environment variables set for the child.
fn run_with_env(label: &str, program: &str, args: &[&str], envs: &[(&str, &str)]) -> bool {
    println!("==> {label}");
    let status = Command::new(program)
        .args(args)
        .envs(envs.iter().copied())
        .current_dir(workspace_root())
        .status();
    match status {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("xtask: `{label}` failed with {s}");
            false
        }
        Err(e) => {
            eprintln!("xtask: could not run `{program}`: {e}");
            false
        }
    }
}

/// Crates under the strict numeric-discipline lint set: the solver and flow
/// layers, where a raw float comparison or an unwrapped flow result is a
/// correctness bug, not a style preference.
const STRICT_CRATES: &[&str] = &[
    "amf-core",
    "amf-flow",
    "amf-numeric",
    "amf-audit",
    "amf-sim",
    "amf-serve",
];

fn lint() -> ExitCode {
    let mut ok = true;

    ok &= run(
        "rustfmt --check (workspace)",
        "cargo",
        &["fmt", "--all", "--", "--check"],
    );

    // `disallowed_methods` / `disallowed_types` (configured in clippy.toml)
    // fire everywhere once configured; the workspace pass covers test
    // targets too, where `unwrap()` is idiomatic, so it allows them here
    // and leaves enforcement to the strict `--lib` pass below.
    ok &= run(
        "clippy -D warnings (workspace, all targets)",
        "cargo",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--quiet",
            "--",
            "-D",
            "warnings",
            "-A",
            "clippy::disallowed-methods",
            "-A",
            "clippy::disallowed-types",
        ],
    );

    // The strict numeric-discipline pass: promote the clippy.toml bans —
    // plus the raw-float-comparison and unwrap lints they backstop — to
    // errors inside the strict set, lib targets only (tests exempt).
    let mut strict_args: Vec<&str> = vec!["clippy", "--quiet"];
    for krate in STRICT_CRATES {
        strict_args.extend_from_slice(&["-p", krate]);
    }
    strict_args.extend_from_slice(&[
        "--lib",
        "--",
        "-D",
        "warnings",
        "-D",
        "clippy::disallowed-methods",
        "-D",
        "clippy::disallowed-types",
        "-D",
        "clippy::float-cmp",
        "-D",
        "clippy::unwrap-used",
    ]);
    ok &= run(
        "clippy strict numeric-discipline pass (amf-core, amf-flow, amf-numeric, amf-audit, amf-sim, amf-serve)",
        "cargo",
        &strict_args,
    );

    ok &= run_with_env(
        "rustdoc -D warnings (workspace, no deps)",
        "cargo",
        &["doc", "--workspace", "--no-deps", "--offline", "--quiet"],
        &[("RUSTDOCFLAGS", "-D warnings")],
    );

    if ok {
        println!("==> lint gate passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Keys every `BENCH_solver.json` must contain (schema
/// `amf-bench-solver/v5`); checked textually so xtask stays
/// dependency-free.
const BENCH_SOLVER_KEYS: &[&str] = &[
    "\"schema\"",
    "\"amf-bench-solver/v5\"",
    "\"sweep\"",
    "\"contracted-dinic\"",
    "\"legacy_full_baseline_ms\"",
    "\"e8_400x20\"",
    "\"batch\"",
    "\"kernels\"",
    "\"event_loop\"",
    "\"ns_per_edge\"",
    "\"csr_rebuilds\"",
    "\"bitset_words_cleared\"",
];

/// Keys every `BENCH_serve.json` must contain (schema
/// `amf-bench-serve/v3`).
const BENCH_SERVE_KEYS: &[&str] = &[
    "\"schema\"",
    "\"amf-bench-serve/v3\"",
    "\"hardware\"",
    "\"closed_loop\"",
    "\"open_loop\"",
    "\"coalescing\"",
    "\"codec\"",
    "\"reply_bytes\"",
    "\"reply_fnv\"",
    "\"encode_us\"",
    "\"throughput_rps\"",
    "\"p50_us\"",
    "\"p95_us\"",
    "\"p99_us\"",
    "\"solves_per_request\"",
    "\"audit_violations\": 0",
];

/// Run one benchmark bin and validate the report it writes. Returns the
/// report contents on success so `--check` can compare them.
fn bench_bin(bin: &str, out: &Path, required: &[&str], smoke: bool) -> Option<String> {
    let out_str = out.to_string_lossy().into_owned();
    let mut args: Vec<&str> = vec!["run", "--release", "-p", "amf-bench", "--bin", bin, "--"];
    if smoke {
        args.push("--smoke");
    }
    args.extend_from_slice(&["--out", &out_str]);
    if !run(&format!("{bin} (release)"), "cargo", &args) {
        return None;
    }
    let json = match std::fs::read_to_string(out) {
        Ok(s) if !s.trim().is_empty() => s,
        Ok(_) => {
            eprintln!("xtask: {} is empty", out.display());
            return None;
        }
        Err(e) => {
            eprintln!("xtask: benchmark report missing at {}: {e}", out.display());
            return None;
        }
    };
    for key in required {
        if !json.contains(key) {
            eprintln!("xtask: {} is malformed: missing {key}", out.display());
            return None;
        }
    }
    println!("==> benchmark report validated: {}", out.display());
    Some(json)
}

/// First number following `"key":` in `json`, parsed leniently — enough
/// for the reports our own serializer writes, keeping xtask dependency-free.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every number following `"key":` in `json`, in document order.
fn extract_all_numbers(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        if let Some(v) = extract_number_prefix(rest) {
            out.push(v);
        }
    }
    out
}

/// The JSON token (number or string, quotes kept) following `"key":`.
fn extract_token<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = json[json.find(&needle)? + needle.len()..].trim_start();
    let end = match rest.strip_prefix('"') {
        Some(body) => body.find('"')? + 2,
        None => rest.find([',', '}', '\n']).unwrap_or(rest.len()),
    };
    Some(rest[..end].trim_end())
}

/// Parse the number at the start of `rest` (after optional whitespace).
fn extract_number_prefix(rest: &str) -> Option<f64> {
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `sweep` section of a solver report (everything before the headline
/// section): its work counters are deterministic for a fixed instance set,
/// independent of rep count, and identical in smoke and full mode.
fn sweep_section(json: &str) -> &str {
    match json.find("\"e8_400x20\"") {
        Some(end) => &json[..end],
        None => json,
    }
}

/// Compare a fresh solver report against the committed baseline.
///
/// Deterministic counters (sweep-section `rounds`, `max_flows`,
/// `edges_visited`) must match the baseline exactly in every mode — a
/// mismatch means the solver is doing different *work*, not that the
/// machine is slow. Wall-clock gating (headline `contracted_ms`, event-loop
/// `from_scratch_ms`) applies in full mode only;
/// smoke timings are single-rep noise.
fn check_solver(fresh: &str, baseline: &str, smoke: bool, tolerance: f64) -> bool {
    let mut ok = true;
    for key in ["rounds", "max_flows", "edges_visited"] {
        let got = extract_all_numbers(sweep_section(fresh), key);
        let want = extract_all_numbers(sweep_section(baseline), key);
        if got != want {
            eprintln!(
                "xtask: bench --check: sweep counter {key:?} diverged from baseline\n  \
                 baseline: {want:?}\n  fresh:    {got:?}"
            );
            ok = false;
        }
    }
    if smoke {
        return ok;
    }
    for key in ["contracted_ms", "from_scratch_ms"] {
        let (Some(got), Some(want)) = (extract_number(fresh, key), extract_number(baseline, key))
        else {
            eprintln!("xtask: bench --check: {key:?} missing from a solver report");
            ok = false;
            continue;
        };
        let ratio = got / want;
        // NaN falls into the failure branch by construction.
        if ratio <= tolerance {
            println!("==> bench --check: {key} {got:.4} ms vs baseline {want:.4} ms ({ratio:.3}x)");
        } else {
            eprintln!(
                "xtask: bench --check: {key} regressed {ratio:.3}x over baseline \
                 ({got:.4} ms vs {want:.4} ms, tolerance {tolerance}x)"
            );
            ok = false;
        }
    }
    ok
}

/// Compare a fresh serve report against the committed baseline.
///
/// The codec reply's `reply_bytes` and `reply_fnv` must equal the
/// baseline's in every mode: they pin the encoder's wire bytes. In full
/// mode only, sustained closed-loop throughput and the codec's median
/// `encode_us` must stay within `tolerance` of the baseline. Other serve
/// counters depend on thread interleaving and are not compared.
fn check_serve(fresh: &str, baseline: &str, smoke: bool, tolerance: f64) -> bool {
    let mut ok = true;
    for key in ["reply_bytes", "reply_fnv"] {
        match (extract_token(fresh, key), extract_token(baseline, key)) {
            (Some(got), Some(want)) if got == want => {
                println!("==> bench --check: codec {key} {got} matches the baseline");
            }
            (got, want) => {
                eprintln!(
                    "xtask: bench --check: codec {key} diverged from baseline (baseline \
                     {want:?}, fresh {got:?}): the encoder's wire bytes changed, or the \
                     solver's f64 output did"
                );
                ok = false;
            }
        }
    }
    if smoke {
        return ok;
    }
    for (key, lower_is_better) in [("throughput_rps", false), ("encode_us", true)] {
        let (Some(got), Some(want)) = (extract_number(fresh, key), extract_number(baseline, key))
        else {
            eprintln!("xtask: bench --check: {key} missing from a serve report");
            ok = false;
            continue;
        };
        let ratio = if lower_is_better {
            got / want
        } else {
            want / got
        };
        // NaN falls into the failure branch by construction.
        if ratio <= tolerance {
            println!("==> bench --check: {key} {got:.1} vs baseline {want:.1} ({ratio:.3}x)");
        } else {
            eprintln!(
                "xtask: bench --check: {key} regressed {ratio:.3}x against baseline \
                 ({got:.1} vs {want:.1}, tolerance {tolerance}x)"
            );
            ok = false;
        }
    }
    ok
}

/// The traced `online-skewed` pass whose work counters `bench` pins: the
/// same invocation as CI's short traced run. Traced runs do a fixed amount
/// of work, whatever `--seconds` says.
const ONLINE_ARGS: &[&str] = &[
    "--workload",
    "online-skewed",
    "--seed",
    "1",
    "--seconds",
    "2",
    "--trace",
    "1",
];

/// Per-layer metrics of the traced online pass that are counts of work,
/// equal on every run of the same source, and so pinned exactly.
const ONLINE_COUNTERS: &[&str] = &[
    "flow.edges_visited",
    "core.rounds",
    "core.max_flows",
    "core.dinkelbach_iterations",
    "sim.reallocations",
];

/// The value of metric `name` in an `amfbench` result line
/// (`"name": {"value": v, ...}`).
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\": {{\"value\":");
    let at = line.find(&needle)? + needle.len();
    extract_number_prefix(&line[at..])
}

/// Run the traced online pass, check that it passed its own correctness
/// and audit checks, and write its pinned counters to `out`. Returns the
/// report on success.
fn bench_online(out: &Path) -> Option<String> {
    println!("==> amfbench {} (release)", ONLINE_ARGS.join(" "));
    let cargo = [
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "amfbench/Cargo.toml",
        "--",
    ];
    let output = match Command::new("cargo")
        .args(cargo.iter().chain(ONLINE_ARGS))
        .current_dir(workspace_root())
        .stderr(Stdio::inherit())
        .output()
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask: could not run amfbench: {e}");
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(line) = stdout.lines().rev().find(|l| l.starts_with("{\"correct\"")) else {
        eprintln!("xtask: amfbench printed no result line ({})", output.status);
        return None;
    };
    if !output.status.success() || !line.starts_with("{\"correct\": true") {
        eprintln!("xtask: the traced online pass failed a correctness check: {line}");
        return None;
    }
    if metric_value(line, "audit.violations") != Some(0.0) {
        eprintln!("xtask: the traced online pass reported audit violations: {line}");
        return None;
    }
    let mut json = String::from("{\n  \"schema\": \"amf-bench-online/v1\",\n");
    json.push_str(&format!(
        "  \"command\": \"amfbench {}\",\n",
        ONLINE_ARGS.join(" ")
    ));
    json.push_str("  \"counters\": {\n");
    for (i, name) in ONLINE_COUNTERS.iter().enumerate() {
        let Some(v) = metric_value(line, name) else {
            eprintln!("xtask: amfbench result line lacks {name}");
            return None;
        };
        let sep = if i + 1 < ONLINE_COUNTERS.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!("    \"{name}\": {v}{sep}\n"));
    }
    json.push_str("  }\n}\n");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("xtask: cannot write {}: {e}", out.display());
        return None;
    }
    println!("==> online work counters written: {}", out.display());
    Some(json)
}

/// Compare the traced online pass's counters against the committed
/// baseline, exactly: they count work, so any difference means the code
/// does different work. A change that moves them re-records the baseline.
fn check_online(fresh: &str, baseline: &str) -> bool {
    let mut ok = true;
    for name in ONLINE_COUNTERS {
        let got = extract_number(fresh, name);
        let want = extract_number(baseline, name);
        if got.is_none() || got != want {
            eprintln!(
                "xtask: bench --check: online counter {name:?} diverged from baseline \
                 (baseline {want:?}, fresh {got:?})"
            );
            ok = false;
        }
    }
    if ok {
        println!("==> bench --check: online work counters match the baseline");
    }
    ok
}

fn bench(opts: &BenchOptions) -> ExitCode {
    let root = workspace_root();
    let mut ok = true;
    for (bin, report, keys) in [
        ("bench_solver", "BENCH_solver.json", BENCH_SOLVER_KEYS),
        ("bench_serve", "BENCH_serve.json", BENCH_SERVE_KEYS),
        ("amfbench", "BENCH_online.json", &[][..]),
    ] {
        let committed = root.join(report);
        // In check mode the committed baseline is the reference: read it
        // before the run, and keep the fresh report out of the way under
        // target/ so the working tree stays clean.
        let (out, baseline) = if opts.check {
            let baseline = match std::fs::read_to_string(&committed) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!(
                        "xtask: bench --check needs a committed baseline at {}: {e}",
                        committed.display()
                    );
                    ok = false;
                    continue;
                }
            };
            let dir = root.join("target").join("bench-check");
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("xtask: cannot create {}: {e}", dir.display());
                ok = false;
                continue;
            }
            (dir.join(report), Some(baseline))
        } else {
            (committed, None)
        };
        let fresh = match bin {
            "amfbench" => bench_online(&out),
            _ => bench_bin(bin, &out, keys, opts.smoke),
        };
        let Some(fresh) = fresh else {
            ok = false;
            continue;
        };
        if let Some(baseline) = baseline {
            ok &= match bin {
                "bench_solver" => check_solver(&fresh, &baseline, opts.smoke, opts.tolerance),
                "amfbench" => check_online(&fresh, &baseline),
                _ => check_serve(&fresh, &baseline, opts.smoke, opts.tolerance),
            };
        }
    }
    if ok {
        if opts.check {
            println!("==> bench --check passed (tolerance {}x)", opts.tolerance);
        }
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fmt() -> ExitCode {
    if run("rustfmt (workspace)", "cargo", &["fmt", "--all"]) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
