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
//! * `bench` — run the benchmark's traced `online-skewed` pass (seed 1,
//!   see [`ONLINE_ARGS`]) in the release profile and record its
//!   deterministic work counters in `BENCH_online.json` at the workspace
//!   root. `--check` turns the run into a regression gate: the fresh report
//!   goes to `target/` instead, and its counters must equal the committed
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
        Some("bench") => match check_flag(env::args().skip(2)) {
            Ok(check) => bench(check),
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

/// Parse `cargo xtask bench` flags: whether `--check` was given.
fn check_flag(args: impl Iterator<Item = String>) -> Result<bool, String> {
    let mut check = false;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            other => return Err(format!("unknown bench flag {other}")),
        }
    }
    Ok(check)
}

fn usage() {
    eprintln!("usage: cargo xtask <lint|fmt|bench [--check]>");
    eprintln!(
        "  lint   run the static-analysis gate (rustfmt --check + clippy + rustdoc, -D warnings)"
    );
    eprintln!("  fmt    apply rustfmt to the workspace");
    eprintln!(
        "  bench  run the benchmark's traced online-skewed pass and record its work\n\
         \x20        counters in BENCH_online.json; --check requires them to equal the\n\
         \x20        committed ones exactly"
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

/// First number following `"key":` in `json`, parsed leniently — enough
/// for the reports our own serializer writes, keeping xtask dependency-free.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    extract_number_prefix(&json[at..])
}

/// Parse the number at the start of `rest` (after optional whitespace).
fn extract_number_prefix(rest: &str) -> Option<f64> {
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The traced `online-skewed` pass whose work counters `bench` pins (CI
/// runs it through `cargo xtask bench --check`). Traced runs do a fixed
/// amount of work, whatever `--seconds` says.
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

fn bench(check: bool) -> ExitCode {
    const REPORT: &str = "BENCH_online.json";
    let root = workspace_root();
    let committed = root.join(REPORT);
    if !check {
        return match bench_online(&committed) {
            Some(_) => ExitCode::SUCCESS,
            None => ExitCode::FAILURE,
        };
    }
    // In check mode the committed baseline is the reference: read it
    // before the run, and keep the fresh report out of the way under
    // target/ so the working tree stays clean.
    let baseline = match std::fs::read_to_string(&committed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "xtask: bench --check needs a committed baseline at {}: {e}",
                committed.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let dir = root.join("target").join("bench-check");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("xtask: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    match bench_online(&dir.join(REPORT)) {
        Some(fresh) if check_online(&fresh, &baseline) => {
            println!("==> bench --check passed");
            ExitCode::SUCCESS
        }
        _ => ExitCode::FAILURE,
    }
}

fn fmt() -> ExitCode {
    if run("rustfmt (workspace)", "cargo", &["fmt", "--all"]) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
