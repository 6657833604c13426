//! Benchmark entry point.
//!
//! ```text
//! amfbench --workload <online-skewed|serve-large-tenants|serve-small-tenants>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when a correctness check fails, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use amfbench::report::{self, Metrics, Outcome, SetupPlan, END_TO_END};
use amfbench::{online, serve, stats};

const USAGE: &str =
    "usage: amfbench --workload <online-skewed|serve-large-tenants|serve-small-tenants> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = report::parallelism();
    println!(
        "amfbench: workload {} seed {} seconds {} trace {}; available_parallelism {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let per_layer = report::per_layer();
    let mut m = Metrics::default();
    if args.trace {
        // Layers the workload does not use read 0.
        for (name, _) in &per_layer {
            m.set(name.clone(), 0.0);
        }
        m.set("env.available_parallelism", threads as f64);
    }
    let spans_out =
        PathBuf::from(".bench_out").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));

    let outcome: Outcome = match args.workload.as_str() {
        "online-skewed" => {
            let mut setup_s = Vec::new();
            let mut inputs = None;
            while SetupPlan::RUN.more(setup_s.len(), setup_s.iter().sum()) {
                let t0 = Instant::now();
                inputs = Some(online::setup(args.seed));
                setup_s.push(t0.elapsed().as_secs_f64());
            }
            m.set("setup_s", stats::median(&setup_s));
            let inputs = inputs.expect("at least one setup ran");
            if args.trace {
                m.set("load.threads", 1.0);
                online::run_traced(&inputs, &mut m, &spans_out)
            } else {
                online::run_untraced(&inputs, args.seconds, &mut m)
            }
        }
        name => match serve::Shape::named(name) {
            Some(shape) => serve::run(
                &shape,
                args.seed,
                args.seconds,
                args.trace,
                SetupPlan::RUN,
                &mut m,
                &spans_out,
            ),
            None => {
                eprintln!("unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    m.set("peak_rss_mb", report::peak_rss_mb().unwrap_or(f64::NAN));

    let wanted: Vec<(String, &'static str)> = if args.trace {
        per_layer
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    match report::result_line(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &m,
        &wanted,
    ) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("amfbench: a correctness check failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("amfbench: {e}");
            ExitCode::from(1)
        }
    }
}
