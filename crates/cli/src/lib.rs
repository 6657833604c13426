//! Implementation of the `amf` command-line tool.
//!
//! The binary is a thin wrapper around [`run`], which takes the argument
//! list and stdin contents and returns the output string — so the whole
//! CLI is unit-testable without spawning processes.
//!
//! ```text
//! amf gen --jobs 20 --sites 5 --alpha 1.2 --seed 1      # trace JSON to stdout
//! amf solve --policy amf < trace.json                   # allocation table
//! amf simulate --policy amf --jct-addon < trace.json    # JCT report
//! amf check < trace.json                                # fairness properties
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod args;
mod commands;

pub use args::{parse, Command, ParseError};

/// Entry point: execute the parsed command against `stdin`, returning the
/// output to print (or an error message for exit code 1).
pub fn run(argv: &[String], stdin: &str) -> Result<String, String> {
    let cmd = args::parse(argv).map_err(|e| e.to_string())?;
    match cmd {
        Command::Help => Ok(args::USAGE.to_owned()),
        Command::Gen(p) => commands::generate(&p),
        Command::Solve(p) => commands::solve(&p, stdin),
        Command::Simulate(p) => commands::simulate_cmd(&p, stdin),
        Command::Check => commands::check(stdin),
        Command::Audit(p) => commands::audit_cmd(&p, stdin),
        Command::Drf => commands::drf(stdin),
        Command::Serve(p) => commands::serve_cmd(&p),
        Command::Client(p) => commands::client_cmd(&p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_errors() {
        assert!(run(&sv(&["--help"]), "").unwrap().contains("USAGE"));
        assert!(run(&sv(&["bogus"]), "").is_err());
    }

    #[test]
    fn gen_solve_simulate_check_pipeline() {
        let trace = run(
            &sv(&[
                "gen", "--jobs", "6", "--sites", "3", "--alpha", "1.2", "--seed", "4",
            ]),
            "",
        )
        .unwrap();
        assert!(trace.contains("capacities"));

        let solved = run(&sv(&["solve", "--policy", "amf"]), &trace).unwrap();
        assert!(solved.contains("aggregate"), "{solved}");

        let sim = run(&sv(&["simulate", "--policy", "amf", "--jct-addon"]), &trace).unwrap();
        assert!(sim.contains("mean_jct"), "{sim}");

        let checked = run(&sv(&["check"]), &trace).unwrap();
        assert!(checked.contains("pareto_efficient"), "{checked}");

        let audited = run(&sv(&["audit"]), &trace).unwrap();
        assert!(audited.contains("=> CERTIFIED"), "{audited}");
    }

    #[test]
    fn removed_solve_knobs_fail_before_solving() {
        // `--backend` and `--no-contraction` selected solver paths that no
        // longer exist, `simulate --incremental` an event-loop session,
        // `serve --no-coalesce` an eager apply mode, `serve --workers` a
        // worker pool and `serve --shards` a split session table that are
        // gone too; a script still passing them gets an error naming the
        // flag, not a silently different run (nor a server that starts
        // listening).
        let trace = run(
            &sv(&["gen", "--jobs", "4", "--sites", "2", "--seed", "3"]),
            "",
        )
        .unwrap();
        for argv in [
            &["solve", "--backend", "dinic"][..],
            &["solve", "--backend", "push-relabel"],
            &["solve", "--no-contraction"],
            &["simulate", "--incremental"],
            &["simulate", "--jct-addon", "--incremental"],
            &["serve", "--no-coalesce"],
            &["serve", "--workers", "2"],
            &["serve", "--shards", "2"],
        ] {
            let err = run(&sv(argv), &trace).unwrap_err();
            let flag = argv.iter().rev().find(|a| a.starts_with("--")).unwrap();
            assert!(
                err.starts_with(&format!("{}: unknown flag {flag}", argv[0])),
                "{argv:?} gave {err:?}"
            );
        }
        assert!(run(&sv(&["solve"]), &trace).is_ok());
        assert!(run(&sv(&["simulate", "--jct-addon"]), &trace).is_ok());
    }

    #[test]
    fn slot_engine_refuses_the_jct_addon() {
        // The slot engine has no add-on split: the pair must fail, naming
        // both flags, instead of reporting a plain slot run under an
        // add-on header.
        let trace = run(
            &sv(&[
                "gen", "--jobs", "12", "--sites", "4", "--alpha", "1.2", "--seed", "3",
            ]),
            "",
        )
        .unwrap();
        let err = run(
            &sv(&["simulate", "--engine", "slots", "--jct-addon"]),
            &trace,
        )
        .unwrap_err();
        assert!(
            err.contains("--jct-addon") && err.contains("--engine slots"),
            "{err}"
        );
        assert!(run(&sv(&["simulate", "--engine", "slots"]), &trace).is_ok());
        assert!(run(&sv(&["simulate", "--jct-addon"]), &trace).is_ok());
    }

    #[test]
    fn simulate_refuses_sub_slot_traces_on_the_slot_engine() {
        // A demand of half a slot never rounds up to a slot, and half a
        // site rounds down to none: the slot engine must refuse the trace,
        // not report it unfinished.
        for (trace, below) in [
            (
                r#"{"capacities":[4],"jobs":[{"arrival":0,"work":[2],"demand":[0.5]}]}"#,
                "demand 0.5",
            ),
            (
                r#"{"capacities":[0.5],"jobs":[{"arrival":0,"work":[2],"demand":[3]}]}"#,
                "capacity 0.5",
            ),
        ] {
            let err = run(&sv(&["simulate", "--engine", "slots"]), trace).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "job 0: work at site 0 but {below} is below one slot — \
                     it could never run on the slot engine"
                )
            );
            // The fluid engine runs the job at rate 0.5 and finishes it at t = 4.
            let fluid = run(&sv(&["simulate"]), trace).unwrap();
            assert!(fluid.contains("jobs finished = 1/1"), "{fluid}");
            assert!(fluid.contains("makespan = 4.00"), "{fluid}");
        }
    }

    #[test]
    fn simulate_prints_no_jct_when_no_job_finished() {
        // A site of capacity 0 strands the job on both engines alike.
        let trace = r#"{"capacities":[0],"jobs":[{"arrival":0,"work":[2],"demand":[3]}]}"#;
        for engine in ["fluid", "slots"] {
            let out = run(&sv(&["simulate", "--engine", engine]), trace).unwrap();
            assert!(out.contains("jobs finished = 0/1\n"), "{engine}: {out}");
            assert!(out.contains("\nmean_jct = n/a\n"), "{engine}: {out}");
            assert!(out.contains("\np95_jct = n/a\n"), "{engine}: {out}");
        }
    }

    #[test]
    fn simulate_refuses_work_without_demand_on_both_engines() {
        let trace = r#"{"capacities":[4,4],"jobs":[
            {"arrival":0,"work":[2,0],"demand":[1,1]},
            {"arrival":0,"work":[1,3],"demand":[2,0]}]}"#;
        for engine in ["fluid", "slots"] {
            let err = run(&sv(&["simulate", "--engine", engine]), trace).unwrap_err();
            assert_eq!(
                err, "job 1: work at site 1 but zero demand — it could never run",
                "{engine}"
            );
        }
        let err = run(&sv(&["simulate", "--policy", "srpt-per-site"]), trace).unwrap_err();
        assert!(err.contains("zero demand"), "{err}");
    }

    #[test]
    fn solve_rejects_garbage_input() {
        assert!(run(&sv(&["solve"]), "{nope").is_err());
    }

    #[test]
    fn serve_and_client_round_trip() {
        let port_file =
            std::env::temp_dir().join(format!("amf-serve-cli-test-{}.addr", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let pf = port_file.to_string_lossy().to_string();
        let server = std::thread::spawn({
            let pf = pf.clone();
            move || run(&sv(&["serve", "--port-file", &pf]), "")
        });
        // Wait for the server to publish its ephemeral address.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if s.trim().contains(':') {
                    break s.trim().to_string();
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never wrote the port file"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let client = |args: &[&str]| {
            let mut argv = vec!["client", "--addr", &addr];
            argv.extend_from_slice(args);
            run(&sv(&argv), "")
        };
        assert!(client(&["create", "--tenant", "t", "--capacities", "6,4"])
            .unwrap()
            .contains("2 site(s)"));
        assert!(
            client(&["add-job", "--tenant", "t", "--id", "0", "--demands", "4,1"])
                .unwrap()
                .contains("accepted 1 delta(s)")
        );
        assert!(client(&[
            "add-job",
            "--tenant",
            "t",
            "--id",
            "1",
            "--demands",
            "2,3",
            "--weight",
            "2"
        ])
        .unwrap()
        .contains("accepted 1 delta(s)"));
        let solved = client(&["solve", "--tenant", "t"]).unwrap();
        assert!(solved.contains("re-solved"), "{solved}");
        assert!(solved.contains("aggregate"), "{solved}");
        let cached = client(&["get", "--tenant", "t"]).unwrap();
        assert!(cached.contains("cached"), "{cached}");
        let stats = client(&["stats"]).unwrap();
        assert!(stats.contains("sessions = 1"), "{stats}");
        assert!(client(&["shutdown"]).unwrap().contains("draining"));
        let summary = server.join().expect("server thread").unwrap();
        assert!(summary.contains("sessions = 1"), "{summary}");
        let _ = std::fs::remove_file(&port_file);
    }

    #[test]
    fn all_policies_accepted() {
        let trace = run(
            &sv(&["gen", "--jobs", "4", "--sites", "2", "--seed", "1"]),
            "",
        )
        .unwrap();
        for policy in [
            "amf",
            "amf-enhanced",
            "per-site-max-min",
            "equal-division",
            "proportional-to-demand",
        ] {
            let out = run(&sv(&["solve", "--policy", policy]), &trace).unwrap();
            assert!(out.contains("aggregate"), "{policy}: {out}");
        }
        assert!(run(&sv(&["solve", "--policy", "nope"]), &trace).is_err());
    }
}
