//! Hand-rolled argument parsing (no external parser dependency).

use std::fmt;

/// Usage text shown by `amf --help`.
pub const USAGE: &str = "\
amf — Aggregate Max-min Fair resource allocation (ICPP 2019 reproduction)

USAGE:
    amf gen      --jobs N --sites M [--alpha A] [--sites-per-job K]
                 [--seed S] [--load RHO]        # emit a trace (JSON, stdout)
    amf solve    [--policy P] [--explain] [--dot] < trace.json
                                                # allocation table / DOT graph
    amf simulate [--policy P] [--jct-addon] [--engine fluid|slots]
                 < trace.json                   # JCT report
    amf check    < trace.json                   # fairness properties of AMF
    amf audit    [--policy P] [--mode plain|enhanced] [--json] < trace.json
                 # certificate-based audit of the policy's allocation
    amf drf      < pool.json                    # multi-resource DRF solve
                 # pool.json: {\"capacities\": [9, 18],
                 #             \"jobs\": [{\"demand\": [1, 4],
                 #                       \"max_tasks\": null, \"weight\": 1.0}]}
    amf serve    [--addr H:P] [--queue-cap Q]
                 [--scalar f64|rational] [--port-file PATH]
                 # multi-tenant allocation server; blocks until a client
                 # sends Shutdown, then prints the drain summary;
                 # --queue-cap: requests in flight server-wide (default 2048)
    amf client --addr H:P <action>              # one request per invocation
                 # actions: create --tenant T --capacities 4,2.5 [--mode M]
                 #          add-job --tenant T --id N --demands 1,2 [--weight W]
                 #          remove-job --tenant T --id N
                 #          solve --tenant T | get --tenant T
                 #          stats | shutdown
    amf --help

POLICIES:
    amf (default), amf-enhanced, per-site-max-min, equal-division,
    proportional-to-demand, srpt-per-site (simulate only)

NOTES:
    gen: --alpha sets Zipf skew of per-job site shares (default 0 = uniform);
         --load RHO adds Poisson arrivals at offered load RHO (default: batch).
    solve: --explain prints the freeze rounds (AMF policies only).
    simulate: --jct-addon and srpt-per-site run on the fluid engine only.
";

/// Parameters of `amf gen`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenParams {
    /// Number of jobs.
    pub jobs: usize,
    /// Number of sites.
    pub sites: usize,
    /// Zipf α skew.
    pub alpha: f64,
    /// Sites each job touches (default: all).
    pub sites_per_job: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Offered load for Poisson arrivals (None = batch).
    pub load: Option<f64>,
}

/// Parameters of `amf solve`.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveParams {
    /// Policy name.
    pub policy: String,
    /// Print the freeze-round explanation (AMF policies only).
    pub explain: bool,
    /// Emit a Graphviz DOT graph of the allocation instead of the table.
    pub dot: bool,
}

/// Parameters of `amf simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateParams {
    /// Policy name.
    pub policy: String,
    /// Enable the JCT add-on (balanced-progress splits).
    pub jct_addon: bool,
    /// Execution engine: "fluid" (default) or "slots".
    pub engine: String,
}

/// Parameters of `amf audit`.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditParams {
    /// Policy whose allocation is audited.
    pub policy: String,
    /// Fairness objective audited against ("plain"/"enhanced"; None =
    /// follow the policy).
    pub mode: Option<String>,
    /// Emit the full report as JSON instead of the text summary.
    pub json: bool,
}

/// Parameters of `amf serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeParams {
    /// Bind address (default `127.0.0.1:0` — ephemeral port).
    pub addr: String,
    /// Requests in flight across the server (None = server default).
    pub queue_cap: Option<usize>,
    /// Session scalar: "f64" (default) or "rational".
    pub scalar: String,
    /// Write the bound address to this file once listening (for scripts
    /// that need to discover the ephemeral port).
    pub port_file: Option<String>,
}

/// One `amf client` action.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// `create --tenant T --capacities 4,2.5 [--mode plain|enhanced]`.
    Create {
        /// Target tenant.
        tenant: String,
        /// Per-site capacities.
        capacities: Vec<f64>,
        /// Fairness mode (None = server default).
        mode: Option<String>,
    },
    /// `add-job --tenant T --id N --demands 1,2 [--weight W]`.
    AddJob {
        /// Target tenant.
        tenant: String,
        /// Job id.
        id: u64,
        /// Per-site demands.
        demands: Vec<f64>,
        /// Weight (None = 1).
        weight: Option<f64>,
    },
    /// `remove-job --tenant T --id N`.
    RemoveJob {
        /// Target tenant.
        tenant: String,
        /// Job id.
        id: u64,
    },
    /// `solve --tenant T`.
    Solve {
        /// Target tenant.
        tenant: String,
    },
    /// `get --tenant T`.
    Get {
        /// Target tenant.
        tenant: String,
    },
    /// `stats`.
    Stats,
    /// `shutdown`.
    Shutdown,
}

/// Parameters of `amf client`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientParams {
    /// Server address.
    pub addr: String,
    /// The action to perform.
    pub action: ClientAction,
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `amf drf` — solve a multi-resource DRF pool from JSON on stdin.
    Drf,
    /// `amf audit`.
    Audit(AuditParams),
    /// `amf gen`.
    Gen(GenParams),
    /// `amf solve`.
    Solve(SolveParams),
    /// `amf simulate`.
    Simulate(SimulateParams),
    /// `amf check`.
    Check,
    /// `amf serve`.
    Serve(ServeParams),
    /// `amf client`.
    Client(ClientParams),
    /// `amf --help` (or no arguments).
    Help,
}

/// Argument-parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{USAGE}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn value_of(args: &[String], flag: &str) -> Result<Option<String>, ParseError> {
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
                _ => Err(ParseError(format!("{flag} requires a value"))),
            };
        }
    }
    Ok(None)
}

/// Reject any argument `cmd` does not accept, naming it. `values` lists
/// the flags that take a value (the token after one is its value unless it
/// is itself a flag, which [`value_of`] then reports), `switches` the flags
/// that take none, both space-separated; `positionals` is how many bare
/// tokens may appear.
fn check_args(
    cmd: &str,
    args: &[String],
    values: &str,
    switches: &str,
    positionals: usize,
) -> Result<(), ParseError> {
    let listed = |list: &str, a: &str| list.split_whitespace().any(|f| f == a);
    let mut bare = 0;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if listed(values, a) {
            let has_value = args.get(i + 1).is_some_and(|v| !v.starts_with("--"));
            i += if has_value { 2 } else { 1 };
            continue;
        }
        if a.starts_with('-') && !listed(switches, a) {
            return Err(ParseError(format!("{cmd}: unknown flag {a}")));
        }
        if !a.starts_with('-') {
            bare += 1;
            if bare > positionals {
                return Err(ParseError(format!("{cmd}: unexpected argument {a}")));
            }
        }
        i += 1;
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, ParseError> {
    v.parse()
        .map_err(|_| ParseError(format!("invalid value for {flag}: {v}")))
}

/// Parse an argument vector (excluding the program name).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    match argv.first().map(String::as_str) {
        None | Some("--help") | Some("-h") | Some("help") => Ok(Command::Help),
        Some("gen") => {
            let rest = &argv[1..];
            check_args(
                "gen",
                rest,
                "--jobs --sites --alpha --sites-per-job --seed --load",
                "",
                0,
            )?;
            let jobs = value_of(rest, "--jobs")?
                .ok_or_else(|| ParseError("gen: --jobs is required".into()))?;
            let sites = value_of(rest, "--sites")?
                .ok_or_else(|| ParseError("gen: --sites is required".into()))?;
            Ok(Command::Gen(GenParams {
                jobs: parse_num(&jobs, "--jobs")?,
                sites: parse_num(&sites, "--sites")?,
                alpha: match value_of(rest, "--alpha")? {
                    Some(v) => parse_num(&v, "--alpha")?,
                    None => 0.0,
                },
                sites_per_job: match value_of(rest, "--sites-per-job")? {
                    Some(v) => Some(parse_num(&v, "--sites-per-job")?),
                    None => None,
                },
                seed: match value_of(rest, "--seed")? {
                    Some(v) => parse_num(&v, "--seed")?,
                    None => 0,
                },
                load: match value_of(rest, "--load")? {
                    Some(v) => Some(parse_num(&v, "--load")?),
                    None => None,
                },
            }))
        }
        Some("solve") => {
            check_args("solve", &argv[1..], "--policy", "--explain --dot", 0)?;
            Ok(Command::Solve(SolveParams {
                policy: value_of(&argv[1..], "--policy")?.unwrap_or_else(|| "amf".into()),
                explain: argv[1..].iter().any(|a| a == "--explain"),
                dot: argv[1..].iter().any(|a| a == "--dot"),
            }))
        }
        Some("simulate") => {
            check_args(
                "simulate",
                &argv[1..],
                "--policy --engine",
                "--jct-addon",
                0,
            )?;
            let engine = value_of(&argv[1..], "--engine")?.unwrap_or_else(|| "fluid".into());
            if engine != "fluid" && engine != "slots" {
                return Err(ParseError(format!("unknown engine: {engine}")));
            }
            Ok(Command::Simulate(SimulateParams {
                policy: value_of(&argv[1..], "--policy")?.unwrap_or_else(|| "amf".into()),
                jct_addon: argv[1..].iter().any(|a| a == "--jct-addon"),
                engine,
            }))
        }
        Some("check") => {
            check_args("check", &argv[1..], "", "", 0)?;
            Ok(Command::Check)
        }
        Some("audit") => {
            check_args("audit", &argv[1..], "--policy --mode", "--json", 0)?;
            let mode = value_of(&argv[1..], "--mode")?;
            if let Some(m) = &mode {
                if m != "plain" && m != "enhanced" {
                    return Err(ParseError(format!("unknown audit mode: {m}")));
                }
            }
            Ok(Command::Audit(AuditParams {
                policy: value_of(&argv[1..], "--policy")?.unwrap_or_else(|| "amf".into()),
                mode,
                json: argv[1..].iter().any(|a| a == "--json"),
            }))
        }
        Some("drf") => {
            check_args("drf", &argv[1..], "", "", 0)?;
            Ok(Command::Drf)
        }
        Some("serve") => {
            let rest = &argv[1..];
            check_args(
                "serve",
                rest,
                "--addr --queue-cap --scalar --port-file",
                "",
                0,
            )?;
            let scalar = value_of(rest, "--scalar")?.unwrap_or_else(|| "f64".into());
            if scalar != "f64" && scalar != "rational" {
                return Err(ParseError(format!(
                    "unknown scalar: {scalar} (try f64, rational)"
                )));
            }
            Ok(Command::Serve(ServeParams {
                addr: value_of(rest, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".into()),
                queue_cap: match value_of(rest, "--queue-cap")? {
                    Some(v) => Some(parse_num(&v, "--queue-cap")?),
                    None => None,
                },
                scalar,
                port_file: value_of(rest, "--port-file")?,
            }))
        }
        Some("client") => {
            let rest = &argv[1..];
            check_args(
                "client",
                rest,
                "--addr --tenant --capacities --mode --id --demands --weight",
                "",
                1,
            )?;
            let addr = value_of(rest, "--addr")?
                .ok_or_else(|| ParseError("client: --addr is required".into()))?;
            // The action is the first non-flag, non-flag-value token.
            let mut action_name = None;
            let mut i = 0;
            while i < rest.len() {
                if rest[i].starts_with("--") {
                    i += 2; // every client flag takes a value
                } else {
                    action_name = Some(rest[i].as_str());
                    break;
                }
            }
            let tenant = || {
                value_of(rest, "--tenant")?
                    .ok_or_else(|| ParseError("client: --tenant is required".into()))
            };
            let id = || -> Result<u64, ParseError> {
                let v = value_of(rest, "--id")?
                    .ok_or_else(|| ParseError("client: --id is required".into()))?;
                parse_num(&v, "--id")
            };
            let action = match action_name {
                Some("create") => ClientAction::Create {
                    tenant: tenant()?,
                    capacities: parse_f64_list(
                        &value_of(rest, "--capacities")?
                            .ok_or_else(|| ParseError("create: --capacities is required".into()))?,
                        "--capacities",
                    )?,
                    mode: value_of(rest, "--mode")?,
                },
                Some("add-job") => ClientAction::AddJob {
                    tenant: tenant()?,
                    id: id()?,
                    demands: parse_f64_list(
                        &value_of(rest, "--demands")?
                            .ok_or_else(|| ParseError("add-job: --demands is required".into()))?,
                        "--demands",
                    )?,
                    weight: match value_of(rest, "--weight")? {
                        Some(v) => Some(parse_num(&v, "--weight")?),
                        None => None,
                    },
                },
                Some("remove-job") => ClientAction::RemoveJob {
                    tenant: tenant()?,
                    id: id()?,
                },
                Some("solve") => ClientAction::Solve { tenant: tenant()? },
                Some("get") => ClientAction::Get { tenant: tenant()? },
                Some("stats") => ClientAction::Stats,
                Some("shutdown") => ClientAction::Shutdown,
                Some(other) => return Err(ParseError(format!("unknown client action: {other}"))),
                None => return Err(ParseError("client: an action is required".into())),
            };
            Ok(Command::Client(ClientParams { addr, action }))
        }
        Some(other) => Err(ParseError(format!("unknown command: {other}"))),
    }
}

/// Parse a comma-separated list of numbers (`4,2.5`).
fn parse_f64_list(v: &str, flag: &str) -> Result<Vec<f64>, ParseError> {
    v.split(',')
        .map(|part| parse_num(part.trim(), flag))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_gen_with_defaults() {
        let cmd = parse(&sv(&["gen", "--jobs", "10", "--sites", "4"])).unwrap();
        assert_eq!(
            cmd,
            Command::Gen(GenParams {
                jobs: 10,
                sites: 4,
                alpha: 0.0,
                sites_per_job: None,
                seed: 0,
                load: None,
            })
        );
    }

    #[test]
    fn parses_gen_with_all_flags() {
        let cmd = parse(&sv(&[
            "gen",
            "--jobs",
            "5",
            "--sites",
            "2",
            "--alpha",
            "1.5",
            "--sites-per-job",
            "2",
            "--seed",
            "9",
            "--load",
            "0.7",
        ]))
        .unwrap();
        match cmd {
            Command::Gen(p) => {
                assert_eq!(p.alpha, 1.5);
                assert_eq!(p.sites_per_job, Some(2));
                assert_eq!(p.seed, 9);
                assert_eq!(p.load, Some(0.7));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn missing_required_flag_fails() {
        assert!(parse(&sv(&["gen", "--jobs", "10"])).is_err());
        assert!(parse(&sv(&["gen", "--jobs"])).is_err());
        assert!(parse(&sv(&["gen", "--jobs", "--sites"])).is_err());
    }

    #[test]
    fn parses_other_commands() {
        assert_eq!(parse(&sv(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["check"])).unwrap(), Command::Check);
        assert_eq!(
            parse(&sv(&["solve"])).unwrap(),
            Command::Solve(SolveParams {
                policy: "amf".into(),
                explain: false,
                dot: false,
            })
        );
        assert_eq!(
            parse(&sv(&["solve", "--explain"])).unwrap(),
            Command::Solve(SolveParams {
                policy: "amf".into(),
                explain: true,
                dot: false,
            })
        );
        assert_eq!(
            parse(&sv(&[
                "simulate",
                "--policy",
                "per-site-max-min",
                "--jct-addon"
            ]))
            .unwrap(),
            Command::Simulate(SimulateParams {
                policy: "per-site-max-min".into(),
                jct_addon: true,
                engine: "fluid".into(),
            })
        );
        assert_eq!(
            parse(&sv(&["simulate", "--engine", "slots"])).unwrap(),
            Command::Simulate(SimulateParams {
                policy: "amf".into(),
                jct_addon: false,
                engine: "slots".into(),
            })
        );
        assert!(parse(&sv(&["simulate", "--engine", "quantum"])).is_err());
    }

    #[test]
    fn parses_audit() {
        assert_eq!(
            parse(&sv(&["audit"])).unwrap(),
            Command::Audit(AuditParams {
                policy: "amf".into(),
                mode: None,
                json: false,
            })
        );
        assert_eq!(
            parse(&sv(&[
                "audit",
                "--policy",
                "equal-division",
                "--mode",
                "enhanced",
                "--json"
            ]))
            .unwrap(),
            Command::Audit(AuditParams {
                policy: "equal-division".into(),
                mode: Some("enhanced".into()),
                json: true,
            })
        );
        assert!(parse(&sv(&["audit", "--mode", "strict"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = |argv: &[&str]| parse(&sv(argv)).unwrap_err().to_string();
        // The flow-kernel and contraction knobs `solve` used to take are
        // unknown flags now, value and all.
        for (knob, value) in [("backend", Some("dinic")), ("no-contraction", None)] {
            let flag = format!("--{knob}");
            let mut argv = vec!["solve", flag.as_str()];
            argv.extend(value);
            assert!(err(&argv).starts_with(&format!("solve: unknown flag {flag}")));
        }
        // A typo is named, not silently ignored.
        assert!(err(&["solve", "--polcy", "per-site-max-min"])
            .starts_with("solve: unknown flag --polcy"));
        assert!(err(&["simulate", "--jct-adon"]).starts_with("simulate: unknown flag --jct-adon"));
        assert!(err(&["serve", "--worker", "2"]).starts_with("serve: unknown flag --worker"));
        assert!(err(&["check", "--json"]).starts_with("check: unknown flag --json"));
        // Stray bare tokens, and a second client action.
        assert!(err(&["audit", "amf"]).starts_with("audit: unexpected argument amf"));
        assert!(err(&["client", "--addr", "a:1", "stats", "shutdown"])
            .starts_with("client: unexpected argument shutdown"));
        // A missing value is still reported as such.
        assert!(err(&["gen", "--jobs", "--sites", "4"]).starts_with("--jobs requires a value"));
        // Negative numbers are values, not flags.
        assert!(parse(&sv(&[
            "gen", "--jobs", "2", "--sites", "2", "--alpha", "-1"
        ]))
        .is_ok());
    }

    #[test]
    fn every_subcommand_rejects_an_unknown_flag() {
        // One known-flags check per subcommand (and per client action):
        // each names the stray flag rather than running without it.
        for prefix in [
            "gen --jobs 2 --sites 2",
            "solve",
            "simulate",
            "check",
            "audit",
            "drf",
            "serve",
            "client --addr a:1 create --tenant t --capacities 1",
            "client --addr a:1 add-job --tenant t --id 0 --demands 1",
            "client --addr a:1 remove-job --tenant t --id 0",
            "client --addr a:1 solve --tenant t",
            "client --addr a:1 get --tenant t",
            "client --addr a:1 stats",
            "client --addr a:1 shutdown",
        ] {
            let mut argv: Vec<&str> = prefix.split_whitespace().collect();
            assert!(parse(&sv(&argv)).is_ok(), "{prefix:?} should parse");
            argv.push("--bogus");
            let err = parse(&sv(&argv)).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("{}: unknown flag --bogus", argv[0])),
                "{prefix:?} --bogus gave {err:?}"
            );
        }
    }

    #[test]
    fn documented_invocations_parse() {
        // Every flag USAGE lists, and the CI serve-smoke invocations.
        for line in [
            "gen --jobs 8 --sites 3 --alpha 1.4 --sites-per-job 2 --seed 7 --load 0.5",
            "solve --policy amf --explain --dot",
            "simulate --policy amf --jct-addon --engine fluid",
            "check",
            "audit --policy amf-enhanced --mode enhanced --json",
            "drf",
            "serve --addr 127.0.0.1:0 --queue-cap 8 \
             --scalar rational --port-file /tmp/p",
            "client --addr a:1 create --tenant ci --capacities 6,4 --mode plain",
            "client --addr a:1 add-job --tenant ci --id 1 --demands 2,3 --weight 2",
            "client --addr a:1 remove-job --tenant ci --id 1",
            "client --addr a:1 solve --tenant ci",
            "client --addr a:1 get --tenant ci",
            "client --addr a:1 stats",
            "client --addr a:1 shutdown",
        ] {
            let argv: Vec<&str> = line.split_whitespace().collect();
            assert!(parse(&sv(&argv)).is_ok(), "{line:?} failed to parse");
        }
    }

    #[test]
    fn usage_names_no_removed_flag() {
        // Flags of deleted solver, engine and server paths; each is now
        // rejected as unknown, so the help text must not offer it.
        for flag in [
            "--incremental",
            "--no-coalesce",
            "--backend",
            "--no-contraction",
            "--workers",
            "--shards",
        ] {
            assert!(!USAGE.contains(flag), "USAGE still lists {flag}");
        }
    }

    #[test]
    fn bad_numbers_rejected() {
        assert!(parse(&sv(&["gen", "--jobs", "x", "--sites", "4"])).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&sv(&["serve"])).unwrap(),
            Command::Serve(ServeParams {
                addr: "127.0.0.1:0".into(),
                queue_cap: None,
                scalar: "f64".into(),
                port_file: None,
            })
        );
        assert_eq!(
            parse(&sv(&[
                "serve",
                "--addr",
                "0.0.0.0:7070",
                "--queue-cap",
                "64",
                "--scalar",
                "rational",
                "--port-file",
                "/tmp/p",
            ]))
            .unwrap(),
            Command::Serve(ServeParams {
                addr: "0.0.0.0:7070".into(),
                queue_cap: Some(64),
                scalar: "rational".into(),
                port_file: Some("/tmp/p".into()),
            })
        );
        assert!(parse(&sv(&["serve", "--scalar", "decimal"])).is_err());
        assert!(parse(&sv(&["serve", "--queue-cap", "many"])).is_err());
    }

    #[test]
    fn parses_client_actions() {
        assert_eq!(
            parse(&sv(&[
                "client",
                "--addr",
                "127.0.0.1:7070",
                "create",
                "--tenant",
                "acme",
                "--capacities",
                "4, 2.5",
                "--mode",
                "enhanced",
            ]))
            .unwrap(),
            Command::Client(ClientParams {
                addr: "127.0.0.1:7070".into(),
                action: ClientAction::Create {
                    tenant: "acme".into(),
                    capacities: vec![4.0, 2.5],
                    mode: Some("enhanced".into()),
                },
            })
        );
        // Action token may come before or after flags.
        assert_eq!(
            parse(&sv(&[
                "client",
                "add-job",
                "--addr",
                "a:1",
                "--tenant",
                "t",
                "--id",
                "7",
                "--demands",
                "1,2",
                "--weight",
                "2",
            ]))
            .unwrap(),
            Command::Client(ClientParams {
                addr: "a:1".into(),
                action: ClientAction::AddJob {
                    tenant: "t".into(),
                    id: 7,
                    demands: vec![1.0, 2.0],
                    weight: Some(2.0),
                },
            })
        );
        assert_eq!(
            parse(&sv(&[
                "client",
                "--addr",
                "a:1",
                "remove-job",
                "--tenant",
                "t",
                "--id",
                "3"
            ]))
            .unwrap(),
            Command::Client(ClientParams {
                addr: "a:1".into(),
                action: ClientAction::RemoveJob {
                    tenant: "t".into(),
                    id: 3,
                },
            })
        );
        for (name, want) in [
            ("solve", ClientAction::Solve { tenant: "t".into() }),
            ("get", ClientAction::Get { tenant: "t".into() }),
        ] {
            assert_eq!(
                parse(&sv(&["client", "--addr", "a:1", name, "--tenant", "t"])).unwrap(),
                Command::Client(ClientParams {
                    addr: "a:1".into(),
                    action: want,
                })
            );
        }
        assert_eq!(
            parse(&sv(&["client", "--addr", "a:1", "stats"])).unwrap(),
            Command::Client(ClientParams {
                addr: "a:1".into(),
                action: ClientAction::Stats,
            })
        );
        assert_eq!(
            parse(&sv(&["client", "--addr", "a:1", "shutdown"])).unwrap(),
            Command::Client(ClientParams {
                addr: "a:1".into(),
                action: ClientAction::Shutdown,
            })
        );
    }

    #[test]
    fn client_rejects_malformed_invocations() {
        // Missing address, missing action, unknown action.
        assert!(parse(&sv(&["client", "stats"])).is_err());
        assert!(parse(&sv(&["client", "--addr", "a:1"])).is_err());
        assert!(parse(&sv(&["client", "--addr", "a:1", "dance"])).is_err());
        // Missing per-action required flags.
        assert!(parse(&sv(&["client", "--addr", "a:1", "create", "--tenant", "t"])).is_err());
        assert!(parse(&sv(&["client", "--addr", "a:1", "solve"])).is_err());
        assert!(parse(&sv(&[
            "client",
            "--addr",
            "a:1",
            "add-job",
            "--tenant",
            "t",
            "--demands",
            "1"
        ]))
        .is_err());
        // Malformed numeric list.
        assert!(parse(&sv(&[
            "client",
            "--addr",
            "a:1",
            "create",
            "--tenant",
            "t",
            "--capacities",
            "4,,2"
        ]))
        .is_err());
    }
}
