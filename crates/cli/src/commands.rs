//! Command implementations.

use crate::args::{AuditParams, GenParams, SimulateParams, SolveParams};
use amf_core::{
    AllocationPolicy, AmfSolver, EqualDivision, Instance, PerSiteMaxMin, ProportionalToDemand,
};
use amf_metrics::{fmt2, fmt4, Table};
use amf_sim::{simulate, SimConfig, SplitStrategy};
use amf_workload::arrivals::{poisson_arrivals, rate_for_load};
use amf_workload::trace::Trace;
use amf_workload::{CapacityModel, DemandModel, SitePlacement, SiteSkew, SizeDist, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn lookup_policy(name: &str) -> Result<Box<dyn AllocationPolicy<f64>>, String> {
    match name {
        "amf" => Ok(Box::new(AmfSolver::new())),
        "amf-enhanced" => Ok(Box::new(AmfSolver::enhanced())),
        "per-site-max-min" | "psmf" => Ok(Box::new(PerSiteMaxMin)),
        "equal-division" => Ok(Box::new(EqualDivision)),
        "proportional-to-demand" => Ok(Box::new(ProportionalToDemand)),
        other => Err(format!(
            "unknown policy: {other} (try amf, amf-enhanced, per-site-max-min, \
             equal-division, proportional-to-demand)"
        )),
    }
}

fn read_trace(stdin: &str) -> Result<Trace, String> {
    Trace::from_json(stdin).map_err(|e| format!("cannot parse trace JSON from stdin: {e}"))
}

/// `amf gen`.
pub fn generate(p: &GenParams) -> Result<String, String> {
    if p.sites == 0 || p.jobs == 0 {
        return Err("gen: --jobs and --sites must be positive".into());
    }
    let sites_per_job = p.sites_per_job.unwrap_or(p.sites);
    if sites_per_job == 0 || sites_per_job > p.sites {
        return Err("gen: --sites-per-job out of range".into());
    }
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mean_work = 1000.0;
    let workload = WorkloadConfig {
        n_sites: p.sites,
        site_capacity: 100.0,
        capacity_model: CapacityModel::Uniform,
        n_jobs: p.jobs,
        sites_per_job,
        total_work: SizeDist::Exponential { mean: mean_work },
        total_parallelism: SizeDist::Constant { value: 40.0 },
        skew: if p.alpha > 0.0 {
            SiteSkew::Zipf { alpha: p.alpha }
        } else {
            SiteSkew::Uniform
        },
        placement: SitePlacement::PerJob,
        demand_model: DemandModel::ProportionalToWork,
    }
    .generate(&mut rng);
    let trace = match p.load {
        None => Trace::batch(&workload),
        Some(rho) => {
            if rho <= 0.0 {
                return Err("gen: --load must be positive".into());
            }
            let rate = rate_for_load(rho, 100.0 * p.sites as f64, mean_work);
            let arrivals = poisson_arrivals(p.jobs, rate, &mut rng);
            Trace::with_arrivals(&workload, &arrivals)
        }
    };
    Ok(trace.to_json())
}

/// `amf solve`.
pub fn solve(p: &SolveParams, stdin: &str) -> Result<String, String> {
    let trace = read_trace(stdin)?;
    let policy = lookup_policy(&p.policy)?;
    let inst: Instance<f64> = trace.workload().instance();
    if p.dot {
        return Ok(amf_core::to_dot(&inst, Some(&policy.allocate(&inst))));
    }
    let mut explanation = String::new();
    let alloc = if p.explain {
        let solver = match p.policy.as_str() {
            "amf" => AmfSolver::new(),
            "amf-enhanced" => AmfSolver::enhanced(),
            other => return Err(format!("--explain requires an AMF policy (got {other})")),
        };
        let out = solver.solve(&inst);
        explanation.push_str("freeze rounds (level: jobs frozen):\n");
        for round in &out.rounds {
            let members: Vec<String> = round
                .frozen
                .iter()
                .map(|(j, reason)| {
                    let tag = match reason {
                        amf_core::FreezeReason::DemandCapped => "demand-capped",
                        amf_core::FreezeReason::Bottlenecked => "bottlenecked",
                    };
                    format!("job {j} ({tag})")
                })
                .collect();
            explanation.push_str(&format!(
                "  level {:.4}: {}\n",
                round.level,
                members.join(", ")
            ));
        }
        out.allocation
    } else {
        policy.allocate(&inst)
    };
    let mut table = Table::new(
        format!("allocation ({})", policy.name()),
        &["job", "aggregate", "equal_share", "total_demand"],
    );
    for j in 0..inst.n_jobs() {
        table.row(vec![
            j.to_string(),
            fmt4(alloc.aggregate(j)),
            fmt4(inst.equal_share(j)),
            fmt4(inst.total_demand(j)),
        ]);
    }
    let aggregates = alloc.aggregates();
    let mut out = table.render();
    out.push_str(&explanation);
    out.push_str(&format!(
        "total = {}   jain = {}   min/max = {}\n",
        fmt4(aggregates.iter().sum()),
        fmt4(amf_metrics::jain_index(aggregates)),
        fmt4(amf_metrics::min_max_ratio(aggregates)),
    ));
    Ok(out)
}

/// `amf simulate`.
pub fn simulate_cmd(p: &SimulateParams, stdin: &str) -> Result<String, String> {
    if p.engine == "slots" && p.jct_addon {
        // The slot engine rounds the policy's own split; the add-on's
        // re-balanced split would be silently dropped.
        return Err("--jct-addon only supports the fluid engine, not --engine slots".into());
    }
    let trace = read_trace(stdin)?;
    amf_sim::check_trace(&trace, p.engine == "slots")?;
    let split = if p.jct_addon {
        SplitStrategy::BalancedProgress { repair_rounds: 4 }
    } else {
        SplitStrategy::PolicySplit
    };
    let report = if p.policy == "srpt-per-site" {
        if p.engine == "slots" {
            return Err("srpt-per-site only supports the fluid engine".into());
        }
        amf_sim::simulate_dynamic(&trace, &amf_sim::SrptPerSite)
    } else {
        let policy = lookup_policy(&p.policy)?;
        let config = SimConfig {
            split,
            ..SimConfig::default()
        };
        match p.engine.as_str() {
            "slots" => amf_sim::slots::simulate_slots(&trace, policy.as_ref()),
            _ => simulate(&trace, policy.as_ref(), &config),
        }
    };
    let jcts = report.jcts();
    let mut out = String::new();
    out.push_str(&format!(
        "policy = {}{} (engine: {})\n",
        p.policy,
        if p.jct_addon { " + jct-addon" } else { "" },
        p.engine,
    ));
    out.push_str(&format!(
        "jobs finished = {}/{}\n",
        jcts.len(),
        report.jobs.len()
    ));
    // Tail estimate from the shared fixed-bucket histogram (the same
    // estimator the serving layer uses for request latencies). With no
    // job finished there is nothing to average.
    let (mean, p95) = if jcts.is_empty() {
        ("n/a".to_string(), "n/a".to_string())
    } else {
        let p95 = report.jct_summary(64).percentile(95.0);
        (fmt2(report.mean_jct()), fmt2(p95))
    };
    out.push_str(&format!("mean_jct = {mean}\np95_jct = {p95}\n"));
    out.push_str(&format!("makespan = {}\n", fmt2(report.makespan)));
    out.push_str(&format!(
        "mean_utilization = {}\n",
        fmt4(report.mean_utilization)
    ));
    out.push_str(&format!("reallocations = {}\n", report.reallocations));
    Ok(out)
}

/// `amf check`.
pub fn check(stdin: &str) -> Result<String, String> {
    let trace = read_trace(stdin)?;
    let inst: Instance<f64> = trace.workload().instance();
    let mut out = String::new();
    for (name, solver) in [
        ("amf", AmfSolver::new()),
        ("amf-enhanced", AmfSolver::enhanced()),
    ] {
        let alloc = solver.allocate(&inst);
        out.push_str(&format!(
            "{name}: feasible={} pareto_efficient={} envy_free={} sharing_incentive={}\n",
            alloc.is_feasible(&inst),
            amf_audit::pareto_cert(&inst, &alloc).is_proved(),
            amf_audit::envy_cert(&inst, &alloc).is_proved(),
            amf_audit::si_cert(&inst, &alloc).is_proved(),
        ));
    }
    Ok(out)
}

/// `amf audit`.
pub fn audit_cmd(p: &AuditParams, stdin: &str) -> Result<String, String> {
    let trace = read_trace(stdin)?;
    let policy = lookup_policy(&p.policy)?;
    let inst: Instance<f64> = trace.workload().instance();
    let alloc = policy.allocate(&inst);
    let mode = match p.mode.as_deref() {
        Some("enhanced") => amf_core::FairnessMode::Enhanced,
        Some(_) => amf_core::FairnessMode::Plain,
        // No explicit mode: audit the policy against its own objective.
        None if p.policy == "amf-enhanced" => amf_core::FairnessMode::Enhanced,
        None => amf_core::FairnessMode::Plain,
    };
    let report = amf_audit::audit(&inst, &alloc, mode);
    if p.json {
        return serde_json::to_string_pretty(&report)
            .map_err(|e| format!("cannot serialize report: {e}"));
    }
    let mut out = String::new();
    out.push_str(&format!("policy = {}\n", policy.name()));
    out.push_str(&report.summary());
    out.push('\n');
    for (name, status, detail) in [
        (
            "feasibility",
            report.feasibility.status(),
            report
                .feasibility
                .counterexample()
                .map(|c| format!("{c:?}")),
        ),
        (
            "lex_optimality",
            report.lex_optimality.status(),
            report
                .lex_optimality
                .counterexample()
                .map(|c| format!("{c:?}")),
        ),
        (
            "pareto",
            report.pareto.status(),
            report.pareto.counterexample().map(|c| format!("{c:?}")),
        ),
        (
            "envy_freeness",
            report.envy_freeness.status(),
            report
                .envy_freeness
                .counterexample()
                .map(|c| format!("{c:?}")),
        ),
        (
            "sharing_incentive",
            report.sharing_incentive.status(),
            report
                .sharing_incentive
                .counterexample()
                .map(|c| format!("{c:?}")),
        ),
    ] {
        match detail {
            Some(counterexample) => {
                out.push_str(&format!("  {name}: {status}  {counterexample}\n"))
            }
            None => out.push_str(&format!("  {name}: {status}\n")),
        }
    }
    Ok(out)
}

/// `amf drf`.
pub fn drf(stdin: &str) -> Result<String, String> {
    #[derive(serde::Deserialize)]
    struct PoolInput {
        capacities: Vec<f64>,
        jobs: Vec<amf_drf::DrfJob<f64>>,
    }
    let input: PoolInput =
        serde_json::from_str(stdin).map_err(|e| format!("cannot parse pool JSON: {e}"))?;
    let pool = amf_drf::DrfPool::new(input.capacities, input.jobs).map_err(|e| e.to_string())?;
    let alloc = pool.solve();
    let mut table = Table::new("DRF allocation", &["job", "tasks", "dominant_share"]);
    for j in 0..pool.n_jobs() {
        table.row(vec![
            j.to_string(),
            fmt4(alloc.tasks[j]),
            fmt4(alloc.dominant_shares[j]),
        ]);
    }
    let mut out = table.render();
    out.push_str("resource usage:");
    for r in 0..pool.n_resources() {
        out.push_str(&format!(
            " {}/{}",
            fmt4(alloc.usage[r]),
            fmt4(pool.capacities()[r])
        ));
    }
    out.push('\n');
    Ok(out)
}

fn serve_with<S: amf_serve::WireScalar>(
    cfg: amf_serve::ServeConfig,
    port_file: Option<&str>,
) -> Result<String, String> {
    let server =
        amf_serve::Server::<S>::bind(cfg).map_err(|e| format!("serve: cannot bind: {e}"))?;
    let addr = server.addr();
    if let Some(path) = port_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("serve: cannot write --port-file {path}: {e}"))?;
    }
    // Announce readiness on stderr (stdout is reserved for the final
    // summary so scripted callers can parse it).
    eprintln!("amf-serve listening on {addr}");
    let summary = server.join();
    let mut out = String::new();
    out.push_str(&format!("served {} request(s)\n", summary.requests));
    out.push_str(&format!(
        "sessions = {}, solves = {}, deltas applied/coalesced = {}/{}\n",
        summary.sessions, summary.solves, summary.deltas_applied, summary.deltas_coalesced
    ));
    out.push_str(&format!(
        "refused: overloaded = {}, protocol errors = {}\n",
        summary.overloaded, summary.protocol_errors
    ));
    out.push_str(&format!(
        "panics = {}, quarantined sessions = {}\n",
        summary.panics, summary.quarantined
    ));
    for op in &summary.ops {
        out.push_str(&format!(
            "{}: count = {}, mean = {:.0}us, p50/p95/p99 = {:.0}/{:.0}/{:.0}us\n",
            op.op, op.count, op.mean_us, op.p50_us, op.p95_us, op.p99_us
        ));
    }
    Ok(out)
}

/// `amf serve` — blocks until a client sends `Shutdown`, then returns the
/// drain summary.
pub fn serve_cmd(p: &crate::args::ServeParams) -> Result<String, String> {
    let mut cfg = amf_serve::ServeConfig {
        addr: p.addr.clone(),
        ..amf_serve::ServeConfig::default()
    };
    if let Some(cap) = p.queue_cap {
        cfg.queue_cap = cap;
    }
    match p.scalar.as_str() {
        "rational" => serve_with::<amf_numeric::Rational>(cfg, p.port_file.as_deref()),
        _ => serve_with::<f64>(cfg, p.port_file.as_deref()),
    }
}

fn fmt_solve_reply(reply: &amf_serve::SolveReply) -> String {
    let mut table = Table::new(
        if reply.resolved {
            "allocation (re-solved)"
        } else {
            "allocation (cached)"
        },
        &["job", "aggregate", "split"],
    );
    for (row, id) in reply.job_ids.iter().enumerate() {
        table.row(vec![
            id.to_string(),
            fmt4(reply.aggregates[row]),
            reply.split[row]
                .iter()
                .map(|x| fmt2(*x))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    table.render()
}

/// `amf client` — one request per invocation.
pub fn client_cmd(p: &crate::args::ClientParams) -> Result<String, String> {
    use crate::args::ClientAction;
    let mut client = amf_serve::ServeClient::connect(&p.addr)
        .map_err(|e| format!("client: cannot connect to {}: {e}", p.addr))?;
    let fail = |e: amf_serve::ClientError| e.to_string();
    match &p.action {
        ClientAction::Create {
            tenant,
            capacities,
            mode,
        } => {
            let sites = client
                .create_session(tenant, capacities, mode.as_deref())
                .map_err(fail)?;
            Ok(format!("created session {tenant:?} with {sites} site(s)\n"))
        }
        ClientAction::AddJob {
            tenant,
            id,
            demands,
            weight,
        } => {
            let (accepted, pending) = client
                .apply_deltas(
                    tenant,
                    &[amf_serve::WireDelta::AddJob {
                        id: *id,
                        demands: demands.clone(),
                        weight: *weight,
                    }],
                )
                .map_err(fail)?;
            Ok(format!("accepted {accepted} delta(s), {pending} pending\n"))
        }
        ClientAction::RemoveJob { tenant, id } => {
            let (accepted, pending) = client
                .apply_deltas(tenant, &[amf_serve::WireDelta::RemoveJob { id: *id }])
                .map_err(fail)?;
            Ok(format!("accepted {accepted} delta(s), {pending} pending\n"))
        }
        ClientAction::Solve { tenant } => Ok(fmt_solve_reply(&client.solve(tenant).map_err(fail)?)),
        ClientAction::Get { tenant } => Ok(fmt_solve_reply(
            &client.get_allocation(tenant).map_err(fail)?,
        )),
        ClientAction::Stats => {
            let stats = client.stats().map_err(fail)?;
            let mut out = String::new();
            out.push_str(&format!(
                "sessions = {}, in flight = {}, requests = {}, solves = {}\n",
                stats.sessions, stats.queued, stats.requests, stats.solves
            ));
            out.push_str(&format!(
                "deltas applied/coalesced = {}/{}, overloaded = {}, protocol errors = {}\n",
                stats.deltas_applied,
                stats.deltas_coalesced,
                stats.overloaded,
                stats.protocol_errors
            ));
            out.push_str(&format!(
                "panics = {}, quarantined sessions = {}\n",
                stats.panics, stats.quarantined
            ));
            for op in &stats.ops {
                out.push_str(&format!(
                    "{}: count = {}, mean = {:.0}us, p50/p95/p99 = {:.0}/{:.0}/{:.0}us\n",
                    op.op, op.count, op.mean_us, op.p50_us, op.p95_us, op.p99_us
                ));
            }
            Ok(out)
        }
        ClientAction::Shutdown => {
            client.shutdown().map_err(fail)?;
            Ok("server is draining\n".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_params() -> GenParams {
        GenParams {
            jobs: 5,
            sites: 3,
            alpha: 1.0,
            sites_per_job: Some(2),
            seed: 2,
            load: None,
        }
    }

    #[test]
    fn generate_emits_valid_trace_json() {
        let json = generate(&gen_params()).unwrap();
        let trace = Trace::from_json(&json).unwrap();
        assert_eq!(trace.jobs.len(), 5);
        assert_eq!(trace.capacities.len(), 3);
    }

    #[test]
    fn generate_with_load_produces_increasing_arrivals() {
        let mut p = gen_params();
        p.load = Some(0.5);
        let trace = Trace::from_json(&generate(&p).unwrap()).unwrap();
        let times: Vec<f64> = trace.jobs.iter().map(|j| j.arrival).collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn generate_validates_params() {
        let mut p = gen_params();
        p.sites_per_job = Some(99);
        assert!(generate(&p).is_err());
        let mut p2 = gen_params();
        p2.load = Some(-1.0);
        assert!(generate(&p2).is_err());
        let mut p3 = gen_params();
        p3.jobs = 0;
        assert!(generate(&p3).is_err());
    }

    #[test]
    fn solve_reports_per_job_rows() {
        let json = generate(&gen_params()).unwrap();
        let out = solve(
            &SolveParams {
                policy: "amf".into(),
                explain: false,
                dot: false,
            },
            &json,
        )
        .unwrap();
        assert!(out.contains("jain ="));
        // 5 job rows.
        assert!(
            out.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .count()
                >= 5
        );
    }

    #[test]
    fn simulate_reports_metrics() {
        let json = generate(&gen_params()).unwrap();
        let out = simulate_cmd(
            &SimulateParams {
                policy: "per-site-max-min".into(),
                jct_addon: false,
                engine: "fluid".into(),
            },
            &json,
        )
        .unwrap();
        assert!(out.contains("jobs finished = 5/5"));
        assert!(out.contains("makespan"));
    }

    #[test]
    fn solve_with_dot_emits_graphviz() {
        let json = generate(&gen_params()).unwrap();
        let out = solve(
            &SolveParams {
                policy: "amf".into(),
                explain: false,
                dot: true,
            },
            &json,
        )
        .unwrap();
        assert!(out.starts_with("digraph amf {"), "{out}");
    }

    #[test]
    fn solve_with_explain_prints_rounds() {
        let json = generate(&gen_params()).unwrap();
        let out = solve(
            &SolveParams {
                policy: "amf".into(),
                explain: true,
                dot: false,
            },
            &json,
        )
        .unwrap();
        assert!(out.contains("freeze rounds"), "{out}");
        assert!(out.contains("level "));
        // Non-AMF policies reject --explain.
        assert!(solve(
            &SolveParams {
                policy: "per-site-max-min".into(),
                explain: true,
                dot: false,
            },
            &json,
        )
        .is_err());
    }

    #[test]
    fn explain_shows_the_same_allocation_as_the_plain_solve() {
        // `--explain` builds its solver from the policy name; the table it
        // prints must be the one the registered policy gives.
        let json = generate(&gen_params()).unwrap();
        let table = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .map(str::to_owned)
                .collect()
        };
        for policy in ["amf", "amf-enhanced"] {
            let run = |explain| {
                solve(
                    &SolveParams {
                        policy: policy.into(),
                        explain,
                        dot: false,
                    },
                    &json,
                )
                .unwrap()
            };
            let (plain, explained) = (run(false), run(true));
            assert_eq!(table(&plain).len(), 5, "{plain}");
            assert_eq!(table(&plain), table(&explained), "{policy}");
        }
    }

    #[test]
    fn simulate_with_slots_engine_and_srpt() {
        let json = generate(&gen_params()).unwrap();
        let slots = simulate_cmd(
            &SimulateParams {
                policy: "amf".into(),
                jct_addon: false,
                engine: "slots".into(),
            },
            &json,
        )
        .unwrap();
        assert!(slots.contains("engine: slots"));
        let srpt = simulate_cmd(
            &SimulateParams {
                policy: "srpt-per-site".into(),
                jct_addon: false,
                engine: "fluid".into(),
            },
            &json,
        )
        .unwrap();
        assert!(srpt.contains("srpt-per-site"));
        assert!(simulate_cmd(
            &SimulateParams {
                policy: "srpt-per-site".into(),
                jct_addon: false,
                engine: "slots".into(),
            },
            &json,
        )
        .is_err());
    }

    #[test]
    fn check_reports_all_properties() {
        let json = generate(&gen_params()).unwrap();
        let out = check(&json).unwrap();
        assert!(out.contains("amf:"));
        assert!(out.contains("amf-enhanced:"));
        assert!(out.contains("sharing_incentive="));
    }

    #[test]
    fn audit_certifies_amf_and_flags_baselines() {
        let json = generate(&gen_params()).unwrap();
        let certified = audit_cmd(
            &AuditParams {
                policy: "amf".into(),
                mode: None,
                json: false,
            },
            &json,
        )
        .unwrap();
        assert!(certified.contains("=> CERTIFIED"), "{certified}");
        assert!(certified.contains("lex_optimality: proved"));
        // Equal division wastes capacity on this trace; the auditor must
        // refuse to certify it and name a violation.
        let rejected = audit_cmd(
            &AuditParams {
                policy: "equal-division".into(),
                mode: None,
                json: false,
            },
            &json,
        )
        .unwrap();
        assert!(rejected.contains("NOT CERTIFIED"), "{rejected}");
    }

    #[test]
    fn audit_json_emits_the_full_report() {
        let json = generate(&gen_params()).unwrap();
        let out = audit_cmd(
            &AuditParams {
                policy: "amf-enhanced".into(),
                mode: None,
                json: true,
            },
            &json,
        )
        .unwrap();
        assert!(out.contains("\"mode\""));
        assert!(out.contains("Enhanced"));
        assert!(out.contains("\"feasibility\""));
    }

    #[test]
    fn drf_solves_pool_json() {
        let json = r#"{
            "capacities": [9.0, 18.0],
            "jobs": [
                {"demand": [1.0, 4.0], "max_tasks": null, "weight": 1.0},
                {"demand": [3.0, 1.0], "max_tasks": null, "weight": 1.0}
            ]
        }"#;
        let out = drf(json).unwrap();
        assert!(out.contains("3.0000"), "{out}");
        assert!(out.contains("0.6667"), "{out}");
        assert!(drf("{bad").is_err());
        // Validation errors surface as messages.
        let bad = r#"{"capacities": [0.0], "jobs": [{"demand": [1.0], "max_tasks": null, "weight": 1.0}]}"#;
        assert!(drf(bad).unwrap_err().contains("zero-capacity"));
    }

    #[test]
    fn unknown_policy_is_an_error() {
        assert!(lookup_policy("magic").is_err());
        assert!(lookup_policy("psmf").is_ok());
    }
}
