//! Seedable load generator for `amf-serve` — `cargo xtask bench` companion.
//!
//! Boots in-process servers on ephemeral ports and drives them over real
//! TCP through the blocking [`ServeClient`], then writes a
//! machine-readable report (schema `amf-bench-serve/v3`) with three arms:
//!
//! * `closed_loop` — one tenant, one connection, requests issued
//!   back-to-back (next request after the previous reply): the intrinsic
//!   per-request service latency and single-session throughput ceiling;
//! * `open_loop` — several client threads, each owning its tenants and
//!   firing requests on a seeded Poisson schedule; latency is measured
//!   from the *scheduled* arrival instant, so queueing delay under load is
//!   visible (no coordinated omission);
//! * `coalescing` — bursts of single-delta requests, each followed by one
//!   `Solve`: staging merges each burst into that one solve, so the run
//!   takes exactly one solve per `Solve` request.
//!
//! A fourth section, `codec`, needs no server: it encodes one seeded
//! 150-job x 12-site enhanced `Solved` reply, the size `serve-large-tenants`
//! ships, and records its length, its FNV-1a hash and the median encode
//! time. `cargo xtask bench --check` pins the length and hash, so a change
//! to the wire bytes shows up as a failed check.
//!
//! v2 dropped the eager (uncoalesced) arm and its `solve_reduction_factor`,
//! as the server no longer has an eager mode; v3 adds `codec`.
//!
//! Every arm audits a sampled fraction of `Solve` replies with
//! `amf-audit` against a client-side mirror of the session (the thread
//! that owns a tenant knows every delta it sent); any violation fails the
//! run. Flags: `--smoke` (tiny arms — CI wiring check), `--seed N`
//! (default 7), `--out PATH` (default `BENCH_serve.json`).

use amf_audit::audit;
use amf_core::{Allocation, AmfSolver, FairnessMode, Instance};
use amf_metrics::Histogram;
use amf_serve::{
    decode_response, encode, Response, ServeClient, ServeConfig, Server, SolveReply, WireDelta,
    WireStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Latency histogram shape shared by every arm (µs, exponential buckets).
fn latency_hist() -> Histogram {
    Histogram::exponential(1.0, 1e7, 56)
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    smoke: bool,
    seed: u64,
    hardware: Hardware,
    closed_loop: ArmReport,
    open_loop: ArmReport,
    coalescing: CoalescingReport,
    codec: CodecReport,
}

#[derive(Serialize)]
struct Hardware {
    available_parallelism: usize,
    note: String,
}

#[derive(Serialize)]
struct ArmReport {
    name: &'static str,
    tenants: usize,
    client_threads: usize,
    requests: u64,
    elapsed_s: f64,
    throughput_rps: f64,
    /// Open loop only: the offered (scheduled) aggregate request rate.
    offered_rps: Option<f64>,
    mean_us: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    solves: u64,
    audited_solves: u64,
    audit_violations: u64,
}

#[derive(Serialize)]
struct CoalescingReport {
    rounds: usize,
    burst: usize,
    coalesced: CoalesceArm,
}

#[derive(Serialize)]
struct CoalesceArm {
    name: &'static str,
    apply_requests: u64,
    solves: u64,
    solves_per_request: f64,
    deltas_coalesced: u64,
    p95_us: f64,
}

#[derive(Serialize)]
struct CodecReport {
    name: &'static str,
    jobs: usize,
    sites: usize,
    /// Split entries that are not zero.
    nonzero_entries: usize,
    reply_bytes: usize,
    /// FNV-1a (64-bit) of the reply bytes, as hex text: a JSON number
    /// would not hold all 64 bits.
    reply_fnv: String,
    encodes: usize,
    /// Median time of one `encode` of the reply.
    encode_us: f64,
}

/// Client-side mirror of one tenant's session, built purely from the
/// deltas the owning thread sent. Kept as per-job state keyed by id (not
/// a shadow `IncrementalAmf`) because the server's row order is its slot
/// order, which depends on delta *application* order — coalescing merges
/// bursts, so the audit must align rows by the reply's own `job_ids`.
struct TenantMirror {
    tenant: String,
    caps: Vec<f64>,
    /// Live jobs: id -> (demands, weight).
    jobs: BTreeMap<u64, (Vec<f64>, f64)>,
    live: Vec<u64>,
    next_id: u64,
    solves_seen: u64,
}

impl TenantMirror {
    fn new(tenant: &str, caps: &[f64]) -> TenantMirror {
        TenantMirror {
            tenant: tenant.to_string(),
            caps: caps.to_vec(),
            jobs: BTreeMap::new(),
            live: Vec::new(),
            next_id: 0,
            solves_seen: 0,
        }
    }

    fn apply(&mut self, w: &WireDelta) {
        match w {
            WireDelta::AddJob {
                id,
                demands,
                weight,
            } => {
                self.live.push(*id);
                self.jobs
                    .insert(*id, (demands.clone(), weight.unwrap_or(1.0)));
            }
            WireDelta::RemoveJob { id } => {
                self.live.retain(|j| j != id);
                self.jobs.remove(id);
            }
            WireDelta::DemandChange { id, site, demand } => {
                let (demands, _) = self.jobs.get_mut(id).expect("change targets a live job");
                demands[*site] = *demand;
            }
            WireDelta::CapacityChange { site, capacity } => self.caps[*site] = *capacity,
        }
    }

    /// Draw the next delta for this tenant (always valid against the
    /// mirror's current state).
    fn next_delta(&mut self, rng: &mut StdRng, sites: usize) -> WireDelta {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if self.live.len() < 2 || (roll < 0.25 && self.live.len() < 10) {
            let id = self.next_id;
            self.next_id += 1;
            WireDelta::AddJob {
                id,
                demands: (0..sites).map(|_| rng.gen_range(0.5..4.0)).collect(),
                weight: None,
            }
        } else if roll < 0.40 {
            let id = self.live[rng.gen_range(0..self.live.len())];
            WireDelta::RemoveJob { id }
        } else if roll < 0.90 {
            let id = self.live[rng.gen_range(0..self.live.len())];
            WireDelta::DemandChange {
                id,
                site: rng.gen_range(0..sites),
                demand: rng.gen_range(0.5..4.0),
            }
        } else {
            WireDelta::CapacityChange {
                site: rng.gen_range(0..sites),
                capacity: rng.gen_range(4.0..12.0),
            }
        }
    }

    /// Audit a `Solve` reply against the mirror; returns 1 on violation.
    /// Rows are aligned by the reply's `job_ids`, so the check is
    /// independent of the server's internal slot order.
    fn audit_reply(&self, reply: &SolveReply) -> u64 {
        let expected: Vec<u64> = self.jobs.keys().copied().collect();
        let mut got = reply.job_ids.clone();
        got.sort_unstable();
        if got != expected {
            eprintln!(
                "AUDIT VIOLATION for tenant {}: job set mismatch (served {got:?}, sent {expected:?})",
                self.tenant
            );
            return 1;
        }
        let mut demands = Vec::with_capacity(reply.job_ids.len());
        let mut weights = Vec::with_capacity(reply.job_ids.len());
        for id in &reply.job_ids {
            let (d, w) = &self.jobs[id];
            demands.push(d.clone());
            weights.push(*w);
        }
        let inst = Instance::weighted(self.caps.clone(), demands, weights)
            .expect("mirror state is validated delta-by-delta");
        let report = audit(
            &inst,
            &Allocation::from_split(reply.split.clone()),
            FairnessMode::Enhanced,
        );
        if report.is_certified_amf() {
            0
        } else {
            eprintln!("AUDIT VIOLATION for tenant {}: {report:?}", self.tenant);
            1
        }
    }
}

/// Seed a fresh tenant on the server and in the mirror: create the
/// session, add `jobs` starter jobs, solve once (warm-up, uncounted).
fn seed_tenant(
    client: &mut ServeClient,
    rng: &mut StdRng,
    tenant: &str,
    caps: &[f64],
    jobs: usize,
) -> TenantMirror {
    let mut mirror = TenantMirror::new(tenant, caps);
    let sites = client
        .create_session(tenant, caps, Some("enhanced"))
        .expect("create session");
    assert_eq!(sites, caps.len());
    let deltas: Vec<WireDelta> = (0..jobs)
        .map(|_| mirror.next_delta(rng, caps.len()))
        .collect();
    for d in &deltas {
        mirror.apply(d);
    }
    client.apply_deltas(tenant, &deltas).expect("seed deltas");
    client.solve(tenant).expect("seed solve");
    mirror.solves_seen += 1;
    mirror
}

/// One request against one tenant: mostly `ApplyDeltas`, periodically
/// `Solve` (audited every `audit_every`-th solve). Returns the audit
/// violation count (0 or 1).
fn fire_request(
    client: &mut ServeClient,
    rng: &mut StdRng,
    mirror: &mut TenantMirror,
    sites: usize,
    audit_every: u64,
) -> u64 {
    let roll: f64 = rng.gen_range(0.0..1.0);
    if roll < 0.65 {
        let d = mirror.next_delta(rng, sites);
        mirror.apply(&d);
        client
            .apply_deltas(&mirror.tenant, std::slice::from_ref(&d))
            .expect("apply");
        0
    } else {
        let reply = client.solve(&mirror.tenant).expect("solve");
        mirror.solves_seen += 1;
        if mirror.solves_seen.is_multiple_of(audit_every) {
            mirror.audit_reply(&reply)
        } else {
            0
        }
    }
}

/// Count audited solves a tenant contributed (`seed` solve excluded).
fn audited_of(mirror: &TenantMirror, audit_every: u64) -> u64 {
    mirror.solves_seen / audit_every
}

const CAPS: [f64; 3] = [8.0, 6.0, 10.0];
const AUDIT_EVERY: u64 = 4;

fn closed_loop(seed: u64, iters: u64) -> ArmReport {
    let server = Server::<f64>::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mirror = seed_tenant(&mut client, &mut rng, "solo", &CAPS, 4);

    let mut hist = latency_hist();
    let mut violations = 0;
    let started = Instant::now();
    for _ in 0..iters {
        let t0 = Instant::now();
        violations += fire_request(&mut client, &mut rng, &mut mirror, CAPS.len(), AUDIT_EVERY);
        hist.add(t0.elapsed().as_secs_f64() * 1e6);
    }
    let elapsed = started.elapsed().as_secs_f64();

    client.shutdown().expect("shutdown");
    let summary = server.join();
    arm_report(
        "closed-loop-single-tenant",
        1,
        1,
        iters,
        elapsed,
        None,
        &hist,
        &summary,
        audited_of(&mirror, AUDIT_EVERY),
        violations,
    );
    ArmReport {
        name: "closed-loop-single-tenant",
        tenants: 1,
        client_threads: 1,
        requests: iters,
        elapsed_s: elapsed,
        throughput_rps: iters as f64 / elapsed,
        offered_rps: None,
        mean_us: hist.mean(),
        p50_us: hist.percentile(50.0),
        p95_us: hist.percentile(95.0),
        p99_us: hist.percentile(99.0),
        solves: summary.solves,
        audited_solves: audited_of(&mirror, AUDIT_EVERY),
        audit_violations: violations,
    }
}

/// Print one arm's headline numbers as it completes.
#[allow(clippy::too_many_arguments)]
fn arm_report(
    name: &str,
    tenants: usize,
    threads: usize,
    requests: u64,
    elapsed: f64,
    offered: Option<f64>,
    hist: &Histogram,
    summary: &WireStats,
    audited: u64,
    violations: u64,
) {
    let offered = offered.map_or(String::new(), |r| format!(", offered {r:.0} rps"));
    println!(
        "{name}: {tenants} tenant(s) x {threads} thread(s), {requests} requests in {elapsed:.2}s \
         ({:.0} rps{offered}); p50 {:.0}us p95 {:.0}us p99 {:.0}us; \
         {} solves, {audited} audited, {violations} violations",
        requests as f64 / elapsed,
        hist.percentile(50.0),
        hist.percentile(95.0),
        hist.percentile(99.0),
        summary.solves,
    );
}

fn open_loop(
    seed: u64,
    threads: usize,
    tenants_per_thread: usize,
    per_thread: u64,
    rate_per_thread: f64,
) -> ArmReport {
    let server = Server::<f64>::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    struct ThreadOut {
        hist: Histogram,
        violations: u64,
        audited: u64,
    }

    let started = Instant::now();
    let outs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 + t as u64));
                    let mut mirrors: Vec<TenantMirror> = (0..tenants_per_thread)
                        .map(|k| {
                            let name = format!("tenant-{t}-{k}");
                            seed_tenant(&mut client, &mut rng, &name, &CAPS, 3)
                        })
                        .collect();
                    let mut hist = latency_hist();
                    let mut violations = 0;
                    let t0 = Instant::now();
                    let mut scheduled = Duration::ZERO;
                    for _ in 0..per_thread {
                        // Poisson arrivals: exponential inter-arrival times.
                        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                        scheduled += Duration::from_secs_f64(-u.ln() / rate_per_thread);
                        if let Some(wait) = scheduled.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let k = rng.gen_range(0..mirrors.len());
                        violations += fire_request(
                            &mut client,
                            &mut rng,
                            &mut mirrors[k],
                            CAPS.len(),
                            AUDIT_EVERY,
                        );
                        // Latency from the *scheduled* instant: includes
                        // time spent waiting behind a busy server.
                        hist.add((t0.elapsed() - scheduled).as_secs_f64() * 1e6);
                    }
                    ThreadOut {
                        hist,
                        violations,
                        audited: mirrors.iter().map(|m| audited_of(m, AUDIT_EVERY)).sum(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut hist = latency_hist();
    let mut violations = 0;
    let mut audited = 0;
    for o in &outs {
        hist.merge(&o.hist);
        violations += o.violations;
        audited += o.audited;
    }
    let mut control = ServeClient::connect(addr).expect("connect control");
    control.shutdown().expect("shutdown");
    let summary = server.join();

    let requests = per_thread * threads as u64;
    arm_report(
        "open-loop-multi-tenant",
        threads * tenants_per_thread,
        threads,
        requests,
        elapsed,
        Some(rate_per_thread * threads as f64),
        &hist,
        &summary,
        audited,
        violations,
    );
    ArmReport {
        name: "open-loop-multi-tenant",
        tenants: threads * tenants_per_thread,
        client_threads: threads,
        requests,
        elapsed_s: elapsed,
        throughput_rps: requests as f64 / elapsed,
        offered_rps: Some(rate_per_thread * threads as f64),
        mean_us: hist.mean(),
        p50_us: hist.percentile(50.0),
        p95_us: hist.percentile(95.0),
        p99_us: hist.percentile(99.0),
        solves: summary.solves,
        audited_solves: audited,
        audit_violations: violations,
    }
}

/// Run the coalescing burst script: `rounds` rounds of `burst`
/// single-delta `ApplyDeltas` requests hammering a small key set, then one
/// `Solve`. Returns the arm record.
fn coalesce_arm(seed: u64, rounds: usize, burst: usize) -> CoalesceArm {
    let name = "coalesced";
    let server = Server::<f64>::bind(ServeConfig::default()).expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mirror = seed_tenant(&mut client, &mut rng, "bursty", &CAPS, 4);

    let mut hist = latency_hist();
    let mut violations = 0;
    for _ in 0..rounds {
        // Hammer one job's demands so last-writer-wins has work to do.
        let id = mirror.live[rng.gen_range(0..mirror.live.len())];
        for _ in 0..burst {
            let d = WireDelta::DemandChange {
                id,
                site: rng.gen_range(0..CAPS.len()),
                demand: rng.gen_range(0.5..4.0),
            };
            mirror.apply(&d);
            let t0 = Instant::now();
            client
                .apply_deltas(&mirror.tenant, std::slice::from_ref(&d))
                .expect("apply");
            hist.add(t0.elapsed().as_secs_f64() * 1e6);
        }
        let reply = client.solve(&mirror.tenant).expect("solve");
        mirror.solves_seen += 1;
        violations += mirror.audit_reply(&reply);
    }
    assert_eq!(violations, 0, "{name}: audit violations in coalescing arm");
    client.shutdown().expect("shutdown");
    let summary = server.join();

    let apply_requests = (rounds * burst) as u64;
    println!(
        "coalescing/{name}: {apply_requests} apply requests -> {} solves \
         ({:.3} solves/request, {} deltas coalesced)",
        summary.solves,
        summary.solves as f64 / apply_requests as f64,
        summary.deltas_coalesced,
    );
    CoalesceArm {
        name,
        apply_requests,
        solves: summary.solves,
        solves_per_request: summary.solves as f64 / apply_requests as f64,
        deltas_coalesced: summary.deltas_coalesced,
        p95_us: hist.percentile(95.0),
    }
}

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Encode one seeded `Solved` reply of `serve-large-tenants` size
/// `ENCODES` times. The demands are that workload's: Zipf-skewed rows
/// over the sites, jittered by U(0.5, 1.5), with every capacity half its
/// column's demand. The split is an enhanced AMF solve of them, so the
/// reply's bytes also move if the solver's f64 output does.
fn codec_arm(seed: u64) -> CodecReport {
    const JOBS: usize = 150;
    const SITES: usize = 12;
    const ENCODES: usize = 201;
    let mut rng = StdRng::seed_from_u64(seed);
    let demands: Vec<Vec<f64>> = (0..JOBS)
        .map(|_| {
            let scale: f64 = rng.gen_range(5.0..30.0);
            let offset = rng.gen_range(0..3usize);
            (0..SITES)
                .map(|s| {
                    let rank = ((s + SITES - offset) % SITES) as f64;
                    scale / (rank + 1.0).powf(1.2) * rng.gen_range(0.5..1.5)
                })
                .collect()
        })
        .collect();
    let caps = (0..SITES)
        .map(|s| 0.5 * demands.iter().map(|row| row[s]).sum::<f64>())
        .collect();
    let inst = Instance::new(caps, demands).expect("seeded demands are valid");
    let out = AmfSolver::enhanced().solve(&inst);
    let reply = Response::Solved {
        job_ids: (0..JOBS as u64).collect(),
        aggregates: out.allocation.aggregates().to_vec(),
        split: out.allocation.split().to_vec(),
        resolved: true,
    };
    let bytes = encode(&reply);
    assert_eq!(
        decode_response(&bytes).expect("the reply decodes"),
        reply,
        "the codec reply does not survive a round trip"
    );
    let mut times_us: Vec<f64> = (0..ENCODES)
        .map(|_| {
            let t0 = Instant::now();
            let again = encode(std::hint::black_box(&reply));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            assert_eq!(again, bytes, "encoding is not deterministic");
            us
        })
        .collect();
    times_us.sort_by(|a, b| a.partial_cmp(b).expect("durations are not NaN"));
    let report = CodecReport {
        name: "solved-150x12-enhanced",
        jobs: JOBS,
        sites: SITES,
        nonzero_entries: out
            .allocation
            .split()
            .iter()
            .flatten()
            .filter(|x| **x != 0.0)
            .count(),
        reply_bytes: bytes.len(),
        reply_fnv: format!("{:#018x}", fnv1a(&bytes)),
        encodes: ENCODES,
        encode_us: times_us[ENCODES / 2],
    };
    println!(
        "codec/{}: {} bytes ({} of {} split entries nonzero), fnv {}; encode p50 {:.1}us",
        report.name,
        report.reply_bytes,
        report.nonzero_entries,
        JOBS * SITES,
        report.reply_fnv,
        report.encode_us,
    );
    report
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let seed: u64 = flag("--seed").map_or(7, |v| v.parse().expect("--seed takes an integer"));
    let out = flag("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    // Arm sizes: seconds in full mode, near-instant in --smoke.
    let (cl_iters, ol_threads, ol_tenants, ol_per_thread, ol_rate, rounds, burst) = if smoke {
        (40, 2, 1, 40, 200.0, 4, 4)
    } else {
        (2400, 4, 2, 700, 300.0, 30, 8)
    };

    let closed = closed_loop(seed, cl_iters);
    let open = open_loop(
        seed.wrapping_add(1),
        ol_threads,
        ol_tenants,
        ol_per_thread,
        ol_rate,
    );
    let coalesced = coalesce_arm(seed.wrapping_add(2), rounds, burst);
    let codec = codec_arm(seed.wrapping_add(3));

    let total_violations = closed.audit_violations + open.audit_violations;
    assert!(
        closed.audited_solves > 0 && open.audited_solves > 0,
        "load generator audited no solves — sampling misconfigured"
    );
    // The seeding solve, then one per round: each burst is staged and
    // merged into its round's `Solve`.
    assert_eq!(
        coalesced.solves,
        rounds as u64 + 1,
        "coalescing did not merge each burst into one solve"
    );

    let report = Report {
        schema: "amf-bench-serve/v3",
        smoke,
        seed,
        hardware: Hardware {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            note: format!(
                "std::thread::available_parallelism() = {}; loopback TCP on one host — \
                 latencies include local socket round trips, not network",
                std::thread::available_parallelism().map_or(1, |n| n.get())
            ),
        },
        closed_loop: closed,
        open_loop: open,
        coalescing: CoalescingReport {
            rounds,
            burst,
            coalesced,
        },
        codec,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write report");
    println!("wrote {out}");
    assert_eq!(total_violations, 0, "sampled audits found violations");
}
