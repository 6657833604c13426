//! `serve-large-tenants` and `serve-small-tenants`: two traffic mixes
//! against an in-process `amf-serve` server over loopback TCP.
//!
//! All load comes from this process: at most `available_parallelism`
//! load threads, each owning one connection and a fixed subset of the
//! tenants, so every tenant's request order is fixed by its connection.
//! A run has four phases after setup:
//!
//! 1. warm-up — closed loop, untimed;
//! 2. capacity — closed loop, one connection issuing a fixed number of
//!    requests back to back; `throughput_per_s` is requests completed per
//!    second;
//!    `light_p50_us` and `heavy_p50_us` are the round-trip p50s of its
//!    light operations (`ApplyDeltas`, `GetAllocation`) and its heavy
//!    ones (`Solve`);
//! 3. light and 4. heavy — open loop, Poisson arrivals at two fixed
//!    offered rates, each request timed from its scheduled send; their
//!    figures are printed on the summary lines.
//!
//! The traced run records every request and reply frame, then replays the
//! requests in-process through the layers' public functions
//! ([`decode_request`], [`DeltaBatch::push`]/[`DeltaBatch::take`],
//! [`IncrementalAmf::apply_all`]/[`IncrementalAmf::solve`], [`encode`]) in
//! the order the server's handlers use, once untraced and once with spans;
//! each replayed reply must be byte-identical to the served one.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use amf_audit::audit;
use amf_core::incremental::{Delta, IncrementalAmf, JobId};
use amf_core::{Allocation, AmfSolver, FairnessMode, Instance};
use amf_serve::{
    decode_request, decode_response, encode, read_frame, write_frame, DeltaBatch, Request,
    Response, ServeConfig, Server, WireDelta, WireStats, DEFAULT_MAX_FRAME,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{self, Metrics, Outcome, SetupPlan, SERVE_OPS};
use crate::spans::{self, Recorder, SpanId};
use crate::stats::{self, ratio, tail};

/// Request mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Bursts of 1–8 single-delta `ApplyDeltas`, then one `Solve`.
    Bursts,
    /// 40% `GetAllocation`, 40% single-delta `ApplyDeltas`, 20% `Solve`.
    ReadsAndWrites,
}

/// Shape of a serve workload.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Tenants (one session each).
    pub tenants: usize,
    /// Sites per tenant.
    pub sites: usize,
    /// Live jobs per tenant: held steady (`Bursts`) or an upper bound.
    pub jobs: usize,
    /// Request mix.
    pub mix: Mix,
    /// Offered rate of the light open-loop phase (requests/s).
    pub light_rps: f64,
    /// Offered rate of the heavy open-loop phase (requests/s).
    pub heavy_rps: f64,
    /// Closed-loop rate of one connection on the reference host
    /// (requests/s). It sizes the closed loops, which run a fixed number
    /// of requests, not a fixed time: every `AddJob` leaves retired edges
    /// in the session's flow network, so a `Solve` slows as a session
    /// ages, and with timed windows a faster run aged its sessions
    /// further (the `Solve` p50 rose from 1.0 to 1.7 ms across one run).
    pub closed_rps: f64,
    /// Every this-many-th `Solve` of a tenant is audited.
    pub audit_every: u64,
    /// Upper bound on audited replies per run.
    pub max_audits: usize,
}

impl Shape {
    /// The serve workload called `name`.
    pub fn named(name: &str) -> Option<Shape> {
        match name {
            "serve-large-tenants" => Some(Shape {
                name: "serve-large-tenants",
                tenants: 4,
                sites: 12,
                jobs: 150,
                mix: Mix::Bursts,
                light_rps: 500.0,
                heavy_rps: 1000.0,
                closed_rps: 2400.0,
                audit_every: 16,
                max_audits: 40,
            }),
            "serve-small-tenants" => Some(Shape {
                name: "serve-small-tenants",
                tenants: 32,
                sites: 3,
                jobs: 10,
                mix: Mix::ReadsAndWrites,
                light_rps: 3000.0,
                heavy_rps: 6500.0,
                closed_rps: 10_000.0,
                audit_every: 8,
                max_audits: 400,
            }),
            _ => None,
        }
    }
}

/// Index of an operation in [`SERVE_OPS`]; `None` for setup-only ops.
fn op_index(req: &Request) -> Option<usize> {
    let name = req.op_name();
    SERVE_OPS.iter().position(|op| *op == name)
}

/// FNV-1a over a frame: replies are compared by hash, not kept whole.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One tenant's script and the client-side mirror of its session, built
/// only from the deltas the server accepted.
struct Tenant {
    name: String,
    rng: StdRng,
    caps: Vec<f64>,
    base_caps: Vec<f64>,
    jobs: BTreeMap<u64, Vec<f64>>,
    /// Each live job's demands as generated.
    base_rows: BTreeMap<u64, Vec<f64>>,
    live: Vec<u64>,
    hot: Vec<u64>,
    next_id: u64,
    /// Deltas left in the current burst (`Bursts`).
    burst_left: usize,
    solves: u64,
    /// Mirror instance (rows in reply order) and served split of the
    /// sampled `Solve` replies, audited after the timed phases.
    samples: Vec<(Instance<f64>, Vec<Vec<f64>>)>,
    /// Replies whose job set differed from the mirror's.
    mismatches: u64,
}

impl Tenant {
    fn new(shape: &Shape, seed: u64, index: usize) -> Tenant {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1)));
        let mut t = Tenant {
            name: format!("tenant-{index}"),
            rng: StdRng::seed_from_u64(0),
            caps: Vec::new(),
            base_caps: Vec::new(),
            jobs: BTreeMap::new(),
            base_rows: BTreeMap::new(),
            live: Vec::new(),
            hot: Vec::new(),
            next_id: 0,
            burst_left: 0,
            solves: 0,
            samples: Vec::new(),
            mismatches: 0,
        };
        // Initial jobs, then capacities from them.
        let initial = match shape.mix {
            Mix::Bursts => shape.jobs,
            Mix::ReadsAndWrites => shape.jobs / 2,
        };
        let mut totals = vec![0.0; shape.sites];
        let rows: Vec<Vec<f64>> = (0..initial)
            .map(|_| {
                let row = demand_row(&mut rng, shape);
                for (t, d) in totals.iter_mut().zip(&row) {
                    *t += d;
                }
                row
            })
            .collect();
        t.caps = match shape.mix {
            // Contention about 2x on every site.
            Mix::Bursts => totals.iter().map(|x| (0.5 * x).max(1.0)).collect(),
            Mix::ReadsAndWrites => [8.0, 6.0, 10.0]
                .iter()
                .copied()
                .cycle()
                .take(shape.sites)
                .collect(),
        };
        t.base_caps = t.caps.clone();
        for row in rows {
            let id = t.next_id;
            t.next_id += 1;
            let demands = match shape.mix {
                Mix::Bursts => jitter(&mut rng, &row),
                Mix::ReadsAndWrites => row.clone(),
            };
            t.base_rows.insert(id, row);
            t.jobs.insert(id, demands);
            t.live.push(id);
        }
        t.hot = t.live.iter().take(8).copied().collect();
        t.burst_left = rng.gen_range(1..=8usize);
        t.rng = rng;
        t
    }

    /// The seeding requests: create the session, add the initial jobs in
    /// one batch, solve once.
    fn seeding(&self) -> Vec<Request> {
        let adds = self
            .live
            .iter()
            .map(|id| WireDelta::AddJob {
                id: *id,
                demands: self.jobs[id].clone(),
                weight: None,
            })
            .collect();
        vec![
            Request::CreateSession {
                tenant: self.name.clone(),
                capacities: self.caps.clone(),
                mode: None,
            },
            Request::ApplyDeltas {
                tenant: self.name.clone(),
                deltas: adds,
            },
            Request::Solve {
                tenant: self.name.clone(),
            },
        ]
    }

    /// Draw one delta that is valid against the mirror.
    fn next_delta(&mut self, shape: &Shape) -> WireDelta {
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        match shape.mix {
            Mix::Bursts => {
                if roll < 0.80 {
                    let id = if self.rng.gen_bool(0.8) {
                        self.hot[self.rng.gen_range(0..self.hot.len())]
                    } else {
                        self.live[self.rng.gen_range(0..self.live.len())]
                    };
                    // Scale the job's generated row, so demands stay
                    // Zipf-skewed however long the run lasts.
                    let site = self.rng.gen_range(0..shape.sites);
                    WireDelta::DemandChange {
                        id,
                        site,
                        demand: self.base_rows[&id][site] * self.rng.gen_range(0.5..1.5),
                    }
                } else if roll < 0.97 {
                    if self.live.len() > shape.jobs {
                        let cold: Vec<u64> = self
                            .live
                            .iter()
                            .copied()
                            .filter(|id| !self.hot.contains(id))
                            .collect();
                        WireDelta::RemoveJob {
                            id: cold[self.rng.gen_range(0..cold.len())],
                        }
                    } else {
                        self.add_job(shape)
                    }
                } else {
                    let site = self.rng.gen_range(0..shape.sites);
                    WireDelta::CapacityChange {
                        site,
                        capacity: self.base_caps[site] * self.rng.gen_range(0.7..1.3),
                    }
                }
            }
            Mix::ReadsAndWrites => {
                if self.live.len() < 2 || (roll < 0.25 && self.live.len() < shape.jobs) {
                    self.add_job(shape)
                } else if roll < 0.40 {
                    WireDelta::RemoveJob {
                        id: self.live[self.rng.gen_range(0..self.live.len())],
                    }
                } else if roll < 0.90 {
                    WireDelta::DemandChange {
                        id: self.live[self.rng.gen_range(0..self.live.len())],
                        site: self.rng.gen_range(0..shape.sites),
                        demand: self.rng.gen_range(0.5..4.0),
                    }
                } else {
                    WireDelta::CapacityChange {
                        site: self.rng.gen_range(0..shape.sites),
                        capacity: self.rng.gen_range(4.0..12.0),
                    }
                }
            }
        }
    }

    fn add_job(&mut self, shape: &Shape) -> WireDelta {
        let id = self.next_id;
        self.next_id += 1;
        let row = demand_row(&mut self.rng, shape);
        let demands = match shape.mix {
            Mix::Bursts => jitter(&mut self.rng, &row),
            Mix::ReadsAndWrites => row.clone(),
        };
        // Ids are never reused, so a refused add leaves an unused entry.
        self.base_rows.insert(id, row);
        WireDelta::AddJob {
            id,
            demands,
            weight: None,
        }
    }

    /// The tenant's next request.
    fn next_request(&mut self, shape: &Shape) -> Request {
        let tenant = self.name.clone();
        match shape.mix {
            Mix::Bursts => {
                if self.burst_left == 0 {
                    self.burst_left = self.rng.gen_range(1..=8usize);
                    Request::Solve { tenant }
                } else {
                    self.burst_left -= 1;
                    let d = self.next_delta(shape);
                    Request::ApplyDeltas {
                        tenant,
                        deltas: vec![d],
                    }
                }
            }
            Mix::ReadsAndWrites => {
                let roll: f64 = self.rng.gen_range(0.0..1.0);
                if roll < 0.4 {
                    Request::GetAllocation { tenant }
                } else if roll < 0.8 {
                    let d = self.next_delta(shape);
                    Request::ApplyDeltas {
                        tenant,
                        deltas: vec![d],
                    }
                } else {
                    Request::Solve { tenant }
                }
            }
        }
    }

    /// Fold a successful reply into the mirror.
    fn accept(&mut self, shape: &Shape, req: &Request, resp: &Response) {
        match (req, resp) {
            (Request::ApplyDeltas { deltas, .. }, Response::Applied { .. }) => {
                for d in deltas {
                    match d {
                        WireDelta::AddJob { id, demands, .. } => {
                            self.live.push(*id);
                            self.jobs.insert(*id, demands.clone());
                        }
                        WireDelta::RemoveJob { id } => {
                            self.live.retain(|j| j != id);
                            self.jobs.remove(id);
                            self.base_rows.remove(id);
                        }
                        WireDelta::DemandChange { id, site, demand } => {
                            if let Some(row) = self.jobs.get_mut(id) {
                                row[*site] = *demand;
                            }
                        }
                        WireDelta::CapacityChange { site, capacity } => {
                            self.caps[*site] = *capacity;
                        }
                    }
                }
            }
            (Request::Solve { .. }, Response::Solved { job_ids, split, .. }) => {
                self.solves += 1;
                if !self.solves.is_multiple_of(shape.audit_every)
                    || self.samples.len() * shape.tenants >= shape.max_audits
                {
                    return;
                }
                let mut sorted_ids = job_ids.clone();
                sorted_ids.sort_unstable();
                if !sorted_ids.iter().eq(self.jobs.keys()) {
                    eprintln!(
                        "{}: {}: served job set differs from the mirror",
                        shape.name, self.name
                    );
                    self.mismatches += 1;
                    return;
                }
                let demands = job_ids.iter().map(|id| self.jobs[id].clone()).collect();
                let inst = Instance::new(self.caps.clone(), demands)
                    .expect("the mirror holds a valid instance");
                self.samples.push((inst, split.clone()));
            }
            _ => {}
        }
    }
}

/// Zipf-skewed demands: each job ranks the sites starting at a random
/// offset among the first three, so the low-numbered sites are hot for
/// most jobs.
fn demand_row(rng: &mut StdRng, shape: &Shape) -> Vec<f64> {
    match shape.mix {
        Mix::Bursts => {
            let scale: f64 = rng.gen_range(5.0..30.0);
            let offset = rng.gen_range(0..3usize);
            (0..shape.sites)
                .map(|s| {
                    let rank = ((s + shape.sites - offset) % shape.sites) as f64;
                    scale / (rank + 1.0).powf(1.2)
                })
                .collect()
        }
        Mix::ReadsAndWrites => (0..shape.sites).map(|_| rng.gen_range(0.5..4.0)).collect(),
    }
}

/// A job's demands on `serve-large-tenants`: each entry of its generated
/// row scaled by U(0.5, 1.5), the draw a `DemandChange` makes. Starting
/// from unscaled rows, the demand mix (and with it the cost of a `Solve`)
/// drifted as changes accumulated: the `Solve` p50 rose from 1.0 to 1.7
/// ms across one 30 s run, so it depended on how many requests the run
/// got through.
fn jitter(rng: &mut StdRng, row: &[f64]) -> Vec<f64> {
    row.iter().map(|d| d * rng.gen_range(0.5..1.5)).collect()
}

/// One request as sent, kept by the traced run for the replay.
struct Sent {
    req: Vec<u8>,
    reply_hash: u64,
    reply_len: usize,
    failed: bool,
}

/// Samples gathered by one thread in one phase.
#[derive(Default)]
struct PhaseLog {
    sent: u64,
    failed: u64,
    /// Latency (µs) from scheduled send (open loop) or send (closed loop);
    /// a failed request counts as infinitely late.
    latency_us: Vec<f64>,
    /// Open loop: how late each send left (µs).
    lag_us: Vec<f64>,
    /// Round trip (µs) per operation in [`SERVE_OPS`] order; a failed
    /// request counts as infinitely late.
    rtt_us: [Vec<f64>; 3],
}

impl PhaseLog {
    fn merge(&mut self, other: PhaseLog) {
        self.sent += other.sent;
        self.failed += other.failed;
        self.latency_us.extend(other.latency_us);
        self.lag_us.extend(other.lag_us);
        for (a, b) in self.rtt_us.iter_mut().zip(other.rtt_us) {
            a.extend(b);
        }
    }
}

/// A load thread's state: its connection, its tenants, and its picks.
struct Worker {
    stream: TcpStream,
    tenants: Vec<Tenant>,
    pick: StdRng,
    record: bool,
    log: Vec<Sent>,
}

impl Worker {
    fn connect(addr: SocketAddr, tenants: Vec<Tenant>, seed: u64, record: bool) -> Worker {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        Worker {
            stream,
            tenants,
            pick: StdRng::seed_from_u64(seed),
            record,
            log: Vec::new(),
        }
    }

    /// Send one request for tenant `k`; returns the round trip and whether
    /// it succeeded.
    fn call(&mut self, shape: &Shape, k: usize, req: &Request) -> (Duration, bool) {
        let bytes = encode(req);
        let t0 = Instant::now();
        let reply = write_frame(&mut self.stream, &bytes)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                read_frame(&mut self.stream, DEFAULT_MAX_FRAME)
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| "server closed the connection".to_string())
            });
        let rtt = t0.elapsed();
        let (ok, hash, len) = match &reply {
            Ok(payload) => {
                let ok = match decode_response(payload) {
                    Ok(Response::Error { kind, code, .. }) => {
                        eprintln!("{}: request refused: {kind:?}/{code}", shape.name);
                        false
                    }
                    Ok(resp) => {
                        self.tenants[k].accept(shape, req, &resp);
                        true
                    }
                    Err(e) => {
                        eprintln!("{}: undecodable reply: {e}", shape.name);
                        false
                    }
                };
                (ok, fnv(payload), payload.len())
            }
            Err(e) => {
                eprintln!("{}: transport error: {e}", shape.name);
                (false, 0, 0)
            }
        };
        if self.record {
            self.log.push(Sent {
                req: bytes,
                reply_hash: hash,
                reply_len: len,
                failed: !ok,
            });
        }
        (rtt, ok)
    }

    /// One scripted request from a tenant picked by this thread's stream.
    fn step(&mut self, shape: &Shape, log: &mut PhaseLog) -> (Duration, bool) {
        let k = self.pick.gen_range(0..self.tenants.len());
        let req = self.tenants[k].next_request(shape);
        let (rtt, ok) = self.call(shape, k, &req);
        log.sent += 1;
        if !ok {
            log.failed += 1;
        }
        if let Some(i) = op_index(&req) {
            log.rtt_us[i].push(if ok {
                rtt.as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            });
        }
        (rtt, ok)
    }

    /// Closed loop: `requests` requests back to back.
    fn closed(&mut self, shape: &Shape, requests: usize) -> PhaseLog {
        let mut log = PhaseLog::default();
        for _ in 0..requests {
            let (rtt, ok) = self.step(shape, &mut log);
            log.latency_us.push(if ok {
                rtt.as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            });
        }
        log
    }

    fn open(&mut self, shape: &Shape, t0: Instant, duration: Duration, rate: f64) -> PhaseLog {
        let mut log = PhaseLog::default();
        let mut scheduled = Duration::ZERO;
        loop {
            let u: f64 = self.pick.gen_range(f64::MIN_POSITIVE..1.0);
            scheduled += Duration::from_secs_f64(-u.ln() / rate);
            if scheduled > duration {
                break;
            }
            if let Some(wait) = scheduled.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            log.lag_us
                .push(t0.elapsed().saturating_sub(scheduled).as_secs_f64() * 1e6);
            let (_, ok) = self.step(shape, &mut log);
            let late = t0.elapsed().saturating_sub(scheduled);
            log.latency_us.push(if ok {
                late.as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            });
        }
        log
    }
}

/// Untimed closed-loop warm-up before the measured phases, in seconds at
/// the workload's [`Shape::closed_rps`].
const WARM_UP_S: f64 = 1.0;

/// The measured time is cut into this many rounds, each running one
/// window of every phase (capacity, light, heavy). A figure is the median
/// over rounds, so a stall of the machine lasting a few seconds moves a
/// few windows of each phase rather than a whole phase.
pub const ROUNDS: usize = 10;

/// Share of each round given to the closed loop at [`Shape::closed_rps`],
/// which yields every end-to-end figure; the two open loops split the
/// rest.
const CLOSED_SHARE: f64 = 0.5;

/// Light operations (`apply_deltas`, `get_allocation`) and heavy ones
/// (`solve`), as indices into [`SERVE_OPS`].
const LIGHT_OPS: [usize; 2] = [0, 2];
const HEAVY_OPS: [usize; 1] = [1];

/// Round-trip p50 (µs) of the operations `ops` in one window; NaN when
/// the window has too few of them.
fn ops_p50(log: &PhaseLog, ops: &[usize]) -> f64 {
    let rtt = ops.iter().flat_map(|&i| log.rtt_us[i].iter().copied());
    stats::percentile(&stats::sorted(rtt.collect()), 5000).unwrap_or(f64::NAN)
}

/// One window's figures: requests completed per second, latency p50 and
/// p90 (µs; NaN when the window is too short to resolve its p90).
fn figures(log: &PhaseLog, elapsed_s: f64) -> (f64, f64, f64) {
    let lat = stats::sorted(log.latency_us.clone());
    (
        log.sent as f64 / elapsed_s,
        stats::percentile(&lat, 5000).unwrap_or(f64::NAN),
        stats::percentile(&lat, 9000).unwrap_or(f64::NAN),
    )
}

/// Run `phase` on every worker, one scoped thread each, and merge.
fn in_parallel(
    workers: &mut [Worker],
    phase: impl Fn(&mut Worker, Instant) -> PhaseLog + Sync,
) -> (PhaseLog, f64) {
    let t0 = Instant::now();
    let logs: Vec<PhaseLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                let phase = &phase;
                scope.spawn(move || phase(w, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut all = PhaseLog::default();
    for l in logs {
        all.merge(l);
    }
    (all, elapsed)
}

/// Bind a server and seed every tenant. Returns the server, the workers
/// and the seeding failures.
fn setup(
    shape: &Shape,
    seed: u64,
    threads: usize,
    record: bool,
) -> (Server<f64>, Vec<Worker>, u64) {
    let server = Server::<f64>::bind(ServeConfig::default()).expect("bind the in-process server");
    let mut groups: Vec<Vec<Tenant>> = (0..threads).map(|_| Vec::new()).collect();
    for i in 0..shape.tenants {
        groups[i % threads].push(Tenant::new(shape, seed, i));
    }
    let mut failed = 0;
    let mut workers: Vec<Worker> = groups
        .into_iter()
        .enumerate()
        .map(|(t, tenants)| {
            Worker::connect(
                server.addr(),
                tenants,
                seed.wrapping_add(1000 + t as u64),
                record,
            )
        })
        .collect();
    for w in &mut workers {
        for k in 0..w.tenants.len() {
            for req in w.tenants[k].seeding() {
                if !w.call(shape, k, &req).1 {
                    failed += 1;
                }
            }
        }
    }
    (server, workers, failed)
}

fn stop(server: Server<f64>, workers: Vec<Worker>) -> Vec<Worker> {
    let mut kept = Vec::with_capacity(workers.len());
    for w in workers {
        // Closing the connection lets the server's connection thread end.
        let _ = w.stream.shutdown(std::net::Shutdown::Both);
        kept.push(w);
    }
    server.shutdown();
    let _ = server.join();
    kept
}

/// Audit the sampled replies (enhanced mode, the server's default).
/// Returns `(checked, violations)`.
fn audit_samples(shape: &Shape, workers: &[Worker]) -> (u64, u64) {
    let (mut checked, mut violations) = (0, 0);
    for t in workers.iter().flat_map(|w| &w.tenants) {
        violations += t.mismatches;
        checked += t.mismatches;
        for (inst, split) in &t.samples {
            checked += 1;
            let report = audit(
                inst,
                &Allocation::from_split(split.clone()),
                FairnessMode::Enhanced,
            );
            if !report.is_certified_amf() {
                eprintln!("{}: {}: audit violation: {report:?}", shape.name, t.name);
                violations += 1;
            }
        }
    }
    (checked, violations)
}

/// Run one serve workload. Bind-and-seed cycles are timed as `plan` says
/// (the last one is kept); `setup_s` is their median.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
    plan: SetupPlan,
    m: &mut Metrics,
    spans_out: &Path,
) -> Outcome {
    let threads = report::parallelism().min(shape.tenants);
    assert!(
        threads <= report::parallelism(),
        "at most nproc load threads"
    );
    let mut setup_s = Vec::new();
    let (server, mut workers, seed_failed) = loop {
        let t0 = Instant::now();
        let (server, workers, failed) = setup(shape, seed, threads, traced);
        setup_s.push(t0.elapsed().as_secs_f64());
        if !plan.more(setup_s.len(), setup_s.iter().sum()) {
            break (server, workers, failed);
        }
        stop(server, workers);
    };
    m.set("setup_s", stats::median(&setup_s));
    assert!(
        workers.len() <= report::parallelism(),
        "at most nproc connections"
    );

    let round_s = seconds / ROUNDS as f64;
    let closed_requests = (shape.closed_rps * round_s * CLOSED_SHARE).round().max(1.0) as usize;
    let open_window = Duration::from_secs_f64(round_s * (1.0 - CLOSED_SHARE) / 2.0);
    let warm_up = (shape.closed_rps * WARM_UP_S).round() as usize;
    in_parallel(&mut workers, |w, _| w.closed(shape, warm_up));
    // Fixed offered rates: tying them to this run's measured capacity
    // would pass the capacity's run-to-run noise on to every latency.
    let (light_rps, heavy_rps) = (shape.light_rps, shape.heavy_rps);
    let per_thread = |rate: f64| rate / threads as f64;
    let (mut capacity, mut light, mut heavy) = (
        PhaseLog::default(),
        PhaseLog::default(),
        PhaseLog::default(),
    );
    let (mut cap_w, mut light_w, mut heavy_w) = (Vec::new(), Vec::new(), Vec::new());
    // Per round: closed-loop p50 of the light and of the heavy operations.
    let mut class_w = Vec::new();
    for _ in 0..ROUNDS {
        // One connection: with two back-to-back connections plus the
        // server's threads on two cores, throughput flips between
        // scheduling modes from run to run (see METRICS.md).
        let (c, c_s) = in_parallel(&mut workers[..1], |w, _| w.closed(shape, closed_requests));
        let (l, l_s) = in_parallel(&mut workers, |w, t0| {
            w.open(shape, t0, open_window, per_thread(light_rps))
        });
        let (h, h_s) = in_parallel(&mut workers, |w, t0| {
            w.open(shape, t0, open_window, per_thread(heavy_rps))
        });
        cap_w.push(figures(&c, c_s));
        class_w.push((ops_p50(&c, &LIGHT_OPS), ops_p50(&c, &HEAVY_OPS)));
        light_w.push(figures(&l, l_s));
        heavy_w.push(figures(&h, h_s));
        capacity.merge(c);
        light.merge(l);
        heavy.merge(h);
    }

    let stats_frame = {
        let w = &mut workers[0];
        write_frame(&mut w.stream, &encode(&Request::Stats)).expect("send Stats");
        let payload = read_frame(&mut w.stream, DEFAULT_MAX_FRAME)
            .expect("read Stats reply")
            .expect("server replied to Stats");
        match decode_response(&payload) {
            Ok(Response::Stats { stats }) => stats,
            other => panic!("unexpected Stats reply {other:?}"),
        }
    };
    let workers = stop(server, workers);

    let attempted = workers
        .iter()
        .map(|w| w.tenants.len() as u64 * 3)
        .sum::<u64>()
        + capacity.sent
        + light.sent
        + heavy.sent;
    let failed = seed_failed + capacity.failed + light.failed + heavy.failed;
    let (checked, violations) = audit_samples(shape, &workers);
    let capacity_rps = stats::median(&cap_w.iter().map(|x| x.0).collect::<Vec<_>>());
    println!(
        "{}: {threads} load threads, {threads} connections (one for the closed loop), {} tenants; \
         offered {light_rps:.0} / {heavy_rps:.0} rps; {attempted} attempted, {failed} failed; \
         {checked} audited, {violations} violations",
        shape.name, shape.tenants,
    );
    for (label, log, w) in [
        ("capacity", &capacity, &cap_w),
        ("light", &light, &light_w),
        ("heavy", &heavy, &heavy_w),
    ] {
        let all = stats::sorted(log.latency_us.clone());
        println!(
            "{}: {label}: {} samples, highest resolved percentile {:?}; per round: rate {:?}, p50 {:?}, p90 {:?}",
            shape.name,
            all.len(),
            stats::highest_resolved(&all).map(|(bp, v)| (stats::percentile_label(bp), v)),
            w.iter().map(|x| x.0.round()).collect::<Vec<_>>(),
            w.iter().map(|x| x.1.round()).collect::<Vec<_>>(),
            w.iter().map(|x| x.2.round()).collect::<Vec<_>>(),
        );
    }
    println!(
        "{}: closed loop per round: light-op p50 {:?}, heavy-op p50 {:?}",
        shape.name,
        class_w.iter().map(|x| x.0.round()).collect::<Vec<_>>(),
        class_w.iter().map(|x| x.1.round()).collect::<Vec<_>>(),
    );
    // Median over the rounds whose window resolved the figure; NaN (the
    // run then reports no result) when none did. The end-to-end latencies
    // come from the closed loop: at the open loops' rates the CPUs idle
    // between requests, and waking them dominated the open-loop p50s
    // (about 400 µs against 80 µs back to back on serve-large-tenants),
    // which then moved with the host's load by up to 3x between runs.
    let med = |pick: fn(&(f64, f64)) -> f64| {
        let resolved: Vec<f64> = class_w.iter().map(pick).filter(|v| !v.is_nan()).collect();
        if resolved.is_empty() {
            f64::NAN
        } else {
            stats::median(&resolved)
        }
    };
    m.set("throughput_per_s", capacity_rps);
    m.set("light_p50_us", med(|x| x.0));
    m.set("heavy_p50_us", med(|x| x.1));
    let mut correct = violations == 0;

    if traced {
        m.set("load.threads", threads as f64);
        m.set("load.connections", workers.len() as f64);
        m.set("audit.checked", checked as f64);
        m.set("audit.violations", violations as f64);
        let mut lag = light.lag_us.clone();
        lag.extend(&heavy.lag_us);
        let lag = stats::sorted(lag);
        m.set("serve.generator_lag_p99_us", tail(&lag, 9900));
        m.set("serve.failed", failed as f64);
        correct &= layer_metrics(shape, &workers, &capacity, &stats_frame, m, spans_out);
    }
    Outcome {
        correct,
        attempted,
        failed,
    }
}

/// Convert a wire delta exactly as the server does for an f64 session.
fn to_delta(w: &WireDelta) -> Delta<f64> {
    match w {
        WireDelta::AddJob {
            id,
            demands,
            weight,
        } => Delta::AddJob {
            id: JobId(*id),
            demands: demands.clone(),
            weight: weight.unwrap_or(1.0),
        },
        WireDelta::RemoveJob { id } => Delta::RemoveJob { id: JobId(*id) },
        WireDelta::DemandChange { id, site, demand } => Delta::DemandChange {
            id: JobId(*id),
            site: *site,
            demand: *demand,
        },
        WireDelta::CapacityChange { site, capacity } => Delta::CapacityChange {
            site: *site,
            capacity: *capacity,
        },
    }
}

fn solved(session: &IncrementalAmf<f64>, resolved: bool) -> Response {
    let out = session.last_output();
    Response::Solved {
        job_ids: session.job_ids().iter().map(|j| j.0).collect(),
        aggregates: out.allocation.aggregates().to_vec(),
        split: out.allocation.split().to_vec(),
        resolved,
    }
}

/// A replayed tenant: its session and staged batch.
struct ReplayTenant {
    session: IncrementalAmf<f64>,
    batch: DeltaBatch<f64>,
}

/// Replay results.
struct Replay {
    wall_s: f64,
    /// Requests whose replayed reply differed from the served one.
    mismatches: u64,
    replayed: u64,
    /// Operation index per replayed request (request id order).
    ops: Vec<Option<usize>>,
    sessions: Vec<IncrementalAmf<f64>>,
}

fn open(
    rec: &mut Option<Recorder>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
) -> Option<SpanId> {
    rec.as_mut().map(|r| r.open(name, parent, request))
}

fn close(rec: &mut Option<Recorder>, id: Option<SpanId>) {
    if let (Some(r), Some(id)) = (rec.as_mut(), id) {
        r.close(id);
    }
}

/// Replay every recorded request in-process, in each tenant's order,
/// through the steps of the server's handlers.
fn replay(log: &[&Sent], rec: &mut Option<Recorder>) -> Replay {
    let mut tenants: BTreeMap<String, ReplayTenant> = BTreeMap::new();
    let mut mismatches = 0;
    let mut ops = Vec::with_capacity(log.len());
    let t0 = Instant::now();
    for (i, sent) in log.iter().enumerate() {
        let rid = i as u64;
        let root = open(rec, "request", None, rid);
        let d = open(rec, "decode", root, rid);
        let req = decode_request(&sent.req).expect("recorded requests decode");
        close(rec, d);
        ops.push(op_index(&req));
        let h = open(rec, "handler", root, rid);
        let resp = match req {
            Request::CreateSession {
                tenant,
                capacities,
                mode,
            } => {
                let solver = match mode.as_deref() {
                    Some("plain") => AmfSolver::new(),
                    _ => AmfSolver::enhanced(),
                };
                let sites = capacities.len();
                let session = IncrementalAmf::new(solver, capacities).expect("valid capacities");
                tenants.insert(
                    tenant.clone(),
                    ReplayTenant {
                        session,
                        batch: DeltaBatch::new(),
                    },
                );
                Response::Created { tenant, sites }
            }
            Request::ApplyDeltas { tenant, deltas } => {
                let t = tenants
                    .get_mut(&tenant)
                    .expect("session created before use");
                let mut accepted = 0;
                for w in &deltas {
                    let p = open(rec, "batch.push", h, rid);
                    t.batch
                        .push(&t.session, to_delta(w))
                        .expect("recorded deltas were accepted");
                    close(rec, p);
                    accepted += 1;
                }
                Response::Applied {
                    accepted,
                    pending: t.batch.len(),
                }
            }
            Request::Solve { tenant } => {
                let t = tenants
                    .get_mut(&tenant)
                    .expect("session created before use");
                let p = open(rec, "batch.take", h, rid);
                let staged = t.batch.take();
                close(rec, p);
                let p = open(rec, "session.apply_all", h, rid);
                t.session.apply_all(staged).expect("staged deltas apply");
                close(rec, p);
                let resolved = t.session.is_dirty();
                if resolved {
                    let p = open(rec, "session.solve", h, rid);
                    t.session.solve();
                    close(rec, p);
                }
                solved(&t.session, resolved)
            }
            Request::GetAllocation { tenant } => {
                let t = tenants.get(&tenant).expect("session created before use");
                solved(&t.session, false)
            }
            other => panic!("{} is not replayed", other.op_name()),
        };
        close(rec, h);
        let e = open(rec, "encode", root, rid);
        let bytes = encode(&resp);
        close(rec, e);
        close(rec, root);
        if fnv(&bytes) != sent.reply_hash || bytes.len() != sent.reply_len {
            mismatches += 1;
        }
    }
    Replay {
        wall_s: t0.elapsed().as_secs_f64(),
        mismatches,
        replayed: log.len() as u64,
        ops,
        sessions: tenants.into_values().map(|t| t.session).collect(),
    }
}

/// Median duration (µs) of spans called `name` whose request was `op`.
fn op_p50_us(spans_: &[spans::Span], ops: &[Option<usize>], name: &str, op: usize) -> f64 {
    let d: Vec<f64> = spans_
        .iter()
        .filter(|s| s.name == name && ops[s.request as usize] == Some(op))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    tail(&stats::sorted(d), 5000)
}

/// The traced run's per-layer metrics: server counters from the `Stats`
/// frame, then two in-process replays (untraced, traced) of the recorded
/// requests. Returns whether both replays reproduced every served reply.
fn layer_metrics(
    shape: &Shape,
    workers: &[Worker],
    capacity: &PhaseLog,
    st: &WireStats,
    m: &mut Metrics,
    spans_out: &Path,
) -> bool {
    let log: Vec<&Sent> = workers
        .iter()
        .flat_map(|w| &w.log)
        .filter(|s| !s.failed)
        .collect();
    let plain = replay(&log, &mut None);
    let mut rec = Some(Recorder::new());
    let traced = replay(&log, &mut rec);
    let rec = rec.expect("recorder kept");
    let all = rec.spans();
    let ok = plain.mismatches == 0 && traced.mismatches == 0;
    if !ok {
        eprintln!(
            "{}: replay differs from the served replies ({} untraced, {} traced of {})",
            shape.name, plain.mismatches, traced.mismatches, plain.replayed
        );
    }

    m.set("serve.requests", st.requests as f64);
    m.set("serve.overloaded", st.overloaded as f64);
    m.set("serve.solves", st.solves as f64);
    m.set(
        "serve.solves_per_request",
        ratio(st.solves as f64, st.requests as f64).value,
    );
    m.set("serve.deltas_applied", st.deltas_applied as f64);
    m.set("serve.deltas_coalesced", st.deltas_coalesced as f64);
    m.set(
        "serve.coalesce_ratio",
        ratio(st.deltas_coalesced as f64, st.deltas_applied as f64).value,
    );
    let reply_bytes = stats::sorted(log.iter().map(|s| s.reply_len as f64).collect());
    m.set("serve.reply_bytes_p50", tail(&reply_bytes, 5000));
    for (i, op) in SERVE_OPS.iter().enumerate() {
        let decode = op_p50_us(all, &traced.ops, "decode", i);
        let handler = op_p50_us(all, &traced.ops, "handler", i);
        let encode_us = op_p50_us(all, &traced.ops, "encode", i);
        let server = st
            .ops
            .iter()
            .find(|o| o.op == *op)
            .map_or(0.0, |o| o.p50_us);
        let rtt = tail(&stats::sorted(capacity.rtt_us[i].clone()), 5000);
        m.set(format!("serve.decode_us.{op}"), decode);
        m.set(format!("serve.handler_us.{op}"), handler);
        m.set(format!("serve.encode_us.{op}"), encode_us);
        m.set(format!("serve.server_op_p50_us_bucketed.{op}"), server);
        if server > 0.0 {
            m.set(format!("serve.transport_p50_us.{op}"), rtt - server);
            m.set(
                format!("serve.queue_wait_p50_us.{op}"),
                server - decode - handler,
            );
        }
    }

    let applies = stats::sorted(spans::durations(all, "session.apply_all"));
    let solves = stats::sorted(spans::durations(all, "session.solve"));
    let (mut replayed, mut resolved) = (0usize, 0usize);
    let (mut edges, mut csr, mut words) = (0u64, 0u64, 0u64);
    for s in &traced.sessions {
        let w = s.session_stats();
        replayed += w.rounds_replayed;
        resolved += w.rounds_resolved;
        edges += w.edges_visited;
        csr += w.csr_rebuilds;
        words += w.bitset_words_cleared;
    }
    let solve_busy_ns: f64 = solves.iter().sum();
    m.set("core.session_applies", applies.len() as f64);
    m.set("core.session_apply_p50_us", tail(&applies, 5000) / 1e3);
    m.set("core.session_solves", solves.len() as f64);
    m.set("core.session_solve_p50_us", tail(&solves, 5000) / 1e3);
    m.set("core.session_solve_p99_us", tail(&solves, 9900) / 1e3);
    m.set("core.rounds_replayed", replayed as f64);
    m.set("core.rounds_resolved", resolved as f64);
    let r = ratio(replayed as f64, (replayed + resolved) as f64);
    m.set("core.replay_ratio", r.value);
    m.set("core.replay_base", r.base);
    m.set("flow.edges_visited", edges as f64);
    m.set("flow.csr_rebuilds", csr as f64);
    m.set("flow.bitset_words_cleared", words as f64);
    m.set(
        "flow.solve_ns_per_edge",
        ratio(solve_busy_ns, edges as f64).value,
    );
    m.set("trace.untraced_s", plain.wall_s);
    m.set("trace.traced_s", traced.wall_s);
    m.set("trace.overhead_s", traced.wall_s - plain.wall_s);
    m.set("trace.spans", all.len() as f64);
    if let Err(e) = rec.write_jsonl(spans_out) {
        eprintln!("{}: could not write spans: {e}", shape.name);
    }
    println!(
        "{} replay: {} requests, untraced {:.4} s, traced {:.4} s, {} spans, {} mismatches",
        shape.name,
        plain.replayed,
        plain.wall_s,
        traced.wall_s,
        all.len(),
        plain.mismatches + traced.mismatches
    );
    ok
}
