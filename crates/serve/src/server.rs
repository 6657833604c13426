//! The multi-tenant allocation server.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//! listener ──accept──▶ one thread per connection:
//!                      read ─▶ decode ─▶ admit ─▶ handle ─▶ encode ─▶ write
//!                                          │        │
//!        table lock: drain flag, in-flight ┘        └ tenant lock: apply/solve;
//!        cap, tenant lookup                           a panic is a typed reply
//! ```
//!
//! * **Session table** — one map from tenant to session, with the count of
//!   requests in flight across the whole server. At its cap the server
//!   refuses with a typed `Overloaded` reply instead of blocking, so
//!   backpressure is visible to clients rather than silent. The table lock
//!   guards only the lookup and the count: a request waits for its own
//!   tenant's lock, so one tenant's slow solve does not hold back another
//!   tenant.
//! * **Coalescing** — `ApplyDeltas` stages deltas in a per-tenant
//!   [`DeltaBatch`]; the next `Solve` applies the merged batch and solves
//!   once, so a burst of deltas costs one solve.
//! * **Containment** — a handler that panics is answered with a typed
//!   `Internal` reply and the connection keeps serving. A tenant whose
//!   lock the panic poisoned is quarantined: its later requests are
//!   refused with `Internal` too.
//! * **Shutdown** — `Shutdown` sets a flag, then passes through the table
//!   lock, so no request is admitted after it. Each connection
//!   finishes and answers the request it holds; later requests are
//!   refused with `ShuttingDown`.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use amf_core::incremental::{Delta, DeltaError, IncrementalAmf, JobId};
use amf_core::AmfSolver;
use amf_metrics::Histogram;

use crate::coalesce::DeltaBatch;
use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::protocol::{
    decode_request, encode, ErrorKind, OpStats, Request, Response, WireDelta, WireStats, OP_NAMES,
};
use crate::WireScalar;

/// Server configuration. `Default` is suitable for tests and local use.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Requests in flight across the server; one more is refused with a
    /// typed `Overloaded` error.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_cap: 2048,
        }
    }
}

/// How often an idle connection checks the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Final counter snapshot returned by [`Server::join`]; identical in shape
/// to the `Stats` frame payload.
pub type ServerSummary = WireStats;

/// One tenant's state: the incremental session plus its staged deltas.
struct Tenant<S> {
    session: IncrementalAmf<S>,
    batch: DeltaBatch<S>,
}

type TenantHandle<S> = Arc<Mutex<Tenant<S>>>;

struct Table<S> {
    sessions: BTreeMap<String, TenantHandle<S>>,
    /// Admitted requests whose reply is not built yet.
    in_flight: usize,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    solves: AtomicU64,
    deltas_applied: AtomicU64,
    deltas_coalesced: AtomicU64,
    overloaded: AtomicU64,
    protocol_errors: AtomicU64,
    panics: AtomicU64,
    // Summed over every session's solves, so `Stats` takes no tenant lock.
    csr_rebuilds: AtomicU64,
    bitset_words_cleared: AtomicU64,
}

struct Shared<S> {
    queue_cap: usize,
    addr: SocketAddr,
    table: Mutex<Table<S>>,
    shutdown: AtomicBool,
    counters: Counters,
    /// Per-operation latency histograms (microseconds, log-spaced buckets).
    latency: Mutex<Vec<Histogram>>,
    /// Connection threads; a closed one's handle is dropped at the next
    /// accept, the rest are joined by [`Server::join`].
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Fault injection: a `Solve` for this tenant panics holding its lock.
    #[cfg(test)]
    panic_on_solve: std::sync::OnceLock<String>,
}

impl<S: WireScalar> Shared<S> {
    fn record_latency(&self, req: &Request, micros: f64) {
        let mut book = self.latency.lock().expect("latency lock poisoned");
        book[req.op_index()].add(micros);
    }

    fn build_stats(&self) -> WireStats {
        let (sessions, queued, quarantined) = {
            let st = self.table.lock().expect("table lock poisoned");
            let quarantined = st.sessions.values().filter(|t| t.is_poisoned()).count();
            (st.sessions.len(), st.in_flight, quarantined)
        };
        let book = self.latency.lock().expect("latency lock poisoned");
        let ops = OP_NAMES
            .iter()
            .zip(book.iter())
            .filter(|(_, h)| h.count() > 0)
            .map(|(name, h)| OpStats {
                op: (*name).to_string(),
                count: h.count(),
                mean_us: h.mean(),
                p50_us: h.percentile(50.0),
                p95_us: h.percentile(95.0),
                p99_us: h.percentile(99.0),
            })
            .collect();
        let c = &self.counters;
        WireStats {
            sessions,
            queued,
            requests: c.requests.load(Ordering::Relaxed),
            solves: c.solves.load(Ordering::Relaxed),
            deltas_applied: c.deltas_applied.load(Ordering::Relaxed),
            deltas_coalesced: c.deltas_coalesced.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            quarantined,
            csr_rebuilds: c.csr_rebuilds.load(Ordering::Relaxed),
            bitset_words_cleared: c.bitset_words_cleared.load(Ordering::Relaxed),
            ops,
        }
    }
}

fn err(kind: ErrorKind, code: &str, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        code: code.to_string(),
        message: message.into(),
    }
}

fn delta_err(e: &DeltaError) -> Response {
    err(ErrorKind::Delta, e.kind(), e.to_string())
}

/// Convert one wire value into the session's scalar, exactly.
fn from_wire<S: WireScalar>(v: f64, what: &str) -> Result<S, Response> {
    S::from_wire(v).ok_or_else(|| {
        let msg = format!("{what} {v} is not representable in the session scalar");
        err(ErrorKind::BadRequest, "unrepresentable_value", msg)
    })
}

fn to_delta<S: WireScalar>(w: &WireDelta) -> Result<Delta<S>, Response> {
    Ok(match w {
        WireDelta::AddJob {
            id,
            demands,
            weight,
        } => Delta::AddJob {
            id: JobId(*id),
            demands: demands
                .iter()
                .map(|d| from_wire(*d, "demand"))
                .collect::<Result<_, _>>()?,
            weight: weight.map_or(Ok(S::ONE), |w| from_wire(w, "weight"))?,
        },
        WireDelta::RemoveJob { id } => Delta::RemoveJob { id: JobId(*id) },
        WireDelta::DemandChange { id, site, demand } => Delta::DemandChange {
            id: JobId(*id),
            site: *site,
            demand: from_wire(*demand, "demand")?,
        },
        WireDelta::CapacityChange { site, capacity } => Delta::CapacityChange {
            site: *site,
            capacity: from_wire(*capacity, "capacity")?,
        },
    })
}

fn solved_response<S: WireScalar>(session: &IncrementalAmf<S>, resolved: bool) -> Response {
    let out = session.last_output();
    Response::Solved {
        job_ids: session.job_ids().iter().map(|j| j.0).collect(),
        aggregates: out
            .allocation
            .aggregates()
            .iter()
            .map(|a| a.to_f64())
            .collect(),
        split: out
            .allocation
            .split()
            .iter()
            .map(|row| row.iter().map(|x| x.to_f64()).collect())
            .collect(),
        resolved,
    }
}

/// An admitted request, with the tenant's session if one exists. It counts
/// toward the server's in-flight cap until dropped.
struct Admitted<'a, S> {
    table: &'a Mutex<Table<S>>,
    tenant: Option<TenantHandle<S>>,
}

impl<S> Drop for Admitted<'_, S> {
    fn drop(&mut self) {
        let mut st = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        st.in_flight -= 1;
    }
}

/// Admit a request for `tenant` and look the tenant up, in one section
/// under the table lock; refuses while draining or when the server already
/// has `queue_cap` requests in flight.
fn admit<'a, S: WireScalar>(
    shared: &'a Shared<S>,
    tenant: &str,
) -> Result<Admitted<'a, S>, Response> {
    let mut st = shared.table.lock().expect("table lock poisoned");
    // Checked under the table lock: `begin_shutdown` sets the flag and then
    // passes through the table lock, so after that barrier no request is
    // admitted.
    if shared.shutdown.load(Ordering::Acquire) {
        return Err(err(
            ErrorKind::ShuttingDown,
            "shutting_down",
            "server is draining",
        ));
    }
    if st.in_flight >= shared.queue_cap {
        shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        let msg = format!("server at capacity ({} requests in flight)", st.in_flight);
        return Err(err(ErrorKind::Overloaded, "overloaded", msg));
    }
    st.in_flight += 1;
    Ok(Admitted {
        table: &shared.table,
        tenant: st.sessions.get(tenant).cloned(),
    })
}

/// Lock an admitted request's tenant; an unknown or quarantined tenant is
/// a typed refusal.
fn lock_tenant<'t, S>(
    name: &str,
    found: Option<&'t TenantHandle<S>>,
) -> Result<MutexGuard<'t, Tenant<S>>, Response> {
    let Some(handle) = found else {
        let msg = format!("no session for tenant {name:?}");
        return Err(err(ErrorKind::UnknownTenant, "unknown_tenant", msg));
    };
    handle.lock().map_err(|_| {
        let msg = format!("tenant {name:?} is quarantined: a request panicked holding its session");
        err(ErrorKind::Internal, "quarantined", msg)
    })
}

/// Run an admitted request's handler; the request stops counting as in
/// flight when its reply is built. A panic is contained to this request
/// (and the tenant whose lock it held) and answered with a typed
/// `Internal` reply.
fn handle<S: WireScalar>(shared: &Shared<S>, req: &Request, ticket: Admitted<'_, S>) -> Response {
    let found = ticket.tenant.as_ref();
    let run = || match req {
        Request::CreateSession {
            tenant,
            capacities,
            mode,
        } => handle_create(shared, tenant, capacities, mode.as_deref()),
        Request::ApplyDeltas { tenant, deltas } => {
            handle_apply(shared, &mut *lock_tenant(tenant, found)?, deltas)
        }
        Request::Solve { tenant } => {
            let mut t = lock_tenant(tenant, found)?;
            #[cfg(test)]
            if shared.panic_on_solve.get() == Some(tenant) {
                panic!("injected fault: Solve for {tenant:?}");
            }
            handle_solve(shared, &mut t)
        }
        Request::GetAllocation { tenant } => {
            Ok(solved_response(&lock_tenant(tenant, found)?.session, false))
        }
        Request::Stats | Request::Shutdown => {
            unreachable!("Stats and Shutdown are answered without admission")
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(resp) | Err(resp)) => resp,
        Err(_) => {
            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
            let msg = format!("the {} handler panicked", req.op_name());
            err(ErrorKind::Internal, "internal_panic", msg)
        }
    }
}

fn handle_create<S: WireScalar>(
    shared: &Shared<S>,
    tenant: &str,
    capacities: &[f64],
    mode: Option<&str>,
) -> Result<Response, Response> {
    let solver = match mode {
        None | Some("enhanced") => AmfSolver::enhanced(),
        Some("plain") => AmfSolver::new(),
        Some(other) => {
            let msg =
                format!("unknown fairness mode {other:?} (expected \"plain\" or \"enhanced\")");
            return Err(err(ErrorKind::BadRequest, "bad_mode", msg));
        }
    };
    let caps = capacities
        .iter()
        .map(|c| from_wire(*c, "capacity"))
        .collect::<Result<Vec<S>, _>>()?;
    let sites = caps.len();
    let session = IncrementalAmf::new(solver, caps).map_err(|e| delta_err(&e))?;
    let mut st = shared.table.lock().expect("table lock poisoned");
    if st.sessions.contains_key(tenant) {
        let msg = format!("tenant {tenant:?} already has a session");
        return Err(err(ErrorKind::DuplicateTenant, "duplicate_tenant", msg));
    }
    let batch = DeltaBatch::new();
    let handle = Arc::new(Mutex::new(Tenant { session, batch }));
    st.sessions.insert(tenant.to_string(), handle);
    Ok(Response::Created {
        tenant: tenant.to_string(),
        sites,
    })
}

fn handle_apply<S: WireScalar>(
    shared: &Shared<S>,
    t: &mut Tenant<S>,
    deltas: &[WireDelta],
) -> Result<Response, Response> {
    let c = &shared.counters;
    let mut accepted = 0usize;
    for w in deltas {
        let delta = to_delta::<S>(w)?;
        let before = t.batch.coalesced();
        let applied = t.batch.push(&t.session, delta);
        let folded = t.batch.coalesced() - before;
        c.deltas_coalesced.fetch_add(folded, Ordering::Relaxed);
        applied.map_err(|e| delta_err(&e))?;
        accepted += 1;
        c.deltas_applied.fetch_add(1, Ordering::Relaxed);
    }
    Ok(Response::Applied {
        accepted,
        pending: t.batch.len(),
    })
}

fn handle_solve<S: WireScalar>(
    shared: &Shared<S>,
    t: &mut Tenant<S>,
) -> Result<Response, Response> {
    // Unreachable while the batch validates each delta with the session's
    // own `Delta::check`; surfaced as a typed error rather than trusted
    // silently.
    t.session
        .apply_all(t.batch.take())
        .map_err(|e| delta_err(&e))?;
    let resolved = t.session.is_dirty();
    if resolved {
        let work = t.session.solve().stats;
        let c = &shared.counters;
        let (csr, words) = (work.csr_rebuilds, work.bitset_words_cleared);
        c.solves.fetch_add(1, Ordering::Relaxed);
        c.csr_rebuilds.fetch_add(csr, Ordering::Relaxed);
        c.bitset_words_cleared.fetch_add(words, Ordering::Relaxed);
    }
    Ok(solved_response(&t.session, resolved))
}

fn begin_shutdown<S: WireScalar>(shared: &Shared<S>) {
    if shared.shutdown.swap(true, Ordering::AcqRel) {
        return; // already draining
    }
    // Barrier: pass through the table lock, so a request that passed the
    // flag check is already counted in flight and none is admitted later
    // (see `admit`).
    drop(shared.table.lock().expect("table lock poisoned"));
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(shared.addr);
}

/// Per-connection loop: decode frames, answer Stats/Shutdown directly,
/// and admit and handle everything else on this thread.
fn serve_conn<S: WireScalar>(shared: &Arc<Shared<S>>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close
            Err(FrameError::IdleTimeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(FrameError::Oversized { len, max }) => {
                // The stream still has the unread payload; reply then close.
                let resp = err(
                    ErrorKind::Protocol,
                    "oversized_frame",
                    format!("frame of {len} bytes exceeds max {max}"),
                );
                let _ = write_frame(&mut stream, &encode(&resp));
                return;
            }
            Err(_) => return, // truncated / stalled / io: unrecoverable
        };
        let started = Instant::now();
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let req = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let resp = err(ErrorKind::Protocol, "bad_request", e.to_string());
                if write_frame(&mut stream, &encode(&resp)).is_err() {
                    return;
                }
                continue;
            }
        };
        let resp = match &req {
            Request::Stats => Response::Stats {
                stats: shared.build_stats(),
            },
            Request::Shutdown => {
                begin_shutdown(shared);
                Response::ShuttingDown
            }
            Request::CreateSession { tenant, .. }
            | Request::ApplyDeltas { tenant, .. }
            | Request::Solve { tenant }
            | Request::GetAllocation { tenant } => match admit(shared, tenant) {
                Ok(ticket) => handle(shared, &req, ticket),
                Err(refusal) => refusal,
            },
        };
        shared.record_latency(&req, started.elapsed().as_secs_f64() * 1e6);
        if write_frame(&mut stream, &encode(&resp)).is_err() {
            return;
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`shutdown`](Server::shutdown) (or send a `Shutdown` frame) and then
/// [`join`](Server::join).
pub struct Server<S: WireScalar> {
    shared: Arc<Shared<S>>,
    listener: Option<std::thread::JoinHandle<()>>,
}

impl<S: WireScalar> Server<S> {
    /// Bind and start serving sessions over scalar `S`.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server<S>> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let latency = (0..OP_NAMES.len())
            .map(|_| Histogram::exponential(1.0, 1e7, 56))
            .collect();
        let shared = Arc::new(Shared {
            queue_cap: cfg.queue_cap.max(1),
            addr,
            table: Mutex::new(Table {
                sessions: BTreeMap::new(),
                in_flight: 0,
            }),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            latency: Mutex::new(latency),
            conns: Mutex::new(Vec::new()),
            #[cfg(test)]
            panic_on_solve: std::sync::OnceLock::new(),
        });
        let listener_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("amf-serve-listener".to_string())
                .spawn(move || {
                    for incoming in listener.incoming() {
                        if shared.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        let stream = match incoming {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        let conn_shared = Arc::clone(&shared);
                        let handle = std::thread::Builder::new()
                            .name("amf-serve-conn".to_string())
                            .spawn(move || serve_conn(&conn_shared, stream))
                            .expect("spawn connection thread");
                        let mut conns = shared.conns.lock().expect("conns lock poisoned");
                        // Drop the handles of closed connections, so the
                        // list (and the exited threads' stacks) stays
                        // bounded by the live connections.
                        conns.retain(|h| !h.is_finished());
                        conns.push(handle);
                    }
                })
                .expect("spawn listener thread")
        };
        Ok(Server {
            shared,
            listener: Some(listener_handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begin graceful drain programmatically (same as a `Shutdown` frame).
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Wait for the drain to finish and return the final counters. Call
    /// [`shutdown`](Server::shutdown) first (or have a client send a
    /// `Shutdown` frame), otherwise this blocks until one arrives.
    pub fn join(mut self) -> ServerSummary {
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        // Connection threads answer the request they hold, then exit
        // within one read-timeout of the drain.
        loop {
            let handles: Vec<_> = {
                let mut conns = self.shared.conns.lock().expect("conns lock poisoned");
                conns.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        self.shared.build_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, ServeClient, SolveReply};
    use std::thread::JoinHandle;

    const PANICKED: (ErrorKind, &str) = (ErrorKind::Internal, "internal_panic");
    const QUARANTINED: (ErrorKind, &str) = (ErrorKind::Internal, "quarantined");

    /// Tenant `name`'s session handle, for tests that hold its lock.
    fn lookup(server: &Server<f64>, name: &str) -> TenantHandle<f64> {
        let st = server.shared.table.lock().expect("table lock");
        Arc::clone(&st.sessions[name])
    }

    fn assert_refused<T: std::fmt::Debug>(got: Result<T, ClientError>, want: (ErrorKind, &str)) {
        match got {
            Err(ClientError::Server { kind, code, .. }) => assert_eq!((kind, code.as_str()), want),
            other => panic!("expected {want:?}, got {other:?}"),
        }
    }

    /// Solve `tenant` on a new connection in the background.
    fn solve_later(server: &Server<f64>, tenant: &'static str) -> Pending {
        let addr = server.addr();
        std::thread::spawn(move || ServeClient::connect(addr)?.solve(tenant))
    }

    type Pending = std::thread::JoinHandle<Result<SolveReply, ClientError>>;

    /// Poll `Stats` until `n` requests are in flight.
    fn wait_in_flight(client: &mut ServeClient, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = client.stats().expect("stats");
            if stats.queued == n {
                return;
            }
            assert!(Instant::now() < deadline, "never {n} in flight: {stats:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Poll the connection list until `done` holds; returns its length.
    fn wait_for_conns(server: &Server<f64>, done: impl Fn(&[JoinHandle<()>]) -> bool) -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let conns = server.shared.conns.lock().expect("conns lock");
            if done(&conns) {
                return conns.len();
            }
            drop(conns);
            assert!(Instant::now() < deadline, "connection list never settled");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn closed_connections_are_reaped_at_the_next_accept() {
        let server = Server::<f64>::bind(ServeConfig::default()).expect("bind");
        for _ in 0..20 {
            let mut client = ServeClient::connect(server.addr()).expect("connect");
            client.stats().expect("stats");
        }
        wait_for_conns(&server, |conns| conns.iter().all(|h| h.is_finished()));
        // The next accept drops the 20 finished handles before it pushes
        // its own (one lock), so once a live handle shows up it is alone.
        let mut live = ServeClient::connect(server.addr()).expect("connect");
        live.stats().expect("stats");
        let live_only = |conns: &[JoinHandle<()>]| conns.iter().any(|h| !h.is_finished());
        assert_eq!(wait_for_conns(&server, live_only), 1);
        live.shutdown().expect("shutdown");
        server.join();
    }

    #[test]
    fn stats_survive_a_poisoned_tenant_lock() {
        let server = Server::<f64>::bind(ServeConfig::default()).expect("bind");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        for tenant in ["healthy", "broken", "idle"] {
            client
                .create_session(tenant, &[4.0, 2.0], None)
                .expect("create");
        }
        let job = [WireDelta::AddJob {
            id: 0,
            demands: vec![1.0, 1.0],
            weight: None,
        }];
        client.apply_deltas("healthy", &job).expect("apply");
        client.solve("healthy").expect("solve");

        // Poison one tenant the way a panicking handler would: panic while
        // holding its lock.
        let broken = lookup(&server, "broken");
        let holder = std::thread::spawn(move || {
            let _guard = broken.lock().expect("not poisoned yet");
            panic!("handler panicked mid-request");
        });
        assert!(holder.join().is_err());
        assert!(lookup(&server, "broken").is_poisoned());

        let stats = client
            .stats()
            .expect("Stats answers past a poisoned tenant");
        assert_eq!(stats.sessions, 3);
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.quarantined, 1);
        assert_refused(client.solve("broken"), QUARANTINED);
        assert_refused(client.apply_deltas("broken", &job), QUARANTINED);
        assert_refused(client.get_allocation("broken"), QUARANTINED);
        client.shutdown().expect("shutdown");
        assert_eq!(server.join().sessions, 3);
    }

    #[test]
    fn a_panicking_handler_is_answered_and_its_tenant_quarantined() {
        let server = Server::<f64>::bind(ServeConfig::default()).expect("bind");
        let hook = &server.shared.panic_on_solve;
        hook.set("boom".into()).expect("hook unset");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        for tenant in ["boom", "calm"] {
            client.create_session(tenant, &[2.0], None).expect("create");
        }
        assert_refused(client.solve("boom"), PANICKED);
        // The same connection goes on serving other tenants.
        assert!(client.solve("calm").expect("calm solves").resolved);
        assert_refused(client.solve("boom"), QUARANTINED);
        let stats = client.stats().expect("stats");
        assert_eq!((stats.panics, stats.quarantined), (1, 1));
        client.shutdown().expect("shutdown");
        server.join();
    }

    #[test]
    fn in_flight_cap_rejects_with_overloaded_instead_of_blocking() {
        let server = Server::<f64>::bind(ServeConfig {
            queue_cap: 2,
            ..ServeConfig::default()
        })
        .expect("bind");
        let mut probe = ServeClient::connect(server.addr()).expect("connect probe");
        probe.create_session("x", &[1.0], None).expect("create");

        // Holding x's lock keeps both fillers admitted and waiting, so the
        // server sits at its cap and the next request must bounce.
        let x = lookup(&server, "x");
        let held = x.lock().expect("not poisoned");
        let fillers = [solve_later(&server, "x"), solve_later(&server, "x")];
        wait_in_flight(&mut probe, 2);
        assert_refused(probe.solve("x"), (ErrorKind::Overloaded, "overloaded"));

        // The drain answers the fillers once x's lock is free; requests
        // after it are refused as ShuttingDown, not Overloaded.
        probe.shutdown().expect("shutdown ack");
        drop(held);
        for filler in fillers {
            filler
                .join()
                .expect("filler")
                .expect("in-flight filler solved");
        }
        match probe.solve("x") {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::ShuttingDown),
            // The connection may already have been closed by the drain.
            Err(ClientError::Frame(_)) | Err(ClientError::BadReply { .. }) => {}
            Ok(resp) => panic!("request admitted after shutdown: {resp:?}"),
        }

        let summary = server.join();
        assert_eq!(summary.overloaded, 1);
        assert_eq!(summary.queued, 0);
    }

    #[test]
    fn in_flight_cap_counts_every_tenant() {
        let server = Server::<f64>::bind(ServeConfig {
            queue_cap: 2,
            ..ServeConfig::default()
        })
        .expect("bind");
        let mut probe = ServeClient::connect(server.addr()).expect("connect probe");
        for tenant in ["a", "b", "c"] {
            probe.create_session(tenant, &[1.0], None).expect("create");
        }

        // One waiting request for each of two other tenants fills the cap,
        // so c's first request bounces although c has nothing in flight.
        let (a, b) = (lookup(&server, "a"), lookup(&server, "b"));
        let held = (a.lock().expect("a"), b.lock().expect("b"));
        let fillers = [solve_later(&server, "a"), solve_later(&server, "b")];
        wait_in_flight(&mut probe, 2);
        assert_refused(probe.solve("c"), (ErrorKind::Overloaded, "overloaded"));

        probe.shutdown().expect("shutdown ack");
        drop(held);
        for filler in fillers {
            filler
                .join()
                .expect("filler")
                .expect("in-flight filler solved");
        }
        let summary = server.join();
        assert_eq!((summary.overloaded, summary.queued), (1, 0));
    }

    #[test]
    fn a_held_tenant_does_not_delay_another_tenant() {
        let server = Server::<f64>::bind(ServeConfig::default()).expect("bind");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        for tenant in ["a", "b"] {
            client.create_session(tenant, &[1.0], None).expect("create");
        }
        let a = lookup(&server, "a");
        let held = a.lock().expect("not poisoned");
        let waiting = solve_later(&server, "a");
        wait_in_flight(&mut client, 1);
        client
            .get_allocation("b")
            .expect("b is answered while a's solve waits");
        drop(held);
        waiting.join().expect("solver").expect("a solved");
        client.shutdown().expect("shutdown");
        server.join();
    }
}
