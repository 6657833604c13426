//! Wire protocol: typed requests/responses serialized as JSON frames.
//!
//! Messages are externally tagged (the vendored derive's enum encoding):
//! `{"Solve": {"tenant": "t0"}}`, `"Stats"`. Scalar values travel as JSON
//! numbers (f64); sessions running on exact arithmetic convert them
//! losslessly via [`WireScalar`](crate::WireScalar) — every finite f64 is a
//! binary fraction, so the conversion is exact, and a value that cannot be
//! represented is rejected with a typed error rather than rounded.
//!
//! Error replies carry both a coarse [`ErrorKind`] (routing: retry, back
//! off, or give up) and a stable string `code` (the fine-grained cause,
//! e.g. a [`DeltaError::kind`](amf_core::incremental::DeltaError::kind)).

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Create a fresh incremental session for `tenant`.
    CreateSession {
        /// Tenant identifier; one session per tenant.
        tenant: String,
        /// Per-site capacities (must be positive and finite).
        capacities: Vec<f64>,
        /// Fairness mode: `"plain"` or `"enhanced"` (default).
        mode: Option<String>,
    },
    /// Stage a batch of deltas against `tenant`'s session.
    ApplyDeltas {
        /// Target tenant.
        tenant: String,
        /// Deltas, validated in order; processing stops at the first bad one.
        deltas: Vec<WireDelta>,
    },
    /// Apply any pending (coalesced) deltas and return the allocation.
    Solve {
        /// Target tenant.
        tenant: String,
    },
    /// Return the last solved allocation without re-solving.
    GetAllocation {
        /// Target tenant.
        tenant: String,
    },
    /// Server-wide counters and latency summaries.
    Stats,
    /// Begin graceful drain: queued work completes, new work is refused.
    Shutdown,
}

impl Request {
    /// Short operation name used as the latency-histogram key.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::CreateSession { .. } => "create_session",
            Request::ApplyDeltas { .. } => "apply_deltas",
            Request::Solve { .. } => "solve",
            Request::GetAllocation { .. } => "get_allocation",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A delta in wire form (scalar-agnostic; values are f64).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireDelta {
    /// Admit a new job.
    AddJob {
        /// Caller-chosen job id, unique among live jobs.
        id: u64,
        /// Per-site demands, one entry per site.
        demands: Vec<f64>,
        /// Job weight; `null`/omitted means 1.
        weight: Option<f64>,
    },
    /// Retire a live job.
    RemoveJob {
        /// Id of the job to remove.
        id: u64,
    },
    /// Change one demand entry of a live job.
    DemandChange {
        /// Target job id.
        id: u64,
        /// Site index.
        site: usize,
        /// New demand value.
        demand: f64,
    },
    /// Change one site's capacity.
    CapacityChange {
        /// Site index.
        site: usize,
        /// New capacity value.
        capacity: f64,
    },
}

/// Coarse error classification for [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The admission queue for the tenant's shard is full; retry later.
    Overloaded,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// No session exists for the named tenant.
    UnknownTenant,
    /// A session already exists for the named tenant.
    DuplicateTenant,
    /// A delta was rejected (`code` holds the `DeltaError` kind).
    Delta,
    /// The request payload was not a valid protocol message.
    Protocol,
    /// The request was well-formed but semantically invalid
    /// (e.g. unrepresentable scalar value, bad fairness mode).
    BadRequest,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Session created.
    Created {
        /// Tenant the session belongs to.
        tenant: String,
        /// Number of sites in the session instance.
        sites: usize,
    },
    /// Deltas accepted (staged or applied, depending on coalescing mode).
    Applied {
        /// How many deltas of the request were accepted.
        accepted: usize,
        /// Deltas currently staged for the tenant (0 when not coalescing).
        pending: usize,
    },
    /// The allocation after applying pending deltas and solving.
    Solved {
        /// Live job ids, ascending; rows of `split` are in this order.
        job_ids: Vec<u64>,
        /// Per-job aggregate allocations (same order as `job_ids`).
        aggregates: Vec<f64>,
        /// Per-job per-site allocations.
        split: Vec<Vec<f64>>,
        /// Whether this request actually re-solved (false = cached).
        resolved: bool,
    },
    /// Server-wide statistics.
    Stats {
        /// The statistics payload.
        stats: WireStats,
    },
    /// Drain acknowledged.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Coarse classification.
        kind: ErrorKind,
        /// Stable machine-readable cause (e.g. `"duplicate_job"`).
        code: String,
        /// Human-readable detail; not a wire contract.
        message: String,
    },
}

/// Per-operation latency summary inside [`WireStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpStats {
    /// Operation name (see [`Request::op_name`]).
    pub op: String,
    /// Requests recorded.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
}

/// Server-wide counters reported by the `Stats` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireStats {
    /// Live sessions across all shards.
    pub sessions: usize,
    /// Work items currently sitting in admission queues.
    pub queued: usize,
    /// Total requests handled (all operations, including failed ones).
    pub requests: u64,
    /// Full solver passes executed (the coalescing win shows up here).
    pub solves: u64,
    /// Deltas accepted into sessions (after validation).
    pub deltas_applied: u64,
    /// Deltas eliminated by coalescing before reaching the solver.
    pub deltas_coalesced: u64,
    /// Requests refused because an admission queue was full.
    pub overloaded: u64,
    /// Frames that failed to decode into a request.
    pub protocol_errors: u64,
    /// CSR adjacency rebuilds across all live sessions' solver scratch
    /// (cumulative; a structural change per solve is the expected rate).
    pub csr_rebuilds: u64,
    /// Bitset words zeroed by frontier resets across all live sessions
    /// (cumulative; tracks traversal setup cost, not graph size).
    pub bitset_words_cleared: u64,
    /// Per-operation latency summaries.
    pub ops: Vec<OpStats>,
}

/// Why a payload failed to decode into a typed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload was not UTF-8.
    Utf8,
    /// The payload was not valid JSON, or valid JSON of the wrong shape.
    Json {
        /// Parser / shape-mismatch detail.
        message: String,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Utf8 => write!(f, "payload is not valid UTF-8"),
            ProtocolError::Json { message } => write!(f, "bad message: {message}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Serialize a message to its JSON payload bytes.
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    serde_json::to_string(msg)
        .expect("protocol values contain no non-finite numbers")
        .into_bytes()
}

fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, ProtocolError> {
    let text = std::str::from_utf8(payload).map_err(|_| ProtocolError::Utf8)?;
    let value: Value = serde_json::from_str(text).map_err(|e| ProtocolError::Json {
        message: e.to_string(),
    })?;
    T::from_value(&value).map_err(|e| ProtocolError::Json {
        message: e.to_string(),
    })
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    decode(payload)
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    decode(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::CreateSession {
                tenant: "t0".into(),
                capacities: vec![4.0, 2.5],
                mode: Some("plain".into()),
            },
            Request::ApplyDeltas {
                tenant: "t0".into(),
                deltas: vec![
                    WireDelta::AddJob {
                        id: 7,
                        demands: vec![1.0, 0.0],
                        weight: None,
                    },
                    WireDelta::DemandChange {
                        id: 7,
                        site: 1,
                        demand: 2.0,
                    },
                    WireDelta::CapacityChange {
                        site: 0,
                        capacity: 8.0,
                    },
                    WireDelta::RemoveJob { id: 7 },
                ],
            },
            Request::Solve {
                tenant: "t0".into(),
            },
            Request::GetAllocation {
                tenant: "t0".into(),
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = encode(&req);
            let back = decode_request(&bytes).expect("round trip");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Created {
                tenant: "a".into(),
                sites: 3,
            },
            Response::Applied {
                accepted: 4,
                pending: 9,
            },
            Response::Solved {
                job_ids: vec![1, 2],
                aggregates: vec![1.5, 2.5],
                split: vec![vec![1.0, 0.5], vec![2.5, 0.0]],
                resolved: true,
            },
            Response::Stats {
                stats: WireStats {
                    sessions: 2,
                    queued: 0,
                    requests: 10,
                    solves: 3,
                    deltas_applied: 7,
                    deltas_coalesced: 2,
                    overloaded: 1,
                    protocol_errors: 0,
                    csr_rebuilds: 5,
                    bitset_words_cleared: 640,
                    ops: vec![OpStats {
                        op: "solve".into(),
                        count: 3,
                        mean_us: 120.0,
                        p50_us: 100.0,
                        p95_us: 200.0,
                        p99_us: 240.0,
                    }],
                },
            },
            Response::ShuttingDown,
            Response::Error {
                kind: ErrorKind::Overloaded,
                code: "overloaded".into(),
                message: "queue full".into(),
            },
        ];
        for resp in resps {
            let bytes = encode(&resp);
            let back = decode_response(&bytes).expect("round trip");
            assert_eq!(back, resp);
        }
    }

    /// `encode` serializes the message once; the bytes are what rendering
    /// its value tree gives.
    #[test]
    fn encode_renders_the_value_tree() {
        let reply = Response::Solved {
            job_ids: vec![3, 5, 9],
            aggregates: vec![1.0 / 3.0, 2.0 / 3.0, 0.1 + 0.2],
            split: vec![
                vec![1.0 / 3.0, 0.0],
                vec![1e-12, 2.0 / 3.0],
                vec![0.3, 1e21],
            ],
            resolved: true,
        };
        let tree = serde_json::to_string(&reply.to_value()).unwrap();
        assert_eq!(encode(&reply), tree.into_bytes());
    }

    #[test]
    fn bad_payloads_are_typed_errors() {
        assert_eq!(decode_request(&[0xff, 0xfe]), Err(ProtocolError::Utf8));
        assert!(matches!(
            decode_request(b"{not json"),
            Err(ProtocolError::Json { .. })
        ));
        // Valid JSON, wrong shape.
        assert!(matches!(
            decode_request(b"{\"NoSuchRequest\": {}}"),
            Err(ProtocolError::Json { .. })
        ));
        assert!(matches!(
            decode_request(b"42"),
            Err(ProtocolError::Json { .. })
        ));
    }
}
