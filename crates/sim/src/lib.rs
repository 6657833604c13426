//! Discrete-event fluid simulator of distributed job execution.
//!
//! The paper evaluates allocation policies by simulating jobs whose work is
//! spread over multiple sites: a job holds some remaining work at each site
//! and finishes when **every** site's portion is done. Resources are
//! reallocated whenever the set of (job, site) demands changes — on job
//! arrival, on a portion completing, and on job departure. Between such
//! events allocations are constant, so the engine advances time directly to
//! the next event rather than ticking (fluid / rate-based model).
//!
//! * [`simulate`] — run a [`Trace`](amf_workload::trace::Trace) under any
//!   [`AllocationPolicy`](amf_core::AllocationPolicy), producing a
//!   [`SimReport`] with per-job completion times and utilization;
//! * [`SplitStrategy`] — how a job's aggregate allocation is split across
//!   its sites: as the policy returned it, or re-balanced by the paper's
//!   **JCT add-on** ([`split::balanced_progress_split`]), which aims per-
//!   site rates proportional to per-site remaining work so all portions of
//!   a job finish together — without changing the (fair) aggregates;
//! * [`slots`] — a slot-granular (integral) variant of the engine that
//!   rounds fluid allocations to whole slots, used to check that the fluid
//!   results are not an artifact of infinite divisibility;
//! * [`tasks`] — a task-granular engine (discrete tasks on discrete slots,
//!   non-preemptive), the strongest realism check;
//! * [`scheduler`] — the embeddable incremental API: *you* own the clock
//!   and the job stream (submit / advance / events), for integrating AMF
//!   into a real resource manager loop;
//! * [`simulate_incremental_with_stats`] — the same event loop with each
//!   decision handed to a policy's [`IncrementalSession`], the hook a
//!   benchmark uses to time and trace every reallocation.

#![forbid(unsafe_code)]
// `!(a < b)` is this workspace's idiom for "a >= b under the total order":
// NaN is rejected at the model boundary (`Scalar::is_valid`), so negated
// comparisons are well-defined, and they read correctly next to the
// tolerance helpers (`definitely_lt` etc.). Indexed matrix loops are kept
// where the row/column structure is the point.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

pub mod dynamic;
mod engine;
mod report;
pub mod scheduler;
pub mod slots;
pub mod split;
pub mod tasks;

pub use dynamic::{AmfBalanced, DynamicPolicy, IncrementalSession, SessionCtx, SrptPerSite};
pub use engine::{
    simulate, simulate_dynamic, simulate_incremental_with_stats, simulate_many,
    simulate_with_capacity_events, CapacityEvent, EventLoopStats, SimConfig,
};
pub use report::{JobOutcome, SimReport};
pub use split::SplitStrategy;
