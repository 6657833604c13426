//! Max-flow substrate for the AMF workspace.
//!
//! Checking whether a water level is feasible in Aggregate Max-min Fairness,
//! finding the bottlenecked job set, and producing a per-site split of an
//! aggregate allocation are all max-flow / min-cut computations on the
//! bipartite *allocation network*
//!
//! ```text
//! source --(u_j)--> job_j --(d[j][s])--> site_s --(c_s)--> sink
//! ```
//!
//! This crate provides:
//!
//! * [`FlowNetwork`] — a residual-graph representation generic over the
//!   [`Scalar`](amf_numeric::Scalar) numeric type (exact or `f64`), with
//!   residual reachability sweeps;
//! * [`dinic::max_flow`] — Dinic's algorithm (strongly polynomial, supports
//!   warm starts from an existing feasible flow);
//! * [`FlowScratch`] — the kernels' per-node working state (including the
//!   cached CSR adjacency view and the [`BitSet`] frontiers) and its work
//!   counters. Each network owns one and keeps it across
//!   [`FlowNetwork::clear`], so repeated max flows and rebuilds are
//!   allocation-free;
//! * [`AllocationNetwork`] — the jobs-by-sites convenience wrapper the AMF
//!   solver drives, rebuilt in place as the solver contracts it.
//!
//! Edge storage is a flat struct-of-arrays arena with `u32` ids; adjacency
//! is a CSR view rebuilt only when the structure changes (see
//! `DESIGN.md` §2.9 for the layout and invalidation rules).

#![forbid(unsafe_code)]
// `!(a < b)` is this workspace's idiom for "a >= b under the total order":
// NaN is rejected at the model boundary (`Scalar::is_valid`), so negated
// comparisons are well-defined, and they read correctly next to the
// tolerance helpers (`definitely_lt` etc.). Indexed matrix loops are kept
// where the row/column structure is the point.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

mod bipartite;
mod bitset;
pub mod dinic;
mod graph;
mod scratch;

pub use bipartite::AllocationNetwork;
pub use bitset::BitSet;
pub use graph::{EdgeId, FlowNetwork, NodeId};
pub use scratch::FlowScratch;
