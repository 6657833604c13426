//! # Aggregate Max-min Fairness (AMF)
//!
//! Library reproduction of **"On Max-min Fair Resource Allocation for
//! Distributed Job Execution"** (Yitong Guan, Chuanyou Li, Xueyan Tang,
//! ICPP 2019). Jobs execute across multiple sites (clusters/datacenters)
//! and can only use resources at sites holding their data. AMF requires
//! the vector of **aggregate** allocations — each job's total across all
//! sites — to be max-min fair, in contrast to the conventional baseline
//! that is merely max-min fair *at each site independently*.
//!
//! ## Quick start
//!
//! ```
//! use amf_core::{AmfSolver, Instance, PerSiteMaxMin, AllocationPolicy};
//!
//! // Two sites; job 0 is confined to site 0, job 1 spans both.
//! let inst = Instance::new(
//!     vec![6.0, 2.0],
//!     vec![vec![6.0, 0.0], vec![6.0, 2.0]],
//! ).unwrap();
//!
//! // The per-site baseline gives aggregates (3, 5)...
//! let psmf = PerSiteMaxMin.allocate(&inst);
//! assert_eq!(psmf.aggregates(), &[3.0, 5.0]);
//!
//! // ...while AMF balances them at (4, 4).
//! let amf = AmfSolver::new().solve(&inst).allocation;
//! assert!((amf.aggregate(0) - 4.0).abs() < 1e-9);
//! assert!((amf.aggregate(1) - 4.0).abs() < 1e-9);
//! ```
//!
//! ## Contents
//!
//! * [`Instance`] / [`Allocation`] — the model;
//! * [`AmfSolver`] — progressive filling with flow-based bottleneck
//!   detection ([`solver`] documents the algorithm); plain, weighted and
//!   Enhanced (sharing-incentive) modes;
//! * [`PerSiteMaxMin`], [`EqualDivision`], [`ProportionalToDemand`],
//!   [`pooled_max_min_bound`] — the baselines;
//! * [`properties`] — the leximin order and the strategy-proofness probe
//!   (Pareto efficiency, envy-freeness and sharing incentive are certified
//!   by `amf-audit`);
//! * [`reference_aggregates`] — brute-force ground truth for small
//!   instances;
//! * [`water_fill`] / [`water_fill_weighted`] — conventional single-pool
//!   max-min fairness ([`water_fill_weighted_into`] is the allocation-free
//!   form);
//! * [`par_map_init`] — the parallel map behind
//!   [`AmfSolver::solve_batch`], one state per worker thread.
//!
//! Everything is generic over [`amf_numeric::Scalar`]: use `f64` for speed
//! or [`amf_numeric::Rational`] for exact results.

#![forbid(unsafe_code)]
// `!(a < b)` is this workspace's idiom for "a >= b under the total order":
// NaN is rejected at the model boundary (`Scalar::is_valid`), so negated
// comparisons are well-defined, and they read correctly next to the
// tolerance helpers (`definitely_lt` etc.). Indexed matrix loops are kept
// where the row/column structure is the point.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]

mod baselines;
pub mod dot;
pub mod incremental;
pub mod levels;
mod model;
mod parallel;
mod policy;
pub mod properties;
mod reference;
pub mod solver;
mod water;

pub use baselines::{pooled_max_min_bound, EqualDivision, PerSiteMaxMin, ProportionalToDemand};
pub use dot::to_dot;
pub use incremental::{Delta, DeltaError, IncrementalAmf, JobId};
pub use model::{Allocation, Instance, ModelError};
pub use parallel::par_map_init;
pub use policy::AllocationPolicy;
pub use reference::{reference_aggregates, MAX_REFERENCE_JOBS};
pub use solver::{
    AmfSolver, FairnessMode, FreezeReason, FreezeRound, SolveOutput, SolveStats, SolverPool,
};
pub use water::{water_fill, water_fill_weighted, water_fill_weighted_into};
