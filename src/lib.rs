//! # amf — Aggregate Max-min Fairness for distributed job execution
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! **"On Max-min Fair Resource Allocation for Distributed Job Execution"**
//! (Yitong Guan, Chuanyou Li, Xueyan Tang, ICPP 2019,
//! DOI 10.1145/3337821.3337843).
//!
//! Depend on this crate to get everything; depend on the member crates
//! (`amf-core`, `amf-sim`, …) for narrower builds.
//!
//! ```
//! use amf::core::{AmfSolver, Instance, PerSiteMaxMin, AllocationPolicy};
//!
//! // Job 0 is locked to site 0; job 1 spans both sites.
//! let inst = Instance::new(
//!     vec![6.0, 2.0],
//!     vec![vec![6.0, 0.0], vec![6.0, 2.0]],
//! ).unwrap();
//!
//! // Per-site fairness leaves the aggregates unbalanced (3 vs 5)…
//! assert_eq!(PerSiteMaxMin.allocate(&inst).aggregates(), &[3.0, 5.0]);
//! // …while AMF balances them (4 vs 4).
//! let amf = AmfSolver::new().solve(&inst).allocation;
//! assert!((amf.aggregate(0) - 4.0).abs() < 1e-9);
//! ```
//!
//! See the member crates for details:
//!
//! * [`core`] — the model, the AMF solvers and baselines, the leximin
//!   order and the strategy-proofness probe ([`amf_core`]);
//! * [`audit`] — the certificate-based allocation auditor: re-verifies
//!   any allocation (feasibility, lex-optimality, Pareto efficiency,
//!   envy-freeness, sharing incentive) with machine-checkable witnesses
//!   ([`amf_audit`]);
//! * [`sim`] — the discrete-event fluid simulator and the JCT add-on
//!   ([`amf_sim`]);
//! * [`workload`] — skewed synthetic workload generation
//!   ([`amf_workload`]);
//! * [`metrics`] — fairness metrics and reporting ([`amf_metrics`]);
//! * [`flow`] — the max-flow substrate ([`amf_flow`]);
//! * [`numeric`] — exact rational arithmetic and the `Scalar` abstraction
//!   ([`amf_numeric`]);
//! * [`drf`] — Dominant Resource Fairness, the multi-resource
//!   generalization of the conventional fairness AMF extends
//!   ([`amf_drf`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use amf_audit as audit;
pub use amf_core as core;
pub use amf_drf as drf;
pub use amf_flow as flow;
pub use amf_metrics as metrics;
pub use amf_numeric as numeric;
pub use amf_sim as sim;
pub use amf_workload as workload;
