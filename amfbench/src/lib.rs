//! The AMF workspace benchmark: three workloads measured end to end, and
//! layer by layer in a separate traced run, from outside the program.
//!
//! * `online-skewed` ([`online`]) — the E8 event loop re-solved from
//!   scratch at every scheduling event;
//! * `serve-large-tenants` and `serve-small-tenants` ([`serve`]) — two
//!   traffic mixes against an in-process `amf-serve` server over loopback
//!   TCP.
//!
//! See `METRICS.md` beside this package for every metric's definition and
//! the end-to-end metric each layer metric is expected to move.

pub mod online;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
