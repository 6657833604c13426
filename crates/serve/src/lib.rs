//! `amf-serve`: a multi-tenant allocation service over the incremental
//! AMF solver.
//!
//! The paper's solver answers one static question — given jobs, demands
//! and capacities, what is the max-min fair allocation? A scheduler wants
//! that question answered *continuously*: jobs arrive and finish, demands
//! shrink as work completes, and many independent clusters (tenants) need
//! answers at once. This crate wraps [`IncrementalAmf`](amf_core::IncrementalAmf) sessions in a
//! small std-only TCP service:
//!
//! * **framing** ([`frame`]) — 4-byte length-prefixed JSON frames with a
//!   configurable size ceiling;
//! * **protocol** ([`protocol`]) — typed requests/responses
//!   (`CreateSession`, `ApplyDeltas`, `Solve`, `GetAllocation`, `Stats`,
//!   `Shutdown`) with typed error replies;
//! * **coalescing** ([`coalesce`]) — deltas staged between solves merge
//!   (last-writer-wins, add/remove cancellation) so one solve absorbs an
//!   entire burst;
//! * **server** ([`server`]) — sharded session table, bounded admission
//!   queues with typed `Overloaded` rejection, a worker pool sized from
//!   [`std::thread::available_parallelism`], graceful drain-on-shutdown,
//!   and per-operation latency histograms from `amf-metrics`;
//! * **client** ([`client`]) — a blocking [`ServeClient`] used by the CLI
//!   subcommands and the load generator.
//!
//! Determinism is preserved end to end: requests to one tenant serialize
//! on that tenant's session, and with the exact [`Rational`] scalar the
//! served allocation is bit-identical to a from-scratch solve of the same
//! instance (the concurrency tests assert exactly this).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod client;
pub mod coalesce;
pub mod frame;
pub mod protocol;
pub mod server;

pub use client::{ClientError, ServeClient, SolveReply};
pub use coalesce::DeltaBatch;
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
pub use protocol::{
    decode_request, decode_response, encode, ErrorKind, OpStats, ProtocolError, Request, Response,
    WireDelta, WireStats,
};
pub use server::{ServeConfig, Server, ServerSummary};

use amf_numeric::{Rational, Scalar};

/// A scalar the server can host sessions over: [`Scalar`] plus a lossless
/// conversion from the wire's f64 representation.
///
/// Every finite f64 is a binary fraction `m * 2^e`, so an exact scalar can
/// represent it perfectly — the conversion decomposes the bit pattern
/// rather than comparing floats. Values whose exact form would overflow
/// the scalar (astronomically large or subnormal-small) are rejected with
/// `None`, never rounded: a served allocation must audit bit-identical to
/// a from-scratch solve on the same inputs.
pub trait WireScalar: Scalar {
    /// Convert a wire value exactly; `None` if not representable.
    fn from_wire(v: f64) -> Option<Self>;
}

impl WireScalar for f64 {
    fn from_wire(v: f64) -> Option<Self> {
        v.is_finite().then_some(v)
    }
}

impl WireScalar for Rational {
    fn from_wire(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        // Decompose the IEEE-754 bit pattern: v = sign * mant * 2^e.
        let bits = v.to_bits();
        let negative = bits >> 63 == 1;
        let biased_exp = ((bits >> 52) & 0x7ff) as i32;
        let fraction = (bits & ((1u64 << 52) - 1)) as i128;
        let (mut mant, mut e) = if biased_exp == 0 {
            (fraction, -1074) // subnormal (covers +-0.0: mant == 0)
        } else {
            (fraction | (1 << 52), biased_exp - 1075)
        };
        if mant == 0 {
            return Some(Rational::ZERO);
        }
        let tz = mant.trailing_zeros() as i32;
        mant >>= tz;
        e += tz;
        // The i128-backed Rational overflows long before these bounds in
        // arithmetic anyway; reject exotic magnitudes at the door.
        const MAX_SHIFT: i32 = 62;
        let sign = if negative { -1 } else { 1 };
        if e >= 0 {
            if e > MAX_SHIFT {
                return None;
            }
            Some(Rational::new(sign * (mant << e), 1))
        } else {
            if -e > MAX_SHIFT {
                return None;
            }
            Some(Rational::new(sign * mant, 1i128 << (-e)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_wire_conversion_accepts_finite_only() {
        assert_eq!(f64::from_wire(1.5), Some(1.5));
        assert_eq!(f64::from_wire(f64::NAN), None);
        assert_eq!(f64::from_wire(f64::INFINITY), None);
    }

    #[test]
    fn rational_wire_conversion_is_exact() {
        assert_eq!(Rational::from_wire(0.0), Some(Rational::ZERO));
        assert_eq!(Rational::from_wire(-0.0), Some(Rational::ZERO));
        assert_eq!(Rational::from_wire(3.0), Some(Rational::new(3, 1)));
        assert_eq!(Rational::from_wire(-2.5), Some(Rational::new(-5, 2)));
        assert_eq!(Rational::from_wire(0.125), Some(Rational::new(1, 8)));
        // 0.1 is not 1/10 in binary; the conversion must preserve the
        // *actual* f64 value, not the decimal text.
        let tenth = Rational::from_wire(0.1).expect("representable");
        assert_eq!(tenth.to_f64(), 0.1);
        assert_ne!(tenth, Rational::new(1, 10));
        assert_eq!(Rational::from_wire(f64::NAN), None);
        assert_eq!(Rational::from_wire(1e300), None);
        assert_eq!(Rational::from_wire(f64::MIN_POSITIVE), None);
    }
}
