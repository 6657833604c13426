//! Frame + protocol codec properties: random requests survive an
//! encode → frame → unframe → decode round trip byte-exactly, `Solved`
//! replies over arbitrary finite floats round-trip and print every number
//! as `Display` does, and malformed inputs of every flavour come back as
//! *typed* errors — a hostile byte stream must never panic the decode path.
//! A seeded `Solved` reply of `serve-large-tenants` size pins the encoder's
//! exact bytes.

use amf_core::{AmfSolver, Instance};
use amf_serve::{
    decode_request, decode_response, encode, read_frame, write_frame, FrameError, ProtocolError,
    Request, Response, WireDelta, DEFAULT_MAX_FRAME,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wire values must survive JSON text round-trips exactly; stick to
/// integer-valued doubles scaled by powers of two (exactly representable
/// and exactly printable).
fn wire_value() -> impl Strategy<Value = f64> {
    (0i64..1 << 20, 0u32..4).prop_map(|(n, shift)| n as f64 / f64::from(1u32 << shift))
}

/// Any finite f64, drawn as a uniform bit pattern: subnormals, huge
/// magnitudes, negative zero and numbers with 17 significant digits, the
/// values a solver's split actually holds.
fn finite_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX)
        .prop_map(f64::from_bits)
        .prop_filter("finite", |x| x.is_finite())
}

/// `Solved` replies with arbitrary finite numbers; job ids stay below
/// 2^53, the integers a JSON number carries exactly.
fn solved_reply() -> impl Strategy<Value = Response> {
    (0usize..6, 0usize..5).prop_flat_map(|(jobs, sites)| {
        (
            proptest::collection::vec(0u64..1 << 53, jobs),
            proptest::collection::vec(finite_f64(), jobs),
            proptest::collection::vec(proptest::collection::vec(finite_f64(), sites), jobs),
            0u8..2,
        )
            .prop_map(|(job_ids, aggregates, split, resolved)| Response::Solved {
                job_ids,
                aggregates,
                split,
                resolved: resolved == 1,
            })
    })
}

/// The wire form of a `Solved` reply, rendered by hand with every number
/// printed by `Display`: the encoder must produce exactly these bytes.
fn render_solved(reply: &Response) -> String {
    let Response::Solved {
        job_ids,
        aggregates,
        split,
        resolved,
    } = reply
    else {
        panic!("render_solved takes a Solved reply");
    };
    let list = |xs: &[f64]| {
        let items: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
        format!("[{}]", items.join(","))
    };
    let ids: Vec<String> = job_ids.iter().map(|id| format!("{id}")).collect();
    let rows: Vec<String> = split.iter().map(|row| list(row)).collect();
    format!(
        "{{\"Solved\":{{\"job_ids\":[{}],\"aggregates\":{},\"split\":[{}],\"resolved\":{resolved}}}}}",
        ids.join(","),
        list(aggregates),
        rows.join(","),
    )
}

fn wire_delta() -> impl Strategy<Value = WireDelta> {
    (
        0u8..4,
        0u64..64,
        proptest::collection::vec(wire_value(), 1..5),
        wire_value(),
        0usize..8,
        0u8..2,
    )
        .prop_map(|(tag, id, demands, value, site, with_weight)| match tag {
            0 => WireDelta::AddJob {
                id,
                demands,
                weight: (with_weight == 1).then_some(value + 1.0),
            },
            1 => WireDelta::RemoveJob { id },
            2 => WireDelta::DemandChange {
                id,
                site,
                demand: value,
            },
            _ => WireDelta::CapacityChange {
                site,
                capacity: value,
            },
        })
}

/// Tenant names including the empty string, unicode, and JSON-hostile
/// characters (quotes, backslashes) that must survive escaping.
fn tenant() -> impl Strategy<Value = String> {
    (0u8..5, 0u32..100).prop_map(|(kind, n)| match kind {
        0 => format!("t{n}"),
        1 => String::new(),
        2 => format!("tenant-{n}-π✓"),
        3 => format!("a\"b\\c\n{n}"),
        _ => format!("cluster/{n}"),
    })
}

fn request() -> impl Strategy<Value = Request> {
    (
        0u8..6,
        tenant(),
        proptest::collection::vec(wire_value(), 1..5),
        proptest::collection::vec(wire_delta(), 0..6),
        0u8..3,
    )
        .prop_map(|(tag, tenant, capacities, deltas, mode)| match tag {
            0 => Request::CreateSession {
                tenant,
                capacities,
                mode: match mode {
                    0 => None,
                    1 => Some("plain".to_string()),
                    _ => Some("enhanced".to_string()),
                },
            },
            1 => Request::ApplyDeltas { tenant, deltas },
            2 => Request::Solve { tenant },
            3 => Request::GetAllocation { tenant },
            4 => Request::Stats,
            _ => Request::Shutdown,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// encode → frame → unframe → decode is the identity on requests,
    /// including arbitrary (unicode) tenant names.
    #[test]
    fn requests_round_trip_through_frames(req in request()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode(&req)).expect("write to Vec");
        let payload = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME)
            .expect("well-formed frame")
            .expect("one frame present");
        let back = decode_request(&payload).expect("decodes");
        prop_assert_eq!(back, req);
    }

    /// `Solved` replies over arbitrary finite floats decode to themselves,
    /// and their bytes are what printing each number with `Display` gives.
    #[test]
    fn solved_replies_round_trip_and_print_as_display(reply in solved_reply()) {
        let bytes = encode(&reply);
        prop_assert_eq!(String::from_utf8(bytes.clone()).expect("UTF-8"), render_solved(&reply));
        prop_assert_eq!(decode_response(&bytes).expect("decodes"), reply);
    }

    /// Arbitrary bytes through the decoder: typed error or success, never
    /// a panic. (Runs the payload decoder directly — framing is exercised
    /// by `arbitrary_prefixes_never_panic`.)
    #[test]
    fn arbitrary_payloads_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Arbitrary byte streams through the frame reader: every outcome is a
    /// typed `FrameError` (or a clean frame), never a panic, and a length
    /// prefix above the ceiling is always rejected.
    #[test]
    fn arbitrary_prefixes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..40)) {
        match read_frame(&mut bytes.as_slice(), 16) {
            Ok(_) => {}
            Err(FrameError::Truncated { .. } | FrameError::Oversized { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error from in-memory reader: {other:?}"),
        }
    }
}

#[test]
fn truncated_frame_is_typed() {
    // Announce 100 bytes, deliver 3.
    let mut wire = 100u32.to_be_bytes().to_vec();
    wire.extend_from_slice(b"abc");
    match read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME) {
        Err(FrameError::Truncated {
            got: 3,
            wanted: 100,
        }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn oversized_prefix_respects_configured_ceiling() {
    let mut wire = 2048u32.to_be_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 2048]);
    // Under a 1 KiB ceiling the same frame is refused before the payload
    // is read; under the default ceiling it parses (as garbage JSON, which
    // is the *protocol* layer's typed error).
    match read_frame(&mut wire.as_slice(), 1024) {
        Err(FrameError::Oversized {
            len: 2048,
            max: 1024,
        }) => {}
        other => panic!("expected Oversized, got {other:?}"),
    }
    let payload = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME)
        .expect("fits default ceiling")
        .expect("frame present");
    match decode_request(&payload) {
        Err(ProtocolError::Json { .. }) => {}
        other => panic!("expected Json error, got {other:?}"),
    }
}

#[test]
fn invalid_json_and_wrong_shapes_are_typed() {
    for bad in [
        &b"\xff\xfe"[..],                // not UTF-8
        b"{\"Solve\": ",                 // cut-off JSON
        b"[1, 2, 3]",                    // wrong top-level shape
        b"{\"Solve\": {\"tenant\": 7}}", // wrong field type
        b"{\"Imaginary\": {}}",          // unknown variant
        b"\"Solve\"",                    // unit form of a struct variant
    ] {
        match decode_request(bad) {
            Err(ProtocolError::Utf8 | ProtocolError::Json { .. }) => {}
            Ok(req) => panic!("{bad:?} unexpectedly decoded to {req:?}"),
        }
    }
}

/// Wire integers decode only when the number is an integer the target type
/// holds and `f64` carried exactly: `2^53 + 1` arrives as `2^53` and would
/// alias another client's job id, and a saturating cast would turn `-5`
/// into job 0 and `1e300` into `u64::MAX`.
#[test]
fn job_ids_decode_only_when_exact_and_in_range() {
    let template = String::from_utf8(encode(&Request::ApplyDeltas {
        tenant: "t".into(),
        deltas: vec![WireDelta::RemoveJob { id: 12345 }],
    }))
    .expect("the encoder writes UTF-8");
    assert!(template.contains("12345"));
    let remove = |id: &str| decode_request(template.replace("12345", id).as_bytes());

    let max_exact = (1u64 << 53) - 1;
    match remove(&max_exact.to_string()) {
        Ok(Request::ApplyDeltas { deltas, .. }) => {
            assert_eq!(deltas, vec![WireDelta::RemoveJob { id: max_exact }]);
        }
        other => panic!("2^53 - 1 must decode, got {other:?}"),
    }
    for bad in ["9007199254740993", "9007199254740992", "-5", "1e300", "2.5"] {
        match remove(bad) {
            Err(ProtocolError::Json { message }) => assert!(
                message.contains("out of range") || message.contains("expected integer"),
                "{bad}: unexpected message {message:?}"
            ),
            other => panic!("id {bad} must be rejected, got {other:?}"),
        }
    }
}

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One seeded 150-job × 12-site `Solved` reply, the size
/// `serve-large-tenants` ships. The demands are that workload's:
/// Zipf-skewed rows over the sites, jittered by U(0.5, 1.5), with every
/// capacity half its column's demand. The split is an enhanced AMF solve
/// of them, so the reply's bytes move if the JSON writer's output or the
/// solver's f64 output does.
fn seeded_solved_reply(seed: u64) -> Response {
    const JOBS: usize = 150;
    const SITES: usize = 12;
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
    Response::Solved {
        job_ids: (0..JOBS as u64).collect(),
        aggregates: out.allocation.aggregates().to_vec(),
        split: out.allocation.split().to_vec(),
        resolved: true,
    }
}

#[test]
fn seeded_large_solved_reply_bytes_are_pinned() {
    let reply = seeded_solved_reply(10);
    let bytes = encode(&reply);
    assert_eq!(
        decode_response(&bytes).expect("the reply decodes"),
        reply,
        "the reply does not survive a round trip"
    );
    assert_eq!(encode(&reply), bytes, "encoding is not deterministic");
    assert_eq!(bytes.len(), 26_315, "reply length moved");
    assert_eq!(
        fnv1a(&bytes),
        0xc0ba_be18_11ff_7147,
        "reply bytes moved: the JSON writer's output or the solver's f64 output changed"
    );
}
