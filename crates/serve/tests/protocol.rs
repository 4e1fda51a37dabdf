//! Wire-protocol round-trip and failure-path tests.
//!
//! Property tests pin the encode/decode bijection (including digest
//! stability across a round trip) and a report's round trip through its
//! part frames at any length; the deterministic cases pin the
//! *typed* failure paths — malformed text, oversized frames and
//! mid-stream disconnects each map to their own [`WireError`] variant,
//! never to a panic or a silent misparse.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Strategy;

use ecl_serve::wire::{
    read_frame, recv_server, send_report, send_server, write_frame, ClientMsg, Policy,
    ResponseSource, ServerMsg, SweepRequest, WireError, MAX_FRAME,
};

fn policy() -> impl Strategy<Value = Policy> {
    prop_oneof![Just(Policy::Pressure), Just(Policy::Earliest)]
}

fn request() -> impl Strategy<Value = SweepRequest> {
    let lists = (
        vec(0.05f64..4.0, 1..4),
        vec(0.0f64..1.0, 0..3),
        vec(0.0f64..1.0, 0..3),
        vec(0.0f64..1.0, 0..3),
        vec(policy(), 1..3),
        0.0f64..5.0,
    );
    let scalars = (
        0u64..u64::MAX,
        1usize..100_000,
        0u64..256,
        0usize..64,
        1usize..9,
        0u64..100,
    );
    let case = prop_oneof![
        Just("dc_motor".to_string()),
        Just("lqr-Case_2".to_string()),
        Just("x".to_string()),
    ];
    (lists, scalars, case).prop_map(
        |(
            (period_scales, frame_loss, link_outage, proc_dropout, policies, wcet_jitter),
            (seed, scenarios, priority, chunk, wcet_tables, retries),
            case,
        )| SweepRequest {
            case,
            seed,
            scenarios,
            priority: priority as u8,
            chunk,
            wcet_jitter,
            wcet_tables,
            period_scales,
            policies,
            frame_loss,
            link_outage,
            proc_dropout,
            max_retries: retries as u32,
            outage_periods: (retries % 7) as u32,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// Submit messages survive encode → frame → deframe → decode with
    /// every field and the request digest intact.
    #[test]
    fn submit_round_trips_through_frames(req in request()) {
        let msg = ClientMsg::Submit(req.clone());
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg.encode()).unwrap();
        let payload = read_frame(&mut &buf[..]).unwrap();
        let decoded = ClientMsg::decode(&payload).unwrap();
        let ClientMsg::Submit(back) = decoded else {
            panic!("wrong message kind");
        };
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(back.digest(), req.digest());
    }

    /// The digest ignores the scheduling knobs (`priority`, `chunk`) and
    /// nothing else: perturbing the seed must move it.
    #[test]
    fn digest_ignores_scheduling_knobs_only(
        req in request(),
        priority in 0u64..256,
        chunk in 0usize..512,
    ) {
        let rescheduled = SweepRequest {
            priority: priority as u8,
            chunk,
            ..req.clone()
        };
        prop_assert_eq!(rescheduled.digest(), req.digest());
        let reseeded = SweepRequest { seed: req.seed ^ 1, ..req.clone() };
        prop_assert!(reseeded.digest() != req.digest(), "seed must move the digest");
    }

    /// Every server message round-trips, including reports whose raw
    /// payload contains blank lines (the header/body separator).
    #[test]
    fn server_messages_round_trip(
        a in 0usize..100_000,
        b in 0usize..100_000,
        worst in 0i64..i64::MAX,
        overruns in 0u64..u64::MAX,
        digest in 0u64..u64::MAX,
        body in vec(0u64..256, 0..400),
    ) {
        let mut payload: Vec<u8> = body.iter().map(|&v| v as u8).collect();
        payload.extend_from_slice(b"\n\nraw tail");
        let msgs = [
            ServerMsg::Queued { position: a, depth: b },
            ServerMsg::Delta { done: a, total: b, worst_ns: worst, overruns },
            ServerMsg::Report {
                digest,
                payload_digest: digest ^ 0xa5a5,
                source: ResponseSource::Disk,
                payload,
            },
            ServerMsg::Done { sched_computes: overruns },
            ServerMsg::Stats(vec![("jobs".into(), overruns), ("depth".into(), a as u64)]),
            ServerMsg::Err { code: "rate_limited".into(), msg: "slow down".into() },
            ServerMsg::Rejected {
                codes: vec!["bad_scenarios".into(), "EV401".into()],
                msg: "refused before queueing".into(),
            },
            ServerMsg::Rejected { codes: vec![], msg: "no codes".into() },
        ];
        for msg in msgs {
            let decoded = ServerMsg::decode(&msg.encode()).unwrap();
            prop_assert_eq!(decoded, msg);
        }
    }

    /// A report of any length up to four frames and more goes out in
    /// frames of at most `MAX_FRAME` and reads back whole.
    #[test]
    fn send_report_round_trips_at_any_length(
        digest in 0u64..u64::MAX,
        source in source(),
        len in 0usize..4 * MAX_FRAME + 4_096,
    ) {
        check_report(digest, source, len);
    }
    /// Truncating a valid frame at ANY byte reads back as a typed
    /// disconnect — never a partial parse, never a hang-equivalent.
    #[test]
    fn any_truncation_is_a_disconnect(req in request(), cut_seed in 0usize..10_000) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ClientMsg::Submit(req).encode()).unwrap();
        let cut = 1 + cut_seed % (buf.len() - 1);
        let mut r = &buf[..cut];
        prop_assert!(matches!(read_frame(&mut r), Err(WireError::Disconnected)));
    }
}

/// A valid frame followed by a torn one: the first decodes, the second
/// reports the mid-stream disconnect.
#[test]
fn mid_stream_disconnect_after_valid_frame() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &ClientMsg::Stats.encode()).unwrap();
    let mark = buf.len();
    write_frame(
        &mut buf,
        &ClientMsg::Submit(SweepRequest::default()).encode(),
    )
    .unwrap();
    let torn = &buf[..mark + 7];
    let mut r = torn;
    assert_eq!(
        ClientMsg::decode(&read_frame(&mut r).unwrap()).unwrap(),
        ClientMsg::Stats
    );
    assert!(matches!(read_frame(&mut r), Err(WireError::Disconnected)));
}

fn source() -> impl Strategy<Value = ResponseSource> {
    prop_oneof![
        Just(ResponseSource::Computed),
        Just(ResponseSource::Memory),
        Just(ResponseSource::Disk),
    ]
}

/// Header bytes of a report whose payload length has seven digits, as
/// every length near `MAX_FRAME` does.
fn header_len(source: ResponseSource) -> usize {
    let msg = ServerMsg::Report {
        digest: 0,
        payload_digest: 0,
        source,
        payload: vec![0; MAX_FRAME],
    };
    msg.encode().len() - MAX_FRAME
}

/// Sends a `len`-byte report with `send_report` and checks the wire: no
/// frame over `MAX_FRAME`; one frame byte-identical to `write_frame` of
/// `ServerMsg::encode` when the report fits, else a full first frame
/// and headerless continuations that concatenate to the encoded
/// message; `send_server` writing the same bytes; and `recv_server`
/// reading the very message back and nothing more.
fn check_report(digest: u64, source: ResponseSource, len: usize) {
    let payload: Vec<u8> = (0..len as u64)
        .map(|i| ((i ^ digest).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 59) as u8)
        .collect();
    let mut wire = Vec::new();
    send_report(&mut wire, digest, !digest, source, &payload).unwrap();
    let msg = ServerMsg::Report {
        digest,
        payload_digest: !digest,
        source,
        payload,
    };
    let mut frames = Vec::new();
    let mut rest = &wire[..];
    while !rest.is_empty() {
        let prefix: [u8; 4] = rest[..4].try_into().unwrap();
        assert!(u32::from_le_bytes(prefix) as usize <= MAX_FRAME, "{len} B");
        frames.push(read_frame(&mut rest).unwrap());
    }
    let encoded = msg.encode();
    if encoded.len() <= MAX_FRAME {
        let mut single = Vec::new();
        write_frame(&mut single, &encoded).unwrap();
        assert_eq!(wire, single, "{len} B");
    } else {
        assert_eq!(frames[0].len(), MAX_FRAME, "{len} B");
        assert_eq!(frames.len(), encoded.len().div_ceil(MAX_FRAME), "{len} B");
        assert_eq!(frames.concat(), encoded, "{len} B");
    }
    let mut via_send_server = Vec::new();
    send_server(&mut via_send_server, &msg).unwrap();
    assert_eq!(via_send_server, wire, "{len} B");
    let mut r = &wire[..];
    assert_eq!(recv_server(&mut r).unwrap(), msg, "{len} B");
    assert!(r.is_empty(), "{len} B: {} bytes left unread", r.len());
}

/// The lengths where the parts change: empty, the single-frame limit
/// and one byte past it, and whole multiples of `MAX_FRAME`.
#[test]
fn send_report_round_trips_at_the_frame_edges() {
    for source in [
        ResponseSource::Computed,
        ResponseSource::Memory,
        ResponseSource::Disk,
    ] {
        let limit = MAX_FRAME - header_len(source);
        for len in [0, 1, limit - 1, limit, limit + 1, 2 * limit + 1] {
            check_report(0x5ed0, source, len);
        }
        for frames in 1..=4 {
            check_report(0xf4a3e, source, frames * MAX_FRAME);
        }
    }
}

/// A report frame is the header, then the bytes `bytes` raw payload.
fn report_frame(bytes: &str, body: &[u8]) -> Vec<u8> {
    let mut message = format!(
        "rsp report\ndigest {:016x}\npayload_digest {:016x}\nsource cold\nbytes {bytes}\n\n",
        1, 2
    )
    .into_bytes();
    message.extend_from_slice(body);
    let mut frame = Vec::new();
    write_frame(&mut frame, &message).unwrap();
    frame
}

/// A hostile report header is never trusted with memory: one declaring
/// `u32::MAX` or `usize::MAX` bytes and then hanging up reads as a
/// disconnect (reserving `usize::MAX` bytes would panic instead), as
/// does a report cut off between its parts. A part past the declared
/// length is malformed.
#[test]
fn report_reassembly_distrusts_the_declared_length() {
    for declared in ["4294967295", "18446744073709551615"] {
        let wire = report_frame(declared, b"");
        assert!(
            matches!(recv_server(&mut &wire[..]), Err(WireError::Disconnected)),
            "bytes {declared}"
        );
    }
    let mut cut = report_frame("10", b"four");
    write_frame(&mut cut, b"five!").unwrap();
    assert!(matches!(
        recv_server(&mut &cut[..]),
        Err(WireError::Disconnected)
    ));
    let mut overshoot = report_frame("10", b"four");
    write_frame(&mut overshoot, b"seven!!").unwrap();
    match recv_server(&mut &overshoot[..]) {
        Err(WireError::Malformed { reason }) => assert!(reason.contains("overshoots"), "{reason}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
    let mut exact = report_frame("10", b"four");
    write_frame(&mut exact, b"six!!!").unwrap();
    match recv_server(&mut &exact[..]).unwrap() {
        ServerMsg::Report { payload, .. } => assert_eq!(payload, b"foursix!!!"),
        other => panic!("expected a report, got {other:?}"),
    }
}

/// Oversized frames are rejected symmetrically: on write (payload too
/// large) and on read (hostile length prefix), both with the declared
/// length attached.
#[test]
fn oversized_frames_are_typed() {
    let big = vec![b'x'; MAX_FRAME + 1];
    match write_frame(&mut Vec::new(), &big) {
        Err(WireError::Oversized { len }) => assert_eq!(len, MAX_FRAME + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
    let mut hostile = ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
    hostile.extend_from_slice(&[0u8; 16]);
    match read_frame(&mut &hostile[..]) {
        Err(WireError::Oversized { len }) => assert_eq!(len, MAX_FRAME + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

/// Text-level defects each decode to `Malformed` with the offending
/// field named — the reader can log the reason and keep the connection.
#[test]
fn malformed_payloads_are_typed_and_named() {
    let probes: &[(&[u8], &str)] = &[
        (b"req nonsense\n", "kind"),
        (b"req sweep\nseed 1\n", "missing key"),
        (
            b"rsp queued\nposition 1\nposition 2\ndepth 0\n",
            "duplicate",
        ),
        (b"rsp queued\nposition 1\ndepth 0\nextra 9\n", "unknown"),
        (
            b"rsp delta\ndone x\ntotal 1\nworst_ns 0\noverruns 0\n",
            "done",
        ),
        (b"\xff\xfe\n", "UTF-8"),
    ];
    for (payload, needle) in probes {
        let err = if payload.starts_with(b"rsp ") {
            ServerMsg::decode(payload).err()
        } else {
            ClientMsg::decode(payload).err()
        };
        match err {
            Some(WireError::Malformed { reason }) => assert!(
                reason.to_lowercase().contains(&needle.to_lowercase()),
                "reason {reason:?} does not name {needle:?}"
            ),
            other => panic!("payload {payload:?}: expected Malformed, got {other:?}"),
        }
    }
}

/// Range validation is a *rejection*, not a codec concern: an
/// out-of-range request decodes intact, and `validate` names each
/// defect with a stable code the server can send in `rsp rejected`.
#[test]
fn out_of_range_requests_decode_and_validate_with_typed_codes() {
    type Patch<'a> = &'a dyn Fn(&mut SweepRequest);
    let cases: Vec<(Patch, &str)> = vec![
        (&|r| r.scenarios = 0, "bad_scenarios"),
        (&|r| r.wcet_tables = 0, "bad_wcet_tables"),
        (&|r| r.period_scales = vec![], "bad_period_scales"),
        (&|r| r.period_scales = vec![-1.0], "bad_period_scales"),
        (&|r| r.policies = vec![], "bad_policies"),
        (&|r| r.frame_loss = vec![1.5], "bad_frame_loss"),
        (&|r| r.wcet_jitter = -0.5, "bad_wcet_jitter"),
        (&|r| r.wcet_jitter = f64::NAN, "bad_wcet_jitter"),
    ];
    for (patch, code) in cases {
        let mut req = SweepRequest::default();
        patch(&mut req);
        let payload = ClientMsg::Submit(req.clone()).encode();
        let decoded = ClientMsg::decode(&payload)
            .unwrap_or_else(|e| panic!("out-of-range request must still decode ({code}): {e}"));
        // Byte comparison instead of PartialEq: NaN jitter must round-trip
        // too, and NaN != NaN.
        assert_eq!(decoded.encode(), payload, "decode drift");
        let codes: Vec<&str> = req.validate().iter().map(|d| d.code).collect();
        assert_eq!(codes, [code], "defect codes for {code}");
    }
    assert!(
        SweepRequest::default().validate().is_empty(),
        "the default request must be admissible"
    );
}

/// A report whose declared byte count disagrees with its body is
/// malformed — the count is an integrity check, not a suggestion.
#[test]
fn report_length_mismatch_is_malformed() {
    let msg = ServerMsg::Report {
        digest: 1,
        payload_digest: 2,
        source: ResponseSource::Computed,
        payload: b"twelve bytes".to_vec(),
    };
    let mut bytes = msg.encode();
    bytes.extend_from_slice(b"!!");
    assert!(matches!(
        ServerMsg::decode(&bytes),
        Err(WireError::Malformed { .. })
    ));
}
