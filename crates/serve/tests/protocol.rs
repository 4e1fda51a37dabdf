//! Wire-protocol round-trip and failure-path tests.
//!
//! Property tests pin the encode/decode bijection (including digest
//! stability across a round trip); the deterministic cases pin the
//! *typed* failure paths — malformed text, oversized frames and
//! mid-stream disconnects each map to their own [`WireError`] variant,
//! never to a panic or a silent misparse.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::Strategy;

use ecl_serve::wire::{
    read_frame, send_report, send_server, write_frame, ClientMsg, Policy, ResponseSource,
    ServerMsg, SweepRequest, WireError, MAX_FRAME,
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

    /// `send_report` writes, from a borrowed payload, the very bytes
    /// `send_server` writes for the same report.
    #[test]
    fn send_report_writes_the_report_frame(
        digest in 0u64..u64::MAX,
        payload_digest in 0u64..u64::MAX,
        source in prop_oneof![
            Just(ResponseSource::Computed),
            Just(ResponseSource::Memory),
            Just(ResponseSource::Disk),
        ],
        body in vec(0u64..256, 0..2_000),
    ) {
        let payload: Vec<u8> = body.iter().map(|&v| v as u8).collect();
        let (sent, want) = report_frames(digest, payload_digest, source, payload);
        prop_assert!(sent.0.is_ok() && want.0.is_ok());
        prop_assert_eq!(sent.1, want.1);
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

/// What `send_report` and `send_server` each write for one report, and
/// how each ended.
type Sent = (Result<(), WireError>, Vec<u8>);

fn report_frames(
    digest: u64,
    payload_digest: u64,
    source: ResponseSource,
    payload: Vec<u8>,
) -> (Sent, Sent) {
    let mut sent = Vec::new();
    let sent = (
        send_report(&mut sent, digest, payload_digest, source, &payload),
        sent,
    );
    let msg = ServerMsg::Report {
        digest,
        payload_digest,
        source,
        payload,
    };
    let mut want = Vec::new();
    let want = (send_server(&mut want, &msg), want);
    (sent, want)
}

/// A report whose header and payload together pass [`MAX_FRAME`] is
/// refused by `send_report` as by `send_server`: the same typed error
/// with the same length, and no byte written. One byte less goes out
/// whole, byte-identical.
#[test]
fn send_report_refuses_an_oversized_report_like_send_server() {
    let source = ResponseSource::Computed;
    let header = ServerMsg::Report {
        digest: 7,
        payload_digest: 9,
        source,
        payload: vec![0; MAX_FRAME],
    }
    .encode()
    .len()
        - MAX_FRAME;
    for (extra, fits) in [(0, true), (1, false), (4_000, false)] {
        let payload = vec![b'r'; MAX_FRAME - header + extra];
        let ((sent, sent_bytes), (want, want_bytes)) = report_frames(7, 9, source, payload);
        assert_eq!(sent_bytes, want_bytes);
        if fits {
            assert!(sent.is_ok() && want.is_ok());
            assert_eq!(sent_bytes.len(), 4 + MAX_FRAME);
            continue;
        }
        assert!(sent_bytes.is_empty(), "an oversized report wrote bytes");
        match (sent, want) {
            (Err(WireError::Oversized { len }), Err(WireError::Oversized { len: want })) => {
                assert_eq!(len, want);
                assert_eq!(len, MAX_FRAME + extra);
            }
            other => panic!("expected two Oversized errors, got {other:?}"),
        }
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
