//! End-to-end observability checks: two identical co-simulations record
//! byte-identical telemetry streams and engine counters, the Chrome
//! trace export is valid JSON with per-track monotonic timestamps, and
//! the Gantt exporters cover every scheduled operation and
//! communication.

use eclipse_codesign::aaa::{
    adequation, timeline, AdequationOptions, ArchitectureGraph, Schedule, TimeNs,
};
use eclipse_codesign::control::{c2d_zoh, dlqr, plants};
use eclipse_codesign::core::cosim::{self, Activation, DisturbanceKind, LoopResult, LoopSpec};
use eclipse_codesign::core::translate::{uniform_timing, ControlLawSpec, IoMap};
use eclipse_codesign::linalg::Mat;
use eclipse_codesign::telemetry::{json, trace, Collector, Event, RecordingSink};

/// DC motor split over two ECUs and a CAN-like bus, with Gaussian road
/// noise so the continuous side is non-trivial.
fn fixture() -> (
    LoopSpec,
    eclipse_codesign::aaa::AlgorithmGraph,
    IoMap,
    Schedule,
    ArchitectureGraph,
) {
    let plant = plants::dc_motor();
    let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
    let lqr = dlqr(&dss, &Mat::identity(2), &Mat::diag(&[0.1])).unwrap();
    let spec = LoopSpec {
        plant: plant.sys,
        n_controls: 1,
        x0: vec![1.0, 0.0],
        feedback: lqr.k,
        input_memory: None,
        ts: plant.ts,
        horizon: 1.0,
        q_weight: 1.0,
        r_weight: 0.1,
        disturbance: DisturbanceKind::None,
    };
    let law = ControlLawSpec::monolithic("lqr", 2, 1);
    let (alg, io) = law.to_algorithm().unwrap();
    let mut arch = ArchitectureGraph::new();
    let p0 = arch.add_processor("ecu0", "arm");
    let p1 = arch.add_processor("ecu1", "arm");
    arch.add_bus(
        "can",
        &[p0, p1],
        TimeNs::from_millis(2),
        TimeNs::from_micros(10),
    )
    .unwrap();
    let mut db = uniform_timing(&alg, &io, TimeNs::from_micros(200), TimeNs::from_millis(5));
    for &s in io.sensors.iter().chain(&io.actuators) {
        db.forbid(s, p1);
    }
    db.forbid(io.stages[0], p0);
    let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
    schedule.validate(&alg, &arch).unwrap();
    (spec, alg, io, schedule, arch)
}

fn traced_run() -> (LoopResult, RecordingSink) {
    let (spec, alg, io, schedule, arch) = fixture();
    let mut tel = Collector::new(RecordingSink::default());
    cosim::emit_schedule_timeline(&mut tel, &schedule, &alg, &arch, spec.ts, spec.horizon).unwrap();
    let activation = Activation::scheduled(&alg, &io, &schedule, &arch, None);
    let (run, _) = cosim::simulate(&spec, activation, &mut tel, "").unwrap();
    (run, tel.into_sink())
}

#[test]
fn identical_runs_record_identical_streams_and_stats() {
    let (r1, s1) = traced_run();
    let (r2, s2) = traced_run();
    // Byte-identical event streams: every recorded event carries
    // simulated time only.
    assert!(!s1.events().is_empty());
    assert_eq!(s1.render(), s2.render());
    // Byte-identical hot-loop counters.
    assert_eq!(r1.stats, r2.stats);
    assert_eq!(r1.stats.events_delivered, r2.stats.events_delivered);
    assert_eq!(r1.activity, r2.activity);
    // And identical numerical outcomes, for good measure.
    assert_eq!(r1.cost.to_bits(), r2.cost.to_bits());
}

#[test]
fn chrome_trace_is_valid_json_with_monotonic_tracks() {
    let (_, sink) = traced_run();
    let text = trace::chrome_trace(sink.events());
    let doc = json::parse(&text).expect("chrome trace must parse as JSON");
    let events = doc.as_array().expect("trace is a JSON array");
    assert!(!events.is_empty());

    // Timestamps are monotone non-decreasing within each (pid, tid)
    // track, which is what chrome://tracing / Perfetto require for a
    // well-formed timeline.
    let mut last_ts: std::collections::HashMap<(i64, i64), f64> = std::collections::HashMap::new();
    let mut real_events = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph field");
        if ph == "M" {
            continue; // metadata carries no timestamp ordering contract
        }
        real_events += 1;
        let pid = ev.get("pid").and_then(|v| v.as_f64()).unwrap_or(0.0) as i64;
        let tid = ev.get("tid").and_then(|v| v.as_f64()).expect("tid") as i64;
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
        if let Some(&prev) = last_ts.get(&(pid, tid)) {
            assert!(
                ts >= prev,
                "timestamps regress on tid {tid}: {prev} -> {ts}"
            );
        }
        last_ts.insert((pid, tid), ts);
    }
    assert_eq!(real_events, sink.events().len());
}

#[test]
fn gantt_covers_every_op_and_comm() {
    let (_, alg, _, schedule, arch) = fixture();
    let csv = timeline::gantt_csv(&schedule, &alg, &arch);
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), schedule.ops().len() + schedule.comms().len());
    // Every operation name appears in some row.
    for op in alg.ops() {
        let name = alg.name(op);
        assert!(
            rows.iter().any(|r| r.contains(name)),
            "operation {name} missing from Gantt CSV"
        );
    }
    // Text Gantt lists the same slots.
    let text = timeline::gantt_text(&schedule, &alg, &arch);
    for op in alg.ops() {
        assert!(text.contains(alg.name(op)));
    }
    assert!(text.contains("proc:ecu0") && text.contains("bus:can"));
}

#[test]
fn histogram_percentiles_agree_with_exact_latency_stats() {
    let (run, _) = traced_run();
    let report = run.latency_report().unwrap();
    for (series, hist) in report
        .sampling
        .iter()
        .zip(&run.sampling_hist)
        .chain(report.actuation.iter().zip(&run.actuation_hist))
    {
        let st = series.stats().unwrap();
        let sm = hist.summary();
        assert_eq!(sm.count, series.len() as u64);
        assert_eq!(sm.min_ns, st.min.as_nanos());
        assert_eq!(sm.max_ns, st.max.as_nanos());
        // Percentiles live inside the exact envelope and are ordered.
        assert!(sm.min_ns <= sm.p50_ns && sm.p50_ns <= sm.p95_ns);
        assert!(sm.p95_ns <= sm.p99_ns && sm.p99_ns <= sm.max_ns);
        assert!((sm.mean_ns - st.mean.as_nanos() as f64).abs() <= 1.0);
    }
}

#[test]
fn counter_events_match_latency_observations() {
    let (run, sink) = traced_run();
    let counters: Vec<(&str, i64, i64)> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Counter {
                track,
                at_ns,
                value_ns,
                ..
            } => Some((track.as_str(), *at_ns, *value_ns)),
            _ => None,
        })
        .collect();
    let period = TimeNs::from_secs_f64(run.ts);
    // Each Ls[j]/La[j] sample equals activation instant minus the period
    // origin it belongs to.
    for (j, series) in run.sample_instants.iter().enumerate() {
        let track = format!("Ls[{j}]");
        let mine: Vec<_> = counters.iter().filter(|(t, _, _)| *t == track).collect();
        assert_eq!(mine.len(), series.len());
        for (k, (&t, &&(_, at, val))) in series.iter().zip(&mine).enumerate() {
            assert_eq!(at, t.as_nanos());
            assert_eq!(val, (t - period * k as i64).as_nanos());
        }
    }
}
