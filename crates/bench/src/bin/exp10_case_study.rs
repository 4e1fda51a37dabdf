//! E10 — the end-to-end automotive case study: quarter-car active
//! suspension over a 3-ECU CAN network.
//!
//! The artifact the paper's conclusion promises: per-I/O latency table,
//! control-cost table (ideal / implemented / calibrated, with and without
//! road disturbance), the static schedule, and the generated deadlock-free
//! executives.
//!
//! The first workload runs fully traced: `results/exp10_trace.json`
//! carries the lifecycle phase spans plus the co-simulation schedule
//! slices and latency counters (open in Perfetto / chrome://tracing),
//! `results/exp10_timeline.{txt,csv}` the static-schedule Gantt, and
//! `results/timing/BENCH_exp10.json` (untracked) the per-phase
//! wall-clock breakdown.

use ecl_aaa::{timeline, AdequationOptions, ArchitectureGraph, TimeNs};
use ecl_bench::{bench_json, table, write_result};
use ecl_control::plants;
use ecl_core::cosim::DisturbanceKind;
use ecl_core::lifecycle::{self, LifecycleInputs};
use ecl_core::translate::{uniform_timing, ControlLawSpec};
use ecl_linalg::Mat;
use ecl_telemetry::{trace, Collector, RecordingSink};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plant = plants::quarter_car();
    let law = ControlLawSpec::filtered("susp", 4, 1).with_data_units(8);
    let (alg, io) = law.to_algorithm()?;

    let mut arch = ArchitectureGraph::new();
    let wheel_ecu = arch.add_processor("wheel_ecu", "cortex-m");
    let body_ecu = arch.add_processor("body_ecu", "cortex-m");
    let control_ecu = arch.add_processor("control_ecu", "cortex-a");
    arch.add_bus(
        "can",
        &[wheel_ecu, body_ecu, control_ecu],
        TimeNs::from_micros(120),
        TimeNs::from_micros(8),
    )?;

    let mut db = uniform_timing(&alg, &io, TimeNs::from_micros(80), TimeNs::from_micros(600));
    for &s in &[io.sensors[0], io.sensors[2], io.sensors[3]] {
        db.forbid(s, body_ecu);
        db.forbid(s, control_ecu);
    }
    db.forbid(io.sensors[1], wheel_ecu);
    db.forbid(io.sensors[1], control_ecu);
    let step = *io.stages.last().expect("law has stages");
    db.forbid(step, wheel_ecu);
    db.forbid(step, body_ecu);
    db.forbid(io.actuators[0], body_ecu);
    db.forbid(io.actuators[0], control_ecu);

    let base = LifecycleInputs {
        plant: plant.sys.clone(),
        n_controls: 1,
        x0: vec![0.05, 0.0, 0.0, 0.0],
        ts: plant.ts,
        horizon: 1.0,
        lqr_q: Mat::diag(&[1e4, 1.0, 1e3, 1.0]),
        lqr_r: Mat::diag(&[1e-6]),
        q_weight: 1.0,
        r_weight: 1e-8,
        law,
        arch,
        db,
        adequation: AdequationOptions::default(),
        disturbance: DisturbanceKind::None,
    };

    println!("E10 — active suspension over a 3-ECU CAN network (Ts = 5 ms)\n");

    let mut rows = Vec::new();
    let mut schedule_text = String::new();
    let mut latency_text = String::new();
    let mut exec_text = String::new();
    for (label, disturbance) in [
        ("initial deflection", DisturbanceKind::None),
        (
            "road noise",
            DisturbanceKind::Noise {
                std_dev: 0.05,
                seed: 2008,
            },
        ),
    ] {
        let inputs = LifecycleInputs {
            disturbance,
            ..base.clone()
        };
        // The first workload runs fully traced; the noise workload reuses
        // the untraced entry point (same code path, NoopSink).
        let first = schedule_text.is_empty();
        let rep = if first {
            let mut tel = Collector::new(RecordingSink::default());
            let rep = lifecycle::run_with(&inputs, &mut tel)?;
            let sink = tel.into_sink();
            write_result(
                "exp10_timeline.txt",
                &timeline::gantt_text(&rep.schedule, &alg, &inputs.arch),
            )?;
            write_result(
                "exp10_timeline.csv",
                &timeline::gantt_csv(&rep.schedule, &alg, &inputs.arch),
            )?;
            write_result("exp10_trace.json", &trace::chrome_trace(sink.events()))?;
            write_result(
                "timing/BENCH_exp10.json",
                &bench_json("exp10", &sink.span_durations()),
            )?;
            rep
        } else {
            lifecycle::run(&inputs)?
        };
        rows.push(vec![
            label.into(),
            format!("{:.6}", rep.ideal.cost),
            format!("{:.6}", rep.implemented.cost),
            format!("{:.6}", rep.calibrated.cost),
            format!("{:+.1}%", rep.degradation() * 100.0),
            format!("{:.0}%", rep.calibration_recovery() * 100.0),
        ]);
        if first {
            schedule_text = rep.schedule.render(&alg, &inputs.arch);
            latency_text = rep.latency.render();
            exec_text = format!("deadlock-free: {}\n{}", rep.deadlock_free, rep.executives);
        }
    }

    println!("== static schedule ==\n{schedule_text}");
    println!("== latency table (paper eq. 1-2) ==\n{latency_text}");
    println!("== control cost table ==");
    println!(
        "{}",
        table(
            &[
                "workload",
                "ideal",
                "implemented",
                "calibrated",
                "degradation",
                "recovered"
            ],
            &rows
        )
    );
    println!("== generated executives ==\n{exec_text}");
    println!("\ntelemetry: results/exp10_timeline.{{txt,csv}}, results/exp10_trace.json,");
    println!("results/timing/BENCH_exp10.json (initial-deflection workload, fully traced)");
    Ok(())
}
