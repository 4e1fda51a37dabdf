//! E7 — control cost vs actuation jitter (conditioning-induced).
//!
//! A mode-switching computation alternates between a fast and a slow
//! branch every period. The *mean* latency is held constant while the
//! spread (jitter) grows, and the co-simulated cost is compared against a
//! constant-latency run at the same mean — quantifying what an
//! average-delay model misses and the paper's §3.2.2 captures.

use ecl_aaa::{adequation, AdequationOptions, AlgorithmGraph, ArchitectureGraph, TimeNs, TimingDb};
use ecl_bench::{lqr_loop, table};
use ecl_blocks::Sine;
use ecl_control::plants;
use ecl_core::cosim::{self, Activation};
use ecl_core::delays::{ConditionSource, DelayGraphConfig};
use ecl_core::translate::IoMap;
use ecl_telemetry::Collector;

struct Case {
    alg: AlgorithmGraph,
    io: IoMap,
    mode: ecl_aaa::OpId,
    arch: ArchitectureGraph,
    schedule: ecl_aaa::Schedule,
}

/// A 2-sensor law whose compute stage has two branches with durations
/// `mean ± spread/2`.
fn conditioned_case(period: TimeNs, mean_frac: f64, spread_frac: f64) -> Case {
    let mean = (period.as_nanos() as f64 * mean_frac) as i64;
    let spread = (period.as_nanos() as f64 * spread_frac) as i64;
    let fast_ns = (mean - spread / 2).max(1000);
    let slow_ns = mean + spread / 2;

    let mut alg = AlgorithmGraph::new();
    let s0 = alg.add_sensor("in0");
    let s1 = alg.add_sensor("in1");
    let mode = alg.add_function("mode");
    let fast = alg.add_function("fast");
    let slow = alg.add_function("slow");
    let merge = alg.add_function("merge");
    let a0 = alg.add_actuator("out0");
    alg.add_edge(s0, mode, 4).expect("ok");
    alg.add_edge(s1, mode, 4).expect("ok");
    alg.set_condition(fast, mode, 0).expect("ok");
    alg.set_condition(slow, mode, 1).expect("ok");
    alg.add_edge(fast, merge, 4).expect("ok");
    alg.add_edge(slow, merge, 4).expect("ok");
    alg.add_edge(merge, a0, 4).expect("ok");
    let io = IoMap {
        sensors: vec![s0, s1],
        stages: vec![mode, fast, slow, merge],
        actuators: vec![a0],
    };

    let mut arch = ArchitectureGraph::new();
    arch.add_processor("ecu", "arm");
    let tiny = TimeNs::from_micros(20);
    let mut db = TimingDb::new();
    for op in [s0, s1, mode, merge, a0] {
        db.set_default(op, tiny);
    }
    db.set_default(fast, TimeNs::from_nanos(fast_ns));
    db.set_default(slow, TimeNs::from_nanos(slow_ns));
    let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).expect("ok");
    Case {
        alg,
        io,
        mode,
        arch,
        schedule,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plant = plants::dc_motor();
    let ts = plant.ts;
    let period = TimeNs::from_secs_f64(ts);
    let spec = lqr_loop(plant.sys, ts, vec![1.0, 0.0], 1.5)?;
    let ideal = cosim::run_ideal(&spec)?;

    println!("E7 — cost vs actuation jitter at constant mean latency (0.4·Ts)\n");
    let mean_frac = 0.4;
    let mut rows = Vec::new();
    for spread_frac in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let case = conditioned_case(period, mean_frac, spread_frac);
        let mode = case.mode;
        let activation = Activation::Scheduled {
            alg: &case.alg,
            io: &case.io,
            schedule: &case.schedule,
            arch: &case.arch,
            configure: Box::new(|model| {
                // Branch alternates each period.
                let osc = model.add_block(
                    "mode_signal",
                    Sine::new(1.0, 1.0 / (2.0 * ts)).with_phase(std::f64::consts::FRAC_PI_4),
                );
                let mut cfg = DelayGraphConfig::default();
                cfg.condition_sources.insert(
                    mode,
                    ConditionSource {
                        block: osc,
                        output: 0,
                        mapping: Box::new(|v| usize::from(v < 0.0)),
                    },
                );
                Ok(cfg)
            }),
        };
        let (run, _) = cosim::simulate(&spec, activation, &mut Collector::noop(), "")?;
        let rep = run.latency_report()?;
        let stats = rep.actuation[0].stats().expect("non-empty");
        rows.push(vec![
            format!("{:.0}%", spread_frac * 100.0),
            format!("{}", stats.mean),
            format!("{}", stats.jitter),
            format!("{:.6}", run.cost),
            format!("{:+.2}%", (run.cost / ideal.cost - 1.0) * 100.0),
        ]);
    }
    println!(
        "{}",
        table(
            &["spread/Ts", "mean La", "jitter", "cost", "vs ideal"],
            &rows
        )
    );
    println!("\nideal cost (zero latency): {:.6}", ideal.cost);
    println!("row 1 (0% spread) is the constant-mean-latency baseline: the");
    println!("extra degradation below it is the pure jitter effect an");
    println!("average-delay approximation cannot see.");
    Ok(())
}
