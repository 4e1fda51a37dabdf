//! Conditioning-induced jitter (paper §3.2.2, Fig. 5).
//!
//! A cruise controller whose computation takes an `if..then..else`: the
//! *eco* branch is cheap, the *sport* branch runs a heavier algorithm.
//! The generated schedule budgets the worst case, but the *actual*
//! actuation instant moves with the branch taken — the graph of delays
//! routes each period through an `EventSelect`, so the co-simulation shows
//! the actuation jitter the stroboscopic model hides.
//!
//! Run with `cargo run --example conditioning_jitter`.

use eclipse_codesign::aaa::{
    adequation, AdequationOptions, AlgorithmGraph, ArchitectureGraph, TimeNs, TimingDb,
};
use eclipse_codesign::blocks::Sine;
use eclipse_codesign::control::{c2d_zoh, dlqr, plants};
use eclipse_codesign::core::cosim::{self, Activation, DisturbanceKind, LoopSpec};
use eclipse_codesign::core::delays::{ConditionSource, DelayGraphConfig};
use eclipse_codesign::core::translate::IoMap;
use eclipse_codesign::linalg::Mat;
use eclipse_codesign::telemetry::Collector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plant = plants::cruise_control();
    let ts = plant.ts; // 100 ms
    println!("plant: {} (Ts = {} ms)", plant.name, ts * 1e3);

    // -- the control law with a conditioned computation ---------------------
    // sensor -> mode -> {eco | sport} -> out -> actuator
    let mut alg = AlgorithmGraph::new();
    let sense = alg.add_sensor("sense_v");
    let mode = alg.add_function("mode_select");
    let eco = alg.add_function("eco_step");
    let sport = alg.add_function("sport_step");
    let out = alg.add_function("out_prep");
    let act = alg.add_actuator("apply_force");
    alg.add_edge(sense, mode, 4)?;
    alg.set_condition(eco, mode, 0)?;
    alg.set_condition(sport, mode, 1)?;
    alg.add_edge(eco, out, 4)?;
    alg.add_edge(sport, out, 4)?;
    alg.add_edge(out, act, 4)?;
    let io = IoMap {
        sensors: vec![sense],
        stages: vec![mode, eco, sport, out],
        actuators: vec![act],
    };

    // -- single ECU, branch WCETs 2 ms vs 30 ms ----------------------------
    let mut arch = ArchitectureGraph::new();
    let ecu = arch.add_processor("ecu", "arm");
    let mut db = TimingDb::new();
    db.set(sense, ecu, TimeNs::from_micros(200));
    db.set(mode, ecu, TimeNs::from_micros(300));
    db.set(eco, ecu, TimeNs::from_millis(2));
    db.set(sport, ecu, TimeNs::from_millis(30));
    db.set(out, ecu, TimeNs::from_micros(300));
    db.set(act, ecu, TimeNs::from_micros(200));
    let schedule = adequation(&alg, &arch, &db, AdequationOptions::default())?;
    schedule.validate(&alg, &arch)?;
    println!(
        "\nschedule (WCET budget, both branches):\n{}",
        schedule.render(&alg, &arch)
    );

    // -- the loop ------------------------------------------------------------
    let dss = c2d_zoh(&plant.sys, ts)?;
    let lqr = dlqr(&dss, &Mat::diag(&[100.0]), &Mat::diag(&[1e-4]))?;
    let spec = LoopSpec {
        plant: plant.sys.clone(),
        n_controls: 1,
        x0: vec![5.0], // 5 m/s speed error
        feedback: lqr.k.clone(),
        input_memory: None,
        ts,
        horizon: 4.0,
        q_weight: 1.0,
        r_weight: 1e-6,
        disturbance: DisturbanceKind::None,
    };
    let ideal = cosim::run_ideal(&spec)?;

    // The mode alternates every period: a sinusoid sampled at kTs flips
    // sign each period; the condition mapping sends positives to eco.
    let activation = Activation::Scheduled {
        alg: &alg,
        io: &io,
        schedule: &schedule,
        arch: &arch,
        configure: Box::new(|model| {
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
    let (implemented, _) = cosim::simulate(&spec, activation, &mut Collector::noop(), "")?;

    let report = implemented.latency_report()?;
    println!("latency report (note La jitter = sport − eco ≈ 28 ms):");
    print!("{}", report.render());
    println!("\nper-period actuation latencies (first 8 periods):");
    for (k, v) in report.actuation[0].values().iter().take(8).enumerate() {
        println!("  k = {k}: La = {v}");
    }

    println!("\nideal cost       : {:.6}", ideal.cost);
    println!("implemented cost : {:.6}", implemented.cost);
    println!(
        "degradation      : {:+.2}%",
        (implemented.cost / ideal.cost - 1.0) * 100.0
    );
    Ok(())
}
