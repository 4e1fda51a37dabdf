//! Output feedback over the network: an LQG compensator (Kalman
//! estimator plus LQR gain) closing the loop through the *measured*
//! plant output, with the measurement and the actuation crossing a bus.
//!
//! Real deployments rarely sample the full state; this example shows the
//! methodology applied to the realistic estimator-in-the-loop case — and
//! that implementation latency hurts the estimator-based loop too.
//!
//! Run with `cargo run --example lqg_over_bus`.

use eclipse_codesign::aaa::{adequation, AdequationOptions, ArchitectureGraph, TimeNs};
use eclipse_codesign::control::{c2d_zoh, dlqr, frequency, kalman, lqg, plants, stability};
use eclipse_codesign::core::cosim::{self, Activation, DisturbanceKind, OutputLoopSpec};
use eclipse_codesign::core::translate::{uniform_timing, ControlLawSpec};
use eclipse_codesign::linalg::Mat;
use eclipse_codesign::telemetry::Collector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plant = plants::dc_motor();
    let dss = c2d_zoh(&plant.sys, plant.ts)?;

    // -- synthesis: LQR gain + Kalman estimator -> LQG compensator --------
    let gain = dlqr(&dss, &Mat::diag(&[10.0, 1.0]), &Mat::diag(&[1e-2]))?;
    let kf = kalman::design(&dss, &Mat::identity(2).scaled(1e-4), &Mat::diag(&[1e-4]))?;
    println!(
        "LQR gain K = [{:.3}, {:.3}], Kalman gain L = [{:.3}; {:.3}]",
        gain.k[(0, 0)],
        gain.k[(0, 1)],
        kf.l[(0, 0)],
        kf.l[(1, 0)]
    );
    let rho = lqg::closed_loop_radius(&dss, &gain, &kf)?;
    println!("closed-loop spectral radius (separation principle): {rho:.4}");
    let comp = lqg::compensator(&dss, &gain, &kf)?;
    let comp_poles = stability::poles_dt(&comp)?;
    println!(
        "compensator poles |z|: {:?}",
        comp_poles
            .iter()
            .map(|p| (p.magnitude * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    // Continuous loop-shaping sanity: the state-feedback loop's margins.
    if let Some(m) = frequency::margins(
        &frequency::state_feedback_loop(&plant.sys, &gain.k)?,
        1e-3,
        1e4,
    )? {
        println!(
            "state-feedback loop: wgc {:.1} rad/s, PM {:.0} deg, delay margin {:.1} ms",
            m.omega_gc,
            m.phase_margin_deg,
            m.delay_margin * 1e3
        );
    }

    // -- the loop spec ------------------------------------------------------
    let spec = OutputLoopSpec {
        plant: plant.sys.clone(),
        n_controls: 1,
        x0: vec![1.0, 0.0],
        compensator: comp,
        ts: plant.ts,
        horizon: 2.0,
        q_weight: 1.0,
        r_weight: 1e-2,
        disturbance: DisturbanceKind::None,
    };
    let (ideal, _) = cosim::simulate(&spec, Activation::Ideal, &mut Collector::noop(), "")?;
    println!("\nideal (stroboscopic) cost      : {:.6}", ideal.cost);

    // -- distribute: sensor+actuator on one ECU, compensator remote --------
    let law = ControlLawSpec::monolithic("lqg", 1, 1);
    let (alg, io) = law.to_algorithm()?;
    let mut arch = ArchitectureGraph::new();
    let io_ecu = arch.add_processor("io_ecu", "arm");
    let compute_ecu = arch.add_processor("compute_ecu", "arm");
    arch.add_bus(
        "can",
        &[io_ecu, compute_ecu],
        TimeNs::from_millis(6),
        TimeNs::from_micros(10),
    )?;
    let mut db = uniform_timing(&alg, &io, TimeNs::from_micros(200), TimeNs::from_millis(15));
    for &op in io.sensors.iter().chain(&io.actuators) {
        db.forbid(op, compute_ecu);
    }
    db.forbid(io.stages[0], io_ecu);
    let schedule = adequation(&alg, &arch, &db, AdequationOptions::default())?;
    schedule.validate(&alg, &arch)?;
    println!("\nschedule:\n{}", schedule.render(&alg, &arch));

    let activation = Activation::scheduled(&alg, &io, &schedule, &arch, None);
    let (implemented, _) = cosim::simulate(&spec, activation, &mut Collector::noop(), "")?;
    println!("implemented (co-simulated) cost: {:.6}", implemented.cost);
    println!(
        "degradation                    : {:+.1}%",
        (implemented.cost / ideal.cost - 1.0) * 100.0
    );
    let rep = implemented.latency_report()?;
    println!("\nlatency report:\n{}", rep.render());
    Ok(())
}
