//! The full design lifecycle the paper proposes: design → adequation →
//! co-simulate → calibrate → generate executives.
//!
//! [`run`] executes, in one call, the cycle the methodology is meant to
//! shorten:
//!
//! 1. **Design** — LQR synthesis on the ideally sampled plant, validated
//!    under the stroboscopic model ([`cosim::Activation::Ideal`]);
//! 2. **Adequation** — the control law is translated to an algorithm
//!    graph and distributed over the architecture by
//!    [`ecl_aaa::adequation`];
//! 3. **Co-simulation** — the graph of delays replays the schedule's
//!    temporal behaviour against the continuous plant
//!    ([`cosim::Activation::Scheduled`]), measuring the latency report and the
//!    control-performance degradation;
//! 4. **Calibration** — the measured mean actuation latency feeds a
//!    delay-aware redesign ([`ecl_control::c2d_zoh_delayed`] +
//!    state-augmented LQR), and the loop is co-simulated again;
//! 5. **Code generation** — the deadlock-free distributed executives are
//!    emitted ([`ecl_aaa::codegen`]).

use ecl_aaa::{adequation, codegen, AdequationOptions, ArchitectureGraph, Schedule, TimingDb};
use ecl_control::{c2d_zoh, c2d_zoh_delayed, dlqr, StateSpace};
use ecl_linalg::Mat;
use ecl_telemetry::{Collector, Event, Sink};

use crate::cosim::{self, Activation, DisturbanceKind, LoopResult, LoopSpec};
use crate::latency::LatencyReport;
use crate::translate::ControlLawSpec;
use crate::CoreError;

/// Inputs of the lifecycle pipeline.
#[derive(Debug, Clone)]
pub struct LifecycleInputs {
    /// Continuous plant (first `n_controls` inputs are controls).
    pub plant: StateSpace,
    /// Number of control inputs.
    pub n_controls: usize,
    /// Initial state for the regulation experiment.
    pub x0: Vec<f64>,
    /// Sampling period (seconds).
    pub ts: f64,
    /// Simulation horizon (seconds).
    pub horizon: f64,
    /// LQR state weight matrix (`n × n`).
    pub lqr_q: Mat,
    /// LQR control weight matrix (`m × m`).
    pub lqr_r: Mat,
    /// Evaluation weights of the reported quadratic cost.
    pub q_weight: f64,
    /// Control weight of the reported quadratic cost.
    pub r_weight: f64,
    /// The control law's computational structure.
    pub law: ControlLawSpec,
    /// Target distributed architecture.
    pub arch: ArchitectureGraph,
    /// WCET characterization of the law on the architecture.
    pub db: TimingDb,
    /// Adequation options.
    pub adequation: AdequationOptions,
    /// Disturbance model.
    pub disturbance: DisturbanceKind,
}

/// Everything the lifecycle produces.
#[derive(Debug)]
pub struct LifecycleReport {
    /// Step 1: the ideal (stroboscopic) run with the nominal LQR gain.
    pub ideal: LoopResult,
    /// Step 3: the co-simulated distributed implementation (same gain).
    pub implemented: LoopResult,
    /// Step 4: the co-simulated loop after delay-aware redesign.
    pub calibrated: LoopResult,
    /// The static schedule produced by the adequation.
    pub schedule: Schedule,
    /// The latency report of the implemented run (paper eq. 1–2).
    pub latency: LatencyReport,
    /// The generated distributed executives, rendered as text.
    pub executives: String,
    /// `true` if the executives passed the deadlock-freedom replay.
    pub deadlock_free: bool,
}

impl LifecycleReport {
    /// Relative cost degradation of the naive implementation
    /// (`implemented/ideal − 1`).
    pub fn degradation(&self) -> f64 {
        self.implemented.cost / self.ideal.cost - 1.0
    }

    /// Fraction of the degradation recovered by calibration
    /// (1.0 = fully recovered, 0.0 = none, negative = made it worse).
    pub fn calibration_recovery(&self) -> f64 {
        let lost = self.implemented.cost - self.ideal.cost;
        if lost.abs() < f64::EPSILON {
            return 1.0;
        }
        (self.implemented.cost - self.calibrated.cost) / lost
    }
}

/// Runs the full lifecycle.
///
/// # Errors
///
/// Propagates synthesis, adequation, wiring and simulation errors; see the
/// module docs for the steps involved.
pub fn run(inputs: &LifecycleInputs) -> Result<LifecycleReport, CoreError> {
    run_with(inputs, &mut Collector::noop())
}

/// Runs the full lifecycle, streaming telemetry into `tel`.
///
/// Each phase is timed as a wall-clock span (`design`, `translate`,
/// `adequation`, `delay-graph synthesis`, `co-simulation`, `calibration`,
/// `codegen`); the implemented co-simulation additionally records the
/// schedule timeline and per-period latency counters in simulated time
/// (the ideal and calibrated runs use `ideal:`/`cal:`-prefixed tracks so
/// the three simulations never share a track).
/// With a [`ecl_telemetry::NoopSink`] collector every instrumentation
/// site compiles to nothing and this is exactly [`run`].
///
/// # Errors
///
/// Same as [`run`].
pub fn run_with<S: Sink>(
    inputs: &LifecycleInputs,
    tel: &mut Collector<S>,
) -> Result<LifecycleReport, CoreError> {
    // --- step 1: nominal design + ideal validation ---
    // Synthesis sees only the control inputs (the remaining plant inputs
    // are disturbances the controller does not command).
    let n = inputs.plant.state_dim();
    let m = inputs.n_controls;
    let control_plant = StateSpace::new(
        inputs.plant.a().clone(),
        inputs.plant.b().block(0, 0, n, m)?,
        inputs.plant.c().clone(),
        inputs.plant.d().block(0, 0, inputs.plant.output_dim(), m)?,
    )?;
    let (spec, ideal) = tel.span("design", |tel| -> Result<_, CoreError> {
        let dss = c2d_zoh(&control_plant, inputs.ts)?;
        let nominal = dlqr(&dss, &inputs.lqr_q, &inputs.lqr_r)?;
        let spec = LoopSpec {
            plant: inputs.plant.clone(),
            n_controls: inputs.n_controls,
            x0: inputs.x0.clone(),
            feedback: nominal.k.clone(),
            input_memory: None,
            ts: inputs.ts,
            horizon: inputs.horizon,
            q_weight: inputs.q_weight,
            r_weight: inputs.r_weight,
            disturbance: inputs.disturbance,
        };
        let (ideal, _) = cosim::simulate(&spec, Activation::Ideal, tel, "ideal:")?;
        Ok((spec, ideal))
    })?;

    // --- step 2: translation + adequation ---
    let (alg, io) = tel.span("translate", |_| inputs.law.to_algorithm())?;
    let schedule = tel.span("adequation", |_| -> Result<_, CoreError> {
        let schedule = adequation(&alg, &inputs.arch, &inputs.db, inputs.adequation)?;
        schedule.validate(&alg, &inputs.arch)?;
        Ok(schedule)
    })?;

    // --- step 3: co-simulation of the implementation ---
    cosim::emit_schedule_timeline(tel, &schedule, &alg, &inputs.arch, spec.ts, spec.horizon)?;
    let start = tel.elapsed_ns();
    let activation = Activation::scheduled(&alg, &io, &schedule, &inputs.arch, None);
    let (implemented, phases) = cosim::simulate(&spec, activation, tel, "")?;
    // One call synthesizes the graph of delays and simulates; its
    // measured split becomes two back-to-back phase spans.
    let synthesized = start + phases.synthesis_wall_ns;
    let end = tel.elapsed_ns().max(synthesized);
    for (name, begin_ns, end_ns) in [
        ("delay-graph synthesis", start, synthesized),
        ("co-simulation", synthesized, end),
    ] {
        tel.emit(|| Event::SpanBegin {
            name: name.into(),
            wall_ns: begin_ns,
        });
        tel.emit(|| Event::SpanEnd {
            name: name.into(),
            wall_ns: end_ns,
        });
    }
    let latency = implemented.latency_report()?;

    // --- step 4: calibration (delay-aware redesign) ---
    let calibrated = tel.span("calibration", |tel| -> Result<_, CoreError> {
        let tau = latency.mean_actuation().as_secs_f64().clamp(0.0, inputs.ts);
        let delayed = c2d_zoh_delayed(&control_plant, inputs.ts, tau)?;
        let augmented = delayed.augmented(&Mat::identity(n))?;
        // Q on the physical states, a tiny weight on the input memory.
        let mut q_aug = Mat::identity(n + m).scaled(1e-9);
        q_aug.set_block(0, 0, &inputs.lqr_q)?;
        let redesigned = dlqr(&augmented, &q_aug, &inputs.lqr_r)?;
        let kx = redesigned.k.block(0, 0, m, n)?;
        let ku = redesigned.k.block(0, n, m, m)?;
        let spec_cal = LoopSpec {
            feedback: kx,
            input_memory: Some(ku),
            ..spec.clone()
        };
        // Distinct track prefix: this second simulation restarts at
        // simulated time 0, and a shared track would regress in the trace.
        let activation = Activation::scheduled(&alg, &io, &schedule, &inputs.arch, None);
        let (calibrated, _) = cosim::simulate(&spec_cal, activation, tel, "cal:")?;
        Ok(calibrated)
    })?;

    // --- step 5: executive generation ---
    let (executives, deadlock_free) = tel.span("codegen", |_| -> Result<_, CoreError> {
        let generated = codegen::generate(&schedule, &alg, &inputs.arch)?;
        let deadlock_free = codegen::check_deadlock_free(&generated.executives).is_free()
            && codegen::replay(&generated, &inputs.arch).is_ok();
        let executives = generated
            .executives
            .iter()
            .map(|e| codegen::render(e, &alg, &inputs.arch))
            .chain(
                generated
                    .comm_sequences
                    .iter()
                    .map(|c| codegen::render_comm_sequence(c, &alg, &inputs.arch)),
            )
            .collect::<Vec<_>>()
            .join("\n");
        Ok((executives, deadlock_free))
    })?;

    Ok(LifecycleReport {
        ideal,
        implemented,
        calibrated,
        schedule,
        latency,
        executives,
        deadlock_free,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::uniform_timing;
    use ecl_aaa::TimeNs;
    use ecl_control::plants;

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    /// DC motor over two ECUs and a slow bus — the canonical lifecycle.
    fn dc_motor_inputs() -> LifecycleInputs {
        let plant = plants::dc_motor();
        let law = ControlLawSpec::monolithic("lqr", 2, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], TimeNs::from_millis(3), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(200), TimeNs::from_millis(5));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        LifecycleInputs {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            ts: plant.ts,
            horizon: 2.0,
            lqr_q: Mat::identity(2),
            lqr_r: Mat::diag(&[0.1]),
            q_weight: 1.0,
            r_weight: 0.1,
            law,
            arch,
            db,
            adequation: AdequationOptions::default(),
            disturbance: DisturbanceKind::None,
        }
    }

    #[test]
    fn lifecycle_end_to_end() {
        let rep = run(&dc_motor_inputs()).unwrap();
        // The implementation degrades performance...
        assert!(rep.degradation() > 0.0, "degradation {}", rep.degradation());
        // ...calibration recovers a meaningful share of it...
        assert!(
            rep.calibrated.cost < rep.implemented.cost,
            "calibrated {} vs implemented {}",
            rep.calibrated.cost,
            rep.implemented.cost
        );
        // ...latencies are non-trivial...
        assert!(rep.latency.mean_actuation() > TimeNs::from_millis(5));
        // ...and the executives are generated and deadlock-free.
        assert!(rep.deadlock_free);
        assert!(rep.executives.contains("compute lqr_step"));
        assert!(rep.executives.contains("send"));
        assert!(rep.schedule.makespan() > TimeNs::ZERO);
    }

    #[test]
    fn lifecycle_records_phase_spans() {
        use ecl_telemetry::RecordingSink;
        let mut tel = Collector::new(RecordingSink::default());
        let rep = run_with(&dc_motor_inputs(), &mut tel).unwrap();
        assert!(rep.deadlock_free);
        let sink = tel.into_sink();
        let durations = sink.span_durations();
        let names: Vec<&str> = durations.iter().map(|(n, _)| n.as_str()).collect();
        for phase in [
            "design",
            "translate",
            "adequation",
            "delay-graph synthesis",
            "co-simulation",
            "calibration",
            "codegen",
        ] {
            assert!(names.contains(&phase), "missing span {phase}: {names:?}");
        }
        // The co-simulation span contains the schedule timeline and the
        // per-period latency counters.
        let has_slice = sink
            .events()
            .iter()
            .any(|e| matches!(e, ecl_telemetry::Event::Slice { track, .. } if track.starts_with("proc:")));
        let has_counter = sink
            .events()
            .iter()
            .any(|e| matches!(e, ecl_telemetry::Event::Counter { track, .. } if track == "La[0]"));
        assert!(has_slice && has_counter);
    }

    #[test]
    fn recovery_metric_sane() {
        let rep = run(&dc_motor_inputs()).unwrap();
        let rec = rep.calibration_recovery();
        assert!(rec > 0.0, "calibration should help, recovery {rec}");
        assert!(rec <= 1.5, "recovery out of plausible range: {rec}");
    }
}
