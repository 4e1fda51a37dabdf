//! Shared scenario builders and table rendering for the experiment
//! binaries (`src/bin/fig*.rs`, `src/bin/exp*.rs`) and the Criterion
//! benches.
//!
//! Every figure and experiment of `EXPERIMENTS.md` is regenerated by one
//! binary in this crate; the helpers here keep the scenarios identical
//! across experiments so the numbers are comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;

use std::fmt;

use ecl_aaa::{
    adequation, AdequationOptions, AlgorithmGraph, ArchitectureGraph, Fnv1a, ProcId, Schedule,
    TimeNs, TimingDb,
};
use ecl_control::{c2d_zoh, dlqr, plants, StateSpace};
use ecl_core::cosim::{self, Activation, DisturbanceKind, LoopResult, LoopSpec};
use ecl_core::faults::{CommFault, FaultConfig, FaultPlan};
use ecl_core::translate::{uniform_timing, ControlLawSpec, IoMap};
use ecl_core::CoreError;
use ecl_linalg::Mat;
use ecl_telemetry::{Collector, Phase, ProfileReport};

/// What an experiment binary step returns.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// The one determinism path of the fleet experiments: runs `run` at 1
/// worker and then at 4, and checks that `artifact` — the deterministic
/// bytes the experiment archives — is the same for both. The 1-worker
/// output is dropped before the 4-worker run starts, so the two never
/// occupy memory at once.
///
/// Returns the 4-worker output and its artifact.
///
/// # Errors
///
/// Propagates the errors of `run`, and fails with a message naming
/// both worker counts when the artifacts differ.
pub fn worker_invariant<T, A: PartialEq>(
    mut run: impl FnMut(usize) -> BenchResult<T>,
    artifact: impl Fn(&T) -> A,
) -> BenchResult<(T, A)> {
    let (serial, parallel) = (1, 4);
    let expected = artifact(&run(serial)?);
    let out = run(parallel)?;
    let got = artifact(&out);
    if got != expected {
        return Err(format!(
            "the {serial}-worker and {parallel}-worker runs produced different \
             deterministic artifacts"
        )
        .into());
    }
    Ok((out, got))
}

/// FNV-1a 64 of `bytes`: how the digest reports pin artifacts too
/// large to archive.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// The lines every sweep digest report opens with: the scenario count,
/// the FNV-64 of the rendered summary, the JSON summary and the merged
/// histogram, and the robustness margin. Each rendering is dropped
/// before the next is made, so a 10⁶-row sweep holds one at a time.
pub fn sweep_digest(out: &fleet::SweepOutput) -> String {
    let render = fnv64(out.summary.render().as_bytes());
    let json = fnv64(out.summary.to_json().as_bytes());
    let hist = fnv64(format!("{:?}", out.actuation_hist).as_bytes());
    format!(
        "scenarios: {}\n\
         summary_render_fnv64: {render:#018x}\n\
         summary_json_fnv64: {json:#018x}\n\
         actuation_hist_fnv64: {hist:#018x}\n\
         robustness_margin: {:.6}\n",
        out.summary.scenarios.len(),
        out.summary.robustness_margin(),
    )
}

/// Mean wall time of one profile phase, in nanoseconds (0 when the
/// phase never ran).
pub fn phase_mean_ns(profile: &ProfileReport, phase: Phase) -> f64 {
    profile
        .phases
        .iter()
        .find(|s| s.phase == phase)
        .map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64)
}

/// Renders an aligned ASCII table.
///
/// # Examples
///
/// ```
/// let t = ecl_bench::table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
/// assert!(t.contains("a"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str(" | ");
            }
            line.push_str(&format!("{c:>w$}", w = widths[i]));
        }
        line.push('\n');
        line
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    let total: usize = widths.iter().sum::<usize>() + 3 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// A ready-to-run distributed scenario: law, translated graph, 2-ECU bus
/// architecture with I/O pinned on `io_ecu` and computation on
/// `control_ecu`.
pub struct SplitScenario {
    /// The control law.
    pub law: ControlLawSpec,
    /// Translated algorithm graph.
    pub alg: AlgorithmGraph,
    /// I/O correspondence.
    pub io: IoMap,
    /// The 2-ECU architecture.
    pub arch: ArchitectureGraph,
    /// WCET table with the placement constraints applied.
    pub db: TimingDb,
    /// The I/O processor.
    pub io_proc: ProcId,
    /// The compute processor.
    pub compute_proc: ProcId,
}

/// Builds the canonical 2-ECU split target used across experiments: `p`
/// sensed signals, `m` control outputs, sensors/actuators pinned on the
/// I/O ECU, computation pinned on the control ECU, one bus between them.
///
/// # Errors
///
/// Propagates construction errors (only reachable with pathological
/// arguments such as zero inputs).
pub fn split_scenario(
    n_inputs: usize,
    n_outputs: usize,
    bus_latency: TimeNs,
    io_wcet: TimeNs,
    compute_wcet: TimeNs,
) -> Result<SplitScenario, CoreError> {
    let law = ControlLawSpec::monolithic("law", n_inputs, n_outputs);
    let (alg, io) = law.to_algorithm()?;
    let mut arch = ArchitectureGraph::new();
    let io_proc = arch.add_processor("io_ecu", "arm");
    let compute_proc = arch.add_processor("control_ecu", "arm");
    arch.add_bus(
        "can",
        &[io_proc, compute_proc],
        bus_latency,
        TimeNs::from_micros(10),
    )?;
    let mut db = uniform_timing(&alg, &io, io_wcet, compute_wcet);
    for &s in io.sensors.iter().chain(&io.actuators) {
        db.forbid(s, compute_proc);
    }
    for &f in &io.stages {
        db.forbid(f, io_proc);
    }
    Ok(SplitScenario {
        law,
        alg,
        io,
        arch,
        db,
        io_proc,
        compute_proc,
    })
}

/// The split target every fleet experiment sweeps: 2 sensed signals,
/// 1 control output, a 200 µs bus, 50 µs I/O and 500 µs compute WCETs.
///
/// # Errors
///
/// None in practice; the signature mirrors [`split_scenario`].
pub fn standard_split() -> Result<SplitScenario, CoreError> {
    split_scenario(
        2,
        1,
        TimeNs::from_micros(200),
        TimeNs::from_micros(50),
        TimeNs::from_micros(500),
    )
}

/// The E10 quarter-car deployment the executive and verifier
/// experiments run: the suspension law on 3 ECUs sharing a CAN bus,
/// placement interdictions pinning I/O to its ECU. Returns the
/// algorithm, the architecture, the WCET table, its schedule and the
/// plant's sampling period.
///
/// # Errors
///
/// Propagates translation and adequation errors.
#[allow(clippy::type_complexity)]
pub fn quarter_car_case() -> Result<
    (
        AlgorithmGraph,
        ArchitectureGraph,
        TimingDb,
        Schedule,
        TimeNs,
    ),
    CoreError,
> {
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

    let schedule = adequation(&alg, &arch, &db, AdequationOptions::default())?;
    Ok((alg, arch, db, schedule, TimeNs::from_secs_f64(plant.ts)))
}

/// Scans fault-plan seeds for a retries-only plan over `periods`: at
/// least one retransmission, no dropped transfer, no dead processor.
/// Such a plan perturbs every downstream instant while staying inside
/// the regime where the graph of delays, the virtual executive and the
/// static fault-aware bounds all agree. Returns the seed, the plan and
/// its retransmission count.
///
/// # Errors
///
/// Fails when none of the first 4096 seeds yields such a plan.
pub fn retries_only_plan(
    schedule: &Schedule,
    arch: &ArchitectureGraph,
    periods: u32,
) -> Result<(u64, FaultPlan, u32), CoreError> {
    let n_procs = arch.processors().count();
    for seed in 0..4096u64 {
        let config = FaultConfig {
            seed,
            frame_loss_rate: 0.05,
            max_retries: 3,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&config, schedule, arch, periods)?;
        if (0..n_procs).any(|p| plan.proc_dead_from(p).is_some()) {
            continue;
        }
        let mut retries = 0u32;
        let mut dropped = false;
        for i in 0..schedule.comms().len() {
            for k in 0..periods {
                match plan.comm_fault(i, k) {
                    CommFault::Ok => {}
                    CommFault::Retry(r) => retries += r,
                    CommFault::Drop => dropped = true,
                }
            }
        }
        if !dropped && retries > 0 {
            return Ok((seed, plan, retries));
        }
    }
    Err(CoreError::InvalidInput {
        reason: "no retries-only fault plan in 4096 seeds".into(),
    })
}

/// The loop of the 10⁵–10⁶-scenario sweeps: the standard DC-motor loop
/// over one sampling period, so a sweep that size fits in minutes while
/// still exercising the full sample → compute → actuate cascade.
///
/// # Errors
///
/// None for the fixed motor model.
pub fn scale_loop() -> Result<LoopSpec, CoreError> {
    dc_motor_loop(0.05)
}

/// Sim-kernel work summed over [`KernelWork::probe`]'s co-simulations.
/// Every counter is a pure function of the code and the models, so a
/// digest report that archives it fails its golden diff on any change
/// in how much work the kernel does.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelWork {
    /// Right-hand-side evaluations.
    pub rhs_evals: u64,
    /// Accepted integrator steps.
    pub steps_accepted: u64,
    /// Rejected integrator steps.
    pub steps_rejected: u64,
    /// Event deliveries.
    pub events_delivered: u64,
    /// Continuous spans handed to the integrator.
    pub integration_spans: u64,
    /// Heap allocations on the kernel's hot paths (0 when the scratch
    /// buffers are pre-sized correctly).
    pub hot_allocs: u64,
}

impl KernelWork {
    /// Runs every co-simulation flavour a fleet sweep uses on
    /// [`scale_loop`] over [`standard_split`] — the ideal run at each
    /// default period scale, the scheduled run and a faulty replay —
    /// and sums their engine counters.
    ///
    /// # Errors
    ///
    /// Propagates adequation, fault-planning and simulation errors.
    pub fn probe() -> Result<KernelWork, CoreError> {
        let spec = scale_loop()?;
        let base = standard_split()?;
        let mut work = KernelWork::default();
        let mut run = |spec: &LoopSpec, activation| {
            let (run, _) = cosim::simulate(spec, activation, &mut Collector::noop(), "")?;
            work.add(&run);
            Ok::<_, CoreError>(())
        };
        for scale in fleet::SweepConfig::default().period_scales {
            let mut scaled = spec.clone();
            scaled.ts = spec.ts * scale;
            run(&scaled, Activation::Ideal)?;
        }
        let (alg, arch) = (&base.alg, &base.arch);
        let schedule = adequation(alg, arch, &base.db, AdequationOptions::default())?;
        run(
            &spec,
            Activation::scheduled(alg, &base.io, &schedule, arch, None),
        )?;
        let faults = FaultConfig {
            seed: 0x000e_c117,
            frame_loss_rate: 0.25,
            max_retries: 2,
            link_outage_rate: 0.1,
            outage_periods: 2,
            proc_dropout_rate: 0.0,
        };
        let plan = FaultPlan::generate(&faults, &schedule, arch, 8)?;
        run(
            &spec,
            Activation::scheduled(alg, &base.io, &schedule, arch, Some(plan)),
        )?;
        Ok(work)
    }

    fn add(&mut self, run: &LoopResult) {
        let stats = &run.stats;
        self.rhs_evals += stats.ode.rhs_evals;
        self.steps_accepted += stats.ode.steps_accepted;
        self.steps_rejected += stats.ode.steps_rejected;
        self.events_delivered += stats.events_delivered;
        self.integration_spans += stats.integration_spans;
        self.hot_allocs += stats.hot_allocs;
    }
}

/// The `kernel_work:` line of a digest report.
impl fmt::Display for KernelWork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel_work: rhs_evals={} steps_accepted={} steps_rejected={} \
             events_delivered={} integration_spans={} hot_allocs={}",
            self.rhs_evals,
            self.steps_accepted,
            self.steps_rejected,
            self.events_delivered,
            self.integration_spans,
            self.hot_allocs
        )
    }
}

/// LQR weights used by the standard loops (aggressive enough that latency
/// visibly matters, per Cervin et al. 2003).
pub fn standard_weights(n: usize) -> (Mat, Mat) {
    let mut q = Mat::identity(n);
    q[(0, 0)] = 10.0;
    (q, Mat::diag(&[1e-3]))
}

/// Builds the standard DC-motor regulation loop with an LQR gain
/// synthesized on the ideally sampled plant.
///
/// # Errors
///
/// Propagates discretization/synthesis errors (none for the fixed motor
/// model).
pub fn dc_motor_loop(horizon: f64) -> Result<LoopSpec, CoreError> {
    let plant = plants::dc_motor();
    lqr_loop(plant.sys, plant.ts, vec![1.0, 0.0], horizon)
}

/// Builds an LQR regulation loop for an arbitrary single-control plant.
///
/// # Errors
///
/// Propagates discretization/synthesis errors (e.g. an unstabilizable
/// pair).
pub fn lqr_loop(
    plant: StateSpace,
    ts: f64,
    x0: Vec<f64>,
    horizon: f64,
) -> Result<LoopSpec, CoreError> {
    let n = plant.state_dim();
    let control_only = StateSpace::new(
        plant.a().clone(),
        plant.b().block(0, 0, n, 1)?,
        plant.c().clone(),
        plant.d().block(0, 0, plant.output_dim(), 1)?,
    )?;
    let dss = c2d_zoh(&control_only, ts)?;
    let (q, r) = standard_weights(n);
    let gain = dlqr(&dss, &q, &r)?;
    Ok(LoopSpec {
        plant,
        n_controls: 1,
        x0,
        feedback: gain.k,
        input_memory: None,
        ts,
        horizon,
        q_weight: 1.0,
        r_weight: 1e-3,
        disturbance: DisturbanceKind::None,
    })
}

/// Serializes per-phase wall-clock durations (e.g. from
/// [`ecl_telemetry::RecordingSink::span_durations`]) as a small JSON
/// document for the `results/BENCH_*.json` artifacts:
///
/// ```json
/// {"experiment":"exp10","phases":[{"name":"design","wall_ns":12345}],
///  "total_wall_ns":12345}
/// ```
pub fn bench_json(experiment: &str, phases: &[(String, u64)]) -> String {
    let escape = |s: &str| -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    };
    let mut s = format!("{{\"experiment\":\"{}\",\"phases\":[", escape(experiment));
    for (i, (name, ns)) in phases.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"wall_ns\":{ns}}}",
            escape(name)
        ));
    }
    let total: u64 = phases.iter().map(|(_, ns)| ns).sum();
    s.push_str(&format!("],\"total_wall_ns\":{total}}}\n"));
    s
}

/// Writes an experiment artifact under `results/`, creating the
/// directories on its path if needed. Wall-clock sidecars go to
/// `timing/<name>`, a directory the repository does not track: only
/// deterministic artifacts are committed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_result(file_name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::Path::new("results").join(file_name);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["name", "value"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn split_scenario_is_schedulable() {
        let s = split_scenario(
            2,
            1,
            TimeNs::from_millis(1),
            TimeNs::from_micros(100),
            TimeNs::from_millis(2),
        )
        .unwrap();
        let sched = ecl_aaa::adequation(
            &s.alg,
            &s.arch,
            &s.db,
            ecl_aaa::AdequationOptions::default(),
        )
        .unwrap();
        sched.validate(&s.alg, &s.arch).unwrap();
        for &op in s.io.sensors.iter().chain(&s.io.actuators) {
            assert_eq!(sched.slot(op).unwrap().proc, s.io_proc);
        }
        assert_eq!(sched.slot(s.io.stages[0]).unwrap().proc, s.compute_proc);
    }

    #[test]
    fn bench_json_shape() {
        let j = bench_json(
            "exp9",
            &[("translate".into(), 10), ("adequation".into(), 32)],
        );
        assert!(j.starts_with("{\"experiment\":\"exp9\""));
        assert!(j.contains("{\"name\":\"translate\",\"wall_ns\":10}"));
        assert!(j.contains("{\"name\":\"adequation\",\"wall_ns\":32}"));
        assert!(j.trim_end().ends_with("\"total_wall_ns\":42}"));
        let escaped = bench_json("a\"b\\c", &[]);
        assert!(escaped.contains("a\\\"b\\\\c"));
    }

    #[test]
    fn worker_invariant_rejects_a_worker_dependent_artifact() {
        let err = worker_invariant(Ok, |&workers| workers).expect_err("artifacts differ");
        let msg = err.to_string();
        assert!(
            msg.contains("1-worker") && msg.contains("4-worker"),
            "the failure must name both worker counts: {msg}"
        );
    }

    #[test]
    fn worker_invariant_returns_the_four_worker_output() {
        use std::cell::Cell;
        use std::rc::Rc;
        // A live output holds `alive` up; the 4-worker run must start
        // with the 1-worker output already dropped.
        struct Output(usize, Rc<Cell<usize>>);
        impl Drop for Output {
            fn drop(&mut self) {
                self.1.set(self.1.get() - 1);
            }
        }
        let alive = Rc::new(Cell::new(0));
        let (out, artifact) = worker_invariant(
            |workers| {
                assert_eq!(alive.get(), 0, "an earlier output is still alive");
                alive.set(alive.get() + 1);
                Ok(Output(workers, Rc::clone(&alive)))
            },
            |_| "same bytes",
        )
        .unwrap();
        assert_eq!((out.0, artifact), (4, "same bytes"));
    }

    #[test]
    fn kernel_work_probe_is_allocation_free_and_repeats() {
        let work = KernelWork::probe().unwrap();
        assert_eq!(work.hot_allocs, 0);
        assert!(work.rhs_evals > 0 && work.events_delivered > 0);
        assert_eq!(KernelWork::probe().unwrap(), work);
        assert!(work.to_string().starts_with("kernel_work: rhs_evals="));
    }

    #[test]
    fn dc_motor_loop_runs() {
        let spec = dc_motor_loop(0.5).unwrap();
        let r = ecl_core::cosim::run_ideal(&spec).unwrap();
        assert!(r.cost > 0.0);
    }
}
