//! E14-VERIFY — the static verifier cross-validated against the dynamic
//! stack.
//!
//! `ecl-verify` *proves* properties from the artifacts alone: schedule
//! feasibility, sound static `Ls`/`La` bounds (paper eq. 1/2, nominal
//! and under bounded-retry fault plans), executive happens-before
//! safety, and delay-graph structure. This experiment turns the
//! soundness claim into a measured gate, twice:
//!
//! * on the E10/E13 quarter-car deployment (3 ECUs on one CAN bus): the
//!   verifier must report **zero errors**, and every completion instant
//!   the `ecl-exec` virtual machine measures — nominally and under a
//!   retries-only fault plan — must stay at or below its static bound;
//! * on a fleet sweep of randomly perturbed DC-motor implementations
//!   (`SweepConfig::verify_static`): every scenario's schedule verifies
//!   with zero errors and the measured co-simulation latencies
//!   (including traced scenarios) never exceed the
//!   static bounds.
//!
//! The usual worker-invariance gate applies: `ECL_FLEET_WORKERS=<n>`
//! runs the sweep on exactly `n` workers and CI diffs
//! `results/BENCH_exp14.json` across counts, so the artifact carries no
//! wall-clock content. Without the variable, both counts run in-process
//! and the binary asserts byte identity.

use ecl_aaa::{adequation, codegen, AdequationOptions, ArchitectureGraph, Schedule, TimeNs};
use ecl_bench::fleet::{run_sweep, workers_from_env, SweepConfig, SweepOutput};
use ecl_bench::{dc_motor_loop, split_scenario, write_result};
use ecl_control::plants;
use ecl_core::faults::{CommFault, FaultConfig, FaultPlan};
use ecl_core::translate::{uniform_timing, ControlLawSpec};
use ecl_exec::ExecOptions;
use ecl_verify::{LatencyBoundReport, Severity, VerifyReport};

/// How many control periods the virtual executives run for.
const PERIODS: u32 = 60;

/// The E10/E13 quarter-car deployment: suspension law on 3 ECUs sharing
/// a CAN bus, with placement interdictions pinning I/O to its ECU.
#[allow(clippy::type_complexity)]
fn quarter_car_case() -> Result<
    (
        ecl_aaa::AlgorithmGraph,
        ArchitectureGraph,
        ecl_aaa::TimingDb,
        Schedule,
        TimeNs,
    ),
    Box<dyn std::error::Error>,
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

/// Scans fault-plan seeds for a retries-only plan (at least one
/// retransmission, no drop, no dead ECU) — the regime where the static
/// fault-aware bounds are sound.
fn retries_only_plan(
    schedule: &Schedule,
    arch: &ArchitectureGraph,
) -> Result<(u64, FaultPlan, u32), Box<dyn std::error::Error>> {
    for seed in 0..4096u64 {
        let config = FaultConfig {
            seed,
            frame_loss_rate: 0.05,
            max_retries: 3,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&config, schedule, arch, PERIODS)?;
        let n_procs = arch.processors().count();
        if (0..n_procs).any(|p| plan.proc_dead_from(p).is_some()) {
            continue;
        }
        let mut retries = 0u32;
        let mut dropped = false;
        for i in 0..schedule.comms().len() {
            for k in 0..PERIODS {
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
    Err("no retries-only fault plan in 4096 seeds".into())
}

/// Executes the generated code on the virtual machine and returns the
/// smallest `static bound − measured completion offset` margin across
/// every sensor/actuator completion, in ns. Soundness demands a
/// non-negative result.
fn vm_soundness_margin(
    alg: &ecl_aaa::AlgorithmGraph,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
    period: TimeNs,
    faults: Option<&FaultPlan>,
    bounds: &LatencyBoundReport,
) -> Result<i64, Box<dyn std::error::Error>> {
    let generated = codegen::generate(schedule, alg, arch)?;
    let opts = ExecOptions {
        period,
        periods: PERIODS,
        faults,
    };
    let measured = ecl_exec::run(&generated, arch, schedule, &opts)?;
    let mut margin = i64::MAX;
    for r in &measured.ops {
        let Some(b) = bounds.bound_for(r.op) else {
            continue; // only I/O operations carry Ls/La bounds
        };
        let offset = r.end.as_nanos() - period.as_nanos() * i64::from(r.period);
        margin = margin.min(b.faulty.as_nanos() - offset);
    }
    assert!(margin < i64::MAX, "the VM measured no I/O completion");
    Ok(margin)
}

fn verify_case(
    alg: &ecl_aaa::AlgorithmGraph,
    arch: &ArchitectureGraph,
    db: &ecl_aaa::TimingDb,
    schedule: &Schedule,
    period: TimeNs,
    faults: Option<&FaultPlan>,
) -> Result<VerifyReport, Box<dyn std::error::Error>> {
    let report = ecl_verify::verify(alg, arch, db, schedule, period, faults)?;
    assert!(
        report.is_clean(),
        "static verifier flagged the quarter-car schedule:\n{}",
        report.render()
    );
    Ok(report)
}

fn sweep_config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: 16,
        workers,
        trace_scenarios: 2,
        verify_static: true,
        ..SweepConfig::default()
    }
}

fn sweep(workers: usize) -> Result<SweepOutput, Box<dyn std::error::Error>> {
    let base = split_scenario(
        2,
        1,
        TimeNs::from_micros(200),
        TimeNs::from_micros(50),
        TimeNs::from_micros(500),
    )?;
    let spec = dc_motor_loop(0.3)?;
    Ok(run_sweep(&spec, &base, &sweep_config(workers))?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E14-VERIFY — static verifier vs measured execution ({PERIODS} periods)\n");

    let (alg, arch, db, schedule, period) = quarter_car_case()?;

    // Gate 1: the quarter-car schedule verifies with zero errors and the
    // nominal VM run never exceeds the static bounds.
    let nominal = verify_case(&alg, &arch, &db, &schedule, period, None)?;
    println!("== nominal verification ==\n{}", nominal.render());
    let nominal_bounds = nominal.bounds.as_ref().expect("bounds derived");
    let nominal_margin = vm_soundness_margin(&alg, &arch, &schedule, period, None, nominal_bounds)?;
    println!("nominal VM soundness margin: {nominal_margin} ns\n");
    assert!(
        nominal_margin >= 0,
        "a nominal VM completion exceeded its static bound by {} ns",
        -nominal_margin
    );

    // Gate 2: under a retries-only plan the fault-aware bounds still
    // dominate every measured completion.
    let (seed, plan, retries) = retries_only_plan(&schedule, &arch)?;
    println!("fault plan: seed {seed}, {retries} retransmission(s), no drop, no dead ECU\n");
    let faulty = verify_case(&alg, &arch, &db, &schedule, period, Some(&plan))?;
    let faulty_bounds = faulty.bounds.as_ref().expect("bounds derived");
    assert!(
        !faulty_bounds.drop_capable,
        "retries-only plan must keep the bounds sound"
    );
    assert!(faulty_bounds.retry_stretch > TimeNs::ZERO);
    let faulty_margin =
        vm_soundness_margin(&alg, &arch, &schedule, period, Some(&plan), faulty_bounds)?;
    println!("faulty VM soundness margin: {faulty_margin} ns\n");
    // Pinned at exactly zero: the per-cone retry stretch charges the
    // binding actuator only the retransmissions its own wait chains can
    // cross, so the bound is *tight* here — the plan-wide stretch it
    // replaced left this case 184us of slack.
    assert_eq!(
        faulty_margin, 0,
        "per-cone fault-aware bound must be tight for the quarter-car case \
         (negative: unsound; positive: regressed to a slack bound)"
    );

    // Gate 3: worker invariance of the self-verifying fleet sweep over
    // randomly perturbed implementations.
    let summary = match workers_from_env()? {
        Some(workers) => {
            println!("verified sweep on {workers} worker(s) (ECL_FLEET_WORKERS)");
            sweep(workers)?.summary
        }
        None => {
            let serial = sweep(1)?;
            let parallel = sweep(4)?;
            assert!(
                serial.summary.render() == parallel.summary.render()
                    && serial.summary.to_json() == parallel.summary.to_json(),
                "1-worker and 4-worker verified sweeps must produce identical bytes"
            );
            println!("1-worker vs 4-worker verified sweep: byte-identical");
            serial.summary
        }
    };
    let verification = summary.verification.expect("sweep ran with verify_static");
    println!(
        "sweep verification: {} schedules, {} error(s), {} warning(s), worst margin {} ns\n",
        verification.verified,
        verification.errors,
        verification.warnings,
        verification.worst_margin_ns
    );
    assert_eq!(
        verification.errors, 0,
        "the static verifier flagged a sweep schedule"
    );
    assert!(
        verification.worst_margin_ns >= 0,
        "a measured sweep latency exceeded its static bound"
    );

    let md = format!(
        "E14-VERIFY — static verifier vs measured execution\n\n\
         == nominal verification ==\n{}\n\
         nominal VM soundness margin: {nominal_margin} ns\n\n\
         == faulty verification (seed {seed}, {retries} retransmissions) ==\n{}\n\
         faulty VM soundness margin: {faulty_margin} ns\n\n\
         == verified fleet sweep ==\n{}",
        nominal.render(),
        faulty.render(),
        summary.render()
    );
    let report_path = write_result("exp14_verify.txt", &md)?;

    // The machine-readable artifact: wall-clock-free and worker-count
    // free, so CI can diff the bytes across ECL_FLEET_WORKERS values.
    let bench = format!(
        "{{\"experiment\":\"exp14_verify\",\
         \"periods\":{PERIODS},\
         \"nominal_errors\":{},\
         \"nominal_warnings\":{},\
         \"nominal_la_bound_ns\":{},\
         \"nominal_vm_margin_ns\":{nominal_margin},\
         \"fault_seed\":{seed},\
         \"fault_retries\":{retries},\
         \"faulty_retry_stretch_ns\":{},\
         \"faulty_la_bound_ns\":{},\
         \"faulty_vm_margin_ns\":{faulty_margin},\
         \"sweep_verified\":{},\
         \"sweep_errors\":{},\
         \"sweep_warnings\":{},\
         \"sweep_worst_margin_ns\":{}}}\n",
        nominal.count(Severity::Error),
        nominal.count(Severity::Warn),
        nominal_bounds.max_actuation_bound().as_nanos(),
        faulty_bounds.retry_stretch.as_nanos(),
        faulty_bounds.max_actuation_bound().as_nanos(),
        verification.verified,
        verification.errors,
        verification.warnings,
        verification.worst_margin_ns,
    );
    let bench_path = write_result("BENCH_exp14.json", &bench)?;
    println!(
        "wrote {} and {}",
        report_path.display(),
        bench_path.display()
    );
    Ok(())
}
