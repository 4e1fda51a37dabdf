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
//! The sweep runs on 1 worker and then on 4, and the binary asserts
//! both produce the same bytes, so `results/BENCH_exp14.json` carries
//! no wall-clock content and `scripts/check.sh` diffs it against the
//! committed copy.

use ecl_aaa::{codegen, ArchitectureGraph, Schedule, TimeNs};
use ecl_bench::fleet::{run_sweep, SweepConfig};
use ecl_bench::{
    dc_motor_loop, quarter_car_case, retries_only_plan, standard_split, worker_invariant,
    write_result,
};
use ecl_core::faults::FaultPlan;
use ecl_exec::ExecOptions;
use ecl_verify::{LatencyBoundReport, Severity, VerifyReport};

/// How many control periods the virtual executives run for.
const PERIODS: u32 = 60;

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
    let (seed, plan, retries) = retries_only_plan(&schedule, &arch, PERIODS)?;
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
    let (spec, base) = (dc_motor_loop(0.3)?, standard_split()?);
    let (out, _) = worker_invariant(
        |workers| Ok(run_sweep(&spec, &base, &sweep_config(workers))?),
        |out| (out.summary.render(), out.summary.to_json()),
    )?;
    println!("1-worker vs 4-worker verified sweep: byte-identical");
    let summary = out.summary;
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
    // free, so it can be diffed against the committed copy.
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
