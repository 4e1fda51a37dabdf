//! E13-EXEC — the concurrent virtual executive cross-validated against
//! the graph of delays.
//!
//! The paper's graph of delays *predicts* the instants a distributed
//! implementation samples and actuates at; the `ecl-exec` virtual
//! machine *measures* them, by actually running the generated
//! executives — one thread per ECU, rendezvous channels per bus — on a
//! virtual clock. This experiment diffs the two on the quarter-car
//! case study of E10 (3 ECUs on one CAN bus) and demands **zero
//! divergence**, twice:
//!
//! * nominally, over 60 control periods;
//! * under a non-trivial fault plan (frame losses healed by bounded
//!   retransmission), over the same 60 periods, with the *same* plan
//!   driving the VM's channels and the delay graph's `FaultyDelay`
//!   blocks.
//!
//! A fleet sweep with `validate_executive` then repeats the diff over
//! perturbed DC-motor implementations, on 1 worker and then on 4; the
//! binary asserts both sweeps produce the same bytes, so
//! `results/BENCH_exp13.json` carries no wall-clock content and
//! `scripts/check.sh` diffs it against the committed copy.

use ecl_aaa::{codegen, ArchitectureGraph, Schedule, TimeNs};
use ecl_bench::fleet::{run_sweep, FaultAxes, SweepConfig};
use ecl_bench::{
    dc_motor_loop, quarter_car_case, retries_only_plan, standard_split, worker_invariant,
    write_result,
};
use ecl_core::faults::FaultPlan;
use ecl_core::xval;
use ecl_exec::ExecOptions;

/// How many control periods the executives run for (>= 50 per the
/// experiment's acceptance bar).
const PERIODS: u32 = 60;

/// Runs the generated executives on the VM and diffs the measured
/// completion instants against the delay-graph prediction.
fn cross_validate(
    alg: &ecl_aaa::AlgorithmGraph,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
    period: TimeNs,
    faults: Option<&FaultPlan>,
) -> Result<xval::ValidationReport, Box<dyn std::error::Error>> {
    let generated = codegen::generate(schedule, alg, arch)?;
    assert!(
        codegen::check_deadlock_free(&generated.executives).is_free(),
        "quarter-car executives must be deadlock-free"
    );
    let opts = ExecOptions {
        period,
        periods: PERIODS,
        faults,
    };
    let measured = ecl_exec::run(&generated, arch, schedule, &opts)?;
    let predicted = xval::predict_op_completions(alg, arch, schedule, period, PERIODS, faults)?;
    Ok(xval::validate_schedule(
        &measured.timeline(),
        &predicted,
        alg,
    )?)
}

fn sweep_config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: 16,
        workers,
        validate_executive: true,
        faults: FaultAxes {
            frame_loss_rates: vec![0.0, 0.10],
            link_outage_rates: vec![0.0, 0.15],
            proc_dropout_rates: vec![0.0, 0.01],
            ..FaultAxes::default()
        },
        ..SweepConfig::default()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E13-EXEC — virtual executive vs graph of delays ({PERIODS} periods)\n");

    let (alg, arch, _, schedule, period) = quarter_car_case()?;

    // Gate 1: nominal execution measures exactly the modeled instants.
    let nominal = cross_validate(&alg, &arch, &schedule, period, None)?;
    println!("== nominal cross-validation ==\n{}", nominal.render());
    assert!(
        nominal.is_exact(),
        "nominal VM run diverged from the graph of delays:\n{}",
        nominal.render()
    );

    // Gate 2: the same fault plan drives both models to the same instants.
    let (seed, plan, retries) = retries_only_plan(&schedule, &arch, PERIODS)?;
    println!("fault plan: seed {seed}, {retries} retransmission(s), no drop, no dead ECU\n");
    let faulty = cross_validate(&alg, &arch, &schedule, period, Some(&plan))?;
    println!("== faulty cross-validation ==\n{}", faulty.render());
    assert!(
        faulty.is_exact(),
        "faulty VM run diverged from the graph of delays:\n{}",
        faulty.render()
    );

    // Gate 3: worker invariance of the self-validating fleet sweep.
    let (spec, base) = (dc_motor_loop(0.3)?, standard_split()?);
    let (out, _) = worker_invariant(
        |workers| Ok(run_sweep(&spec, &base, &sweep_config(workers))?),
        |out| (out.summary.render(), out.summary.to_json()),
    )?;
    println!("1-worker vs 4-worker validated sweep: byte-identical");
    let summary = out.summary;
    let validation = summary
        .validation
        .expect("sweep ran with validate_executive");
    println!(
        "sweep validation: {} scenarios, {} exact, max divergence {} ns\n",
        validation.validated, validation.exact, validation.max_divergence_ns
    );

    let md = format!(
        "E13-EXEC — virtual executive vs graph of delays\n\n\
         == nominal cross-validation ==\n{}\n\
         == faulty cross-validation (seed {seed}, {retries} retransmissions) ==\n{}\n\
         == validated fleet sweep ==\n{}",
        nominal.render(),
        faulty.render(),
        summary.render()
    );
    let report_path = write_result("exp13_executive.txt", &md)?;

    // The machine-readable artifact: wall-clock-free and worker-count
    // free, so it can be diffed against the committed copy.
    let bench = format!(
        "{{\"experiment\":\"exp13_executive\",\
         \"periods\":{PERIODS},\
         \"nominal_exact\":{},\
         \"fault_seed\":{seed},\
         \"fault_retries\":{retries},\
         \"faulty_exact\":{},\
         \"sweep_validated\":{},\
         \"sweep_exact\":{},\
         \"sweep_max_divergence_ns\":{}}}\n",
        nominal.is_exact(),
        faulty.is_exact(),
        validation.validated,
        validation.exact,
        validation.max_divergence_ns,
    );
    let bench_path = write_result("BENCH_exp13.json", &bench)?;
    println!(
        "wrote {} and {}",
        report_path.display(),
        bench_path.display()
    );
    Ok(())
}
