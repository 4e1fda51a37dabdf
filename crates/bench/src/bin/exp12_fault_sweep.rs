//! E12-FAULT — deterministic fault-injection sweep over the fleet.
//!
//! Runs 32 perturbed implementations of the DC-motor loop with three
//! fault classes layered on top of the usual WCET/period/policy axes:
//! communication frame loss with bounded retransmission, transient link
//! outage windows, and permanent processor dropout. Every scenario with
//! faults is compared against its fault-free twin on the same schedule,
//! producing the degradation table of the sweep report.
//!
//! The sweep runs on 1 worker and then on 4, and the binary asserts
//! that both produce the same report and the same
//! `results/BENCH_exp12.json`, which therefore contains *no* wall-clock
//! content; `scripts/check.sh` diffs both against the committed copies.
//! That a trivial fault plan reproduces the nominal run bit for bit is
//! pinned by the `cosim` and `delays` unit tests.

use ecl_bench::fleet::{run_sweep, FaultAxes, SweepConfig};
use ecl_bench::{dc_motor_loop, standard_split, worker_invariant, write_result};
use ecl_core::report::SweepSummary;

fn fault_config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: 32,
        workers,
        faults: FaultAxes {
            frame_loss_rates: vec![0.0, 0.10, 0.30],
            link_outage_rates: vec![0.0, 0.15],
            proc_dropout_rates: vec![0.0, 0.01],
            ..FaultAxes::default()
        },
        ..SweepConfig::default()
    }
}

/// The machine-readable artifact. Deliberately free of wall-clock
/// content *and* of the worker count: it is compared across worker
/// counts and diffed against the committed copy.
fn bench_json(summary: &SweepSummary) -> String {
    format!(
        "{{\"experiment\":\"exp12_fault_sweep\",\
         \"scenarios\":{},\"faulty_scenarios\":{},\
         \"survivable_fraction\":{},\
         \"robustness_margin\":{:.6},\
         \"cache_hits\":{},\"cache_misses\":{}}}\n",
        summary.scenarios.len(),
        summary.degradations.len(),
        summary
            .survivable_fraction()
            .map_or("null".to_string(), |f| format!("{f:.6}")),
        summary.robustness_margin(),
        summary.cache_hits,
        summary.cache_misses,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E12-FAULT — deterministic fault-injection sweep (32 scenarios)\n");

    let (spec, base) = (dc_motor_loop(0.3)?, standard_split()?);
    let (out, (md, _, _)) = worker_invariant(
        |workers| Ok(run_sweep(&spec, &base, &fault_config(workers))?),
        |out| {
            (
                out.summary.render(),
                out.summary.to_json(),
                out.actuation_hist.clone(),
            )
        },
    )?;
    println!("1-worker vs 4-worker fault sweep: byte-identical");
    let summary = out.summary;
    println!("{md}");
    println!(
        "{} of {} scenarios injected faults, survivable fraction {}",
        summary.degradations.len(),
        summary.scenarios.len(),
        summary
            .survivable_fraction()
            .map_or("n/a".to_string(), |f| format!("{f:.4}")),
    );

    let report_path = write_result("exp12_fault_sweep.txt", &md)?;
    let bench_path = write_result("BENCH_exp12.json", &bench_json(&summary))?;
    println!(
        "wrote {} and {}",
        report_path.display(),
        bench_path.display()
    );
    Ok(())
}
