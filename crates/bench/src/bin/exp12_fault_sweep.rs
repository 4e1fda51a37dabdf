//! E12-FAULT — deterministic fault-injection sweep over the fleet.
//!
//! Runs 32 perturbed implementations of the DC-motor loop with three
//! fault classes layered on top of the usual WCET/period/policy axes:
//! communication frame loss with bounded retransmission, transient link
//! outage windows, and permanent processor dropout. Every scenario with
//! faults is compared against its fault-free twin on the same schedule,
//! producing the degradation table of the sweep report.
//!
//! Two determinism gates hang off this binary:
//!
//! * **Worker invariance** — the sweep runs on 1 worker and then on 4,
//!   and the binary asserts that both produce the same report and the
//!   same `results/BENCH_exp12.json`, which therefore contains *no*
//!   wall-clock content; `scripts/check.sh` diffs both against the
//!   committed copies.
//! * **Zero-rate reproduction** — a sweep whose fault axes are all zero
//!   must reproduce the fault-free E11-MC report byte-for-byte; when
//!   `results/exp11_monte_carlo.txt` exists (E11 ran earlier), the
//!   reproduction is diffed against it.

use ecl_bench::fleet::{run_sweep, FaultAxes, SweepConfig, SweepOutput};
use ecl_bench::{dc_motor_loop, standard_split, worker_invariant, write_result};
use ecl_core::report::SweepSummary;

/// The E11-MC sweep configuration, reused verbatim for the zero-rate
/// reproduction check.
fn e11_config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: 64,
        workers,
        trace_scenarios: 2,
        ..SweepConfig::default()
    }
}

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

fn sweep(config: &SweepConfig, horizon: f64) -> Result<SweepOutput, Box<dyn std::error::Error>> {
    Ok(run_sweep(
        &dc_motor_loop(horizon)?,
        &standard_split()?,
        config,
    )?)
}

/// The machine-readable artifact. Deliberately free of wall-clock
/// content *and* of the worker count: it is compared across worker
/// counts and diffed against the committed copy.
fn bench_json(summary: &SweepSummary, e11_reproduced: Option<bool>) -> String {
    format!(
        "{{\"experiment\":\"exp12_fault_sweep\",\
         \"scenarios\":{},\"faulty_scenarios\":{},\
         \"survivable_fraction\":{},\
         \"robustness_margin\":{:.6},\
         \"cache_hits\":{},\"cache_misses\":{},\
         \"e11_zero_rate_reproduced\":{}}}\n",
        summary.scenarios.len(),
        summary.degradations.len(),
        summary
            .survivable_fraction()
            .map_or("null".to_string(), |f| format!("{f:.6}")),
        summary.robustness_margin(),
        summary.cache_hits,
        summary.cache_misses,
        e11_reproduced.map_or("null".to_string(), |b| b.to_string()),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E12-FAULT — deterministic fault-injection sweep (32 scenarios)\n");

    // Gate 2 first: a zero-rate sweep must reproduce E11-MC's bytes.
    let e11_path = std::path::Path::new("results/exp11_monte_carlo.txt");
    let e11_reproduced = if e11_path.exists() {
        let expected = std::fs::read_to_string(e11_path)?;
        let zero = sweep(&e11_config(2), 0.5)?;
        let reproduced = zero.summary.render() == expected;
        assert!(
            reproduced,
            "zero-rate fault axes must reproduce the E11-MC report bytes"
        );
        println!("zero-rate reproduction of E11-MC: byte-identical");
        Some(reproduced)
    } else {
        println!(
            "zero-rate reproduction of E11-MC: skipped ({} absent)",
            e11_path.display()
        );
        None
    };

    // Gate 1: worker invariance of the faulty sweep.
    let (out, (md, _, _)) = worker_invariant(
        |workers| sweep(&fault_config(workers), 0.3),
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
    let bench_path = write_result("BENCH_exp12.json", &bench_json(&summary, e11_reproduced))?;
    println!(
        "wrote {} and {}",
        report_path.display(),
        bench_path.display()
    );
    Ok(())
}
