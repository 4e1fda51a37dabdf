//! E15-PROFILE — fleet profiler: per-worker, per-phase attribution of
//! sweep wall time.
//!
//! Runs a 256-scenario sweep with every pipeline stage enabled (fault
//! axes, executive cross-validation, static verification, telemetry
//! traces) and the fleet profiler on, then splits the artifacts in two:
//!
//! * **Deterministic** — `results/exp15_profile.txt` (the sweep report)
//!   must be byte-identical for any worker count, profiling on or off.
//!   The binary runs 1 and then 4 workers and asserts identity — with
//!   profiling *on* both times, so the sidecar provably does not leak
//!   into the report — and `scripts/check.sh` diffs the report against
//!   the committed copy.
//! * **Sidecar** — `results/timing/PROFILE_exp15.json` / `.txt` /
//!   `.trace.json` and `results/timing/BENCH_exp15.json` carry the
//!   wall-clock attribution of the 4-worker run: per-phase totals and
//!   latency histograms, per-worker utilization/idle/claim counters,
//!   and a worker-lane Chrome trace mergeable with the per-scenario
//!   simulation traces. The profiler records phase spans and task
//!   windows only; the sidecar's schedule-cache counts come from the
//!   memo tables through the sweep summary. The repository does not
//!   track them.
//!
//! The binary asserts the two headline claims of the profiler: at least
//! 95% of worker busy time is attributed to named phases (on one worker,
//! busy time is wall time minus pool overhead), and the fault-axis sweep
//! reports `cache_hits > 0` (quantized WCET tables make scenarios repeat
//! adequation inputs).

use ecl_bench::fleet::{run_sweep, FaultAxes, SweepConfig, SweepOutput};
use ecl_bench::{dc_motor_loop, standard_split, worker_invariant, write_result};
use ecl_telemetry::{trace, ProfileReport};

/// Attribution threshold asserted by the experiment.
const ATTRIBUTION_FLOOR: f64 = 0.95;

fn config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: 256,
        workers,
        trace_scenarios: 8,
        faults: FaultAxes {
            frame_loss_rates: vec![0.0, 0.10, 0.30],
            link_outage_rates: vec![0.0, 0.15],
            proc_dropout_rates: vec![0.0, 0.01],
            ..FaultAxes::default()
        },
        validate_executive: true,
        verify_static: true,
        profile: true,
        ..SweepConfig::default()
    }
}

/// The machine-readable sidecar: wall-clock attribution plus the
/// deterministic cache statistics of the summary (each distinct digest
/// is one miss). NOT diffed across worker counts.
fn bench_json(out: &SweepOutput, profile: &ProfileReport) -> String {
    let mut phases = String::new();
    for (i, p) in profile.phases.iter().enumerate() {
        if i > 0 {
            phases.push(',');
        }
        phases.push_str(&format!(
            "{{\"phase\":\"{}\",\"count\":{},\"total_ns\":{},\"share\":{:.6}}}",
            p.phase.name(),
            p.count,
            p.total_ns,
            p.total_ns as f64 / profile.attributed_ns().max(1) as f64
        ));
    }
    let fraction = profile.attributed_fraction();
    format!(
        "{{\"experiment\":\"exp15_profile\",\
         \"scenarios\":{},\
         \"workers\":{},\
         \"wall_ns\":{},\
         \"busy_ns\":{},\
         \"attributed_ns\":{},\
         \"attributed_fraction\":{fraction:.6},\
         \"utilization\":{:.6},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_digests\":{},\
         \"phases\":[{phases}]}}\n",
        out.summary.scenarios.len(),
        profile.workers.len(),
        profile.wall_ns,
        profile.busy_ns(),
        profile.attributed_ns(),
        profile.utilization(),
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.summary.cache_misses,
    )
}

fn check(out: &SweepOutput) {
    let profile = out.profile.as_ref().expect("profiling was requested");
    let fraction = profile.attributed_fraction();
    assert!(
        fraction >= ATTRIBUTION_FLOOR,
        "only {:.2}% of busy time attributed to named phases (need >= {:.0}%)",
        fraction * 100.0,
        ATTRIBUTION_FLOOR * 100.0
    );
    assert!(
        out.summary.cache_hits > 0,
        "fault-axis sweep must report cache hits (quantized WCET tables)"
    );
    assert_eq!(
        out.summary.cache_hits + out.summary.cache_misses,
        out.summary.scenarios.len() as u64,
        "one schedule-cache lookup per scenario"
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "E15-PROFILE — per-worker, per-phase attribution of sweep wall time (256 scenarios)\n"
    );

    let (spec, base) = (dc_motor_loop(0.3)?, standard_split()?);
    let (out, report) = worker_invariant(
        |workers| {
            let out = run_sweep(&spec, &base, &config(workers))?;
            check(&out);
            Ok(out)
        },
        |out| {
            (
                out.summary.render(),
                out.summary.to_json(),
                out.actuation_hist.clone(),
                out.traces.clone(),
            )
        },
    )?;
    println!("1-worker vs 4-worker profiled sweep: deterministic artifacts byte-identical");

    let profile = out.profile.as_ref().expect("profiling was requested");
    let rendered = profile.render();
    println!("{rendered}");
    println!("{}", profile.gantt(96));

    // Deterministic artifact (diffed against the committed copy).
    let report_path = write_result("exp15_profile.txt", &report.0)?;

    // Wall-clock sidecars.
    let profile_json_path = write_result("timing/PROFILE_exp15.json", &profile.to_json())?;
    let mut profile_text = rendered;
    profile_text.push('\n');
    profile_text.push_str(&profile.gantt(96));
    let profile_text_path = write_result("timing/PROFILE_exp15.txt", &profile_text)?;
    // Worker lanes + the traced scenarios' simulation events in one
    // Chrome trace: the sim-kernel counters land in the same timeline as
    // the profiler's wall-clock lanes.
    let mut events = profile.to_events();
    events.extend(out.traces.events().iter().cloned());
    let trace_path = write_result(
        "timing/PROFILE_exp15.trace.json",
        &trace::chrome_trace(&events),
    )?;
    let bench_path = write_result("timing/BENCH_exp15.json", &bench_json(&out, profile))?;

    println!(
        "wrote {}, {}, {}, {} and {}",
        report_path.display(),
        profile_json_path.display(),
        profile_text_path.display(),
        trace_path.display(),
        bench_path.display()
    );
    Ok(())
}
