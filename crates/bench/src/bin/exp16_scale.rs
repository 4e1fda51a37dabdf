//! E16-SCALE — the fleet at 10⁵ scenarios: allocation-free sim-kernel
//! hot loop, ideal-run memoization and batched work claiming.
//!
//! Runs a 100 000-scenario sweep of the standard DC-motor split loop
//! (light pipeline: no fault axes, no executive validation, no static
//! verification, no traces) with the fleet profiler on, at 1 worker and
//! then at 4, and checks the claims that let the sweep reach this size:
//!
//! * **Ideal-run memoization** — the stroboscopic reference is pure in
//!   the loop spec and the sweep varies only its sampling period, so the
//!   `IdealRunCache` answers all but a handful of the 10⁵ lookups from
//!   memory. Asserted: one lookup per scenario, at most one miss per
//!   period scale.
//! * **Allocation-free hot loop** — the engine's
//!   [`ecl_sim::EngineStats::hot_allocs`] counter stays 0 across the
//!   sweep's co-simulation flavours ([`KernelWork::probe`]).
//! * **Attribution** — at least 95% of worker busy time falls in named
//!   profiler phases, at both worker counts.
//!
//! Artifacts follow the E15 split:
//!
//! * **Deterministic** — `results/exp16_scale.txt`, a *digest* report
//!   (FNV-64 of the rendered summary, the JSON summary and the merged
//!   histogram, the order-invariant cache/memo counters and the probe's
//!   `kernel_work:` counters). The full 100k-row report would be
//!   megabytes; its digests pin the same bytes. The binary asserts the
//!   report is the same at 1 and 4 workers, and `scripts/check.sh`
//!   diffs it against the committed copy, so a change in the work the
//!   kernel or the memos do fails the gate.
//! * **Sidecar** — `results/timing/PROFILE_exp16.json` (per-phase
//!   wall-clock attribution) and `results/timing/BENCH_exp16.json`
//!   (throughput and memo evidence) of the 4-worker run, untracked.

use ecl_bench::fleet::{run_sweep, SweepConfig, SweepOutput};
use ecl_bench::{
    phase_mean_ns, scale_loop, standard_split, sweep_digest, worker_invariant, write_result,
    KernelWork,
};
use ecl_telemetry::{Phase, ProfileReport};

/// Scenario count: two orders of magnitude past E11-MC's 64.
const SCENARIOS: usize = 100_000;

fn config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: SCENARIOS,
        workers,
        trace_scenarios: 0,
        profile: true,
        ..SweepConfig::default()
    }
}

/// The deterministic digest report (the same at any worker count).
fn digest_report(out: &SweepOutput, work: &KernelWork) -> String {
    format!(
        "E16-SCALE deterministic digest (identical at 1 and 4 workers)\n\
         {}\
         schedule_cache: hits={} misses={}\n\
         ideal_memo: hits={} misses={}\n\
         {work}\n",
        sweep_digest(out),
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.ideal_hits,
        out.ideal_misses,
    )
}

/// Wall-clock evidence sidecar (never committed).
fn bench_json(out: &SweepOutput, profile: &ProfileReport) -> String {
    let wall_s = profile.wall_ns as f64 / 1e9;
    let throughput = out.summary.scenarios.len() as f64 / wall_s;
    format!(
        "{{\"experiment\":\"exp16_scale\",\
         \"scenarios\":{},\
         \"workers\":{},\
         \"wall_ns\":{},\
         \"scenarios_per_s\":{throughput:.1},\
         \"ideal_mean_ns\":{:.1},\
         \"ideal_hits\":{},\"ideal_misses\":{},\
         \"cache_hits\":{},\"cache_misses\":{}}}\n",
        out.summary.scenarios.len(),
        profile.workers.len(),
        profile.wall_ns,
        phase_mean_ns(profile, Phase::IdealSim),
        out.ideal_hits,
        out.ideal_misses,
        out.summary.cache_hits,
        out.summary.cache_misses,
    )
}

/// Assertions made at every worker count.
fn check(out: &SweepOutput) {
    assert_eq!(out.summary.scenarios.len(), SCENARIOS);
    assert_eq!(
        out.ideal_hits + out.ideal_misses,
        SCENARIOS as u64,
        "one ideal-memo lookup per scenario"
    );
    assert!(
        out.ideal_misses <= config(1).period_scales.len() as u64,
        "at most one ideal run per period scale, got {} misses",
        out.ideal_misses
    );
    let profile = out.profile.as_ref().expect("profiling was requested");
    let fraction = profile.attributed_fraction();
    println!(
        "{} worker(s): {:.2}% of busy time attributed to named phases",
        profile.workers.len(),
        fraction * 100.0
    );
    assert!(
        fraction >= 0.95,
        "only {:.2}% of busy time attributed to named phases",
        fraction * 100.0
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E16-SCALE — 100k-scenario fleet sweep (memoized ideal runs, alloc-free kernel)\n");

    let work = KernelWork::probe()?;
    assert_eq!(
        work.hot_allocs, 0,
        "the event hot path allocated {} times",
        work.hot_allocs
    );
    println!("{work}");

    let (spec, base) = (scale_loop()?, standard_split()?);
    let (out, report) = worker_invariant(
        |workers| {
            let out = run_sweep(&spec, &base, &config(workers))?;
            check(&out);
            Ok(out)
        },
        |out| digest_report(out, &work),
    )?;
    println!("1-worker vs 4-worker sweep: digest reports byte-identical");

    let profile = out.profile.as_ref().expect("profiling was requested");
    let wall_s = profile.wall_ns as f64 / 1e9;
    println!(
        "{} scenarios in {wall_s:.1} s on {} worker(s): {:.0} scenarios/s",
        out.summary.scenarios.len(),
        profile.workers.len(),
        out.summary.scenarios.len() as f64 / wall_s,
    );
    println!(
        "ideal memo: {} hits / {} misses; ideal co-simulation mean {:.1} us",
        out.ideal_hits,
        out.ideal_misses,
        phase_mean_ns(profile, Phase::IdealSim) / 1e3,
    );
    println!("{}", profile.render());

    let report_path = write_result("exp16_scale.txt", &report)?;
    let profile_path = write_result("timing/PROFILE_exp16.json", &profile.to_json())?;
    let bench_path = write_result("timing/BENCH_exp16.json", &bench_json(&out, profile))?;
    println!(
        "wrote {}, {} and {}",
        report_path.display(),
        profile_path.display(),
        bench_path.display()
    );
    Ok(())
}
