//! E17-SCALE — the fleet at 10⁶ scenarios: scheduled-run memoization by
//! `(loop × schedule × fault-plan)` content digest.
//!
//! Runs a 1 000 000-scenario sweep of the standard DC-motor split loop
//! (light pipeline, fleet profiler on, both memos on as in the
//! benchmark and the daemon) at 1 worker and then at 4, and checks the
//! claims that push the fleet one order of magnitude past E16-SCALE:
//!
//! * **Scheduled-run memoization** — the graph-of-delays co-simulation
//!   is pure in `(loop spec, schedule, fault plan)`, and the sweep's
//!   quantized axes (WCET tables × policies × period scales) bound that
//!   key space to ≤ 96 digests. The `ScheduledRunCache` therefore
//!   answers all but ~10⁻⁴ of the 10⁶ lookups. Most never reach a memo
//!   view: a scenario whose class its lane has seen is served the
//!   class's row with one lookup in the lane's class table, and the
//!   lookups it skipped are counted per digest when the lane finishes.
//!   Asserted: one ideal and one scheduled lookup per scenario, misses
//!   bounded by the axis product, hit rate ≥ 99.9%.
//! * **Allocation-free hot loop** — [`ecl_sim::EngineStats::hot_allocs`]
//!   stays 0 across every co-simulation flavour the fleet uses,
//!   including the faulty replay ([`KernelWork::probe`]).
//! * **Allocations per scenario** — the sweep's steady-state allocations
//!   per scenario at 1 worker, counted by a global allocator: the
//!   allocations of a 2N-scenario sweep minus those of an N-scenario
//!   sweep, over N, so the one-off costs (memo misses, pool, buffers)
//!   cancel and the count is exact.
//!
//! Artifacts follow the E16 split:
//!
//! * **Deterministic** — `results/exp17_scale.txt`, a digest report
//!   (FNV-64 of the rendered summary, the JSON summary and the merged
//!   histogram, the order-invariant cache/memo counters and the probe's
//!   `kernel_work:` counters). The binary asserts the report is the same
//!   at 1 and 4 workers; the allocation line, measured at 1 worker only,
//!   follows it. `scripts/check.sh` diffs the file against the committed
//!   copy.
//! * **Sidecar** — `results/timing/PROFILE_exp17.json` (per-phase
//!   wall-clock attribution with the scheduled-memo lookup channel) and
//!   `results/timing/BENCH_exp17.json` (throughput, memo and race
//!   evidence) of the 4-worker run, untracked.

#[path = "../counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use ecl_bench::fleet::{run_sweep, SweepConfig, SweepOutput};
use ecl_bench::{
    phase_mean_ns, scale_loop, standard_split, sweep_digest, worker_invariant, write_result,
    KernelWork, SplitScenario,
};
use ecl_core::cosim::LoopSpec;
use ecl_telemetry::{Phase, ProfileReport};

/// Scenario count: one order of magnitude past E16-SCALE's 10⁵.
const SCENARIOS: usize = 1_000_000;

/// Minimum scheduled-memo hit rate: the quantized axes leave ≤ 96
/// distinct keys under 10⁶ lookups, so anything below 99.9% means the
/// digest is unstable.
const HIT_RATE_FLOOR: f64 = 0.999;

/// Scenarios of the shorter of the two sweeps whose allocation counts
/// give the steady-state allocations per scenario.
const ALLOC_SCENARIOS: usize = 10_000;

fn config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: SCENARIOS,
        workers,
        trace_scenarios: 0,
        profile: true,
        memoize_scheduled: true,
        memoize_reports: true,
        ..SweepConfig::default()
    }
}

/// Upper bound on distinct `(loop × schedule × fault-plan)` digests the
/// sweep can produce: every key is a pure function of the (quantized)
/// WCET table, the mapping policy and the period scale.
fn key_space(config: &SweepConfig) -> u64 {
    (config.wcet_tables * config.policies.len() * config.period_scales.len()) as u64
}

/// The deterministic digest report (the same at any worker count).
/// Race counters are interleaving-dependent and deliberately absent.
fn digest_report(out: &SweepOutput, work: &KernelWork) -> String {
    format!(
        "E17-SCALE deterministic digest (identical at 1 and 4 workers)\n\
         {}\
         schedule_cache: hits={} misses={}\n\
         ideal_memo: hits={} misses={}\n\
         scheduled_memo: hits={} misses={}\n\
         {work}\n",
        sweep_digest(out),
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.ideal_hits,
        out.ideal_misses,
        out.scheduled_hits,
        out.scheduled_misses,
    )
}

/// The golden allocation line: steady-state allocations per scenario of
/// a 1-worker sweep, `(A(2N) - A(N)) / N` over exp17's configuration.
/// One-worker sweeps claim in index order and miss at the same
/// scenarios, so both counts, and the line, repeat exactly.
fn allocation_line(
    spec: &LoopSpec,
    base: &SplitScenario,
) -> Result<String, Box<dyn std::error::Error>> {
    let sweep = |scenarios: usize| {
        let config = SweepConfig {
            scenario_count: scenarios,
            ..config(1)
        };
        allocations(|| run_sweep(spec, base, &config))
    };
    // The first sweep pays the process's one-time set-up.
    sweep(ALLOC_SCENARIOS).0?;
    let (_, short) = sweep(ALLOC_SCENARIOS);
    let (_, long) = sweep(2 * ALLOC_SCENARIOS);
    let per_scenario = (long - short) as f64 / ALLOC_SCENARIOS as f64;
    Ok(format!(
        "allocs_per_scenario: {per_scenario:.2} (1 worker, (A({}) - A({})) / {})",
        2 * ALLOC_SCENARIOS,
        ALLOC_SCENARIOS,
        ALLOC_SCENARIOS
    ))
}

/// Wall-clock evidence sidecar (never committed).
fn bench_json(out: &SweepOutput, profile: &ProfileReport) -> String {
    let wall_s = profile.wall_ns as f64 / 1e9;
    let throughput = out.summary.scenarios.len() as f64 / wall_s;
    let lookups = out.scheduled_hits + out.scheduled_misses;
    let hit_rate = out.scheduled_hits as f64 / lookups.max(1) as f64;
    format!(
        "{{\"experiment\":\"exp17_scale\",\
         \"scenarios\":{},\
         \"workers\":{},\
         \"wall_ns\":{},\
         \"scenarios_per_s\":{throughput:.1},\
         \"scheduled_hits\":{},\"scheduled_misses\":{},\
         \"scheduled_hit_rate\":{hit_rate:.6},\
         \"cosim_mean_ns\":{:.1},\
         \"ideal_hits\":{},\"ideal_misses\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\
         \"schedule_races\":{},\"ideal_races\":{},\"scheduled_races\":{},\
         \"class_hits\":{}}}\n",
        out.summary.scenarios.len(),
        profile.workers.len(),
        profile.wall_ns,
        out.scheduled_hits,
        out.scheduled_misses,
        phase_mean_ns(profile, Phase::Cosim),
        out.ideal_hits,
        out.ideal_misses,
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.races[0],
        out.races[1],
        out.races[2],
        out.class_hits,
    )
}

/// Assertions made at every worker count.
fn check(out: &SweepOutput) {
    assert_eq!(out.summary.scenarios.len(), SCENARIOS);
    assert_eq!(
        out.scheduled_hits + out.scheduled_misses,
        SCENARIOS as u64,
        "one scheduled-memo lookup per scenario"
    );
    let keys = key_space(&config(1));
    assert!(
        out.scheduled_misses <= keys,
        "at most one co-simulation per (table x policy x period scale) \
         key, got {} misses over a {keys}-key space",
        out.scheduled_misses
    );
    let hit_rate = out.scheduled_hits as f64 / SCENARIOS as f64;
    assert!(
        hit_rate >= HIT_RATE_FLOOR,
        "scheduled-memo hit rate {hit_rate:.4} below the {HIT_RATE_FLOOR} floor"
    );
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
    // The memo collapses the named phases to microseconds, so the
    // task's fixed bookkeeping (its closing clock read, the record's
    // assembly) is a larger slice than at E16's scale — the floor here
    // guards against dropped phases, not harness overhead. Measured at
    // 10⁶ scenarios on a 2-vCPU machine: 93–95% attributed on 4
    // workers, 93% on 1.
    let fraction = profile.attributed_fraction();
    assert!(
        fraction >= 0.65,
        "only {:.2}% of busy time attributed to named phases",
        fraction * 100.0
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E17-SCALE — 10\u{2076}-scenario fleet sweep (memoized scheduled co-simulation)\n");

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
    let allocs = allocation_line(&spec, &base)?;
    println!("{allocs}");

    let profile = out.profile.as_ref().expect("profiling was requested");
    let wall_s = profile.wall_ns as f64 / 1e9;
    println!(
        "{} scenarios in {wall_s:.1} s on {} worker(s): {:.0} scenarios/s",
        out.summary.scenarios.len(),
        profile.workers.len(),
        out.summary.scenarios.len() as f64 / wall_s,
    );
    println!(
        "scheduled memo: {} hits / {} misses (hit rate {:.4}%); \
         co-simulation mean {:.1} us; races s/i/c {}/{}/{}; class hits {}",
        out.scheduled_hits,
        out.scheduled_misses,
        100.0 * out.scheduled_hits as f64 / SCENARIOS as f64,
        phase_mean_ns(profile, Phase::Cosim) / 1e3,
        out.races[0],
        out.races[1],
        out.races[2],
        out.class_hits,
    );
    println!("{}", profile.render());

    let report_path = write_result("exp17_scale.txt", &format!("{report}{allocs}\n"))?;
    let profile_path = write_result("timing/PROFILE_exp17.json", &profile.to_json())?;
    let bench_path = write_result("timing/BENCH_exp17.json", &bench_json(&out, profile))?;
    println!(
        "wrote {}, {} and {}",
        report_path.display(),
        profile_path.display(),
        bench_path.display()
    );
    Ok(())
}
