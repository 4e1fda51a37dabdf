//! E17-SCALE — the fleet at 10⁵ and 10⁶ scenarios: scheduled-run
//! memoization by `(loop × schedule × fault-plan)` content digest.
//!
//! Runs two sweeps of the standard DC-motor split loop in one
//! configuration (light pipeline, fleet profiler on, both memos on as in
//! the benchmark and the daemon), each at 1 worker and then at 4: a
//! 100 000-scenario pass that writes E16-SCALE's golden and the
//! 1 000 000-scenario sweep of E17-SCALE. Each checks the claims that
//! let the fleet reach its size:
//!
//! * **Scheduled-run memoization** — the graph-of-delays co-simulation
//!   is pure in `(loop spec, schedule, fault plan)`, and the sweep's
//!   quantized axes (WCET tables × policies × period scales) bound that
//!   key space to ≤ 96 digests. The `ScheduledRunCache` therefore
//!   answers all but ~10⁻⁴ of the 10⁶ lookups. Most never reach a
//!   memo: a scenario whose class its lane has seen is served the
//!   class's row with one lookup in the lane's class table, and the
//!   lookups it skipped are counted per digest when the lane finishes.
//!   Asserted: one ideal and one scheduled lookup per scenario, at most
//!   one ideal miss per period scale, scheduled misses bounded by the
//!   axis product, hit rate ≥ 99.9%.
//! * **Attribution** — at least 95% of worker busy time falls in named
//!   profiler phases, at both worker counts.
//! * **Allocation-free hot loop** — [`ecl_sim::EngineStats::hot_allocs`]
//!   stays 0 across every co-simulation flavour the fleet uses,
//!   including the faulty replay ([`KernelWork::probe`], run once and
//!   printed in both goldens).
//! * **Allocations per scenario** — the sweep's steady-state allocations
//!   per scenario at 1 worker, counted by a global allocator: the
//!   allocations of a 2N-scenario sweep minus those of an N-scenario
//!   sweep, over N, so the one-off costs (memo misses, pool, buffers)
//!   cancel and the count is exact.
//!
//! Artifacts:
//!
//! * **Deterministic** — `results/exp16_scale.txt` and
//!   `results/exp17_scale.txt`, digest reports (FNV-64 of the rendered
//!   summary, the JSON summary and the merged histogram, the
//!   order-invariant cache/memo counters and the probe's `kernel_work:`
//!   counters; a 10⁵-row report would be megabytes, and its digests pin
//!   the same bytes). The binary asserts each report is the same at 1
//!   and 4 workers; E17's allocation line, measured at 1 worker only,
//!   follows its report. `scripts/check.sh` diffs both files against
//!   the committed copies. E16's golden was written by the unmemoized
//!   pipeline, so reproducing it checks at 10⁵ scenarios that the memos
//!   move no byte.
//! * **Sidecar** — `results/timing/PROFILE_exp17.json` (per-phase
//!   wall-clock attribution with the scheduled-memo lookup channel) and
//!   `results/timing/BENCH_exp17.json` (throughput, memo and race
//!   evidence) of the 10⁶-scenario 4-worker run, untracked.

#[path = "../counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use ecl_bench::fleet::{run_sweep, SweepConfig, SweepOutput};
use ecl_bench::{
    phase_mean_ns, scale_loop, standard_split, sweep_digest, worker_invariant, write_result,
    BenchResult, KernelWork, SplitScenario,
};
use ecl_core::cosim::LoopSpec;
use ecl_telemetry::{Phase, ProfileReport};

/// One sweep of exp17's configuration and the golden it writes.
struct Pass {
    /// The experiment whose golden the pass writes.
    name: &'static str,
    /// Scenario count.
    scenarios: usize,
    /// Whether the golden prints the scheduled memo's counters; E16's
    /// golden predates that memo and does not.
    scheduled_line: bool,
}

/// E16-SCALE: two orders of magnitude past E11-MC's 64 scenarios.
const E16: Pass = Pass {
    name: "E16-SCALE",
    scenarios: 100_000,
    scheduled_line: false,
};

/// E17-SCALE: one order of magnitude past E16-SCALE.
const E17: Pass = Pass {
    name: "E17-SCALE",
    scenarios: 1_000_000,
    scheduled_line: true,
};

/// Minimum scheduled-memo hit rate: the quantized axes leave ≤ 96
/// distinct keys under 10⁵ or 10⁶ lookups, so anything below 99.9%
/// means the digest is unstable.
const HIT_RATE_FLOOR: f64 = 0.999;

/// Minimum share of worker busy time in named profiler phases.
const ATTRIBUTED_FLOOR: f64 = 0.95;

/// Scenarios of the shorter of the two sweeps whose allocation counts
/// give the steady-state allocations per scenario.
const ALLOC_SCENARIOS: usize = 10_000;

fn config(scenarios: usize, workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: scenarios,
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

/// The deterministic digest report of a pass (the same at any worker
/// count). Race counters are interleaving-dependent and deliberately
/// absent.
fn digest_report(pass: &Pass, out: &SweepOutput, work: &KernelWork) -> String {
    let scheduled = if pass.scheduled_line {
        format!(
            "scheduled_memo: hits={} misses={}\n",
            out.scheduled_hits, out.scheduled_misses
        )
    } else {
        String::new()
    };
    format!(
        "{} deterministic digest (identical at 1 and 4 workers)\n\
         {}\
         schedule_cache: hits={} misses={}\n\
         ideal_memo: hits={} misses={}\n\
         {scheduled}\
         {work}\n",
        pass.name,
        sweep_digest(out),
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.ideal_hits,
        out.ideal_misses,
    )
}

/// The golden allocation line: steady-state allocations per scenario of
/// a 1-worker sweep, `(A(2N) - A(N)) / N` over exp17's configuration.
/// One-worker sweeps claim in index order and miss at the same
/// scenarios, so both counts, and the line, repeat exactly.
fn allocation_line(spec: &LoopSpec, base: &SplitScenario) -> BenchResult<String> {
    let sweep = |scenarios: usize| allocations(|| run_sweep(spec, base, &config(scenarios, 1)));
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

/// Assertions made on a pass at every worker count.
fn check(pass: &Pass, out: &SweepOutput) {
    let config = config(pass.scenarios, 1);
    let scenarios = pass.scenarios as u64;
    assert_eq!(out.summary.scenarios.len(), pass.scenarios);
    assert_eq!(
        out.scheduled_hits + out.scheduled_misses,
        scenarios,
        "one scheduled-memo lookup per scenario"
    );
    let keys = key_space(&config);
    assert!(
        out.scheduled_misses <= keys,
        "at most one co-simulation per (table x policy x period scale) \
         key, got {} misses over a {keys}-key space",
        out.scheduled_misses
    );
    let hit_rate = out.scheduled_hits as f64 / scenarios as f64;
    assert!(
        hit_rate >= HIT_RATE_FLOOR,
        "scheduled-memo hit rate {hit_rate:.4} below the {HIT_RATE_FLOOR} floor"
    );
    assert_eq!(
        out.ideal_hits + out.ideal_misses,
        scenarios,
        "one ideal-memo lookup per scenario"
    );
    assert!(
        out.ideal_misses <= config.period_scales.len() as u64,
        "at most one ideal run per period scale, got {} misses",
        out.ideal_misses
    );
    let profile = out.profile.as_ref().expect("profiling was requested");
    let fraction = profile.attributed_fraction();
    println!(
        "{}: {} worker(s): {:.2}% of busy time attributed to named phases",
        pass.name,
        profile.workers.len(),
        fraction * 100.0
    );
    assert!(
        fraction >= ATTRIBUTED_FLOOR,
        "only {:.2}% of busy time attributed to named phases",
        fraction * 100.0
    );
}

/// Runs `pass` at 1 and then 4 workers, checking each run, and returns
/// the 4-worker output with the digest report both runs produced.
fn run_pass(
    pass: &Pass,
    spec: &LoopSpec,
    base: &SplitScenario,
    work: &KernelWork,
) -> BenchResult<(SweepOutput, String)> {
    let (out, report) = worker_invariant(
        |workers| {
            let out = run_sweep(spec, base, &config(pass.scenarios, workers))?;
            check(pass, &out);
            Ok(out)
        },
        |out| digest_report(pass, out, work),
    )?;
    println!(
        "{}: 1-worker vs 4-worker sweep: digest reports byte-identical",
        pass.name
    );
    Ok((out, report))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "E16/E17-SCALE — 10\u{2075}- and 10\u{2076}-scenario fleet sweeps \
         (memoized scheduled co-simulation)\n"
    );

    let work = KernelWork::probe()?;
    assert_eq!(
        work.hot_allocs, 0,
        "the event hot path allocated {} times",
        work.hot_allocs
    );
    println!("{work}");

    let (spec, base) = (scale_loop()?, standard_split()?);
    let (_, e16_report) = run_pass(&E16, &spec, &base, &work)?;
    let (out, report) = run_pass(&E17, &spec, &base, &work)?;
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
        100.0 * out.scheduled_hits as f64 / E17.scenarios as f64,
        phase_mean_ns(profile, Phase::Cosim) / 1e3,
        out.races[0],
        out.races[1],
        out.races[2],
        out.class_hits,
    );
    println!("{}", profile.render());

    let e16_path = write_result("exp16_scale.txt", &e16_report)?;
    let report_path = write_result("exp17_scale.txt", &format!("{report}{allocs}\n"))?;
    let profile_path = write_result("timing/PROFILE_exp17.json", &profile.to_json())?;
    let bench_path = write_result("timing/BENCH_exp17.json", &bench_json(&out, profile))?;
    println!(
        "wrote {}, {}, {} and {}",
        e16_path.display(),
        report_path.display(),
        profile_path.display(),
        bench_path.display()
    );
    Ok(())
}
