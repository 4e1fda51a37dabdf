//! Allocation budgets of the hot fleet path, counted by the global
//! allocator of `src/counting_alloc.rs`.
//!
//! A 1-worker sweep claims its scenarios in index order and every memo
//! miss happens at the same scenario, so the allocation counts repeat
//! exactly from run to run; the ceilings below are the measured counts.
//! The binary has no test harness (`harness = false`): the harness's
//! own threads allocate while a test runs, which the process-wide
//! counter would see.
//! The sweep is exp17's fault-free deployment with the default axes
//! (16 WCET tables × 2 policies × 3 period scales = 96 memo keys) and
//! both memos on, so after the 96 misses the memos answer every lookup
//! and a lane's class table serves every other scenario its class's
//! row: the draw and one lookup. The table is presized, a memo hit
//! allocates nothing, and a lane builds a scenario's jittered WCET
//! table only the first time it sees the table (or on a schedule-memo
//! miss), so every allocation is the sweep's one-off set-up or a
//! class's first scenario's (among them the class's row tail, rendered
//! once), and a sweep of twice the scenarios, the added ones all class
//! hits, makes exactly as many (the steady-state count
//! `(A(2N) - A(N)) / N` is 0). Rendering writes every row into one
//! presized document.
//! A faulty summary (exp19's fault axes) is rendered under the same
//! budget: its labels carry fault rates and its degradation rows carry
//! injected-fault tallies, and neither may allocate per row.
//!
//! One scheduled co-simulation of exp17's deployment (a memo miss: model
//! assembly, graph-of-delays synthesis, the simulator's wiring tables,
//! the run and the metric extraction) is measured on its own, and so is
//! one adequation of it, the other half of a cold scenario's miss path.
//!
//! Run with `cargo test -p ecl-bench --test alloc_budget`.

#[path = "../src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use ecl_aaa::{adequation, AdequationOptions};
use ecl_bench::fleet::{run_sweep, FaultAxes, Scenario, SweepConfig};
use ecl_bench::{dc_motor_loop, standard_split, SplitScenario};
use ecl_core::cosim::{self, LoopSpec};

/// Scenarios of the measured sweep.
const SCENARIOS: u64 = 2_000;

/// Ceiling on allocations of the whole sweep, its 96 co-simulations and
/// the lane's class table included: about 6.5 per
/// scenario, all of them on the 96 classes' first scenarios, one of
/// which is each class's row tail.
const SWEEP_ALLOCATIONS: u64 = 13_060;

/// Ceiling on allocations of `render` + `to_json` over the sweep's
/// 2 000 rows: the two documents and the copy of the cost ratios the
/// quantiles are selected from. The faulty
/// summary's `render` + `to_json` shares it.
const RENDER_ALLOCATIONS: u64 = 3;

/// Ceiling on allocations of one `cosim::run_scheduled` of exp17's
/// deployment: model assembly, delay-graph synthesis, the simulator's
/// tables, the run and the metric extraction of one memo miss.
const SCHEDULED_RUN_ALLOCATIONS: u64 = 112;

/// Ceiling on allocations of one `adequation` of exp17's deployment:
/// the tails, the per-`(op, processor)` availability table, the reused
/// candidate buffers and the schedule itself.
const ADEQUATION_ALLOCATIONS: u64 = 11;

/// Scenarios of the faulty sweep whose run and rendering are measured.
const FAULTY_SCENARIOS: usize = 300;

/// Ceiling on allocations of the 1-worker faulty sweep over exp19's
/// fault axes with static pruning and both memos on: its fault plans,
/// the co-simulations and extractions its memos miss, each degradation
/// row's tally and boxed payload, the envelopes its memo misses and the
/// row tail of each of the 34 classes that keep a row.
const FAULTY_SWEEP_ALLOCATIONS: u64 = 36_264;

/// Allocations of one adequation of scenario 0 of the default sweep over
/// `base`.
fn adequation_run(base: &SplitScenario, config: &SweepConfig) -> u64 {
    let scenario = Scenario::derive(config, base, 0);
    let options = AdequationOptions {
        policy: scenario.policy,
    };
    let db = scenario.jittered_db(base);
    let run = || adequation(&base.alg, &base.arch, &db, options).unwrap();
    let first = run();
    let (again, made) = allocations(run);
    assert_eq!(again.ops(), first.ops());
    assert_eq!(again.comms(), first.comms());
    made
}

/// Allocations of one scheduled co-simulation of scenario 0 of the
/// default sweep over `base`, at the period the fleet simulates it.
fn scheduled_run(spec: &LoopSpec, base: &SplitScenario, config: &SweepConfig) -> u64 {
    let scenario = Scenario::derive(config, base, 0);
    let options = AdequationOptions {
        policy: scenario.policy,
    };
    let schedule = adequation(&base.alg, &base.arch, &scenario.jittered_db(base), options).unwrap();
    let mut spec = spec.clone();
    spec.ts *= scenario.period_scale;
    let makespan_s = schedule.makespan().as_secs_f64();
    if makespan_s > spec.ts {
        spec.ts = makespan_s * 1.05;
    }
    let run = || cosim::run_scheduled(&spec, &base.alg, &base.io, &schedule, &base.arch).unwrap();
    let first = run();
    let (again, made) = allocations(run);
    assert_eq!(again.cost.to_bits(), first.cost.to_bits());
    made
}

fn main() {
    let spec = dc_motor_loop(0.05).unwrap();
    let base = standard_split().unwrap();
    let adequated = adequation_run(&base, &SweepConfig::default());
    eprintln!("adequation: {adequated} allocations");
    assert!(
        adequated <= ADEQUATION_ALLOCATIONS,
        "adequation made {adequated} allocations, budget {ADEQUATION_ALLOCATIONS}"
    );
    let scheduled = scheduled_run(&spec, &base, &SweepConfig::default());
    eprintln!("run_scheduled: {scheduled} allocations");
    assert!(
        scheduled <= SCHEDULED_RUN_ALLOCATIONS,
        "run_scheduled made {scheduled} allocations, budget {SCHEDULED_RUN_ALLOCATIONS}"
    );

    let config = SweepConfig {
        scenario_count: SCENARIOS as usize,
        workers: 1,
        memoize_scheduled: true,
        memoize_reports: true,
        ..SweepConfig::default()
    };

    // The first sweep pays the process's one-time set-up; the second,
    // identical sweep is the one measured.
    run_sweep(&spec, &base, &config).unwrap();
    let (out, sweep) = allocations(|| run_sweep(&spec, &base, &config).unwrap());
    assert_eq!(
        out.scheduled_misses, 96,
        "the default axes give 96 memo keys"
    );
    let ((render, json), rendering) = allocations(|| (out.summary.render(), out.summary.to_json()));
    assert!(!render.is_empty() && !json.is_empty());

    eprintln!(
        "sweep: {sweep} allocations ({:.2} per scenario); render + to_json: {rendering}",
        sweep as f64 / SCENARIOS as f64
    );
    assert!(
        sweep <= SWEEP_ALLOCATIONS,
        "sweep made {sweep} allocations, budget {SWEEP_ALLOCATIONS}"
    );
    // Steady state: a sweep twice as long adds only scenarios whose
    // class the lane has seen, and those allocate nothing.
    let long = SweepConfig {
        scenario_count: 2 * SCENARIOS as usize,
        ..config.clone()
    };
    let (_, doubled) = allocations(|| run_sweep(&spec, &base, &long).unwrap());
    let per_hit = (doubled as f64 - sweep as f64) / SCENARIOS as f64;
    eprintln!(
        "steady state: (A({}) - A({SCENARIOS})) / {SCENARIOS} = {per_hit:.2} allocations per \
         class-hit scenario",
        2 * SCENARIOS
    );
    assert_eq!(
        doubled,
        sweep,
        "{} class-hit scenarios made {} allocations",
        SCENARIOS,
        doubled as i64 - sweep as i64
    );
    assert!(
        rendering <= RENDER_ALLOCATIONS,
        "render + to_json made {rendering} allocations, budget {RENDER_ALLOCATIONS}"
    );

    let faulty = SweepConfig {
        scenario_count: FAULTY_SCENARIOS,
        prune_static: true,
        faults: FaultAxes {
            frame_loss_rates: vec![0.0, 0.25],
            link_outage_rates: vec![0.0, 0.10],
            proc_dropout_rates: vec![0.0, 0.05],
            ..FaultAxes::default()
        },
        ..config
    };
    run_sweep(&spec, &base, &faulty).unwrap();
    let (out, faulty_sweep) = allocations(|| run_sweep(&spec, &base, &faulty).unwrap());
    assert!(
        !out.summary.degradations.is_empty(),
        "the fault axes give degradation rows"
    );
    eprintln!(
        "faulty sweep ({FAULTY_SCENARIOS} scenarios): {faulty_sweep} allocations ({:.2} per \
         scenario)",
        faulty_sweep as f64 / FAULTY_SCENARIOS as f64
    );
    assert!(
        faulty_sweep <= FAULTY_SWEEP_ALLOCATIONS,
        "faulty sweep made {faulty_sweep} allocations, budget {FAULTY_SWEEP_ALLOCATIONS}"
    );
    let ((render, json), rendering) = allocations(|| (out.summary.render(), out.summary.to_json()));
    assert!(render.contains(" faults fl") && json.contains("\"injected\": \""));
    eprintln!(
        "faulty render + to_json ({} scenarios, {} degradation rows): {rendering}",
        FAULTY_SCENARIOS,
        out.summary.degradations.len()
    );
    assert!(
        rendering <= RENDER_ALLOCATIONS,
        "faulty render + to_json made {rendering} allocations, budget {RENDER_ALLOCATIONS}"
    );
}
