//! Criterion benches of the sweep report writer: `render` and `to_json`
//! of two summaries, each built once, outside the timed loops.
//!
//! - `render_50k`, `to_json_50k`: the `sweep_hot` summary — exp17's
//!   fault-free deployment at 50 000 scenarios, default seed and axes,
//!   two workers, both memos on. Nearly every row is served by its
//!   lane's class table, so it carries its class's pre-rendered tail.
//! - `render_faulty_6k`, `to_json_faulty_6k`: the `sweep_faulty`
//!   summary — the same deployment over exp19's fault axes with static
//!   pruning at 6 000 scenarios: pruned rows carry tails, co-simulated
//!   faulty rows are written cell by cell, and their degradation rows
//!   carry injected-fault tallies.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecl_bench::fleet::{run_sweep, FaultAxes, SweepConfig};
use ecl_bench::{dc_motor_loop, standard_split};
use ecl_core::report::SweepSummary;

fn bench_report(c: &mut Criterion) {
    let hot = SweepConfig {
        scenario_count: 50_000,
        workers: 2,
        memoize_scheduled: true,
        memoize_reports: true,
        ..SweepConfig::default()
    };
    let faulty = SweepConfig {
        scenario_count: 6_000,
        prune_static: true,
        faults: FaultAxes {
            frame_loss_rates: vec![0.0, 0.25],
            link_outage_rates: vec![0.0, 0.10],
            proc_dropout_rates: vec![0.0, 0.05],
            ..FaultAxes::default()
        },
        ..hot.clone()
    };
    let spec = dc_motor_loop(0.05).expect("valid loop");
    let base = standard_split().expect("valid deployment");
    let summary = |config: &SweepConfig| -> SweepSummary {
        run_sweep(&spec, &base, config).expect("sweep runs").summary
    };
    let mut g = c.benchmark_group("report");
    for (name, summary) in [("50k", summary(&hot)), ("faulty_6k", summary(&faulty))] {
        g.bench_function(format!("render_{name}"), |bench| {
            bench.iter(|| black_box(&summary).render())
        });
        g.bench_function(format!("to_json_{name}"), |bench| {
            bench.iter(|| black_box(&summary).to_json())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_report);
criterion_main!(benches);
