//! Criterion benches of the sweep report writer: `render` and `to_json`
//! of the `sweep_hot` summary — exp17's fault-free deployment at
//! 50 000 scenarios, default seed and axes, two workers, both memos on —
//! built once, outside the timed loops.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ecl_bench::fleet::{run_sweep, SweepConfig};
use ecl_bench::{dc_motor_loop, standard_split};

fn bench_report(c: &mut Criterion) {
    let config = SweepConfig {
        scenario_count: 50_000,
        workers: 2,
        memoize_scheduled: true,
        memoize_reports: true,
        ..SweepConfig::default()
    };
    let spec = dc_motor_loop(0.05).expect("valid loop");
    let base = standard_split().expect("valid deployment");
    let summary = run_sweep(&spec, &base, &config)
        .expect("sweep runs")
        .summary;
    let mut g = c.benchmark_group("report");
    g.bench_function("render_50k", |bench| {
        bench.iter(|| black_box(&summary).render())
    });
    g.bench_function("to_json_50k", |bench| {
        bench.iter(|| black_box(&summary).to_json())
    });
    g.finish();
}

criterion_group!(benches, bench_report);
criterion_main!(benches);
