//! Criterion benches of the co-simulation pipeline: ideal loop, graph-of-
//! delays synthesis, and the scheduled end-to-end run — over a 1 s
//! horizon, and in the shape every fleet scenario runs (exp17's 50 ms
//! loop, ideal and on the 200 µs split deployment).

use criterion::{criterion_group, criterion_main, Criterion};
use ecl_aaa::{adequation, AdequationOptions, TimeNs};
use ecl_bench::{dc_motor_loop, split_scenario};
use ecl_core::cosim;
use ecl_core::delays::{self, DelayGraphConfig};
use ecl_sim::Model;

fn bench_ideal(c: &mut Criterion) {
    ideal_case(c, "cosim_ideal_1s", 1.0);
}

/// The fleet's per-scenario ideal reference (exp17, `ecl-benchmark`'s
/// sweeps): the same 50 ms loop as `cosim_scheduled_exp17_50ms`.
fn bench_ideal_exp17(c: &mut Criterion) {
    ideal_case(c, "cosim_ideal_50ms", 0.05);
}

/// Benches `run_ideal` of the DC-motor loop over `horizon_s`.
fn ideal_case(c: &mut Criterion, name: &str, horizon_s: f64) {
    let spec = dc_motor_loop(horizon_s).expect("valid");
    c.bench_function(name, |bench| {
        bench.iter(|| cosim::run_ideal(&spec).expect("ok"))
    });
}

fn bench_delay_graph_build(c: &mut Criterion) {
    let scenario = split_scenario(
        4,
        1,
        TimeNs::from_millis(1),
        TimeNs::from_micros(100),
        TimeNs::from_millis(2),
    )
    .expect("valid");
    let schedule = adequation(
        &scenario.alg,
        &scenario.arch,
        &scenario.db,
        AdequationOptions::default(),
    )
    .expect("ok");
    c.bench_function("delay_graph_build", |bench| {
        bench.iter(|| {
            let mut model = Model::new();
            delays::build(
                &mut model,
                &scenario.alg,
                &scenario.arch,
                &schedule,
                TimeNs::from_millis(50),
                DelayGraphConfig::default(),
            )
            .expect("ok")
        })
    });
}

fn bench_scheduled(c: &mut Criterion) {
    scheduled_case(
        c,
        "cosim_scheduled_1s",
        1.0,
        [
            TimeNs::from_millis(4),
            TimeNs::from_micros(200),
            TimeNs::from_millis(10),
        ],
    );
}

/// The fleet's per-scenario co-simulation (exp17, `ecl-benchmark`'s
/// sweeps): a 50 ms horizon on `split_scenario(2, 1, 200 µs, 50 µs,
/// 500 µs)`.
fn bench_scheduled_exp17(c: &mut Criterion) {
    scheduled_case(
        c,
        "cosim_scheduled_exp17_50ms",
        0.05,
        [
            TimeNs::from_micros(200),
            TimeNs::from_micros(50),
            TimeNs::from_micros(500),
        ],
    );
}

/// Benches `run_scheduled` of the DC-motor loop over `horizon_s` on the
/// split deployment with `[bus latency, I/O WCET, compute WCET]`.
fn scheduled_case(c: &mut Criterion, name: &str, horizon_s: f64, timings: [TimeNs; 3]) {
    let spec = dc_motor_loop(horizon_s).expect("valid");
    let [bus, io, compute] = timings;
    let scenario = split_scenario(2, 1, bus, io, compute).expect("valid");
    let schedule = adequation(
        &scenario.alg,
        &scenario.arch,
        &scenario.db,
        AdequationOptions::default(),
    )
    .expect("ok");
    c.bench_function(name, |bench| {
        bench.iter(|| {
            cosim::run_scheduled(
                &spec,
                &scenario.alg,
                &scenario.io,
                &schedule,
                &scenario.arch,
            )
            .expect("ok")
        })
    });
}

criterion_group!(
    benches,
    bench_ideal,
    bench_ideal_exp17,
    bench_delay_graph_build,
    bench_scheduled,
    bench_scheduled_exp17
);
criterion_main!(benches);
