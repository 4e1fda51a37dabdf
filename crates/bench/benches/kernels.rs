//! Criterion benches of the numerical kernels: LU, matrix exponential,
//! DARE, RK45 integration and the event-calendar hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecl_linalg::{expm, lu::Lu, solve_dare, DareOptions, Mat};
use ecl_sim::ode::{integrate, Integrator};
use ecl_sim::{BlockId, EventCalendar, TimeNs};

fn well_conditioned(n: usize) -> Mat {
    let mut m = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = if i == j {
                4.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            };
        }
    }
    m
}

fn bench_lu(c: &mut Criterion) {
    let mut g = c.benchmark_group("lu");
    for n in [4usize, 8, 16] {
        let a = well_conditioned(n);
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        g.bench_with_input(BenchmarkId::new("factor_solve", n), &n, |bench, _| {
            bench.iter(|| {
                let lu = Lu::factor(&a).expect("nonsingular");
                lu.solve(&b).expect("solvable")
            })
        });
    }
    g.finish();
}

fn bench_expm(c: &mut Criterion) {
    let mut g = c.benchmark_group("expm");
    for n in [2usize, 4, 8] {
        let a = well_conditioned(n).scaled(0.1);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| expm(&a).expect("finite"))
        });
    }
    g.finish();
}

fn bench_dare(c: &mut Criterion) {
    let mut g = c.benchmark_group("dare");
    for n in [2usize, 4] {
        // Marginally stable chain with one input: classic LQR shape.
        let mut a = Mat::identity(n);
        for i in 0..n - 1 {
            a[(i, i + 1)] = 0.1;
        }
        let mut b = Mat::zeros(n, 1);
        b[(n - 1, 0)] = 0.1;
        let q = Mat::identity(n);
        let r = Mat::diag(&[1.0]);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| solve_dare(&a, &b, &q, &r, DareOptions::default()).expect("converges"))
        });
    }
    g.finish();
}

fn bench_integration(c: &mut Criterion) {
    let mut g = c.benchmark_group("integration");
    // A 4-state oscillator network over 1 s.
    let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| {
        dx[0] = x[1];
        dx[1] = -4.0 * x[0] - 0.1 * x[1];
        dx[2] = x[3];
        dx[3] = -9.0 * x[2] - 0.2 * x[3] + x[0];
    };
    g.bench_function("rk4_h1ms", |bench| {
        bench.iter(|| {
            let mut x = vec![1.0, 0.0, 0.5, 0.0];
            integrate(&mut f, 0.0, 1.0, &mut x, Integrator::Rk4 { h: 1e-3 }).expect("ok");
            x
        })
    });
    g.bench_function("rk45_adaptive", |bench| {
        bench.iter(|| {
            let mut x = vec![1.0, 0.0, 0.5, 0.0];
            integrate(
                &mut f,
                0.0,
                1.0,
                &mut x,
                Integrator::Rk45 {
                    rtol: 1e-8,
                    atol: 1e-10,
                    h_max: 0.01,
                },
            )
            .expect("ok");
            x
        })
    });
    g.finish();
}

fn bench_event_calendar(c: &mut Criterion) {
    c.bench_function("event_calendar_10k", |bench| {
        bench.iter(|| {
            let mut cal = EventCalendar::new();
            for i in 0..10_000i64 {
                // Pseudo-random but deterministic instants.
                cal.schedule(
                    TimeNs::from_nanos((i * 2_654_435_761) % 1_000_000),
                    BlockId::from_index((i % 7) as usize),
                    0,
                );
            }
            let mut last = TimeNs::from_nanos(i64::MIN);
            while let Some(e) = cal.pop() {
                assert!(e.time >= last);
                last = e.time;
            }
            last
        })
    });
}

criterion_group!(
    benches,
    bench_lu,
    bench_expm,
    bench_dare,
    bench_integration,
    bench_event_calendar
);
criterion_main!(benches);
