//! Offline mini benchmark harness, API-compatible with the subset of
//! `criterion` this workspace uses.
//!
//! The build environment has no crates.io access, so the real `criterion`
//! cannot be compiled. This shim keeps `benches/*.rs` source-compatible
//! (`Criterion`, `benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `iter`, `iter_batched`, `BatchSize`, `criterion_group!`,
//! `criterion_main!`) and measures with
//! `std::time::Instant`: a short warmup, an iteration count calibrated to
//! the target measurement time, then a handful of samples reported as
//! min/median/mean per iteration.
//!
//! On Linux the harness first pins its own process to the CPU it starts
//! on (`sched_setaffinity` on itself only), so samples do not migrate
//! between cores. Runs of one binary can still settle in different
//! modes per process (medians a third apart), so compare several runs'
//! minima and medians. Threads a bench spawns inherit the pin, so a
//! bench with several workers times their summed work, not their
//! parallel speed-up.
//!
//! Environment knobs:
//!
//! - `ECL_BENCH_MS` — per-benchmark measurement budget in milliseconds
//!   (default 100; set small, e.g. `1`, for smoke runs).

#![deny(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of the standard optimization barrier, matching
/// `criterion::black_box`.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// A benchmark identifier: a function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{parameter}"),
        }
    }

    /// Just the parameter, for groups whose name already identifies the
    /// benchmark.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Pins the calling process to the CPU it is running on, and names that
/// CPU. Best effort: `None`, changing nothing, where the calls fail or do
/// not exist.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The 1024-CPU `cpu_set_t` of glibc and musl.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no argument and only reports.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`,
    // which outlives the call; pid 0 names the calling thread alone, the
    // only one the harness runs when it pins.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (pinned == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// Passed to benchmark closures; `iter` runs and times the workload.
pub struct Bencher {
    budget: Duration,
    /// Mean ns/iter from the most recent `iter` call.
    mean_ns: f64,
    min_ns: f64,
    median_ns: f64,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Bencher {
            budget,
            mean_ns: 0.0,
            min_ns: 0.0,
            median_ns: 0.0,
        }
    }

    /// Times repeated runs of `routine`.
    ///
    /// Warmup runs for a quarter of the budget, the iteration count is
    /// calibrated from it, and the remaining budget is split into 8
    /// timed samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.measure(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Like [`iter`](Bencher::iter), but each run of `routine` consumes
    /// a fresh input built by `setup`, which is not timed. Every batch
    /// size times one routine call at a time.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.measure(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                total += start.elapsed();
            }
            total
        });
    }

    /// The sampling behind `iter` and `iter_batched`: `timed(n)` runs the
    /// routine `n` times and returns the time they took.
    fn measure(&mut self, mut timed: impl FnMut(u64) -> Duration) {
        let warmup_end = Instant::now() + self.budget / 4;
        let (mut warm_iters, mut warm_time) = (0u64, Duration::ZERO);
        loop {
            warm_time += timed(1);
            warm_iters += 1;
            if Instant::now() >= warmup_end {
                break;
            }
        }
        let est_ns = (warm_time.as_nanos() as f64 / warm_iters as f64).max(1.0);
        let sample_budget_ns = (self.budget.as_nanos() as f64 * 0.75 / 8.0).max(1.0);
        let iters_per_sample = ((sample_budget_ns / est_ns) as u64).max(1);

        let mut samples: Vec<f64> = (0..8)
            .map(|_| timed(iters_per_sample).as_nanos() as f64 / iters_per_sample as f64)
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        self.min_ns = samples[0];
        self.median_ns = samples[samples.len() / 2];
        self.mean_ns = samples.iter().sum::<f64>() / samples.len() as f64;
    }
}

/// How many inputs [`Bencher::iter_batched`] builds at once, accepted
/// for API compatibility: the shim builds one per routine call.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs small enough to build many at once.
    SmallInput,
    /// Inputs too large to build many at once.
    LargeInput,
    /// One input per routine call.
    PerIteration,
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// The harness: collects and prints one result line per benchmark.
pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    /// Reads `ECL_BENCH_MS` and pins the process (see the crate docs).
    fn default() -> Self {
        match pin_to_current_cpu() {
            Some(cpu) => eprintln!("criterion shim: pinned to cpu {cpu}"),
            None => eprintln!("criterion shim: not pinned"),
        }
        let ms = std::env::var("ECL_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(100)
            .max(1);
        Criterion {
            budget: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    fn run_one<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        println!(
            "{name:<40} time: [{} {} {}]",
            format_ns(b.min_ns),
            format_ns(b.median_ns),
            format_ns(b.mean_ns),
        );
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run_one(name, f);
        self
    }

    /// Opens a named group; benchmark ids are prefixed with `group/`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs `f` with the given id and a reference to `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        self.criterion.run_one(&full, |b| f(b, input));
        self
    }

    /// Runs `f` under `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Display,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.criterion.run_one(&full, f);
        self
    }

    /// Ends the group (accepted for API compatibility; no-op).
    pub fn finish(self) {}
}

/// Declares a benchmark group function calling each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares `main` for a benchmark binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}
