//! Replay timing for single layers.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls at least this many times.
const MIN_CALLS: usize = 5;
/// Calls at most this many times.
const MAX_CALLS: usize = 2_000;
/// Stops calling after this much time.
const BUDGET: Duration = Duration::from_millis(40);

/// Median wall time of one call of `f`, in µs: `f` runs until the time
/// budget is spent (at least [`MIN_CALLS`], at most [`MAX_CALLS`] times).
pub fn time_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut calls = Vec::new();
    while calls.len() < MIN_CALLS || (calls.len() < MAX_CALLS && start.elapsed() < BUDGET) {
        let t = Instant::now();
        black_box(f());
        calls.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&calls).expect("at least one call")
}
