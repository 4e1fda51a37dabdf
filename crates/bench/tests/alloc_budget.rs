//! Allocation budgets of the hot fleet path, counted by a global
//! allocator of this test binary's own.
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
//! and what allocates is scenario derivation, the metrics and the fold.
//! A lookup allocates only the first time the lane's view sees its key,
//! and hashing a WCET table allocates nothing. Rendering writes every
//! row into one presized document.
//!
//! Run with `cargo test -p ecl-bench --test alloc_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ecl_bench::fleet::{run_sweep, SweepConfig};
use ecl_bench::{dc_motor_loop, standard_split};

/// Counts every allocator call that hands out memory: `alloc`,
/// `alloc_zeroed` and `realloc`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect
// on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`; the caller's guarantees are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Scenarios of the measured sweep.
const SCENARIOS: u64 = 2_000;

/// Ceiling on allocations of the whole sweep, its 96 co-simulations and
/// the lane's memo views included: about 18.4 per scenario.
const SWEEP_ALLOCATIONS: u64 = 36_894;

/// Ceiling on allocations of `render` + `to_json` over the sweep's
/// 2 000 rows: the two documents and the sorted cost ratios.
const RENDER_ALLOCATIONS: u64 = 3;

/// Allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn main() {
    let spec = dc_motor_loop(0.05).unwrap();
    let base = standard_split().unwrap();
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
    assert!(
        rendering <= RENDER_ALLOCATIONS,
        "render + to_json made {rendering} allocations, budget {RENDER_ALLOCATIONS}"
    );
}
