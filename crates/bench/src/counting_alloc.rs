//! A counting global allocator for the binaries that measure their
//! allocations (`exp17_scale` and the `alloc_budget` test), which include
//! this file by path. It is not a module of the `ecl_bench` library,
//! which forbids `unsafe` code.
//!
//! Counting is off until [`allocations`] turns it on for the closure it
//! runs, so the rest of the process pays one relaxed load of a flag that
//! no thread writes meanwhile, not a shared counter update per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts every allocator call that hands out memory while counting is
/// on: `alloc`, `alloc_zeroed` and `realloc`.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect
// on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Runs `f` with counting on and returns its output with the
/// allocations every thread of the process made meanwhile. Calls must
/// not overlap.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNTING.store(true, Ordering::SeqCst);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
    COUNTING.store(false, Ordering::SeqCst);
    (out, made)
}
