//! Counting `GlobalAlloc` wrapper feeding `host_allocs_per_op`.
//!
//! Every call forwards to [`System`]; while armed, `alloc`, `alloc_zeroed`
//! and `realloc` each count as one heap allocation. The benchmark arms it
//! only around a repetition's timed region, so set-up, checks and the
//! benchmark's own reporting are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The benchmark binary's global allocator.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
// A statistic that publishes no other data: `Relaxed` is enough.
static COUNT: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; counting has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Zeroes the counter and starts counting.
pub fn arm() {
    COUNT.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting and returns the allocations seen since [`arm`].
pub fn disarm() -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    COUNT.load(Ordering::Relaxed)
}
