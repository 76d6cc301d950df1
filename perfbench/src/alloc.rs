//! A counting global allocator, switched on only for traced passes.
//!
//! Each thread counts its own allocations, so a caller reads the count
//! before and after a call and takes the difference; other threads do
//! not disturb it. While counting is off the allocator adds one relaxed
//! load to each allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The system allocator plus a per-thread allocation counter.
pub struct Counting;

// A statistic: the flag publishes no other data, so `Relaxed` suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor, so touching it never
    // allocates or registers anything: safe to use inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Starts or stops counting on every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations this thread has made while counting was on.
pub fn count() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn bump() {
    if ENABLED.load(Ordering::Relaxed) {
        // `try_with` fails only while the thread is being torn down;
        // such allocations go uncounted.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches
// only a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}
