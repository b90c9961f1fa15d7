//! A counting global allocator. The benchmark binary installs
//! [`CountingAlloc`]; counting is off until [`start`] and costs one relaxed
//! load per allocation while off, so timed runs are not perturbed. With
//! counting on, the allocation count and the peak live heap are
//! deterministic for a deterministic program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`], counting while [`start`] is in effect.
pub struct CountingAlloc;

// Statistics only: no other data is published through these, so every
// access is `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

#[inline]
fn note(delta: isize, is_alloc: bool) {
    if !ON.load(Relaxed) {
        return;
    }
    if is_alloc {
        ALLOCS.fetch_add(1, Relaxed);
    }
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
}

/// `Layout` guarantees a size of at most `isize::MAX`, so this never
/// truncates.
#[inline]
fn signed(size: usize) -> isize {
    size as isize
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(signed(layout.size()), true);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(signed(layout.size()), true);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        note(-signed(layout.size()), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(signed(new_size) - signed(layout.size()), true);
        }
        p
    }
}

/// Zero the counters and start counting. Live bytes are measured from
/// here, so memory freed later that was allocated before can drive them
/// below zero; the peak is never below zero.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stop counting and return `(allocations, peak live bytes)` since
/// [`start`].
pub fn stop() -> (u64, u64) {
    ON.store(false, Relaxed);
    let peak = u64::try_from(PEAK.load(Relaxed)).unwrap_or(0);
    (ALLOCS.load(Relaxed), peak)
}

/// Allocations (including reallocations) counted since [`start`].
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}
