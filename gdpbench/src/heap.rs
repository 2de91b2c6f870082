//! Live heap accounting: the benchmark's global allocator forwards to
//! the system allocator and counts the bytes held in blocks of at least
//! `COUNTED` bytes, so a run can report the peak heap its work needed.
//! Unlike the resident set, the count does not depend on how much freed
//! memory the allocator keeps mapped, or on how many short-lived threads
//! a workload starts. Small blocks are left out to keep the shared
//! counter off the hot path; the program's large consumers (traces,
//! event batches, encode buffers, estimator state) are all bigger.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Smallest block the count includes.
const COUNTED: usize = 4096;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The bytes a block of `size` contributes to the count.
fn counted(size: usize) -> i64 {
    if size >= COUNTED {
        size as i64
    } else {
        0
    }
}

fn note(delta: i64) {
    if delta != 0 {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// The counting allocator.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so callers get exactly `System`'s guarantees; the
// bookkeeping around the calls only updates two atomics and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(counted(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        note(-counted(layout.size()));
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(counted(layout.size()));
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(counted(new_size) - counted(layout.size()));
        }
        p
    }
}

/// The peak counted heap in MB since the previous call (or start); the
/// next peak starts from the heap held now.
pub fn take_peak_mb() -> f64 {
    let live = LIVE.load(Ordering::Relaxed);
    let peak = PEAK.swap(live, Ordering::Relaxed).max(live);
    peak as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_blocks_are_counted_small_ones_are_not() {
        assert_eq!(counted(COUNTED - 1), 0);
        assert_eq!(counted(COUNTED), COUNTED as i64);
        // A block growing across the threshold is counted from then on
        // and uncounted exactly once when freed.
        let grow = counted(1 << 20) - counted(100);
        assert_eq!(grow - counted(1 << 20), -counted(100));
    }

    #[test]
    fn the_peak_covers_a_live_buffer() {
        // Other tests allocate concurrently, so only a lower bound holds.
        take_peak_mb();
        let buf = vec![1u8; 8 << 20];
        assert!(take_peak_mb() >= 8.0);
        drop(buf);
    }
}
