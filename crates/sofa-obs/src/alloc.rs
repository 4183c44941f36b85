//! A counting global allocator: the system allocator plus counters of the
//! live heap bytes, their peak and the allocations made, so a binary can
//! gate what a run holds in memory exactly rather than through the
//! process's resident set.
//!
//! A binary opts in with one line at its crate root:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: sofa_obs::alloc::CountingAlloc = sofa_obs::alloc::CountingAlloc;
//! ```
//!
//! The counters are process-wide atomics, updated with relaxed ordering. In
//! a process without the allocator installed they stay 0, so every reading
//! of `live_bytes`, `peak_bytes` and [`allocations`] is 0 there.
//! [`peak_during`] measures one piece of work: the most heap it held at
//! once above what was live when it started.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's arguments,
// so the `GlobalAlloc` contract holds exactly as it does for `System`; the
// counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Heap bytes allocated and not yet freed.
pub(crate) fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// The most heap bytes live at once since start-up or the last
/// [`reset_peak`].
pub(crate) fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Allocations (reallocations included) made since start-up.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// Restarts the peak at the bytes live now.
pub(crate) fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Runs `work` and returns its result with the most heap bytes it held
/// at once above what was live when it started. Allocations of other
/// threads in the same window count too; 0 without the allocator.
pub fn peak_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    reset_peak();
    let base = live_bytes();
    let out = work();
    (out, peak_bytes().saturating_sub(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_counters_follow_the_calls_they_see() {
        // The test binary runs on the system allocator, so drive the
        // counting one directly; other tests never touch these counters.
        let a = CountingAlloc;
        let small = Layout::from_size_align(100, 8).unwrap();
        let allocations_before = allocations();
        // SAFETY: each pointer comes from this allocator, is freed once with
        // the layout it was (re)allocated with, and the zeroed one is read
        // within its 100 bytes.
        let (live, peak) = unsafe {
            let p = a.alloc(small);
            let q = a.alloc_zeroed(small);
            assert_eq!(*q, 0);
            let p = a.realloc(p, small, 1_000);
            let peak = peak_bytes();
            a.dealloc(p, Layout::from_size_align(1_000, 8).unwrap());
            a.dealloc(q, small);
            (live_bytes(), peak)
        };
        assert_eq!(live, 0);
        assert_eq!(peak, 1_100);
        assert_eq!(allocations() - allocations_before, 3);
        // SAFETY: the pointer is freed once, with the layout it was
        // allocated with.
        let (_, held) = peak_during(|| unsafe {
            let p = a.alloc(small);
            a.dealloc(p, small);
        });
        assert_eq!(held, 100);
        assert_eq!(peak_bytes(), 100);
    }
}
