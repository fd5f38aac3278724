//! A counting global allocator.
//!
//! Grown out of the zero-alloc regression test's private harness: a
//! thin wrapper over the system allocator that counts `alloc` calls in
//! a relaxed atomic. Binaries install it with `#[global_allocator]` so
//! the profile report can state how often the process touched the heap
//! — the steady-state answer should be "never", since a flit carries its
//! descriptor by value, and the counter is how a regression shows up in
//! a profile before it shows up in a benchmark.
//!
//! Alongside the call counter the wrapper tracks *live bytes* and their
//! high-water mark, which is what the bounded-memory gate for streaming
//! telemetry reads: a streamed run's peak must not scale with event
//! count. Byte accounting is best-effort under concurrency (the
//! current/peak pair is updated with relaxed atomics, so a racing
//! dealloc can briefly undercount), which is fine for a gate comparing
//! peaks that differ by integer factors.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn add_bytes(size: u64) {
    let now = CURRENT_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

fn sub_bytes(size: u64) {
    // Saturate rather than wrap: a dealloc of memory obtained before a
    // `reset_peak_bytes` baseline must not underflow the live counter.
    let _ = CURRENT_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |now| {
        Some(now.saturating_sub(size))
    });
}

/// The counting allocator. Install once per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: asynoc_probe::CountingAlloc = asynoc_probe::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are relaxed atomic
// updates with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            add_bytes(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        sub_bytes(layout.size() as u64);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            sub_bytes(layout.size() as u64);
            add_bytes(new_size as u64);
        }
        new_ptr
    }
}

/// Heap allocations made so far by this process — 0 unless the binary
/// installed [`CountingAlloc`] as its global allocator.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Live heap bytes right now (same installation caveat as
/// [`allocations`]).
#[must_use]
pub fn current_bytes() -> u64 {
    CURRENT_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since process start or the last
/// [`reset_peak_bytes`].
#[must_use]
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Rebases the peak to the current live-byte level, so a caller can
/// measure the *additional* high-water mark of one phase of work.
pub fn reset_peak_bytes() {
    PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_at_zero_without_installation() {
        // The test binary does not install CountingAlloc, so nothing
        // increments the counter (beyond other tests in this module).
        assert_eq!(allocations(), 0);
        ALLOCATIONS.fetch_add(3, Ordering::Relaxed);
        assert_eq!(allocations(), 3);
    }

    #[test]
    fn byte_accounting_tracks_peak_and_rebase() {
        add_bytes(1_000);
        assert!(peak_bytes() >= 1_000);
        sub_bytes(400);
        assert_eq!(current_bytes(), 600);
        reset_peak_bytes();
        assert_eq!(peak_bytes(), 600);
        add_bytes(100);
        assert_eq!(peak_bytes(), 700);
        // Freeing pre-baseline memory saturates instead of wrapping.
        sub_bytes(10_000);
        assert_eq!(current_bytes(), 0);
    }
}
