//! A counting global allocator: it counts allocations, so the traced run
//! can hold the predictor hot path to exactly zero heap allocations per
//! branch (the contract the repository's `throughput` binary also
//! enforces), and tracks the bytes live on the heap and their peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-backed allocator that counts allocations and reallocations
/// and tracks live and peak heap bytes.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are relaxed
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations (including reallocations) the process has made so far,
/// across all threads.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The most bytes that were live on the heap at once since the last
/// [`reset_peak`] (or since the process started).
pub fn peak_heap_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restarts the peak from the bytes live now, so a later
/// [`peak_heap_bytes`] covers only what runs after this call.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_heap_peak_covers_a_large_allocation() {
        let block = vec![1u8; 8 << 20];
        std::hint::black_box(&block);
        assert!(super::peak_heap_bytes() >= 8 << 20);
        drop(block);
        super::reset_peak();
        assert!(super::peak_heap_bytes() < 8 << 20);
        let before = super::allocations();
        drop(std::hint::black_box(vec![0u64; 16]));
        assert!(super::allocations() > before);
    }
}
