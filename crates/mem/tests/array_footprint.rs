//! A [`CacheArray`] line costs 10 bytes of heap: an 8-byte tag word, a
//! dirty byte and a one-byte recency rank (DESIGN.md §10.2). The paper's
//! 8 MB L3 is 65 536 lines, the largest array any preset builds.
//!
//! The test binary installs a counting global allocator that tracks live
//! and peak heap bytes; it contains only this one test so the counter
//! observes nothing but the code under test.

use lnuca_mem::{CacheArray, CacheGeometry, ReplacementPolicy};
use lnuca_types::Addr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates every operation to the system allocator unchanged; the
// counters are relaxed atomics with no allocator interaction.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Peak live heap bytes above the starting level while `f` runs.
fn peak_while(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn the_paper_l3_array_costs_at_most_10_bytes_per_line() {
    // The paper's L3: 8 MB, 16-way, 128 B blocks.
    let geometry = CacheGeometry::new(8 * 1024 * 1024, 16, 128).unwrap();
    let lines = geometry.lines();
    assert_eq!(lines, 65_536);
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ] {
        let peak = peak_while(|| {
            let mut array = CacheArray::new(geometry, policy);
            // Fill every line twice over, so every set evicts: no path
            // allocates beyond the lanes built up front.
            for i in 0..2 * lines as u64 {
                array.fill(Addr(i * 128), i % 3 == 0);
                array.lookup(Addr(i / 2 * 128));
            }
            assert_eq!(array.resident(), lines);
        });
        assert!(
            peak <= 10 * lines,
            "{policy:?}: peak heap {peak} B is {:.2} B per line",
            peak as f64 / lines as f64
        );
    }
}
