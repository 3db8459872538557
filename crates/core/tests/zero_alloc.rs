//! Pins the zero-allocation invariant of the fabric's steady-state cycle
//! loop (DESIGN.md §9): once the scratch buffers have warmed up, `tick` plus
//! the three `drain_*_into` calls must not touch the heap.
//!
//! The test binary installs a counting global allocator; it contains only
//! this one test so the counter observes nothing but the code under test.

use lnuca_core::{LNuca, LNucaConfig};
use lnuca_types::{Addr, Cycle, ReqId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// counter is a relaxed atomic with no allocator interaction.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Drives `fabric` for `cycles` cycles with the same load pattern as the
/// `sim_throughput` bench: one search every 4 cycles, one root eviction
/// every 8.
fn drive(
    fabric: &mut LNuca,
    start: u64,
    cycles: u64,
    arrivals: &mut Vec<lnuca_core::Arrival>,
    misses: &mut Vec<lnuca_core::GlobalMiss>,
    spills: &mut Vec<lnuca_core::Spill>,
) -> u64 {
    let mut delivered = 0;
    for c in start..start + cycles {
        if c % 4 == 0 {
            let _ = fabric.inject_search(Addr((c % 512) * 0x200), ReqId(c), false, Cycle(c));
        }
        if c % 8 == 0 {
            fabric.evict_from_root(Addr((c % 1024) * 0x40), c % 16 == 0);
        }
        fabric.tick(Cycle(c));
        arrivals.clear();
        misses.clear();
        spills.clear();
        fabric.drain_arrivals_into(Cycle(c), arrivals);
        fabric.drain_global_misses_into(Cycle(c), misses);
        fabric.drain_spills_into(Cycle(c), spills);
        delivered += arrivals.len() as u64;
    }
    delivered
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    for levels in [2u8, 3, 4] {
        let mut fabric =
            LNuca::new(LNucaConfig::paper(levels).expect("valid levels")).expect("valid config");
        let mut arrivals = Vec::new();
        let mut misses = Vec::new();
        let mut spills = Vec::new();

        // Warm-up: scratch buffers, queues and the frontier pool grow to
        // their steady-state capacity.
        drive(&mut fabric, 0, 20_000, &mut arrivals, &mut misses, &mut spills);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let delivered = drive(&mut fabric, 20_000, 10_000, &mut arrivals, &mut misses, &mut spills);
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert!(delivered > 0, "the load pattern must produce fabric hits");
        assert_eq!(
            after - before,
            0,
            "levels={levels}: steady-state cycles allocated {} times",
            after - before
        );
    }
}
