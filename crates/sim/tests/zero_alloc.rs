//! Closes the zero-allocation coverage gap left by
//! `crates/core/tests/zero_alloc.rs`, which pins the bare fabric only: this
//! binary drives a full **LNUCA + DNUCA combined hierarchy** — root tile,
//! fabric, waiter slots, MSHRs, write buffer, D-NUCA outer level and the
//! event-horizon skip-ahead path (`next_event` + clock jumps) — and asserts
//! that steady-state operation performs no heap allocation (DESIGN.md §9/§10).
//!
//! The test binary installs a counting global allocator; it contains only
//! this one test so the counter observes nothing but the code under test.

use lnuca_cpu::DataMemory;
use lnuca_sim::hierarchy::LNucaHierarchy;
use lnuca_sim::spec::HierarchySpec;
use lnuca_types::{Addr, Cycle, MemRequest, MemResponse, ReqId};
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

/// Drives the hierarchy for `rounds` burst/drain rounds using the same
/// issue/tick/drain/skip sequence as `System::run_spec`'s event-horizon
/// engine: each round offers a short burst of reads (rejections under MSHR
/// pressure are part of the workload), then ticks and jumps along the
/// hierarchy's `next_event` horizons until it reports quiescence — the long
/// outer-level and DRAM waits are exactly the windows the engine skips.
/// Returns `(final clock, completions observed, turns that jumped more than
/// one cycle)`.
fn drive(
    hierarchy: &mut LNucaHierarchy,
    start: Cycle,
    rounds: u64,
    mut next_req: u64,
    scratch: &mut Vec<MemResponse>,
) -> (Cycle, u64, u64) {
    let mut now = start;
    let mut completed = 0u64;
    let mut jumps = 0u64;
    for round in 0..rounds {
        // A stride pattern over a multi-set working set: plenty of root-tile
        // hits, fabric hits, global misses into the D-NUCA and memory.
        for burst in 0..8u64 {
            let turn = round * 8 + burst;
            let addr = Addr((turn % 4096) * 0x120 + (turn % 3) * 0x40);
            let _ = hierarchy.issue(MemRequest::read(ReqId(next_req), addr, now), now);
            next_req += 1;
            hierarchy.tick(now);
            scratch.clear();
            hierarchy.drain_completions(now, scratch);
            completed += scratch.len() as u64;
            now = now.next();
        }
        // Drain to quiescence, jumping over idle stretches (bounded so a
        // contract bug fails the test instead of hanging it).
        for _ in 0..10_000 {
            hierarchy.tick(now);
            scratch.clear();
            hierarchy.drain_completions(now, scratch);
            completed += scratch.len() as u64;
            match hierarchy.next_event(now) {
                Some(target) => {
                    let target = target.max(now.next());
                    if target > now.next() {
                        jumps += 1;
                    }
                    now = target;
                }
                None => {
                    now = now.next();
                    break;
                }
            }
        }
    }
    (now, completed, jumps)
}

#[test]
fn combined_lnuca_dnuca_steady_state_does_not_allocate() {
    let spec = HierarchySpec::lnuca_dnuca(3).expect("valid paper configuration");
    let mut hierarchy = LNucaHierarchy::from_spec(&spec).expect("valid paper configuration");
    let mut scratch: Vec<MemResponse> = Vec::new();

    // Warm-up: queues, waiter slots, MSHR slots, scratch buffers and the
    // fabric's pools all reach their steady-state capacity.
    let (clock, warm_completed, _) = drive(&mut hierarchy, Cycle(0), 1_500, 0, &mut scratch);
    assert!(warm_completed > 1_000, "the drive pattern must produce traffic");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (_, completed, jumps) = drive(&mut hierarchy, clock, 750, 1_000_000, &mut scratch);
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(completed > 500, "steady state keeps serving requests");
    assert!(jumps > 0, "the event-horizon path must actually skip ahead");
    assert_eq!(
        after - before,
        0,
        "steady-state LNUCA+DNUCA cycles (incl. skip-ahead) allocated {} times",
        after - before
    );
}
