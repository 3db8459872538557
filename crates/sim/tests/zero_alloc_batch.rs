//! Extends the zero-allocation discipline (DESIGN.md §9) to the batched
//! engine (DESIGN.md §13): once a [`lnuca_sim::batch::BatchRunner`] is
//! constructed — members built, horizon heap seeded —
//! steady-state stepping must perform no heap allocation. ISSUE 6 names
//! `crates/core/tests/zero_alloc.rs` for this case, but lnuca-core cannot
//! depend on lnuca-sim (it sits below it in the crate DAG), so the batched
//! case lives here beside the solo-hierarchy binary `tests/zero_alloc.rs`.
//!
//! The test binary installs a counting global allocator; it contains only
//! this one test so the counter observes nothing but the code under test.
//! Member retirement is excluded by construction (it materialises a
//! `RunResult`, which owns strings): the measured window is bounded far
//! below any member's completion.

use lnuca_sim::batch::{BatchJob, BatchRunner};
use lnuca_sim::configs::{self, HierarchyKind};
use lnuca_sim::system::Engine;
use lnuca_workloads::suites;
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

#[test]
fn batched_steady_state_does_not_allocate() {
    let specs = [
        HierarchyKind::Conventional(configs::conventional()).to_spec(),
        HierarchyKind::LNucaL3(configs::lnuca_hierarchy(3)).to_spec(),
        HierarchyKind::DNuca(configs::dnuca_hierarchy()).to_spec(),
        HierarchyKind::LNucaDNuca(configs::lnuca_dnuca_hierarchy(2)).to_spec(),
    ];
    let profiles = suites::extended();

    // Budgets far beyond the stepped window: no member retires while the
    // counter is live, so the only allocation sites the window can see are
    // the per-cycle paths the zero-allocation rule covers.
    let jobs: Vec<BatchJob<'_>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| BatchJob {
            spec,
            profile: &profiles[i * 6],
            instructions: 50_000_000,
            seed: 11 + i as u64,
        })
        .collect();
    let mut runner =
        BatchRunner::new(Engine::EventHorizon, &jobs).expect("valid paper configurations");

    // Warm-up: queues, MSHR waiter slots, core scoreboards, scratch
    // buffers and the horizon heap all reach steady-state capacity.
    for _ in 0..40_000 {
        assert!(runner.step(), "no member may finish during warm-up");
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        assert!(runner.step(), "no member may finish in the measured window");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(runner.live(), jobs.len(), "every member is still in flight");
    assert!(
        runner.clock().is_some_and(|c| c.0 > 10_000),
        "the batch clock must have advanced through the window"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state batched stepping allocated {} times",
        after - before
    );
}
