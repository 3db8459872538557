//! Extends the zero-allocation discipline (DESIGN.md §9) to
//! [`lnuca_sim::batch::BatchRunner`] (DESIGN.md §13): once a runner is
//! constructed — its member built — steady-state stepping must perform no
//! heap allocation. lnuca-core cannot depend on lnuca-sim (it sits below
//! it in the crate DAG), so the whole-system case lives here beside the
//! solo-hierarchy binary `tests/zero_alloc.rs`.
//!
//! Five shapes each get their own one-member runner: conventional, LN3,
//! D-NUCA, LN2 + D-NUCA, and a `cores = 2` member (the `cmp-sharing`
//! shape) that covers the CMP memory side: per-core completion queues and
//! the MSI directory.
//!
//! The test binary installs a counting global allocator; it contains only
//! this one test so the counter observes nothing but the code under test.
//! Member retirement is excluded by construction (it materialises a
//! `RunResult`, which owns strings): the measured window is bounded far
//! below any member's completion.

use lnuca_sim::batch::{BatchJob, BatchRunner};
use lnuca_sim::configs::{self, HierarchyKind};
use lnuca_sim::spec::HierarchySpec;
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
        HierarchySpec::builder()
            .backing_cache(configs::paper_l3())
            .cores(2)
            .build()
            .expect("the 2-core shape is valid"),
    ];
    let extended = suites::extended();
    let sharing = suites::by_name("sh.prodcons").expect("a built-in profile");
    let profiles = [
        &extended[0],
        &extended[6],
        &extended[12],
        &extended[18],
        &sharing,
    ];

    // Budgets far beyond the stepped window: no member retires while the
    // counter is live, so the only allocation sites a window can see are
    // the per-cycle paths the zero-allocation rule covers. Every runner is
    // built before any window is counted.
    let jobs: Vec<BatchJob<'_>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| BatchJob {
            spec,
            profile: profiles[i],
            instructions: 50_000_000,
            seed: 11 + i as u64,
        })
        .collect();
    let mut runners: Vec<BatchRunner> = jobs
        .iter()
        .map(|job| {
            BatchRunner::new(Engine::EventHorizon, &[*job]).expect("valid paper configurations")
        })
        .collect();

    for (runner, spec) in runners.iter_mut().zip(&specs) {
        let label = spec.label();
        // Warm-up: queues, MSHR waiter slots, core scoreboards and scratch
        // buffers all reach steady-state capacity.
        for _ in 0..40_000 {
            assert!(runner.step(), "{label} may not finish during warm-up");
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            assert!(runner.step(), "{label} may not finish in the measured window");
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert_eq!(runner.live(), 1, "{label} is still in flight");
        assert_eq!(
            after - before,
            0,
            "steady-state stepping of {label} allocated {} times",
            after - before
        );
    }
}
