//! A [`lnuca_sim::batch::BatchRunner`] holds at most one member's machine
//! at a time (DESIGN.md §13.2): each member is built when the runner
//! reaches it and freed when it retires. So the peak heap of a wide batch
//! is one member's machine plus the finished members' results, not the sum
//! of every machine.
//!
//! The test binary installs a counting global allocator that tracks live
//! and peak heap bytes; it contains only this one test so the counter
//! observes nothing but the code under test.

use lnuca_sim::batch::{BatchJob, BatchRunner};
use lnuca_sim::configs;
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::system::Engine;
use lnuca_workloads::suites;
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
fn a_wide_batch_holds_one_member_at_a_time() {
    // The `cmp-sharing` 2x shape: two private L1s over the shared 8 MB L3.
    let spec = HierarchySpec::builder()
        .backing_cache(configs::paper_l3())
        .cores(2)
        .build()
        .expect("the 2-core shape is valid");
    let profile = suites::by_name("sh.prodcons").expect("a built-in profile");
    let job = BatchJob {
        spec: &spec,
        profile: &profile,
        instructions: 3_000,
        seed: 7,
    };
    let wide = [job; 6];

    let one = peak_while(|| {
        let results = BatchRunner::new(Engine::EventHorizon, &[job])
            .expect("valid")
            .run_results();
        assert_eq!(results.len(), 1);
    });
    let six = peak_while(|| {
        let results = BatchRunner::new(Engine::EventHorizon, &wide)
            .expect("valid")
            .run_results();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r == &results[0]), "equal jobs, equal results");
    });
    assert!(
        six * 2 <= one * 3,
        "a 6-member batch peaked at {six} live heap bytes, more than 1.5x a \
         one-member batch's {one}"
    );
}
