//! Pins the zero-allocation invariant of the core's steady-state cycle
//! (DESIGN.md §9): once warmed up, `OooCore::tick` plus
//! `OooCore::next_event` must not touch the heap. Every queue, list and slot
//! table of the core is sized from its `CoreConfig` at construction. The
//! same holds for a warmed `CompletionQueue` under pushes and drains.
//!
//! The test binary installs a counting global allocator; it contains only
//! this one test so the counter observes nothing but the code under test.

use lnuca_cpu::{CompletionQueue, CoreConfig, DataMemory, FixedLatencyMemory, OooCore};
use lnuca_types::{Addr, Cycle, MemRequest, MemResponse, ReqId, ServiceLevel};
use lnuca_workloads::{Instr, TraceGenerator, WorkloadProfile};
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

/// Ticks `core` and `memory` for `cycles` cycles from `start`, asking the
/// core for its horizon after every tick as the event-horizon engine does.
fn drive<T: Iterator<Item = Instr>>(
    core: &mut OooCore<T>,
    memory: &mut FixedLatencyMemory,
    start: u64,
    cycles: u64,
) -> u64 {
    let mut horizons = 0;
    for c in start..start + cycles {
        memory.tick(Cycle(c));
        core.tick(Cycle(c), memory);
        horizons += u64::from(core.next_event(Cycle(c)).is_some());
    }
    horizons
}

/// Pushes one response per cycle with a latency cycling through 1..=16 and
/// drains every cycle, as a hierarchy does; returns the responses drained.
fn churn(queue: &mut CompletionQueue, out: &mut Vec<MemResponse>, start: u64, cycles: u64) -> u64 {
    let mut drained = 0;
    for c in start..start + cycles {
        let req = MemRequest::read(ReqId(c), Addr(64 * c), Cycle(c));
        let completes = Cycle(c + 1 + c % 16);
        queue.push(MemResponse::for_request(&req, completes, ServiceLevel::L1));
        out.clear();
        queue.drain_ready(Cycle(c), out);
        drained += out.len() as u64;
    }
    drained
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    let mut queue = CompletionQueue::new();
    let mut out = Vec::new();
    churn(&mut queue, &mut out, 0, 1_000);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let drained = churn(&mut queue, &mut out, 1_000, 10_000);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(drained > 9_000, "the queue must keep draining");
    assert_eq!(
        after - before,
        0,
        "a warmed completion queue allocated {} times",
        after - before
    );

    for latency in [2u64, 40] {
        let trace = TraceGenerator::new(WorkloadProfile::default(), 7);
        let mut core = OooCore::new(CoreConfig::paper(), trace).expect("paper config is valid");
        let mut memory = FixedLatencyMemory::new(latency);

        // Warm-up: the memory's in-flight queue and the core's completion
        // scratch grow to their steady-state capacity.
        drive(&mut core, &mut memory, 0, 20_000);
        let committed = core.committed();

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let horizons = drive(&mut core, &mut memory, 20_000, 10_000);
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert!(core.committed() > committed, "the core must keep committing");
        assert!(horizons > 0, "a running core reports horizons");
        assert_eq!(
            after - before,
            0,
            "latency={latency}: steady-state cycles allocated {} times",
            after - before
        );
    }
}
