//! The interface between the core and the memory hierarchy.

use lnuca_types::{Cycle, MemRequest, MemResponse, ServiceLevel};
use std::collections::VecDeque;

/// A data-memory hierarchy as seen by the core: an in-order-completion-free
/// request/response port.
///
/// The hierarchies in `lnuca-sim` (conventional, L-NUCA, D-NUCA, ...)
/// implement this trait; [`FixedLatencyMemory`] provides a trivial
/// implementation for unit tests and micro-benchmarks of the core itself.
pub trait DataMemory {
    /// Offers a request to the hierarchy at cycle `now`.
    ///
    /// Returns `false` if the hierarchy cannot accept it this cycle (port
    /// busy, MSHRs full, write buffer full); the caller must retry later.
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool;

    /// Appends the completions that have become available up to and
    /// including `now` to `out`, oldest first.
    ///
    /// Every appended response must have `completed_at <= now`: the core
    /// wakes a load's consumers at the tick that drains its response.
    ///
    /// `out` is not cleared: the caller owns the scratch buffer and reuses
    /// its capacity across cycles, so a steady-state cycle performs no heap
    /// allocation (the zero-allocation invariant of DESIGN.md §9).
    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>);

    /// Completions that have become available up to and including `now`.
    ///
    /// Allocating convenience over [`DataMemory::drain_completions`] for
    /// tests and examples; the simulation loop uses the drain form.
    fn completions(&mut self, now: Cycle) -> Vec<MemResponse> {
        let mut out = Vec::new();
        self.drain_completions(now, &mut out);
        out
    }

    /// Advances the hierarchy by one cycle.
    fn tick(&mut self, now: Cycle);

    /// Earliest cycle strictly after `now` at which this hierarchy's state
    /// can change on its own (a queued completion maturing, a buffered
    /// message becoming forwardable, a per-cycle drain that still has work),
    /// or `None` when the hierarchy is fully quiescent until the next
    /// [`DataMemory::issue`].
    ///
    /// This is the event-horizon contract of DESIGN.md §10. The driver may
    /// skip `now` straight to the minimum horizon across all components, so
    /// ticking this hierarchy at any cycle in `(now, next_event(now))` must
    /// be a complete no-op — **no component may under-report its horizon**.
    /// Over-reporting (returning an earlier cycle than the real event, e.g.
    /// `now + 1` while busy) is always safe and merely disables skipping.
    ///
    /// The default is maximally conservative — always busy — so custom
    /// implementations degrade to per-cycle stepping until they opt in.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now.next())
    }
}

/// Moves every response with `completed_at <= now` from `queue` to `out`
/// (oldest first), keeping the rest in order — one rotation of the queue,
/// no temporary allocation.
///
/// The shared building block for [`DataMemory::drain_completions`]
/// implementations whose completion queue is not sorted by completion time.
pub fn drain_ready(queue: &mut VecDeque<MemResponse>, now: Cycle, out: &mut Vec<MemResponse>) {
    for _ in 0..queue.len() {
        let resp = queue.pop_front().expect("length checked");
        if resp.completed_at <= now {
            out.push(resp);
        } else {
            queue.push_back(resp);
        }
    }
}

/// A memory that accepts every request and completes it after a fixed
/// latency. Useful to test and benchmark the core model in isolation and to
/// establish the no-memory-stall IPC upper bound of a workload.
///
/// # Example
///
/// ```
/// use lnuca_cpu::{DataMemory, FixedLatencyMemory};
/// use lnuca_types::{Addr, Cycle, MemRequest, ReqId};
///
/// let mut memory = FixedLatencyMemory::new(10);
/// assert!(memory.issue(MemRequest::read(ReqId(1), Addr(0x40), Cycle(5)), Cycle(5)));
/// assert!(memory.completions(Cycle(14)).is_empty());
/// assert_eq!(memory.completions(Cycle(15)).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FixedLatencyMemory {
    latency: u64,
    in_flight: VecDeque<MemResponse>,
    accepted: u64,
}

impl FixedLatencyMemory {
    /// Creates a memory with the given fixed latency in cycles.
    #[must_use]
    pub fn new(latency: u64) -> Self {
        FixedLatencyMemory {
            latency,
            in_flight: VecDeque::new(),
            accepted: 0,
        }
    }

    /// Number of requests accepted so far.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }
}

impl DataMemory for FixedLatencyMemory {
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
        self.accepted += 1;
        self.in_flight.push_back(MemResponse::for_request(
            &req,
            now + self.latency,
            ServiceLevel::L1,
        ));
        true
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        drain_ready(&mut self.in_flight, now, out);
    }

    fn tick(&mut self, _now: Cycle) {}

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.in_flight
            .iter()
            .map(|r| r.completed_at.max(now.next()))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_types::{Addr, ReqId};

    #[test]
    fn fixed_latency_memory_completes_after_latency() {
        let mut m = FixedLatencyMemory::new(3);
        assert!(m.issue(MemRequest::read(ReqId(1), Addr(0), Cycle(10)), Cycle(10)));
        assert!(m.issue(MemRequest::write(ReqId(2), Addr(64), Cycle(11)), Cycle(11)));
        assert!(m.completions(Cycle(12)).is_empty());
        let first = m.completions(Cycle(13));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, ReqId(1));
        assert_eq!(m.completions(Cycle(14)).len(), 1);
        assert_eq!(m.accepted(), 2);
    }

    #[test]
    fn fixed_latency_memory_reports_its_completion_horizon() {
        let mut m = FixedLatencyMemory::new(10);
        assert_eq!(m.next_event(Cycle(0)), None, "idle memory has no events");
        assert!(m.issue(MemRequest::read(ReqId(1), Addr(0), Cycle(5)), Cycle(5)));
        assert_eq!(m.next_event(Cycle(5)), Some(Cycle(15)));
        // Already-mature completions still floor at now + 1.
        assert_eq!(m.next_event(Cycle(40)), Some(Cycle(41)));
        let _ = m.completions(Cycle(15));
        assert_eq!(m.next_event(Cycle(15)), None);
    }

    #[test]
    fn trait_object_usability() {
        fn accepts_dyn(mem: &mut dyn DataMemory) {
            assert!(mem.issue(MemRequest::read(ReqId(9), Addr(0x100), Cycle(0)), Cycle(0)));
        }
        let mut m = FixedLatencyMemory::new(1);
        accepts_dyn(&mut m);
        assert_eq!(m.accepted(), 1);
    }
}
