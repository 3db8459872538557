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

/// Responses waiting for their completion cycle, with the earliest
/// `completed_at` cached so an idle cycle costs one comparison.
///
/// The shared building block of every [`DataMemory::drain_completions`] and
/// [`DataMemory::next_event`] implementation whose responses do not complete
/// in insertion order. [`CompletionQueue::drain_ready`] returns at once
/// while nothing has matured; otherwise it moves the matured responses out
/// in insertion order (keeping the rest in order) and recomputes the cached
/// minimum in the same pass.
///
/// # Example
///
/// ```
/// use lnuca_cpu::CompletionQueue;
/// use lnuca_types::{Addr, Cycle, MemRequest, MemResponse, ReqId, ServiceLevel};
///
/// let req = |id| MemRequest::read(ReqId(id), Addr(0x40), Cycle(0));
/// let mut queue = CompletionQueue::new();
/// queue.push(MemResponse::for_request(&req(1), Cycle(9), ServiceLevel::L1));
/// queue.push(MemResponse::for_request(&req(2), Cycle(4), ServiceLevel::L1));
/// assert_eq!(queue.earliest(), Some(Cycle(4)));
///
/// let mut out = Vec::new();
/// queue.drain_ready(Cycle(5), &mut out);
/// assert_eq!(out.len(), 1);
/// assert_eq!(queue.earliest(), Some(Cycle(9)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompletionQueue {
    entries: VecDeque<MemResponse>,
    earliest: Option<Cycle>,
}

impl CompletionQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `capacity` responses before it grows.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        CompletionQueue {
            entries: VecDeque::with_capacity(capacity),
            earliest: None,
        }
    }

    /// Number of responses not yet drained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no response is waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The smallest `completed_at` among the waiting responses, or `None`
    /// when the queue is empty.
    #[must_use]
    pub fn earliest(&self) -> Option<Cycle> {
        self.earliest
    }

    /// Appends a response.
    pub fn push(&mut self, response: MemResponse) {
        let at = response.completed_at;
        self.earliest = Some(self.earliest.map_or(at, |e| e.min(at)));
        self.entries.push_back(response);
    }

    /// Moves every response with `completed_at <= now` to `out`, in
    /// insertion order, keeping the rest in order. No allocation beyond
    /// `out`'s growth.
    pub fn drain_ready(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        if self.earliest.is_none_or(|e| e > now) {
            return;
        }
        let mut earliest: Option<Cycle> = None;
        self.entries.retain(|r| {
            if r.completed_at <= now {
                out.push(*r);
                false
            } else {
                earliest = Some(earliest.map_or(r.completed_at, |e| e.min(r.completed_at)));
                true
            }
        });
        self.earliest = earliest;
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
    in_flight: CompletionQueue,
    accepted: u64,
}

impl FixedLatencyMemory {
    /// Creates a memory with the given fixed latency in cycles.
    #[must_use]
    pub fn new(latency: u64) -> Self {
        FixedLatencyMemory {
            latency,
            in_flight: CompletionQueue::new(),
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
        self.in_flight
            .push(MemResponse::for_request(&req, now + self.latency, ServiceLevel::L1));
        true
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.in_flight.drain_ready(now, out);
    }

    fn tick(&mut self, _now: Cycle) {}

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.in_flight.earliest().map(|at| at.max(now.next()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_types::{Addr, ReqId};
    use proptest::prelude::*;

    /// The drain every completion queue used before [`CompletionQueue`]:
    /// one full rotation per call, kept as the reference.
    fn rotating_drain(queue: &mut VecDeque<MemResponse>, now: Cycle, out: &mut Vec<MemResponse>) {
        for _ in 0..queue.len() {
            let resp = queue.pop_front().expect("length checked");
            if resp.completed_at <= now {
                out.push(resp);
            } else {
                queue.push_back(resp);
            }
        }
    }

    proptest! {
        /// Random push/drain sequences drain exactly what the rotating
        /// reference drains, in the same order, and `earliest()` is always
        /// the minimum pending completion.
        #[test]
        fn completion_queue_matches_the_rotating_drain(
            ops in proptest::collection::vec((0u8..3, 0u64..40), 1..200),
        ) {
            let mut queue = CompletionQueue::new();
            let mut reference: VecDeque<MemResponse> = VecDeque::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut now = Cycle(0);
            for (i, &(op, delta)) in ops.iter().enumerate() {
                if op == 0 {
                    now += delta % 8;
                    queue.drain_ready(now, &mut got);
                    rotating_drain(&mut reference, now, &mut want);
                    prop_assert_eq!(&got, &want);
                } else {
                    let req = MemRequest::read(ReqId(i as u64), Addr(64 * i as u64), now);
                    let resp = MemResponse::for_request(&req, now + delta, ServiceLevel::L1);
                    queue.push(resp);
                    reference.push_back(resp);
                }
                prop_assert_eq!(queue.len(), reference.len());
                prop_assert_eq!(queue.earliest(), reference.iter().map(|r| r.completed_at).min());
            }
        }
    }

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
