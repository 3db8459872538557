//! The out-of-order pipeline model.

use crate::config::CoreConfig;
use crate::memory::DataMemory;
use crate::predictor::HybridPredictor;
use lnuca_types::{Addr, ConfigError, Cycle, MemRequest, MemResponse, ReqId};
use lnuca_workloads::{Instr, InstrKind};
use std::collections::VecDeque;

/// Execution state of a reorder-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Dispatched, waiting for operands / issue bandwidth / memory port.
    Dispatched,
    /// Issued to a functional unit or to the memory hierarchy.
    Executing,
    /// Result available; can commit when it reaches the ROB head.
    Completed,
}

/// One slot of the reorder-buffer ring.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    kind: InstrKind,
    addr: Option<Addr>,
    state: EntryState,
    completes_at: Cycle,
    /// Ring slot of one dispatched entry waiting on this entry's result;
    /// the rest of the list is threaded through the waiters' `next_waiter`.
    first_waiter: Option<u32>,
    next_waiter: Option<u32>,
    /// Producer sequence number, kept only for the invariant check.
    #[cfg(test)]
    dep_seq: Option<u64>,
}

impl RobEntry {
    const VACANT: RobEntry = RobEntry {
        kind: InstrKind::IntAlu,
        addr: None,
        state: EntryState::Completed,
        completes_at: Cycle::ZERO,
        first_waiter: None,
        next_waiter: None,
        #[cfg(test)]
        dep_seq: None,
    };
}

/// The issue window an instruction waits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueClass {
    Int,
    Fp,
    Mem,
}

impl IssueClass {
    fn of(kind: InstrKind) -> IssueClass {
        match kind {
            InstrKind::FpAlu => IssueClass::Fp,
            InstrKind::Load | InstrKind::Store => IssueClass::Mem,
            InstrKind::IntAlu | InstrKind::Branch { .. } => IssueClass::Int,
        }
    }
}

/// A load in flight in the memory hierarchy.
#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    id: ReqId,
    seq: u64,
    issued_at: Cycle,
}

/// The loads in flight, keyed by request id: open addressing with linear
/// probing over a power-of-two table at least twice as large as the number
/// of loads that can be in flight, so it is never more than half full.
/// Request ids are handed out sequentially, so their low bits already spread
/// them over the table without hashing.
#[derive(Debug)]
struct LoadTable {
    slots: Box<[Option<PendingLoad>]>,
    len: usize,
}

impl LoadTable {
    fn new(max_loads: usize) -> Self {
        LoadTable {
            slots: vec![None; (2 * max_loads).next_power_of_two()].into_boxed_slice(),
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, id: ReqId) -> usize {
        id.0 as usize & self.mask()
    }

    fn insert(&mut self, load: PendingLoad) {
        debug_assert!(2 * self.len < self.slots.len(), "more loads in flight than LSQ entries");
        let mut i = self.home(load.id);
        while self.slots[i].is_some() {
            i = (i + 1) & self.mask();
        }
        self.slots[i] = Some(load);
        self.len += 1;
    }

    /// The slot holding `id`, if that load is in flight.
    fn find(&self, id: ReqId) -> Option<usize> {
        let mut i = self.home(id);
        loop {
            match self.slots[i] {
                None => return None,
                Some(load) if load.id == id => return Some(i),
                Some(_) => i = (i + 1) & self.mask(),
            }
        }
    }

    fn remove(&mut self, id: ReqId) -> Option<PendingLoad> {
        let mut hole = self.find(id)?;
        let load = self.slots[hole].take();
        self.len -= 1;
        // Backward-shift deletion: move each later member of the probe run
        // into the hole when it stays reachable from its home slot there.
        let mask = self.mask();
        let mut i = (hole + 1) & mask;
        while let Some(next) = self.slots[i] {
            if i.wrapping_sub(self.home(next.id)) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
            i = (i + 1) & mask;
        }
        load
    }
}

/// Aggregate counters of an [`OooCore`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Instructions fetched (and dispatched) into the ROB.
    pub fetched: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Branches whose prediction was wrong.
    pub mispredictions: u64,
    /// Sum of observed load latencies (issue to data return), in cycles.
    pub load_latency_sum: u64,
    /// Loads whose latency is included in [`CoreStats::load_latency_sum`].
    pub load_latency_samples: u64,
    /// Cycles in which dispatch stalled because the ROB was full.
    pub rob_full_stalls: u64,
    /// Cycles in which a ready load could not be accepted by the hierarchy.
    pub memory_reject_stalls: u64,
    /// Cycles in which commit stalled because the store buffer was full.
    pub store_buffer_stalls: u64,
}

impl CoreStats {
    /// Committed instructions per cycle after `elapsed` cycles.
    #[must_use]
    pub fn ipc(&self, elapsed: Cycle) -> f64 {
        if elapsed.0 == 0 {
            0.0
        } else {
            self.committed as f64 / elapsed.0 as f64
        }
    }

    /// Mean observed load latency in cycles.
    #[must_use]
    pub fn mean_load_latency(&self) -> f64 {
        if self.load_latency_samples == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.load_latency_samples as f64
        }
    }

    /// Misprediction rate over committed branches.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }
}

/// A trace-driven out-of-order core.
///
/// The core consumes [`Instr`]s from any iterator (normally a
/// [`lnuca_workloads::TraceGenerator`]), models fetch / dispatch / issue /
/// execute / commit with the capacity limits of [`CoreConfig`], and talks to
/// the memory hierarchy through the [`DataMemory`] trait. It is deliberately
/// not cycle-exact against any real microarchitecture; what it reproduces is
/// the mechanism the paper's IPC numbers rely on — a limited instruction
/// window that can hide short cache latencies but not long ones, throttled
/// further by branch mispredictions and store-buffer pressure.
///
/// A tick costs work in proportion to the instructions that change state in
/// it, not to ROB occupancy (DESIGN.md §10.1). Window and LSQ occupancy are
/// counters; executing non-loads wait in two fixed-latency completion queues,
/// sorted because each has one latency; in-flight loads sit in a fixed slot
/// table keyed by request id. Issue visits only ready entries: an entry
/// becomes `Completed` no earlier than its `completes_at`, so its result is
/// visible from the tick it completes, and that tick wakes every entry
/// waiting on it. All of these structures are sized from the [`CoreConfig`]
/// at construction, so ticking never allocates.
#[derive(Debug)]
pub struct OooCore<T> {
    config: CoreConfig,
    trace: T,
    trace_exhausted: bool,
    predictor: HybridPredictor,
    /// The reorder buffer: a ring of at least `rob_size` slots (a power of
    /// two, whole 64-slot words) holding `head_seq..next_seq` at
    /// `seq & rob_mask`.
    rob: Box<[RobEntry]>,
    rob_mask: u64,
    /// Sequence number of the oldest in-flight instruction.
    head_seq: u64,
    next_seq: u64,
    /// One bit per ring slot, set while that entry is dispatched with its
    /// operand ready: exactly the entries the issue sweep visits.
    ready: Box<[u64]>,
    /// Dispatched (not yet issued) entries per [`IssueClass`].
    waiting: [usize; 3],
    /// Loads and stores in the ROB.
    lsq_occupancy: usize,
    /// Executing integer ALU ops, branches and store address generations as
    /// `(completes_at, seq)`, oldest issue first.
    int_done: VecDeque<(Cycle, u64)>,
    /// Executing floating-point ops, likewise.
    fp_done: VecDeque<(Cycle, u64)>,
    store_buffer: VecDeque<Addr>,
    pending_loads: LoadTable,
    next_req_id: u64,
    /// Sequence number of the mispredicted branch blocking fetch, if any.
    fetch_blocked_on: Option<u64>,
    /// Fetch may resume at this cycle (misprediction recovery).
    fetch_stalled_until: Cycle,
    /// An instruction pulled from the trace that could not be dispatched yet
    /// (ROB/window/LSQ back-pressure).
    pending_fetch: Option<Instr>,
    /// Reused per-cycle buffer for hierarchy completions (zero-allocation
    /// steady state).
    completion_scratch: Vec<MemResponse>,
    /// Open ROB-full stall window: the first cycle fetch found the ROB full.
    /// Stall *cycles* are accumulated into `stats.rob_full_stalls` lazily,
    /// when the window closes — ticking inside an open window is a no-op,
    /// which is what lets the event-horizon engine skip over it while
    /// producing bit-identical counters (DESIGN.md §10).
    rob_stall_since: Option<Cycle>,
    /// Open store-buffer-full commit stall window (same lazy accounting).
    store_stall_since: Option<Cycle>,
    /// Open memory-reject stall window: `(first cycle, rejects per cycle)`.
    /// While the hierarchy's state is frozen the same set of ready loads is
    /// rejected every cycle, so one `(since, k)` pair replays the per-cycle
    /// `+k` exactly; a change in `k` closes the window and opens a new one.
    mem_reject_since: Option<(Cycle, u64)>,
    /// `true` when the last issue pass issued nothing and rejected at least
    /// one load: every ready instruction is a load waiting on the hierarchy,
    /// so the core's next event is the hierarchy's, not `now + 1`.
    last_issue_all_rejected: bool,
    stats: CoreStats,
}

impl<T: Iterator<Item = Instr>> OooCore<T> {
    /// Creates a core that will execute `trace` under `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid.
    pub fn new(config: CoreConfig, trace: T) -> Result<Self, ConfigError> {
        config.validate()?;
        let ring = config.rob_size.next_power_of_two().max(64);
        Ok(OooCore {
            trace,
            trace_exhausted: false,
            predictor: HybridPredictor::new(),
            rob: vec![RobEntry::VACANT; ring].into_boxed_slice(),
            rob_mask: ring as u64 - 1,
            head_seq: 0,
            next_seq: 0,
            ready: vec![0; ring / 64].into_boxed_slice(),
            waiting: [0; 3],
            lsq_occupancy: 0,
            int_done: VecDeque::with_capacity(config.rob_size),
            fp_done: VecDeque::with_capacity(config.rob_size),
            store_buffer: VecDeque::with_capacity(config.store_buffer_size),
            // Every in-flight load holds an LSQ entry and a ROB entry.
            pending_loads: LoadTable::new(config.lsq_size.min(config.rob_size)),
            next_req_id: 0,
            fetch_blocked_on: None,
            fetch_stalled_until: Cycle::ZERO,
            pending_fetch: None,
            completion_scratch: Vec::with_capacity(config.lsq_size),
            rob_stall_since: None,
            store_stall_since: None,
            mem_reject_since: None,
            last_issue_all_rejected: false,
            stats: CoreStats::default(),
            config,
        })
    }

    /// The configuration this core was built with.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The branch predictor (exposed for its accuracy counters).
    #[must_use]
    pub fn predictor(&self) -> &HybridPredictor {
        &self.predictor
    }

    /// Number of instructions committed so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// `true` once the trace is exhausted and every in-flight instruction
    /// has committed and every buffered store has drained.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.trace_exhausted && self.rob_occupancy() == 0 && self.store_buffer.is_empty()
    }

    /// Advances the core by one cycle, exchanging requests and completions
    /// with `memory`.
    pub fn tick(&mut self, now: Cycle, memory: &mut dyn DataMemory) {
        self.collect_completions(now, memory);
        self.finish_execution(now);
        self.commit(now);
        self.drain_store_buffer(now, memory);
        self.issue(now, memory);
        self.fetch_and_dispatch(now);
    }

    /// Closes any stall windows still open at the end of a run so the lazily
    /// accumulated counters match per-cycle accounting exactly (a window
    /// open at `now` covered every executed cycle up to `now - 1`).
    ///
    /// Drivers call this once, after the last [`OooCore::tick`], with the
    /// final value of the simulation clock.
    pub fn finalize_stats(&mut self, now: Cycle) {
        if let Some(since) = self.rob_stall_since.take() {
            self.stats.rob_full_stalls += now.since(since);
        }
        if let Some(since) = self.store_stall_since.take() {
            self.stats.store_buffer_stalls += now.since(since);
        }
        if let Some((since, k)) = self.mem_reject_since.take() {
            self.stats.memory_reject_stalls += now.since(since) * k;
        }
    }

    /// Earliest cycle strictly after `now` at which ticking this core could
    /// change its visible state, or `None` if the core is waiting purely on
    /// the memory hierarchy (or finished). Part of the event-horizon
    /// contract (DESIGN.md §10): the caller must merge this with the
    /// hierarchy's [`DataMemory::next_event`], because load completions and
    /// the acceptance of previously rejected loads are hierarchy events.
    ///
    /// Must be called right after [`OooCore::tick`] at `now`; the invariant
    /// is that ticking at any cycle in `(now, horizon)` is a no-op.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.is_finished() {
            return None;
        }
        let floor = now.next();
        // The store buffer drains one write per cycle, probing the hierarchy
        // each time; conservatively busy while it holds anything.
        if !self.store_buffer.is_empty() {
            return Some(floor);
        }
        // Commit: a completed head is left only when commit width ran out.
        if self.rob_occupancy() > 0
            && self.rob[self.slot(self.head_seq)].state == EntryState::Completed
        {
            return Some(floor);
        }
        // Issue: ready work issues next cycle, unless the last pass issued
        // nothing and only collected rejected loads — then it wakes with the
        // hierarchy, whose horizon the caller merges.
        if !self.last_issue_all_rejected && self.ready.iter().any(|&word| word != 0) {
            return Some(floor);
        }

        let mut horizon: Option<Cycle> = None;
        // Front end: if fetch can actually proceed (not branch-blocked, ROB
        // has room, the staged instruction is not window/LSQ-gated) it runs
        // every cycle once the misprediction penalty elapses. Blocked
        // variants need no event of their own — the commits/issues that
        // unblock them report theirs.
        if self.fetch_blocked_on.is_none()
            && (self.pending_fetch.is_some() || !self.trace_exhausted)
        {
            if self.rob_occupancy() >= self.config.rob_size {
                // The ROB just filled: the next attempted fetch *opens* the
                // lazy stall window — a state change in its own right — so
                // the core stays busy until the attempt happens (at
                // `fetch_stalled_until` if the front end is serving a
                // misprediction penalty).
                if self.rob_stall_since.is_none() {
                    Cycle::merge_horizon(&mut horizon, self.fetch_stalled_until, floor);
                }
            } else if !self
                .pending_fetch
                .is_some_and(|instr| self.dispatch_gated(instr.kind))
            {
                // A staged instruction that fits, or one still in the trace
                // (assumed dispatchable: over-reporting is safe).
                Cycle::merge_horizon(&mut horizon, self.fetch_stalled_until, floor);
            }
        }

        // Execution: each completion queue has one latency, so its front is
        // its earliest finish; loads finish when the hierarchy says so. A
        // dispatched entry that is not ready waits on a producer that is
        // executing (covered here or by the hierarchy) or still dispatched
        // (woken by that producer's own events); a completed producer has
        // already woken it. So no per-entry producer scan is needed.
        for queue in [&self.int_done, &self.fp_done] {
            if let Some(&(at, _)) = queue.front() {
                Cycle::merge_horizon(&mut horizon, at, floor);
            }
        }
        horizon
    }

    // --- pipeline stages -------------------------------------------------

    fn collect_completions(&mut self, now: Cycle, memory: &mut dyn DataMemory) {
        let mut responses = std::mem::take(&mut self.completion_scratch);
        responses.clear();
        memory.drain_completions(now, &mut responses);
        for &resp in &responses {
            if let Some(load) = self.pending_loads.remove(resp.id) {
                debug_assert!(resp.completed_at <= now, "completion drained early");
                self.complete(self.slot(load.seq), now);
                self.stats.load_latency_sum += resp.completed_at.since(load.issued_at);
                self.stats.load_latency_samples += 1;
            }
            // Store-write completions carry no dependent work: the store
            // buffer entry was freed when the hierarchy accepted the write.
        }
        self.completion_scratch = responses;
    }

    fn finish_execution(&mut self, now: Cycle) {
        while let Some((at, seq)) = pop_due(&mut self.int_done, now) {
            self.finish(seq, at);
        }
        while let Some((at, seq)) = pop_due(&mut self.fp_done, now) {
            self.finish(seq, at);
        }
    }

    fn finish(&mut self, seq: u64, at: Cycle) {
        self.complete(self.slot(seq), at);
        if self.fetch_blocked_on == Some(seq) {
            // The front end restarts on the correct path after the
            // misprediction penalty.
            self.fetch_blocked_on = None;
            self.fetch_stalled_until = at + self.config.mispredict_penalty;
        }
    }

    fn commit(&mut self, now: Cycle) {
        let mut store_blocked = false;
        for _ in 0..self.config.commit_width {
            if self.rob_occupancy() == 0 {
                break;
            }
            let head = self.rob[self.slot(self.head_seq)];
            if head.state != EntryState::Completed {
                break;
            }
            if head.kind.is_store() {
                if self.store_buffer.len() >= self.config.store_buffer_size {
                    store_blocked = true;
                    if self.store_stall_since.is_none() {
                        self.store_stall_since = Some(now);
                    }
                    break;
                }
                self.store_buffer
                    .push_back(head.addr.expect("stores carry an address"));
                self.stats.stores += 1;
            } else if head.kind.is_load() {
                self.stats.loads += 1;
            } else if head.kind.is_branch() {
                self.stats.branches += 1;
            }
            if head.kind.is_memory() {
                self.lsq_occupancy -= 1;
            }
            self.head_seq += 1;
            self.stats.committed += 1;
        }
        if !store_blocked {
            // The stall window covered every cycle from its opening through
            // the last blocked cycle (`now - 1`); account it in one step.
            if let Some(since) = self.store_stall_since.take() {
                self.stats.store_buffer_stalls += now.since(since);
            }
        }
    }

    fn drain_store_buffer(&mut self, now: Cycle, memory: &mut dyn DataMemory) {
        for _ in 0..self.config.store_drain_per_cycle {
            let Some(&addr) = self.store_buffer.front() else {
                break;
            };
            let req = MemRequest::write(self.alloc_req_id(), addr, now);
            if memory.issue(req, now) {
                self.store_buffer.pop_front();
            } else {
                break;
            }
        }
    }

    fn issue(&mut self, now: Cycle, memory: &mut dyn DataMemory) {
        let mut int_issued = 0;
        let mut fp_issued = 0;
        let mut rejected: u64 = 0;
        // Loads and stores share the integer/memory issue ports in Table I.
        let int_mem_width = self.config.issue_width_int_mem;
        let fp_width = self.config.issue_width_fp;

        // Oldest-first over the ready entries only. Issuing wakes nobody
        // (results appear at completion), so the ready set only shrinks
        // during the sweep.
        let mut cursor = self.head_seq;
        while let Some(seq) = self.next_ready(cursor) {
            cursor = seq + 1;
            if int_issued >= int_mem_width && fp_issued >= fp_width {
                break;
            }
            let slot = self.slot(seq);
            let RobEntry { kind, addr, .. } = self.rob[slot];
            let class = IssueClass::of(kind);
            let (issued, width) = if class == IssueClass::Fp {
                (&mut fp_issued, fp_width)
            } else {
                (&mut int_issued, int_mem_width)
            };
            if *issued >= width {
                continue;
            }
            match kind {
                InstrKind::Load => {
                    let id = self.alloc_req_id();
                    let req = MemRequest::read(id, addr.expect("loads carry an address"), now);
                    if !memory.issue(req, now) {
                        // Hierarchy back-pressure (ports/MSHRs full): the
                        // request id is simply never used again, and the
                        // load stays ready.
                        rejected += 1;
                        continue;
                    }
                    self.pending_loads.insert(PendingLoad {
                        id,
                        seq,
                        issued_at: now,
                    });
                }
                InstrKind::FpAlu => {
                    self.fp_done.push_back((now + self.config.fp_latency, seq));
                }
                // Integer ops, branches, and store address generation (the
                // write itself is performed from the store buffer after
                // commit).
                InstrKind::IntAlu | InstrKind::Branch { .. } | InstrKind::Store => {
                    self.int_done
                        .push_back((now + self.config.int_latency, seq));
                }
            }
            *issued += 1;
            self.rob[slot].state = EntryState::Executing;
            self.ready[slot / 64] &= !(1 << (slot % 64));
            self.waiting[class as usize] -= 1;
        }

        // A pass that issued nothing and only collected rejections will
        // repeat itself verbatim every cycle until the hierarchy's state
        // changes (only loads can be rejected, and a ready non-load would
        // have issued); `next_event` uses this to defer to the hierarchy's
        // horizon instead of reporting busy.
        self.last_issue_all_rejected = rejected > 0 && int_issued == 0 && fp_issued == 0;

        // Lazy reject-stall accounting: one `(since, k)` window replays the
        // naive per-cycle `+k` exactly (see the field docs).
        match (self.mem_reject_since, rejected) {
            (None, 0) => {}
            (None, k) => self.mem_reject_since = Some((now, k)),
            (Some((since, k)), k_now) if k_now == k => {
                let _ = since; // unchanged window, nothing to account yet
            }
            (Some((since, k)), 0) => {
                self.stats.memory_reject_stalls += now.since(since) * k;
                self.mem_reject_since = None;
            }
            (Some((since, k)), k_now) => {
                self.stats.memory_reject_stalls += now.since(since) * k;
                self.mem_reject_since = Some((now, k_now));
            }
        }
    }

    fn fetch_and_dispatch(&mut self, now: Cycle) {
        if self.fetch_blocked_on.is_some() || now < self.fetch_stalled_until {
            return;
        }
        for _ in 0..self.config.fetch_width {
            if self.rob_occupancy() >= self.config.rob_size {
                // Lazy ROB-full accounting: open the window once; every
                // subsequent full cycle is a no-op and the cycles are summed
                // into `rob_full_stalls` when the window closes below.
                if self.rob_stall_since.is_none() {
                    self.rob_stall_since = Some(now);
                }
                return;
            }
            // The ROB has room: any pending stall window ended before this
            // cycle — account the blocked cycles `[since, now)` in one step.
            if let Some(since) = self.rob_stall_since.take() {
                self.stats.rob_full_stalls += now.since(since);
            }
            let Some(instr) = self.peek_or_fetch() else {
                self.trace_exhausted = true;
                return;
            };
            if self.dispatch_gated(instr.kind) {
                // Leave the instruction staged for a later cycle.
                return;
            }
            self.pending_fetch = None;

            let seq = self.next_seq;
            self.next_seq += 1;
            self.stats.fetched += 1;
            let dep_seq = if instr.dep_distance == 0 {
                None
            } else {
                seq.checked_sub(u64::from(instr.dep_distance))
            };
            let mut mispredicted = false;
            if let InstrKind::Branch { pc, taken } = instr.kind {
                mispredicted = !self.predictor.predict_and_update(pc, taken);
                if mispredicted {
                    self.stats.mispredictions += 1;
                }
            }
            let slot = self.slot(seq);
            self.rob[slot] = RobEntry {
                kind: instr.kind,
                addr: instr.addr,
                state: EntryState::Dispatched,
                completes_at: Cycle::ZERO,
                first_waiter: None,
                next_waiter: None,
                #[cfg(test)]
                dep_seq,
            };
            self.waiting[IssueClass::of(instr.kind) as usize] += 1;
            if instr.kind.is_memory() {
                self.lsq_occupancy += 1;
            }
            // The operand is ready unless its producer is still in flight
            // and has not completed; then this entry joins the producer's
            // waiter list, and the producer's completion wakes it.
            match dep_seq.filter(|&dep| dep >= self.head_seq) {
                Some(dep) if self.rob[self.slot(dep)].state != EntryState::Completed => {
                    let producer = self.slot(dep);
                    self.rob[slot].next_waiter =
                        self.rob[producer].first_waiter.replace(slot as u32);
                }
                _ => self.ready[slot / 64] |= 1 << (slot % 64),
            }
            // This entry was dispatched *after* this tick's issue pass, so
            // that pass's everything-was-a-rejected-load analysis no longer
            // describes the ROB: the newcomer may be ready right now and
            // issue next cycle. Invalidate the flag so `next_event` stays
            // busy instead of deferring to the hierarchy's horizon.
            self.last_issue_all_rejected = false;
            if mispredicted {
                // Wrong-path instructions are not modelled; fetch simply
                // stops until the branch resolves and the penalty elapses.
                self.fetch_blocked_on = Some(seq);
                return;
            }
        }
    }

    // --- helpers ----------------------------------------------------------

    fn alloc_req_id(&mut self) -> ReqId {
        let id = ReqId(self.next_req_id);
        self.next_req_id += 1;
        id
    }

    /// Marks the entry at `slot` completed at `at` (never later than the
    /// current tick) and makes every entry waiting on it ready.
    fn complete(&mut self, slot: usize, at: Cycle) {
        let entry = &mut self.rob[slot];
        entry.state = EntryState::Completed;
        entry.completes_at = at;
        let mut waiter = entry.first_waiter.take();
        while let Some(w) = waiter {
            let w = w as usize;
            waiter = self.rob[w].next_waiter.take();
            self.ready[w / 64] |= 1 << (w % 64);
        }
    }

    /// The oldest ready entry with sequence number `>= from`, if any.
    fn next_ready(&self, from: u64) -> Option<u64> {
        let mut seq = from;
        while seq < self.next_seq {
            let slot = self.slot(seq);
            let bits = self.ready[slot / 64] >> (slot % 64);
            if bits != 0 {
                // A set bit past `next_seq` belongs to an entry older than
                // `from` (the scan wrapped around the ring), so none is left.
                let found = seq + u64::from(bits.trailing_zeros());
                return (found < self.next_seq).then_some(found);
            }
            // Whole words never straddle the end of the ring.
            seq += 64 - (slot % 64) as u64;
        }
        None
    }

    /// `true` when the LSQ or `kind`'s issue window is full.
    fn dispatch_gated(&self, kind: InstrKind) -> bool {
        let class = IssueClass::of(kind);
        let window = match class {
            IssueClass::Int => self.config.int_window,
            IssueClass::Fp => self.config.fp_window,
            IssueClass::Mem => self.config.mem_window,
        };
        (kind.is_memory() && self.lsq_occupancy >= self.config.lsq_size)
            || self.waiting[class as usize] >= window
    }

    fn peek_or_fetch(&mut self) -> Option<Instr> {
        if let Some(i) = self.pending_fetch {
            return Some(i);
        }
        let next = self.trace.next();
        self.pending_fetch = next;
        next
    }
}

/// Pops the front of a fixed-latency completion queue if it is due at `now`.
fn pop_due(queue: &mut VecDeque<(Cycle, u64)>, now: Cycle) -> Option<(Cycle, u64)> {
    if queue.front()?.0 <= now {
        queue.pop_front()
    } else {
        None
    }
}

impl<T> OooCore<T> {
    /// Returns the number of instructions currently in the reorder buffer.
    #[must_use]
    pub fn rob_occupancy(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{CompletionQueue, FixedLatencyMemory};
    use lnuca_types::ServiceLevel;
    use lnuca_workloads::{TraceGenerator, WorkloadProfile};
    use proptest::prelude::*;

    impl<T> OooCore<T> {
        /// Recounts every incremental structure from the ROB entries and
        /// panics on the first disagreement. Call right after a tick at
        /// `now`.
        fn check_invariants(&self, now: Cycle) {
            let mut waiting = [0; 3];
            let mut lsq = 0;
            let mut ready = 0;
            let mut not_ready = 0;
            let mut int_executing = Vec::new();
            let mut fp_executing = Vec::new();
            let mut loads_in_flight = 0;
            for seq in self.head_seq..self.next_seq {
                let slot = self.slot(seq);
                let entry = &self.rob[slot];
                let bit = (self.ready[slot / 64] >> (slot % 64)) & 1 == 1;
                lsq += usize::from(entry.kind.is_memory());
                match entry.state {
                    EntryState::Dispatched => {
                        waiting[IssueClass::of(entry.kind) as usize] += 1;
                        let producer = entry
                            .dep_seq
                            .filter(|&dep| dep >= self.head_seq)
                            .map(|dep| self.rob[self.slot(dep)]);
                        let operand_ready = producer.is_none_or(|p| {
                            p.state == EntryState::Completed && p.completes_at <= now
                        });
                        assert_eq!(bit, operand_ready, "ready bit of seq {seq}");
                        if operand_ready {
                            ready += 1;
                        } else {
                            not_ready += 1;
                            let producer = self.slot(entry.dep_seq.expect("has a producer"));
                            let on_list = self.waiters(producer).filter(|&w| w == slot).count();
                            assert_eq!(on_list, 1, "seq {seq} waits on its producer once");
                        }
                    }
                    EntryState::Executing => {
                        assert!(!bit, "executing seq {seq} is marked ready");
                        match entry.kind {
                            InstrKind::Load => loads_in_flight += 1,
                            InstrKind::FpAlu => fp_executing.push(seq),
                            _ => int_executing.push(seq),
                        }
                    }
                    EntryState::Completed => {
                        assert!(!bit, "completed seq {seq} is marked ready");
                        assert!(entry.completes_at <= now, "seq {seq} completed early");
                        assert!(entry.first_waiter.is_none(), "seq {seq} left waiters asleep");
                    }
                }
            }
            assert_eq!(waiting, self.waiting, "issue-window counts");
            assert_eq!(lsq, self.lsq_occupancy, "LSQ count");
            let ready_bits: u32 = self.ready.iter().map(|w| w.count_ones()).sum();
            assert_eq!(ready_bits as usize, ready, "stray ready bits");
            let listed: usize = (self.head_seq..self.next_seq)
                .map(|seq| self.waiters(self.slot(seq)).count())
                .sum();
            assert_eq!(listed, not_ready, "waiter lists hold exactly the unready entries");

            for (queue, executing) in [
                (&self.int_done, int_executing),
                (&self.fp_done, fp_executing),
            ] {
                assert!(queue
                    .iter()
                    .zip(queue.iter().skip(1))
                    .all(|(a, b)| a.0 <= b.0));
                let mut seqs: Vec<u64> = queue.iter().map(|&(_, seq)| seq).collect();
                seqs.sort_unstable();
                assert_eq!(seqs, executing, "completion queue holds the executing entries");
            }

            let table = &self.pending_loads;
            assert_eq!(table.len, loads_in_flight, "slot table size");
            for (i, load) in table.slots.iter().enumerate() {
                let Some(load) = load else { continue };
                assert_eq!(table.find(load.id), Some(i), "load {} unreachable", load.id);
                assert!((self.head_seq..self.next_seq).contains(&load.seq));
                let entry = &self.rob[self.slot(load.seq)];
                assert!(entry.kind.is_load() && entry.state == EntryState::Executing);
            }

            if let Some(seq) = self.fetch_blocked_on {
                assert!((self.head_seq..self.next_seq).contains(&seq));
                assert_ne!(self.rob[self.slot(seq)].state, EntryState::Completed);
            }
        }

        /// Ring slots on the waiter list of the entry at `slot`.
        fn waiters(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
            std::iter::successors(self.rob[slot].first_waiter, |&w| {
                self.rob[w as usize].next_waiter
            })
            .map(|w| w as usize)
        }
    }

    /// Runs `core` to completion against `memory`, ticking every cycle or
    /// jumping to the merged core/memory horizon, and checks the core's
    /// invariants after every tick. Returns the counters, the final clock
    /// and whether any tick skipped cycles.
    fn drive<T: Iterator<Item = Instr>>(
        mut core: OooCore<T>,
        memory: &mut dyn DataMemory,
        event_horizon: bool,
        max_cycles: u64,
    ) -> (CoreStats, Cycle, bool) {
        let mut now = Cycle(0);
        let mut jumped = false;
        while !core.is_finished() && now.0 < max_cycles {
            memory.tick(now);
            core.tick(now, memory);
            core.check_invariants(now);
            now = if event_horizon && !core.is_finished() {
                let horizon = match (memory.next_event(now), core.next_event(now)) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                let target = horizon.unwrap_or_else(|| now.next()).max(now.next());
                jumped |= target > now.next();
                target
            } else {
                now.next()
            };
        }
        assert!(core.is_finished(), "run did not converge within {max_cycles} cycles");
        core.finalize_stats(now);
        (*core.stats(), now, jumped)
    }

    fn run_trace(
        instrs: Vec<Instr>,
        latency: u64,
        max_cycles: u64,
    ) -> (CoreStats, Cycle, FixedLatencyMemory) {
        let core = OooCore::new(CoreConfig::paper(), instrs.into_iter()).unwrap();
        let mut mem = FixedLatencyMemory::new(latency);
        let (stats, end, _) = drive(core, &mut mem, false, max_cycles);
        (stats, end, mem)
    }

    #[test]
    fn independent_alu_instructions_approach_commit_width_ipc() {
        let instrs = vec![Instr::int_alu(); 4_000];
        let (stats, cycles, _) = run_trace(instrs, 1, 100_000);
        assert_eq!(stats.committed, 4_000);
        let ipc = stats.ipc(cycles);
        assert!(ipc > 3.0, "independent ALU ops should commit near 4 IPC, got {ipc}");
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let instrs: Vec<Instr> = (0..2_000)
            .map(|_| Instr {
                kind: InstrKind::IntAlu,
                addr: None,
                dep_distance: 1,
            })
            .collect();
        let (stats, cycles, _) = run_trace(instrs, 1, 100_000);
        let ipc = stats.ipc(cycles);
        assert!(ipc < 1.2, "a serial chain cannot exceed 1 IPC, got {ipc}");
        assert!(ipc > 0.5, "but it should stay near 1 IPC, got {ipc}");
    }

    #[test]
    fn slower_memory_lowers_ipc() {
        let make = || -> Vec<Instr> {
            (0..3_000u64)
                .map(|i| {
                    if i % 3 == 0 {
                        // Loads to distinct blocks defeat any caching in the
                        // fixed-latency memory (which has none anyway).
                        Instr::load(Addr(i * 64))
                    } else {
                        Instr {
                            kind: InstrKind::IntAlu,
                            addr: None,
                            dep_distance: 1,
                        }
                    }
                })
                .collect()
        };
        let (fast_stats, fast_cycles, _) = run_trace(make(), 2, 500_000);
        let (slow_stats, slow_cycles, _) = run_trace(make(), 150, 2_000_000);
        assert!(fast_stats.ipc(fast_cycles) > slow_stats.ipc(slow_cycles) * 1.3);
        assert!(slow_stats.mean_load_latency() > fast_stats.mean_load_latency());
    }

    #[test]
    fn stores_drain_through_the_store_buffer() {
        let instrs: Vec<Instr> = (0..500u64).map(|i| Instr::store(Addr(i * 32))).collect();
        let (stats, _, mem) = run_trace(instrs, 3, 200_000);
        assert_eq!(stats.stores, 500);
        assert_eq!(stats.committed, 500);
        // Every store write eventually reaches the memory.
        assert_eq!(mem.accepted(), 500);
    }

    #[test]
    fn mispredicted_branches_cost_cycles() {
        // A branch with random outcomes is unpredictable; the same trace with
        // a constant outcome is nearly free.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let branchy = |predictable: bool| -> Vec<Instr> {
            let mut rng = SmallRng::seed_from_u64(17);
            let mut v = Vec::new();
            for i in 0..3_000u64 {
                v.push(Instr::int_alu());
                let taken = if predictable { true } else { rng.gen_bool(0.5) };
                v.push(Instr {
                    kind: InstrKind::Branch {
                        pc: (i % 7) * 13,
                        taken,
                    },
                    addr: None,
                    dep_distance: 1,
                });
            }
            v
        };
        let (good, good_cycles, _) = run_trace(branchy(true), 1, 400_000);
        let (bad, bad_cycles, _) = run_trace(branchy(false), 1, 400_000);
        assert!(good.ipc(good_cycles) > bad.ipc(bad_cycles));
        assert!(bad.mispredictions > good.mispredictions);
    }

    #[test]
    fn synthetic_workload_runs_to_completion_and_reports_sane_ipc() {
        let trace: Vec<Instr> = TraceGenerator::new(WorkloadProfile::default(), 3)
            .take(20_000)
            .collect();
        let (stats, cycles, _) = run_trace(trace, 2, 2_000_000);
        assert_eq!(stats.committed, 20_000);
        let ipc = stats.ipc(cycles);
        assert!(ipc > 0.3 && ipc < 4.0, "IPC {ipc} out of plausible range");
        assert!(stats.loads > 3_000);
        assert!(stats.branches > 2_000);
    }

    #[test]
    fn event_horizon_stepping_matches_naive_stepping() {
        // Same mixed trace against the same 150-cycle memory, once stepping
        // every cycle and once jumping to min(core, memory) horizons: the
        // final clock and every counter must agree bit-exactly.
        let make = || -> Vec<Instr> {
            (0..2_000u64)
                .map(|i| match i % 7 {
                    0 => Instr::load(Addr(i * 256)),
                    1 => Instr {
                        kind: InstrKind::Branch {
                            pc: i % 5,
                            taken: i % 3 == 0,
                        },
                        addr: None,
                        dep_distance: 1,
                    },
                    2 => Instr::store(Addr(i * 64)),
                    3 => Instr {
                        kind: InstrKind::FpAlu,
                        addr: None,
                        dep_distance: 2,
                    },
                    _ => Instr {
                        kind: InstrKind::IntAlu,
                        addr: None,
                        dep_distance: 1,
                    },
                })
                .collect()
        };

        let (naive_stats, naive_end, _) = run_trace(make(), 150, 3_000_000);

        let mut core = OooCore::new(CoreConfig::paper(), make().into_iter()).unwrap();
        let mut mem = FixedLatencyMemory::new(150);
        let mut now = Cycle(0);
        let mut jumped = false;
        while !core.is_finished() && now.0 < 3_000_000 {
            mem.tick(now);
            core.tick(now, &mut mem);
            now = if core.is_finished() {
                now.next()
            } else {
                let horizon = match (mem.next_event(now), core.next_event(now)) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                let target = horizon.unwrap_or_else(|| now.next()).max(now.next());
                jumped |= target > now.next();
                target
            };
        }
        core.finalize_stats(now);

        assert!(jumped, "a 150-cycle memory must open skippable windows");
        assert_eq!(now, naive_end, "both engines must agree on the final cycle");
        assert_eq!(*core.stats(), naive_stats);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = CoreConfig::paper();
        cfg.commit_width = 0;
        assert!(OooCore::new(cfg, std::iter::empty::<Instr>()).is_err());
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let mut core = OooCore::new(CoreConfig::paper(), std::iter::empty::<Instr>()).unwrap();
        let mut mem = FixedLatencyMemory::new(1);
        core.tick(Cycle(0), &mut mem);
        assert!(core.is_finished());
        assert_eq!(core.committed(), 0);
        assert_eq!(core.rob_occupancy(), 0);
    }

    /// A memory with a per-request latency, a bound on requests in flight
    /// and a bound on requests accepted per cycle. Its refusals depend only
    /// on state that changes at its own events, as the hierarchies'
    /// do, so rejected-load deferral stays exact.
    struct RefusingMemory {
        min_latency: u64,
        latency_span: u64,
        capacity: usize,
        ports: usize,
        ports_used: usize,
        in_flight: CompletionQueue,
    }

    impl RefusingMemory {
        fn new((min_latency, latency_span, capacity, ports): (u64, u64, usize, usize)) -> Self {
            RefusingMemory {
                min_latency,
                latency_span,
                capacity,
                ports,
                ports_used: 0,
                in_flight: CompletionQueue::new(),
            }
        }
    }

    impl DataMemory for RefusingMemory {
        fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
            if self.in_flight.len() >= self.capacity || self.ports_used >= self.ports {
                return false;
            }
            self.ports_used += 1;
            // Not a function of the request id: rejected loads consume ids
            // on every retry, which event-horizon stepping skips.
            let latency = self.min_latency + (req.addr.0 / 64 + now.0) % (self.latency_span + 1);
            self.in_flight
                .push(MemResponse::for_request(&req, now + latency, ServiceLevel::L1));
            true
        }

        fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
            self.in_flight.drain_ready(now, out);
        }

        fn tick(&mut self, _now: Cycle) {
            self.ports_used = 0;
        }

        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            if self.ports_used > 0 {
                // The ports free up at the next tick.
                return Some(now.next());
            }
            self.in_flight.earliest().map(|at| at.max(now.next()))
        }
    }

    /// Builds a trace from `(kind, dependency distance, block, taken)`.
    fn program(ops: &[(u8, u32, u64, bool)]) -> Vec<Instr> {
        ops.iter()
            .map(|&(kind, dep_distance, block, taken)| {
                let kind = match kind {
                    0 => InstrKind::IntAlu,
                    1 => InstrKind::FpAlu,
                    2 => InstrKind::Load,
                    3 => InstrKind::Store,
                    _ => InstrKind::Branch {
                        pc: block % 8,
                        taken,
                    },
                };
                Instr {
                    kind,
                    addr: kind.is_memory().then_some(Addr(block * 64)),
                    dep_distance,
                }
            })
            .collect()
    }

    #[test]
    fn refused_loads_defer_to_the_memory_and_count_reject_stalls() {
        let ops: Vec<_> = (0..300u64).map(|i| (2, (i % 3) as u32, i, false)).collect();
        let run = |event_horizon| {
            let core = OooCore::new(CoreConfig::paper(), program(&ops).into_iter()).unwrap();
            drive(core, &mut RefusingMemory::new((60, 20, 2, 1)), event_horizon, 1_000_000)
        };
        let (naive, naive_end, _) = run(false);
        let (stats, end, jumped) = run(true);
        assert!(naive.memory_reject_stalls > 0, "a two-entry memory must refuse loads");
        assert!(jumped, "refused loads must not keep the core busy");
        assert_eq!((stats, end), (naive, naive_end));
    }

    proptest! {
        #[test]
        fn bookkeeping_and_event_stepping_match_naive_per_cycle_runs(
            ops in prop::collection::vec((0u8..5, 0u32..=8, 0u64..32, any::<bool>()), 1..120),
            buffers in (1usize..=130, 1usize..=64, 1usize..=8),
            windows in (1usize..=32, 1usize..=24, 1usize..=16, 1usize..=4),
            memory in (1u64..30, 0u64..40, 1usize..=8, 1usize..=3),
        ) {
            let (rob_size, lsq_size, store_buffer_size) = buffers;
            let (int_window, fp_window, mem_window, width) = windows;
            let config = CoreConfig {
                fetch_width: width,
                issue_width_int_mem: width,
                issue_width_fp: width,
                commit_width: width,
                rob_size,
                lsq_size,
                int_window,
                fp_window,
                mem_window,
                store_buffer_size,
                ..CoreConfig::paper()
            };
            let run = |event_horizon| {
                let core = OooCore::new(config.clone(), program(&ops).into_iter()).unwrap();
                let (stats, end, _) =
                    drive(core, &mut RefusingMemory::new(memory), event_horizon, 1_000_000);
                (stats, end)
            };
            prop_assert_eq!(run(true), run(false));
        }
    }
}
