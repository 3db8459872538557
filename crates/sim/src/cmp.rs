//! Multicore (CMP) simulation: N private root-tile domains over one shared
//! backing, kept coherent by the MSI directory of `lnuca-coherence`
//! (DESIGN.md §17).
//!
//! # Model
//!
//! A [`CmpMachine`] replicates the *private* side of a
//! [`HierarchySpec`] once per core: the root cache (L1) plus, when the spec
//! has an L-NUCA fabric, a private second level acting exactly like the
//! fabric does for the single-core shapes — a victim store for root
//! evictions (the Replacement network's job in the paper). The fabric is
//! collapsed into an equivalent set-associative cache (largest
//! power-of-two capacity not exceeding the fabric's, single-cycle-per-level
//! latency) so the private domain stays a synchronous functional model the
//! directory can reason about line by line. Behind the private domains sits
//! one **shared** backing — the spec's L3 cache, a capacity/latency
//! equivalent of its D-NUCA, or nothing but DRAM — plus the paper's
//! main-memory channel model.
//!
//! # Determinism and engine-agnosticism
//!
//! Every functional and coherence transition happens synchronously inside
//! [`CmpMemory`]'s admission path, at the cycle the owning core issues the
//! request; only the *completion time* is deferred, precomputed at issue.
//!
//! Each core keeps its own horizon (DESIGN.md §10.1). After core `c` ticks
//! at `now`, the machine records the earlier of the core's
//! [`OooCore::next_event`] and lane `c`'s earliest pending completion,
//! strictly after `now` ("never" when both are `None`). At a visited
//! cycle, only the cores whose recorded horizon has arrived tick, in
//! ascending core index. This is exact, because a core's tick changes
//! state only in three cases:
//!
//! - at its own horizon;
//! - at a completion in its own lane;
//! - when a load it had rejected can now be accepted.
//!
//! Only core `c` pushes into and drains lane `c`, and a load is rejected
//! only when the core's own in-flight window is full, a window that
//! shrinks only when that core drains its own lane. Other cores'
//! invalidations and directory transitions change what core `c`'s next
//! access will find, not whether a tick of core `c` before its horizon
//! does anything. So the sequence of directory operations is a pure
//! function of the workload streams, independent of how the driver
//! advances time. That makes [`crate::system::Engine::CycleStep`],
//! [`crate::system::Engine::EventHorizon`] and the batched runner
//! bit-identical for CMP runs exactly as they are for single-core runs:
//! ticking any core before its horizon is a no-op, so visiting extra
//! cycles (or skipping dead ones) cannot reorder anything.
//!
//! A [`CmpMachine`] has no run loop of its own: a spec with `cores > 1`
//! runs through [`crate::system::System::run_spec_probed`] like any other,
//! and the driver in [`crate::batch`] steps the machine through the
//! tick/horizon/finish surface it exposes.
//!
//! # Zero steady-state allocation
//!
//! All queues (per-core in-flight windows) are bounded and preallocated,
//! the directory is fixed-slot (DESIGN.md §9), and the caches never
//! allocate after construction; a steady-state cycle performs no heap
//! allocation.

use crate::energy_model;
use crate::spec::{BackingSpec, HierarchySpec};
use crate::system::RunResult;
use lnuca_coherence::{Directory, DirectoryConfig, DirectoryCounters, MsiState, Recall};
use lnuca_cpu::{CompletionQueue, CoreConfig, CoreStats, DataMemory, OooCore};
use lnuca_mem::{
    CacheConfig, CacheStats, ConventionalCache, MainMemory, NoProbe, ProbeEvent, ProbeSink,
};
use lnuca_types::{Addr, ConfigError, Cycle, MemRequest, MemResponse, ServiceLevel};
use lnuca_workloads::{Suite, TraceGenerator, WorkloadProfile};

/// Per-core in-flight window: how many demand requests one core may have
/// outstanding before [`CmpMemory`] rejects further issues (mirrors the
/// single-core hierarchies' L1 MSHR count, Table I).
pub const CORE_SLOTS: usize = crate::configs::L1_MSHRS;

/// Cycles charged for the directory lookup every private-domain miss or
/// upgrade performs before data (or permission) can be returned.
pub const DIRECTORY_CYCLES: u64 = 3;

/// Extra cycles charged when a transaction had to reach into remote
/// private domains (invalidations or a dirty-owner downgrade): one
/// round trip over the on-chip interconnect.
pub const REMOTE_CYCLES: u64 = 10;

/// Serializable snapshot of the MSI directory counters, carried in
/// [`RunResult::coherence`] for CMP runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoherenceStats {
    /// Read transactions handled by the directory.
    pub reads: u64,
    /// Write/upgrade transactions handled by the directory.
    pub writes: u64,
    /// Transactions that found the line already tracked.
    pub hits: u64,
    /// Transactions that allocated a fresh directory entry.
    pub misses: u64,
    /// Lines whose tracking entry was freed (last private copy dropped).
    pub evictions: u64,
    /// Invalidation messages sent to remote cores.
    pub invalidations_sent: u64,
    /// Modified owners downgraded to Shared by a remote read.
    pub downgrades: u64,
    /// Dirty lines written back toward the shared level.
    pub writebacks: u64,
    /// Directory-capacity recalls (a tracked line displaced to make room).
    pub recalls: u64,
    /// Invalidations received, per core.
    pub per_core_invalidations: Vec<u64>,
}

impl From<&DirectoryCounters> for CoherenceStats {
    fn from(c: &DirectoryCounters) -> Self {
        CoherenceStats {
            reads: c.reads,
            writes: c.writes,
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            invalidations_sent: c.invalidations_sent,
            downgrades: c.downgrades,
            writebacks: c.writebacks,
            recalls: c.recalls,
            per_core_invalidations: c.per_core_invalidations.clone(),
        }
    }
}

/// One per-core row of a CMP [`RunResult`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreRow {
    /// Core index.
    pub core: usize,
    /// Instructions this core committed.
    pub instructions: u64,
    /// This core's committed IPC over the shared clock.
    pub ipc: f64,
    /// Core-side counters.
    pub stats: CoreStats,
    /// Private L1 counters.
    pub l1: CacheStats,
    /// Private fabric-equivalent counters, when the spec has a fabric.
    pub fabric: Option<CacheStats>,
    /// Demand accesses serviced entirely inside the private domain.
    pub coherence_hits: u64,
    /// Demand accesses that needed a directory transaction.
    pub coherence_misses: u64,
    /// Invalidations this core's private domain received.
    pub invalidations_received: u64,
}

/// The per-core private domain: root cache, optional fabric-equivalent
/// second level, and the bounded completion queue feeding the core back.
#[derive(Debug)]
struct Lane {
    l1: ConventionalCache,
    fabric: Option<ConventionalCache>,
    pending: CompletionQueue,
    coherence_hits: u64,
    coherence_misses: u64,
}

impl Lane {
    fn invalidate(&mut self, addr: Addr) -> bool {
        let in_l1 = self.l1.invalidate(addr).is_some();
        let in_fabric = self
            .fabric
            .as_mut()
            .is_some_and(|f| f.invalidate(addr).is_some());
        in_l1 || in_fabric
    }
}

/// The shared memory side of a CMP: every core's private domain, the
/// shared backing, the DRAM channel and the MSI directory.
///
/// Implements [`DataMemory`] only so it can live inside
/// [`crate::hierarchy::AnyHierarchy`]; cores drive it through per-core
/// [`CoreView`]s instead, which carry the issuing core's index.
#[derive(Debug)]
pub struct CmpMemory<P: ProbeSink = NoProbe> {
    lanes: Vec<Lane>,
    shared: Option<ConventionalCache>,
    shared_level: ServiceLevel,
    memory: MainMemory,
    memory_block: u64,
    directory: Directory,
    block_size: u64,
    label: String,
    memory_accesses: u64,
    writebacks: u64,
    probe: P,
}

impl<P: ProbeSink> CmpMemory<P> {
    /// Builds the memory side of a CMP from a validated spec.
    fn from_spec(spec: &HierarchySpec, probe: P) -> Result<Self, ConfigError> {
        spec.validate()?;
        let block_size = spec.root.block_size;
        let fabric_config = spec
            .fabric
            .as_ref()
            .map(|f| fabric_equivalent(f, block_size))
            .transpose()?;
        let lanes = (0..spec.cores)
            .map(|_| -> Result<Lane, ConfigError> {
                Ok(Lane {
                    l1: ConventionalCache::new(spec.root.clone())?,
                    fabric: fabric_config
                        .clone()
                        .map(ConventionalCache::new)
                        .transpose()?,
                    pending: CompletionQueue::with_capacity(CORE_SLOTS),
                    coherence_hits: 0,
                    coherence_misses: 0,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (shared, shared_level, memory_block) = match &spec.backing {
            BackingSpec::Cache(cfg) => {
                (Some(ConventionalCache::new(cfg.clone())?), ServiceLevel::L3, cfg.block_size)
            }
            BackingSpec::DNuca(cfg) => {
                let equivalent = dnuca_equivalent(cfg)?;
                let block = equivalent.block_size;
                (Some(ConventionalCache::new(equivalent)?), ServiceLevel::DNucaRow(0), block)
            }
            BackingSpec::Memory => (None, ServiceLevel::Memory, block_size),
        };
        let directory = Directory::new(DirectoryConfig::new(spec.cores))
            .map_err(|e| ConfigError::new("cores", e.0))?;
        Ok(CmpMemory {
            lanes,
            shared,
            shared_level,
            memory: MainMemory::new(spec.memory)?,
            memory_block,
            directory,
            block_size,
            label: spec.label(),
            memory_accesses: 0,
            writebacks: 0,
            probe,
        })
    }

    /// Number of cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.lanes.len()
    }

    /// The probe sink (for reading back recorded events).
    #[must_use]
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the memory, returning the probe sink.
    #[must_use]
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// The MSI directory's counters.
    #[must_use]
    pub fn directory_counters(&self) -> &DirectoryCounters {
        self.directory.counters()
    }

    /// The block size lines are tracked at (the directory's line unit).
    #[must_use]
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Final (state, sharer mask, owner) of a line, for the oracle.
    #[must_use]
    pub fn line_state(&self, line: u64) -> (MsiState, u64, Option<usize>) {
        self.directory.state_of(line)
    }

    /// Iterates over every line the directory still tracks.
    pub fn tracked_lines(&self) -> impl Iterator<Item = (u64, MsiState, u64, Option<usize>)> + '_ {
        self.directory.lines()
    }

    /// Aggregate statistics over all private domains plus the shared side,
    /// in the shape the report/energy code consumes. The private
    /// fabric-equivalents aggregate into `l2`, the shared backing into
    /// `l3` (regardless of its kind — the D-NUCA equivalent is a
    /// conventional cache here; DESIGN.md §17).
    #[must_use]
    pub fn stats(&self) -> crate::hierarchy::HierarchyStats {
        let mut l1 = CacheStats::default();
        let mut fabric = CacheStats::default();
        let mut has_fabric = false;
        for lane in &self.lanes {
            add_cache_stats(&mut l1, lane.l1.stats());
            if let Some(f) = &lane.fabric {
                has_fabric = true;
                add_cache_stats(&mut fabric, f.stats());
            }
        }
        crate::hierarchy::HierarchyStats {
            label: self.label.clone(),
            l1,
            l2: has_fabric.then_some(fabric),
            deeper_levels: Vec::new(),
            l3: self.shared.as_ref().map(|s| *s.stats()),
            lnuca: None,
            lnuca_tiles: 0,
            dnuca: None,
            dnuca_mesh: None,
            dnuca_banks: 0,
            memory_accesses: self.memory_accesses,
            write_drains: self.writebacks,
        }
    }

    /// The admission path: every functional/coherence transition of the
    /// request happens here, synchronously; only the completion is
    /// deferred, at a time fully determined at issue.
    fn issue_for(&mut self, core: usize, req: MemRequest, now: Cycle) -> bool {
        if self.lanes[core].pending.len() >= CORE_SLOTS {
            return false;
        }
        let is_write = req.kind.is_write();
        let line = req.addr.0 / self.block_size;
        let line_addr = Addr(line * self.block_size);

        let in_l1 = self.lanes[core].l1.probe(line_addr);
        let in_fabric = self.lanes[core]
            .fabric
            .as_ref()
            .is_some_and(|f| f.probe(line_addr));
        let (state, sharers, owner) = self.directory.state_of(line);
        let permitted = if is_write {
            state == MsiState::Modified && owner == Some(core)
        } else {
            sharers & (1u64 << core) != 0
        };
        let local_hit = (in_l1 || in_fabric) && permitted;
        self.probe.record(ProbeEvent::CoherentAccess {
            core: core as u8,
            addr: req.addr,
            is_write,
            hit: local_hit,
        });

        let (done, served) = if local_hit {
            self.lanes[core].coherence_hits += 1;
            self.service_local(core, line_addr, is_write, in_l1, now)
        } else {
            self.lanes[core].coherence_misses += 1;
            self.service_transaction(core, line, line_addr, is_write, in_l1 || in_fabric, now)
        };
        let resp = MemResponse::for_request(&req, done, served);
        self.lanes[core].pending.push(resp);
        true
    }

    /// A private-domain hit: data comes from the L1 or is promoted out of
    /// the fabric-equivalent, no directory involvement.
    fn service_local(
        &mut self,
        core: usize,
        line_addr: Addr,
        is_write: bool,
        in_l1: bool,
        now: Cycle,
    ) -> (Cycle, ServiceLevel) {
        if in_l1 {
            let out = self.lanes[core].l1.access(line_addr, is_write, now);
            (out.resolved_at(), ServiceLevel::L1)
        } else {
            // Root miss, fabric hit: charge the root lookup, then the
            // fabric access, then promote the line back to the root (its
            // victim demotes into the fabric, as the paper's Replacement
            // network would).
            let miss = self.lanes[core].l1.access(line_addr, is_write, now);
            let fabric = self.lanes[core]
                .fabric
                .as_mut()
                .expect("local fabric hit requires a fabric")
                .access(line_addr, is_write, miss.resolved_at());
            self.promote(core, line_addr);
            (fabric.resolved_at(), ServiceLevel::LNucaLevel(2))
        }
    }

    /// A directory transaction: read/write miss or write upgrade.
    fn service_transaction(
        &mut self,
        core: usize,
        line: u64,
        line_addr: Addr,
        is_write: bool,
        had_copy: bool,
        now: Cycle,
    ) -> (Cycle, ServiceLevel) {
        let tx = if is_write {
            self.directory.write(core, line)
        } else {
            self.directory.read(core, line)
        };
        // Functional side effects first, in a fixed order: the recall (a
        // *different* line displaced from the directory), then the remote
        // invalidations of this line, then the dirty-owner writeback.
        if let Some(recall) = tx.recall {
            self.apply_recall(recall);
        }
        if tx.invalidate != 0 {
            for c in 0..self.lanes.len() {
                if tx.invalidate & (1u64 << c) != 0 {
                    self.lanes[c].invalidate(line_addr);
                }
            }
        }
        if tx.writeback {
            self.write_to_shared(line_addr);
        }

        // Timing: root lookup, then (for true misses) the walk outward.
        let l1_out = self.lanes[core].l1.access(line_addr, is_write, now);
        let mut ready = l1_out.resolved_at() + DIRECTORY_CYCLES;
        let mut served = if had_copy {
            // Upgrade: the data is already local, only permission moved.
            ServiceLevel::L1
        } else {
            if let Some(fabric) = self.lanes[core].fabric.as_mut() {
                ready = fabric.access(line_addr, is_write, ready).resolved_at();
            }
            let (outer_ready, outer_served) = self.fetch_shared(line_addr, ready);
            ready = outer_ready;
            self.fill_private(core, line_addr);
            outer_served
        };
        if had_copy && !self.lanes[core].l1.probe(line_addr) {
            // Upgrading a line that only the fabric holds: promote it.
            self.promote(core, line_addr);
            served = ServiceLevel::LNucaLevel(2);
        }
        if tx.invalidate != 0 || tx.writeback {
            ready += REMOTE_CYCLES;
        }
        (ready, served)
    }

    /// Fetches a line from the shared level (or DRAM), filling the shared
    /// cache on a shared miss.
    fn fetch_shared(&mut self, line_addr: Addr, start: Cycle) -> (Cycle, ServiceLevel) {
        match &mut self.shared {
            Some(shared) => {
                let out = shared.access(line_addr, false, start);
                if out.is_hit() {
                    (out.resolved_at(), self.shared_level)
                } else {
                    self.memory_accesses += 1;
                    let done = self.memory.access(out.resolved_at(), self.memory_block);
                    shared.fill(line_addr, false);
                    (done, ServiceLevel::Memory)
                }
            }
            None => {
                self.memory_accesses += 1;
                let done = self.memory.access(start, self.memory_block);
                (done, ServiceLevel::Memory)
            }
        }
    }

    /// Fills a fetched line into the core's root cache, demoting the
    /// root victim into the fabric-equivalent and dropping the fabric
    /// victim out of the private domain.
    fn fill_private(&mut self, core: usize, line_addr: Addr) {
        if let Some(victim) = self.lanes[core].l1.fill(line_addr, false) {
            self.demote(core, victim.addr);
        }
    }

    /// Moves a fabric-resident line up into the root (the victim demotes
    /// back down), keeping exactly one private copy per core.
    fn promote(&mut self, core: usize, line_addr: Addr) {
        if let Some(fabric) = self.lanes[core].fabric.as_mut() {
            fabric.invalidate(line_addr);
        }
        if let Some(victim) = self.lanes[core].l1.fill(line_addr, false) {
            self.demote(core, victim.addr);
        }
    }

    /// A root victim demotes into the fabric-equivalent when there is
    /// one; its own victim — or the root victim directly, without a
    /// fabric — leaves the private domain and is reported to the
    /// directory (with dirtiness taken from the MSI state, the single
    /// source of truth for modified data).
    fn demote(&mut self, core: usize, victim_addr: Addr) {
        match self.lanes[core].fabric.as_mut() {
            Some(fabric) => {
                if let Some(out) = fabric.fill(victim_addr, false) {
                    self.drop_from_domain(core, out.addr);
                }
            }
            None => self.drop_from_domain(core, victim_addr),
        }
    }

    fn drop_from_domain(&mut self, core: usize, addr: Addr) {
        let line = addr.0 / self.block_size;
        let (state, _, owner) = self.directory.state_of(line);
        let dirty = state == MsiState::Modified && owner == Some(core);
        self.directory.evict(core, line, dirty);
        if dirty {
            self.write_to_shared(Addr(line * self.block_size));
        }
        self.probe.record(ProbeEvent::CoherentEvict {
            core: core as u8,
            addr,
        });
    }

    /// A directory recall: every private copy of the displaced line is
    /// invalidated; a modified copy drains to the shared level.
    fn apply_recall(&mut self, recall: Recall) {
        let addr = Addr(recall.line * self.block_size);
        for c in 0..self.lanes.len() {
            if recall.invalidate & (1u64 << c) != 0 {
                self.lanes[c].invalidate(addr);
            }
        }
        if recall.writeback {
            self.write_to_shared(addr);
        }
        self.probe.record(ProbeEvent::CoherentRecall { addr });
    }

    /// Drains modified data toward the shared level (writeback-allocate).
    fn write_to_shared(&mut self, addr: Addr) {
        self.writebacks += 1;
        if let Some(shared) = &mut self.shared {
            if shared.probe(addr) {
                shared.mark_dirty(addr);
            } else {
                shared.fill(addr, true);
            }
        }
    }
}

impl<P: ProbeSink> DataMemory for CmpMemory<P> {
    /// Core-less issue is not part of the CMP model; requests must come
    /// through a [`CoreView`]. Rejecting (rather than panicking) keeps the
    /// trait total for the [`crate::hierarchy::AnyHierarchy`] wrapper.
    fn issue(&mut self, _req: MemRequest, _now: Cycle) -> bool {
        false
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        for lane in &mut self.lanes {
            lane.pending.drain_ready(now, out);
        }
    }

    fn tick(&mut self, _now: Cycle) {}

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.lanes
            .iter()
            .filter_map(|lane| lane.pending.earliest())
            .min()
            .map(|at| at.max(now.next()))
    }
}

/// One core's window onto the shared [`CmpMemory`]: tags every request
/// with the core index and drains only that core's completions.
pub struct CoreView<'a, P: ProbeSink> {
    mem: &'a mut CmpMemory<P>,
    core: usize,
}

impl<P: ProbeSink> DataMemory for CoreView<'_, P> {
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
        self.mem.issue_for(self.core, req, now)
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.mem.lanes[self.core].pending.drain_ready(now, out);
    }

    fn tick(&mut self, _now: Cycle) {}

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.mem.lanes[self.core]
            .pending
            .earliest()
            .map(|at| at.max(now.next()))
    }
}

/// A recorded per-core horizon meaning "never": neither the core nor its
/// lane will act again without a tick of that core.
const NEVER: Cycle = Cycle(u64::MAX);

/// A complete CMP machine: N out-of-order cores (one decorrelated trace
/// each, via [`TraceGenerator::for_core`]) over one [`CmpMemory`].
pub struct CmpMachine<P: ProbeSink = NoProbe> {
    cores: Vec<OooCore<std::iter::Take<TraceGenerator>>>,
    /// Per-core horizon recorded by the core's last tick: the earliest
    /// cycle at which ticking it could change anything ([`NEVER`] when
    /// nothing will). Starts at [`Cycle::ZERO`], so every core ticks first.
    horizons: Vec<Cycle>,
    mem: CmpMemory<P>,
    workload: String,
    suite: Suite,
}

impl<P: ProbeSink> CmpMachine<P> {
    /// Builds the machine: `instructions` is the **per-core** budget, and
    /// `seed` the base trace seed each core perturbs by its index.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the spec or any derived component
    /// configuration is invalid.
    pub fn from_spec(
        spec: &HierarchySpec,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
        probe: P,
    ) -> Result<Self, ConfigError> {
        let mem = CmpMemory::from_spec(spec, probe)?;
        let cores = (0..spec.cores)
            .map(|c| {
                let trace = TraceGenerator::for_core(profile.clone(), seed, c, spec.cores)
                    .take(usize::try_from(instructions).unwrap_or(usize::MAX));
                OooCore::new(CoreConfig::paper(), trace)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CmpMachine {
            horizons: vec![Cycle::ZERO; cores.len()],
            cores,
            mem,
            workload: profile.name.clone(),
            suite: profile.suite,
        })
    }

    /// `true` once every core has drained its trace and pipeline.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.cores.iter().all(OooCore::is_finished)
    }

    /// Total instructions committed across all cores.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.cores.iter().map(OooCore::committed).sum()
    }

    /// One simulated cycle: ticks, in ascending index, every core whose
    /// recorded horizon has arrived, and records each ticked core's new
    /// horizon — the earlier of its own [`OooCore::next_event`] and its
    /// lane's earliest pending completion, strictly after `now`. Any other
    /// core's tick would be a no-op (the [module docs](self) give the
    /// argument). Call [`CmpMachine::next_event`] right after this, as with
    /// [`OooCore::next_event`].
    pub fn tick(&mut self, now: Cycle) {
        for (c, (core, horizon)) in self.cores.iter_mut().zip(&mut self.horizons).enumerate() {
            if now < *horizon {
                continue;
            }
            let mut view = CoreView {
                mem: &mut self.mem,
                core: c,
            };
            core.tick(now, &mut view);
            *horizon = match (core.next_event(now), view.next_event(now)) {
                (Some(own), Some(lane)) => own.min(lane),
                (own, lane) => own.or(lane).unwrap_or(NEVER),
            };
        }
    }

    /// The machine-wide event horizon: the minimum of the per-core horizons
    /// recorded by the [`CmpMachine::tick`] at `now` and earlier (DESIGN.md
    /// §10.1 contract, merged over all cores and lanes). Must be called
    /// right after that tick.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let earliest = self.horizons.iter().copied().min()?;
        (earliest != NEVER).then(|| earliest.max(now.next()))
    }

    /// Closes every core's stall windows, exactly as the solo run tail
    /// does per core.
    pub fn finalize(&mut self, now: Cycle) {
        for core in &mut self.cores {
            core.finalize_stats(now);
        }
    }

    /// Materialises the [`RunResult`]: aggregate counters plus one
    /// [`CoreRow`] per core and the directory snapshot.
    #[must_use]
    pub fn result(&self, now: Cycle) -> RunResult {
        let stats = self.mem.stats();
        let energy = energy_model::account_for(&stats, now.0);
        let mut core_total = CoreStats::default();
        let per_core = self
            .cores
            .iter()
            .enumerate()
            .map(|(c, core)| {
                add_core_stats(&mut core_total, core.stats());
                CoreRow {
                    core: c,
                    instructions: core.committed(),
                    ipc: core.stats().ipc(now),
                    stats: *core.stats(),
                    l1: *self.mem.lanes[c].l1.stats(),
                    fabric: self.mem.lanes[c].fabric.as_ref().map(|f| *f.stats()),
                    coherence_hits: self.mem.lanes[c].coherence_hits,
                    coherence_misses: self.mem.lanes[c].coherence_misses,
                    invalidations_received: self
                        .mem
                        .directory_counters()
                        .per_core_invalidations
                        .get(c)
                        .copied()
                        .unwrap_or(0),
                }
            })
            .collect();
        RunResult {
            label: stats.label.clone(),
            workload: self.workload.clone(),
            suite: self.suite,
            instructions: self.committed(),
            cycles: now.0,
            ipc: core_total.ipc(now),
            core: core_total,
            hierarchy: stats,
            energy,
            per_core,
            coherence: Some(CoherenceStats::from(self.mem.directory_counters())),
        }
    }

    /// Consumes the machine, returning the memory side (probe and
    /// directory still inside).
    #[must_use]
    pub fn into_memory(self) -> CmpMemory<P> {
        self.mem
    }
}

/// Collapses an L-NUCA fabric into the private-second-level equivalent:
/// largest power-of-two capacity not exceeding the fabric's, tile
/// associativity (rounded down to a power of two), root-block lines, and
/// one cycle per fabric level of latency.
fn fabric_equivalent(
    fabric: &lnuca_core::LNucaConfig,
    block_size: u64,
) -> Result<CacheConfig, ConfigError> {
    let capacity =
        lnuca_core::LNucaGeometry::new(fabric.levels)?.capacity_bytes(fabric.tile_size_bytes);
    let size = pow2_floor(capacity.max(block_size * 2));
    let ways = pow2_floor(fabric.tile_ways.max(1) as u64) as usize;
    let levels = u64::from(fabric.levels);
    CacheConfig::builder("fabric")
        .size_bytes(size)
        .ways(ways)
        .block_size(block_size)
        .completion_cycles(levels + 1)
        .initiation_interval(1)
        .miss_determination_cycles(levels.max(1))
        .build()
}

/// Collapses a D-NUCA into the shared-backing equivalent: full capacity,
/// bank associativity and block size, bank latency plus the mean mesh
/// traversal.
fn dnuca_equivalent(dnuca: &lnuca_dnuca::DNucaConfig) -> Result<CacheConfig, ConfigError> {
    let traversal = dnuca.routing_latency * dnuca.rows as u64;
    CacheConfig::builder("shared-dnuca")
        .size_bytes(pow2_floor(dnuca.capacity_bytes()))
        .ways(pow2_floor(dnuca.bank_ways.max(1) as u64) as usize)
        .block_size(dnuca.block_size)
        .completion_cycles(dnuca.bank_completion_cycles + traversal)
        .initiation_interval(dnuca.bank_initiation_interval)
        .build()
}

fn pow2_floor(x: u64) -> u64 {
    debug_assert!(x > 0);
    1u64 << (63 - x.leading_zeros())
}

fn add_cache_stats(total: &mut CacheStats, s: &CacheStats) {
    total.accesses += s.accesses;
    total.read_hits += s.read_hits;
    total.read_misses += s.read_misses;
    total.write_hits += s.write_hits;
    total.write_misses += s.write_misses;
    total.fills += s.fills;
    total.clean_evictions += s.clean_evictions;
    total.dirty_evictions += s.dirty_evictions;
}

fn add_core_stats(total: &mut CoreStats, s: &CoreStats) {
    total.fetched += s.fetched;
    total.committed += s.committed;
    total.loads += s.loads;
    total.stores += s.stores;
    total.branches += s.branches;
    total.mispredictions += s.mispredictions;
    total.load_latency_sum += s.load_latency_sum;
    total.load_latency_samples += s.load_latency_samples;
    total.rob_full_stalls += s.rob_full_stalls;
    total.memory_reject_stalls += s.memory_reject_stalls;
    total.store_buffer_stalls += s.store_buffer_stalls;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::spec::BackingSpec;
    use crate::system::{Engine, System};
    use lnuca_workloads::{suites, AccessPattern};

    fn cmp_spec(cores: usize, fabric: bool, backing: BackingSpec) -> HierarchySpec {
        let mut builder = HierarchySpec::builder().backing(backing).cores(cores);
        if fabric {
            builder = builder.fabric(lnuca_core::LNucaConfig::paper(2).unwrap());
        }
        builder.build().unwrap()
    }

    fn sharing_profile() -> WorkloadProfile {
        suites::adversarial()
            .into_iter()
            .find(|p| p.pattern == AccessPattern::ProducerConsumer)
            .expect("the adversarial suite ships a producer-consumer class")
    }

    #[test]
    fn a_cmp_run_commits_every_core_budget_and_reports_rows() {
        let spec = cmp_spec(4, true, BackingSpec::DNuca(lnuca_dnuca::DNucaConfig::paper()));
        let profile = sharing_profile();
        let (result, _) = System::run_spec_probed(
            Engine::EventHorizon,
            &spec,
            &profile,
            800,
            7,
            lnuca_mem::NoProbe,
        )
        .unwrap();
        assert_eq!(result.instructions, 4 * 800);
        assert_eq!(result.per_core.len(), 4);
        for row in &result.per_core {
            assert_eq!(row.instructions, 800);
            assert!(row.fabric.is_some());
        }
        let coherence = result.coherence.as_ref().unwrap();
        assert!(coherence.reads + coherence.writes > 0);
        assert!(result.label.starts_with("4x "));
        assert!(result.ipc > 0.0);
    }

    #[test]
    fn sharing_workloads_move_the_directory() {
        let spec = cmp_spec(2, false, BackingSpec::Cache(configs::paper_l3()));
        let profile = sharing_profile();
        let (result, hierarchy) = System::run_spec_probed(
            Engine::EventHorizon,
            &spec,
            &profile,
            1_500,
            3,
            lnuca_mem::NoProbe,
        )
        .unwrap();
        let coherence = result.coherence.as_ref().unwrap();
        assert!(
            coherence.invalidations_sent > 0,
            "producer-consumer sharing must invalidate remote copies: {coherence:?}"
        );
        assert!(coherence.writebacks > 0, "dirty lines must drain: {coherence:?}");
        let crate::hierarchy::AnyHierarchy::Cmp(mem) = hierarchy else {
            panic!("CMP runs return the CMP memory");
        };
        // Residency/directory agreement at the end of the run: every
        // privately held line is tracked, with the holder in the sharer set.
        for (c, lane) in mem.lanes.iter().enumerate() {
            for line in lane.l1.lines() {
                let (state, sharers, _) = mem.line_state(line.addr.0 / mem.block_size);
                assert_ne!(state, MsiState::Invalid, "core {c} holds an untracked line");
                assert!(sharers & (1u64 << c) != 0, "core {c} missing from sharer set");
            }
        }
    }

    #[test]
    fn both_engines_are_bit_identical_for_cmp_runs() {
        for (fabric, backing) in [
            (true, BackingSpec::DNuca(lnuca_dnuca::DNucaConfig::paper())),
            (false, BackingSpec::Cache(configs::paper_l3())),
            (true, BackingSpec::Memory),
        ] {
            let spec = cmp_spec(4, fabric, backing);
            let profile = sharing_profile();
            let horizon = System::run_spec_probed(
                Engine::EventHorizon,
                &spec,
                &profile,
                700,
                11,
                lnuca_mem::NoProbe,
            )
            .unwrap()
            .0;
            let step = System::run_spec_probed(
                Engine::CycleStep,
                &spec,
                &profile,
                700,
                11,
                lnuca_mem::NoProbe,
            )
            .unwrap()
            .0;
            assert_eq!(horizon, step, "engines diverged for {}", spec.label());
        }
    }

    /// The shapes perfbench's `cmp-dnuca` workload runs: 2x and 4x L1
    /// over the 8 MB L3, and 4x L1 over the D-NUCA equivalent.
    fn cmp_dnuca_shapes() -> [HierarchySpec; 3] {
        [
            cmp_spec(2, false, BackingSpec::Cache(configs::paper_l3())),
            cmp_spec(4, false, BackingSpec::Cache(configs::paper_l3())),
            cmp_spec(4, false, BackingSpec::DNuca(lnuca_dnuca::DNucaConfig::paper())),
        ]
    }

    /// The profiles perfbench's `cmp-dnuca` workload runs.
    fn cmp_profiles() -> Vec<WorkloadProfile> {
        [
            "sh.prodcons",
            "sh.migratory",
            "sh.falseshare",
            "adv.pointer_chase",
            "adv.stream",
            "adv.gups",
        ]
        .into_iter()
        .map(|name| suites::by_name(name).unwrap())
        .collect()
    }

    /// The cycle cap every run driver applies.
    fn cycle_cap(instructions: u64) -> u64 {
        instructions.saturating_mul(400) + 1_000_000
    }

    /// The reference tick: the memory side, then every core at every
    /// cycle, whatever its recorded horizon.
    fn tick_every_core<P: ProbeSink>(machine: &mut CmpMachine<P>, now: Cycle) {
        machine.mem.tick(now);
        for (c, core) in machine.cores.iter_mut().enumerate() {
            let mut view = CoreView {
                mem: &mut machine.mem,
                core: c,
            };
            core.tick(now, &mut view);
        }
    }

    /// The machine-wide horizon computed from scratch: every lane's
    /// earliest completion and every core's `next_event`.
    fn horizon_from_scratch<P: ProbeSink>(machine: &CmpMachine<P>, now: Cycle) -> Option<Cycle> {
        let mut horizon = machine.mem.next_event(now);
        for core in &machine.cores {
            if let Some(at) = core.next_event(now) {
                Cycle::merge_horizon(&mut horizon, at, now.next());
            }
        }
        horizon
    }

    type Tracked = Vec<(u64, MsiState, u64, Option<usize>)>;

    fn finish(mut machine: CmpMachine, now: Cycle) -> (RunResult, Tracked) {
        machine.finalize(now);
        (machine.result(now), machine.mem.tracked_lines().collect())
    }

    /// Ticks every core at every cycle, as the cycle-stepping engine did
    /// before cores kept their own horizons.
    fn run_every_core(
        spec: &HierarchySpec,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
    ) -> (RunResult, Tracked) {
        let mut machine =
            CmpMachine::from_spec(spec, profile, instructions, seed, NoProbe).unwrap();
        let cap = cycle_cap(instructions);
        let mut now = Cycle::ZERO;
        loop {
            tick_every_core(&mut machine, now);
            now = now.next();
            if machine.is_finished() || now.0 >= cap {
                return finish(machine, now);
            }
        }
    }

    /// An event-horizon run of the machine that checks, at every
    /// iteration, the recorded horizon against the from-scratch one.
    fn run_checking_horizons(
        spec: &HierarchySpec,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
    ) -> (RunResult, Tracked) {
        let mut machine =
            CmpMachine::from_spec(spec, profile, instructions, seed, NoProbe).unwrap();
        let cap = Cycle(cycle_cap(instructions));
        let mut now = Cycle::ZERO;
        loop {
            machine.tick(now);
            now = if machine.is_finished() {
                now.next()
            } else {
                let horizon = machine.next_event(now);
                assert_eq!(
                    horizon,
                    horizon_from_scratch(&machine, now),
                    "{} on {} seed {seed}: recorded horizon differs at {now}",
                    spec.label(),
                    profile.name
                );
                horizon
                    .unwrap_or(cap)
                    .max(now.next())
                    .min(cap.max(now.next()))
            };
            if machine.is_finished() || now >= cap {
                return finish(machine, now);
            }
        }
    }

    #[test]
    fn ticking_only_due_cores_matches_ticking_every_core() {
        const INSTRUCTIONS: u64 = 2_000;
        for spec in cmp_dnuca_shapes() {
            for profile in &cmp_profiles() {
                for seed in [1, 20_090_420] {
                    let context = format!("{} on {} seed {seed}", spec.label(), profile.name);
                    let reference = run_every_core(&spec, profile, INSTRUCTIONS, seed);
                    assert_eq!(reference.0.instructions, spec.cores as u64 * INSTRUCTIONS);
                    for engine in [Engine::CycleStep, Engine::EventHorizon] {
                        let (result, hierarchy) = System::run_spec_probed(
                            engine,
                            &spec,
                            profile,
                            INSTRUCTIONS,
                            seed,
                            NoProbe,
                        )
                        .unwrap();
                        let crate::hierarchy::AnyHierarchy::Cmp(mem) = hierarchy else {
                            panic!("CMP runs return the CMP memory");
                        };
                        assert_eq!(result, reference.0, "{context} under {engine:?}: results");
                        assert_eq!(
                            mem.tracked_lines().collect::<Tracked>(),
                            reference.1,
                            "{context} under {engine:?}: directory"
                        );
                    }
                    assert_eq!(
                        run_checking_horizons(&spec, profile, INSTRUCTIONS, seed),
                        reference,
                        "{context}: horizon-checked run"
                    );
                }
            }
        }
    }

    #[test]
    fn single_core_members_never_emit_coherence_traffic() {
        // The degenerate 1-core CMP machine still runs (the directory just
        // never invalidates anyone). The spec-level entry points run a
        // 1-core spec on the single-core hierarchy, so step the machine
        // directly, one cycle at a time.
        let spec = cmp_spec(1, false, BackingSpec::Cache(configs::paper_l3()));
        let profile = sharing_profile();
        let mut machine = CmpMachine::from_spec(&spec, &profile, 500, 5, NoProbe).unwrap();
        let mut now = Cycle(0);
        while !machine.is_finished() {
            machine.tick(now);
            now = now.next();
        }
        machine.finalize(now);
        let result = machine.result(now);
        let coherence = result.coherence.as_ref().unwrap();
        assert_eq!(coherence.invalidations_sent, 0);
        assert_eq!(coherence.downgrades, 0);
    }
}
