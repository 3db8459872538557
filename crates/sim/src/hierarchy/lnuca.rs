//! The hierarchies with an L-NUCA fabric behind the root tile:
//! L-NUCA + L3 (Fig. 1(b)) and L-NUCA + D-NUCA (Fig. 1(d)).

use crate::configs;
use crate::hierarchy::{HierarchyStats, OuterLevel};
use crate::spec::HierarchySpec;
use lnuca_core::LNuca;
use lnuca_cpu::{CompletionQueue, DataMemory};
use lnuca_mem::{
    AccessClass, AccessOutcome, ConventionalCache, MainMemory, MshrAllocation, MshrFile, NoProbe,
    ProbeEvent, ProbeSink, WriteBuffer,
};
use lnuca_types::{Addr, ConfigError, Cycle, MemRequest, MemResponse, ReqId, ServiceLevel};
use std::collections::VecDeque;

/// A pending search waiting for the single injection port of the Search
/// network.
#[derive(Debug, Clone, Copy)]
struct PendingSearch {
    addr: Addr,
    req: ReqId,
    is_write: bool,
    ready_at: Cycle,
}

/// Requests waiting on one in-flight block fetch, keyed by L1 block index.
/// The original request metadata is needed to build the responses once the
/// fabric or the outer level produces the block. Dead slots keep their
/// `reqs` allocation, so the steady state allocates nothing per miss
/// (DESIGN.md §9); one slot per L1 MSHR bounds the live set exactly.
#[derive(Debug)]
struct WaiterSlot {
    key: u64,
    live: bool,
    reqs: Vec<MemRequest>,
}

/// An L-NUCA hierarchy: the root tile (a conventional write-through L1 with
/// flow-control logic), the tile fabric, and an outer level (L3 or D-NUCA).
///
/// Misses in the root tile launch a search in the fabric (one injection per
/// cycle); hits anywhere in the fabric come back through the Transport
/// network and fill the root tile, whose victim re-enters the fabric through
/// the Replacement network — the distributed-victim-cache behaviour at the
/// heart of the paper. Global misses are forwarded to the outer level, and
/// blocks spilled by the outermost tiles are written back there when dirty.
///
/// The hierarchy is generic over a [`ProbeSink`] through which it reports
/// every functional state transition; the default [`NoProbe`] compiles the
/// instrumentation away entirely (DESIGN.md §11).
#[derive(Debug)]
pub struct LNucaHierarchy<P: ProbeSink = NoProbe> {
    label: String,
    probe: P,
    l1: ConventionalCache,
    l1_mshrs: MshrFile,
    fabric: LNuca,
    outer: OuterLevel,
    memory: MainMemory,
    write_buffer: WriteBuffer,
    pending_searches: VecDeque<PendingSearch>,
    waiters: Vec<WaiterSlot>,
    completions: CompletionQueue,
    write_drains: u64,
    // Reused per-cycle buffers for the fabric's outputs (zero-allocation
    // steady state; see DESIGN.md §9). Each is cleared, refilled via the
    // fabric's `drain_*_into` and handed back within one `tick`.
    arrival_scratch: Vec<lnuca_core::Arrival>,
    miss_scratch: Vec<lnuca_core::GlobalMiss>,
    spill_scratch: Vec<lnuca_core::Spill>,
}

impl LNucaHierarchy {
    /// Builds the fabric hierarchy described by `spec` without
    /// instrumentation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the spec has no fabric (use
    /// [`crate::hierarchy::ClassicHierarchy`]) or any component is invalid.
    pub fn from_spec(spec: &HierarchySpec) -> Result<Self, ConfigError> {
        Self::from_spec_probed(spec, NoProbe)
    }
}

impl<P: ProbeSink> LNucaHierarchy<P> {
    /// Builds the fabric hierarchy described by `spec`, reporting functional
    /// transitions to `probe`: the root tile, the fabric, and the spec's
    /// intermediate chain and backing store behind them.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the spec has no fabric (use
    /// [`crate::hierarchy::ClassicHierarchy`]) or any component is invalid.
    pub fn from_spec_probed(spec: &HierarchySpec, probe: P) -> Result<Self, ConfigError> {
        let Some(fabric) = spec.fabric.clone() else {
            return Err(ConfigError::new(
                "fabric",
                "LNucaHierarchy needs a fabric; build a ClassicHierarchy instead",
            ));
        };
        spec.validate()?;
        Ok(LNucaHierarchy {
            label: spec.label(),
            probe,
            l1: ConventionalCache::new(spec.root.clone())?,
            l1_mshrs: MshrFile::new(
                configs::L1_MSHRS,
                configs::MSHR_SECONDARY,
                spec.root.block_size,
            )?,
            fabric: LNuca::new(fabric)?,
            outer: OuterLevel::from_spec(spec)?,
            memory: MainMemory::new(spec.memory)?,
            write_buffer: WriteBuffer::new(
                configs::WRITE_BUFFER_ENTRIES,
                spec.below_root_block_size(),
            )?,
            pending_searches: VecDeque::new(),
            waiters: (0..configs::L1_MSHRS)
                .map(|_| WaiterSlot {
                    key: 0,
                    live: false,
                    reqs: Vec::new(),
                })
                .collect(),
            completions: CompletionQueue::new(),
            write_drains: 0,
            arrival_scratch: Vec::new(),
            miss_scratch: Vec::new(),
            spill_scratch: Vec::new(),
        })
    }

    /// Snapshot of the accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            label: self.label.clone(),
            l1: *self.l1.stats(),
            l2: self.outer.l2_stats(),
            deeper_levels: self.outer.deeper_stats(),
            l3: self.outer.l3_stats(),
            lnuca: Some(self.fabric.stats().clone()),
            lnuca_tiles: self.fabric.geometry().tile_count(),
            dnuca: self.outer.dnuca_stats(),
            dnuca_mesh: self.outer.dnuca_mesh_stats(),
            dnuca_banks: self.outer.dnuca_banks(),
            memory_accesses: self.memory.accesses(),
            write_drains: self.write_drains,
        }
    }

    /// Configuration label (e.g. `LN3-144KB`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The L-NUCA fabric (exposed for the integration tests).
    #[must_use]
    pub fn fabric(&self) -> &LNuca {
        &self.fabric
    }

    /// The probe sink (for reading back recorded events).
    #[must_use]
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the hierarchy, returning the probe sink.
    #[must_use]
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// The root tile / L1 (exposed for residency enumeration in
    /// verification).
    #[must_use]
    pub fn l1(&self) -> &ConventionalCache {
        &self.l1
    }

    /// The outer level (exposed for residency enumeration in verification).
    #[must_use]
    pub fn outer(&self) -> &OuterLevel {
        &self.outer
    }

    fn block_key(&self, addr: Addr) -> u64 {
        addr.block_index(self.l1.config().block_size)
    }

    /// Installs a block in the root tile, pushing any displaced victim into
    /// the Replacement network.
    fn fill_root(&mut self, addr: Addr) {
        if let Some(victim) = self.l1.fill(addr, false) {
            // The root tile is write-through, so its victims are clean; the
            // fabric still receives them to act as a victim cache.
            self.probe.record(ProbeEvent::RootVictim {
                addr: victim.addr,
                dirty: victim.dirty,
            });
            self.fabric.evict_from_root(victim.addr, victim.dirty);
        }
    }

    /// Appends `req` to the waiter slot for its block, reviving a dead slot
    /// for the first waiter.
    fn push_waiter(&mut self, key: u64, req: MemRequest) {
        if let Some(slot) = self.waiters.iter_mut().find(|s| s.live && s.key == key) {
            slot.reqs.push(req);
            return;
        }
        let slot = self
            .waiters
            .iter_mut()
            .find(|s| !s.live)
            .expect("the MSHR file caps pending blocks at the slot count");
        slot.key = key;
        slot.live = true;
        slot.reqs.clear();
        slot.reqs.push(req);
    }

    /// Completes every request waiting on `addr` with the given attribution.
    fn complete_waiters(&mut self, addr: Addr, at: Cycle, served_by: ServiceLevel) {
        let key = self.block_key(addr);
        let _ = self.l1_mshrs.retire(addr);
        if let Some(slot) = self.waiters.iter_mut().find(|s| s.live && s.key == key) {
            slot.live = false;
            for req in slot.reqs.drain(..) {
                self.completions
                    .push(MemResponse::for_request(&req, at, served_by));
            }
        }
    }
}

impl<P: ProbeSink> DataMemory for LNucaHierarchy<P> {
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let addr = req.addr;
        let is_write = req.kind.is_write();

        // Merge with an in-flight fetch of the same block.
        if self.l1_mshrs.is_pending(addr) {
            return match self.l1_mshrs.allocate(addr, req.id) {
                MshrAllocation::Secondary | MshrAllocation::Primary => {
                    if is_write {
                        let _ = self.write_buffer.push(addr);
                    }
                    self.probe.record(ProbeEvent::Access {
                        addr,
                        is_write,
                        class: AccessClass::Merged,
                    });
                    let key = self.block_key(addr);
                    self.push_waiter(key, req);
                    true
                }
                MshrAllocation::Full => false,
            };
        }

        if !self.l1.probe(addr) && self.l1_mshrs.is_full() {
            return false;
        }

        match self.l1.access(addr, is_write, now) {
            AccessOutcome::Hit { ready_at } => {
                if is_write {
                    let _ = self.write_buffer.push(addr);
                }
                self.probe.record(ProbeEvent::Access {
                    addr,
                    is_write,
                    class: AccessClass::Hit,
                });
                self.completions
                    .push(MemResponse::for_request(&req, ready_at, ServiceLevel::L1));
                true
            }
            AccessOutcome::Miss { determined_at } => {
                match self.l1_mshrs.allocate(addr, req.id) {
                    MshrAllocation::Primary => {}
                    MshrAllocation::Secondary | MshrAllocation::Full => {
                        unreachable!("pending and full cases were handled above")
                    }
                }
                if is_write {
                    let _ = self.write_buffer.push(addr);
                }
                self.probe.record(ProbeEvent::Access {
                    addr,
                    is_write,
                    class: AccessClass::MissLaunched,
                });
                let key = self.block_key(addr);
                self.push_waiter(key, req);
                self.pending_searches.push_back(PendingSearch {
                    addr,
                    req: req.id,
                    is_write,
                    ready_at: determined_at,
                });
                true
            }
        }
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.completions.drain_ready(now, out);
    }

    fn tick(&mut self, now: Cycle) {
        // 1. Advance the fabric.
        self.fabric.tick(now);

        // 2. Hits coming back through the Transport network.
        let mut arrivals = std::mem::take(&mut self.arrival_scratch);
        arrivals.clear();
        self.fabric.drain_arrivals_into(now, &mut arrivals);
        for &arrival in &arrivals {
            if arrival.dirty {
                // The root tile is write-through; the modified data the tile
                // was holding is pushed toward the outer level.
                let _ = self.write_buffer.push(arrival.addr);
            }
            self.probe.record(ProbeEvent::FabricHit {
                addr: arrival.addr,
                level: arrival.hit_level,
                dirty: arrival.dirty,
            });
            self.fill_root(arrival.addr);
            self.complete_waiters(
                arrival.addr,
                arrival.available_at,
                ServiceLevel::LNucaLevel(arrival.hit_level),
            );
        }
        self.arrival_scratch = arrivals;

        // 3. Global misses are forwarded to the outer level.
        let mut misses = std::mem::take(&mut self.miss_scratch);
        misses.clear();
        self.fabric.drain_global_misses_into(now, &mut misses);
        for &miss in &misses {
            let (completion, served) =
                self.outer
                    .fetch(miss.addr, miss.is_write, miss.determined_at, &mut self.memory);
            self.probe.record(ProbeEvent::OuterFetch {
                addr: miss.addr,
                is_write: miss.is_write,
                served,
            });
            self.fill_root(miss.addr);
            self.complete_waiters(miss.addr, completion, served);
        }
        self.miss_scratch = misses;

        // 4. Blocks spilled by the outermost tiles.
        let mut spills = std::mem::take(&mut self.spill_scratch);
        spills.clear();
        self.fabric.drain_spills_into(now, &mut spills);
        for &spill in &spills {
            self.probe.record(ProbeEvent::Spill {
                addr: spill.addr,
                dirty: spill.dirty,
            });
            if spill.dirty {
                let _ = self.write_buffer.push(spill.addr);
            }
        }
        self.spill_scratch = spills;

        // 5. Inject at most one pending search per cycle.
        while let Some(front) = self.pending_searches.front() {
            if front.ready_at > now {
                break;
            }
            let search = *front;
            if self
                .fabric
                .inject_search(search.addr, search.req, search.is_write, now)
            {
                self.pending_searches.pop_front();
            } else {
                break;
            }
        }

        // 6. Drain one coalesced write toward the outer level.
        if let Some(addr) = self.write_buffer.drain_one() {
            self.outer.write_through(addr);
            self.probe.record(ProbeEvent::WriteDrain { addr });
            self.write_drains += 1;
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let floor = now.next();
        if !self.write_buffer.is_empty() {
            return Some(floor);
        }
        let mut horizon = self.fabric.next_event(now);
        let merge = |cur: &mut Option<Cycle>, at: Cycle| Cycle::merge_horizon(cur, at, floor);
        // The injection port retries the front search once it is ready.
        if let Some(front) = self.pending_searches.front() {
            merge(&mut horizon, front.ready_at);
        }
        if let Some(at) = self.completions.earliest() {
            merge(&mut horizon, at);
        }
        horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_types::ReqId;

    fn lnuca3() -> LNucaHierarchy {
        LNucaHierarchy::from_spec(&HierarchySpec::lnuca_l3(3).unwrap()).unwrap()
    }

    fn read(id: u64, addr: u64, at: u64) -> MemRequest {
        MemRequest::read(ReqId(id), Addr(addr), Cycle(at))
    }

    /// Advances the hierarchy until the response for `id` appears, starting
    /// from cycle `from`.
    fn wait_for(h: &mut LNucaHierarchy, id: u64, from: u64) -> MemResponse {
        for c in from..from + 2_000_000 {
            h.tick(Cycle(c));
            for r in h.completions(Cycle(c)) {
                if r.id == ReqId(id) {
                    return r;
                }
            }
        }
        panic!("request {id} never completed");
    }

    #[test]
    fn cold_misses_are_served_by_the_outer_level() {
        let mut h = lnuca3();
        assert!(h.issue(read(1, 0x40_0000, 0), Cycle(0)));
        let resp = wait_for(&mut h, 1, 0);
        assert_eq!(resp.served_by, ServiceLevel::Memory);
        assert!(resp.latency() > 200);
        assert_eq!(h.fabric().stats().global_misses, 1);
    }

    #[test]
    fn l1_victims_are_recovered_from_the_fabric_not_the_l3() {
        let mut h = lnuca3();
        // Load a block, then evict it from the 4-way L1 set with conflicts.
        assert!(h.issue(read(1, 0x0, 0), Cycle(0)));
        let _ = wait_for(&mut h, 1, 0);
        let mut clock = 10_000u64;
        for i in 0..5u64 {
            let conflict = 0x8000 * (i + 1);
            assert!(h.issue(read(10 + i, conflict, clock), Cycle(clock)));
            let _ = wait_for(&mut h, 10 + i, clock);
            clock += 2_000;
        }
        assert!(!h.l1.probe(Addr(0x0)), "the original block must have been displaced");
        assert!(h.fabric().contains(Addr(0x0)), "the victim lives in the fabric");
        assert!(h.issue(read(99, 0x0, clock), Cycle(clock)));
        let resp = wait_for(&mut h, 99, clock);
        match resp.served_by {
            ServiceLevel::LNucaLevel(level) => assert!(level >= 2),
            other => panic!("expected an L-NUCA hit, got {other}"),
        }
        assert!(
            resp.latency() < 15,
            "a fabric hit must be far faster than the 20-cycle L3, got {}",
            resp.latency()
        );
        assert!(h.fabric().stats().read_hits() >= 1);
    }

    #[test]
    fn fabric_hits_are_faster_than_l3_hits() {
        // Same reuse pattern under LN3 vs under a conventional hierarchy
        // with the L2 removed (L3 only): the fabric services the victim
        // sooner than the 20-cycle L3 would.
        let mut h = lnuca3();
        assert!(h.issue(read(1, 0x1234_0000, 0), Cycle(0)));
        let cold = wait_for(&mut h, 1, 0);
        assert_eq!(cold.served_by, ServiceLevel::Memory);
        // Evict it from the root tile.
        let mut clock = 20_000u64;
        for i in 0..5u64 {
            assert!(h.issue(read(10 + i, 0x1234_0000 + 0x8000 * (i + 1), clock), Cycle(clock)));
            let _ = wait_for(&mut h, 10 + i, clock);
            clock += 2_000;
        }
        assert!(h.issue(read(99, 0x1234_0000, clock), Cycle(clock)));
        let warm = wait_for(&mut h, 99, clock);
        assert!(matches!(warm.served_by, ServiceLevel::LNucaLevel(_)));
        assert!(warm.latency() < 20);
    }

    #[test]
    fn secondary_misses_merge_and_complete_together() {
        let mut h = lnuca3();
        assert!(h.issue(read(1, 0x9000, 0), Cycle(0)));
        assert!(h.issue(read(2, 0x9008, 0), Cycle(0)));
        let mut got = Vec::new();
        for c in 0..100_000u64 {
            h.tick(Cycle(c));
            got.extend(h.completions(Cycle(c)));
            if got.len() == 2 {
                break;
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].completed_at, got[1].completed_at);
    }

    #[test]
    fn mshr_exhaustion_applies_back_pressure() {
        let mut h = lnuca3();
        for i in 0..16u64 {
            assert!(h.issue(read(i, 0x200_0000 + i * 4096, 0), Cycle(0)));
        }
        assert!(!h.issue(read(99, 0x500_0000, 0), Cycle(0)));
    }

    #[test]
    fn writes_hit_the_root_tile_and_drain_outward() {
        let mut h = lnuca3();
        assert!(h.issue(read(1, 0x6000, 0), Cycle(0)));
        let _ = wait_for(&mut h, 1, 0);
        let w = MemRequest::write(ReqId(2), Addr(0x6000), Cycle(3_000));
        assert!(h.issue(w, Cycle(3_000)));
        let resp = wait_for(&mut h, 2, 3_000);
        assert_eq!(resp.served_by, ServiceLevel::L1);
        for c in 3_010..3_200 {
            h.tick(Cycle(c));
        }
        assert!(h.stats().write_drains >= 1);
    }

    #[test]
    fn dnuca_backed_variant_builds_and_serves_requests() {
        let mut h = LNucaHierarchy::from_spec(&HierarchySpec::lnuca_dnuca(2).unwrap()).unwrap();
        assert!(h.issue(read(1, 0xCAFE_0000, 0), Cycle(0)));
        let resp = wait_for(&mut h, 1, 0);
        assert_eq!(resp.served_by, ServiceLevel::Memory);
        let stats = h.stats();
        assert_eq!(stats.label, "LN2 + DN-4x8");
        assert!(stats.dnuca.is_some());
        assert!(stats.lnuca.is_some());
    }
}
