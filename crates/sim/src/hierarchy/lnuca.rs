//! The hierarchies with an L-NUCA fabric behind the root tile:
//! L-NUCA + L3 (Fig. 1(b)) and L-NUCA + D-NUCA (Fig. 1(d)).

use crate::hierarchy::root::{Admission, RootTile};
use crate::hierarchy::{HierarchyStats, OuterLevel};
use crate::spec::HierarchySpec;
use lnuca_core::LNuca;
use lnuca_cpu::DataMemory;
use lnuca_mem::{AccessClass, ConventionalCache, MainMemory, NoProbe, ProbeEvent, ProbeSink};
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

/// An L-NUCA hierarchy: the root tile (a conventional write-through L1 with
/// flow-control logic), the tile fabric, and an outer level (L3 or D-NUCA).
///
/// Misses in the root tile launch a search in the fabric (one injection per
/// cycle); hits anywhere in the fabric come back through the Transport
/// network and fill the root tile, whose victim re-enters the fabric through
/// the Replacement network — the distributed-victim-cache behaviour at the
/// heart of the paper. Global misses are forwarded to the outer level, and
/// blocks spilled by the outermost tiles are written back there when dirty.
/// The requests of a miss wait in its root-tile MSHR entry until the block
/// arrives.
///
/// The hierarchy is generic over a [`ProbeSink`] through which it reports
/// every functional state transition; the default [`NoProbe`] compiles the
/// instrumentation away entirely (DESIGN.md §11).
#[derive(Debug)]
pub struct LNucaHierarchy<P: ProbeSink = NoProbe> {
    label: String,
    probe: P,
    root: RootTile,
    fabric: LNuca,
    outer: OuterLevel,
    memory: MainMemory,
    pending_searches: VecDeque<PendingSearch>,
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
            root: RootTile::from_spec(spec)?,
            fabric: LNuca::new(fabric)?,
            outer: OuterLevel::from_spec(spec)?,
            memory: MainMemory::new(spec.memory)?,
            pending_searches: VecDeque::new(),
            arrival_scratch: Vec::new(),
            miss_scratch: Vec::new(),
            spill_scratch: Vec::new(),
        })
    }

    /// Snapshot of the accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            lnuca: Some(self.fabric.stats().clone()),
            lnuca_tiles: self.fabric.geometry().tile_count(),
            ..self.root.stats(&self.label, &self.outer, &self.memory)
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
        self.root.l1()
    }

    /// The outer level (exposed for residency enumeration in verification).
    #[must_use]
    pub fn outer(&self) -> &OuterLevel {
        &self.outer
    }

    /// Installs an arrived block in the root tile, pushing any displaced
    /// victim into the Replacement network, and completes the requests that
    /// waited on it.
    fn deliver(&mut self, addr: Addr, at: Cycle, served_by: ServiceLevel) {
        if let Some(victim) = self.root.fill(addr) {
            // The root tile is write-through, so its victims are clean; the
            // fabric still receives them to act as a victim cache.
            self.probe.record(ProbeEvent::RootVictim {
                addr: victim.addr,
                dirty: victim.dirty,
            });
            self.fabric.evict_from_root(victim.addr, victim.dirty);
        }
        self.root.complete(addr, at, served_by);
    }
}

impl<P: ProbeSink> DataMemory for LNucaHierarchy<P> {
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let determined_at = match self.root.admit(req, now, &mut self.probe) {
            Admission::Rejected => return false,
            Admission::Accepted => return true,
            Admission::Missed { determined_at } => determined_at,
        };
        let addr = req.addr;
        let is_write = req.kind.is_write();
        self.probe.record(ProbeEvent::Access {
            addr,
            is_write,
            class: AccessClass::MissLaunched,
        });
        self.pending_searches.push_back(PendingSearch {
            addr,
            req: req.id,
            is_write,
            ready_at: determined_at,
        });
        true
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.root.drain_completions(now, out);
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
                self.root.post_write(arrival.addr);
            }
            self.probe.record(ProbeEvent::FabricHit {
                addr: arrival.addr,
                level: arrival.hit_level,
                dirty: arrival.dirty,
            });
            self.deliver(
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
            self.deliver(miss.addr, completion, served);
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
                self.root.post_write(spill.addr);
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
        self.root.tick(now, &mut self.outer, &mut self.probe);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let floor = now.next();
        let root = self.root.next_event(now);
        if root == Some(floor) {
            return root;
        }
        let mut horizon = self.fabric.next_event(now);
        let merge = |cur: &mut Option<Cycle>, at: Cycle| Cycle::merge_horizon(cur, at, floor);
        // The injection port retries the front search once it is ready.
        if let Some(front) = self.pending_searches.front() {
            merge(&mut horizon, front.ready_at);
        }
        if let Some(at) = root {
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
        assert!(!h.l1().probe(Addr(0x0)), "the original block must have been displaced");
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
