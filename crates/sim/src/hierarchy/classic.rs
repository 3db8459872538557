//! The hierarchies with a conventional L1 in front: the 3-level baseline
//! (Fig. 1(a)) and L1 + D-NUCA (Fig. 1(c)).

use crate::hierarchy::root::{Admission, RootTile};
use crate::hierarchy::{HierarchyStats, OuterLevel};
use crate::spec::HierarchySpec;
use lnuca_cpu::DataMemory;
use lnuca_mem::{AccessClass, ConventionalCache, MainMemory, NoProbe, ProbeEvent, ProbeSink};
use lnuca_types::{ConfigError, Cycle, MemRequest, MemResponse};

/// A hierarchy with a conventional (non-tiled) L1 in front of an
/// [`OuterLevel`]: either L1 + L2 + L3 or L1 + D-NUCA.
///
/// The L1 is the shared root tile (write-through, write-allocate, 16 MSHRs,
/// a 32-entry coalescing write buffer; Table I). A miss fetches its block
/// from the outer level at once, so its arrival cycle and service level
/// are known at miss time: the MSHR entry holds them, and its requests
/// complete when that cycle comes.
///
/// The hierarchy is generic over a [`ProbeSink`] through which it reports
/// every functional state transition; the default [`NoProbe`] compiles the
/// instrumentation away entirely (DESIGN.md §11).
#[derive(Debug)]
pub struct ClassicHierarchy<P: ProbeSink = NoProbe> {
    label: String,
    root: RootTile,
    outer: OuterLevel,
    memory: MainMemory,
    probe: P,
}

impl ClassicHierarchy {
    /// Builds the fabric-less hierarchy described by `spec` without
    /// instrumentation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the spec has a fabric (use
    /// [`crate::hierarchy::LNucaHierarchy`]) or any component is invalid.
    pub fn from_spec(spec: &HierarchySpec) -> Result<Self, ConfigError> {
        Self::from_spec_probed(spec, NoProbe)
    }
}

impl<P: ProbeSink> ClassicHierarchy<P> {
    /// Builds the fabric-less hierarchy described by `spec`, reporting
    /// functional transitions to `probe`: the root cache in front of the
    /// spec's intermediate chain and backing store.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the spec has a fabric (use
    /// [`crate::hierarchy::LNucaHierarchy`]) or any component is invalid.
    pub fn from_spec_probed(spec: &HierarchySpec, probe: P) -> Result<Self, ConfigError> {
        if spec.fabric.is_some() {
            return Err(ConfigError::new(
                "fabric",
                "ClassicHierarchy models fabric-less hierarchies; build an LNucaHierarchy instead",
            ));
        }
        spec.validate()?;
        Ok(ClassicHierarchy {
            label: spec.label(),
            root: RootTile::from_spec(spec)?,
            outer: OuterLevel::from_spec(spec)?,
            memory: MainMemory::new(spec.memory)?,
            probe,
        })
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

    /// The L1 cache (exposed for residency enumeration in verification).
    #[must_use]
    pub fn l1(&self) -> &ConventionalCache {
        self.root.l1()
    }

    /// The outer level (exposed for residency enumeration in verification).
    #[must_use]
    pub fn outer(&self) -> &OuterLevel {
        &self.outer
    }

    /// Snapshot of the accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        self.root.stats(&self.label, &self.outer, &self.memory)
    }

    /// Configuration label (e.g. `L2-256KB`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<P: ProbeSink> DataMemory for ClassicHierarchy<P> {
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let determined_at = match self.root.admit(req, now, &mut self.probe) {
            Admission::Rejected => return false,
            Admission::Accepted => return true,
            Admission::Missed { determined_at } => determined_at,
        };
        let addr = req.addr;
        let is_write = req.kind.is_write();
        let (arrival, served) = self
            .outer
            .fetch(addr, is_write, determined_at, &mut self.memory);
        // Write-allocate: the block is installed in the L1 now; its requests
        // complete at `arrival`.
        let _ = self.root.fill(addr);
        self.probe.record(ProbeEvent::Access {
            addr,
            is_write,
            class: AccessClass::Miss(served),
        });
        self.root.set_arrival(addr, arrival, served);
        true
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.root.drain_completions(now, out);
    }

    fn tick(&mut self, now: Cycle) {
        self.root.tick(now, &mut self.outer, &mut self.probe);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.root.next_event(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_types::{Addr, ReqId, ServiceLevel};

    fn conventional() -> ClassicHierarchy {
        ClassicHierarchy::from_spec(&HierarchySpec::conventional()).unwrap()
    }

    fn read(id: u64, addr: u64, at: u64) -> MemRequest {
        MemRequest::read(ReqId(id), Addr(addr), Cycle(at))
    }

    #[test]
    fn first_access_goes_to_memory_and_repeat_hits_l1() {
        let mut h = conventional();
        assert!(h.issue(read(1, 0x5000, 0), Cycle(0)));
        let resp = wait_for(&mut h, 1);
        assert_eq!(resp.served_by, ServiceLevel::Memory);
        assert!(resp.latency() > 200);

        assert!(h.issue(read(2, 0x5000, 5_000), Cycle(5_000)));
        let resp = wait_for(&mut h, 2);
        assert_eq!(resp.served_by, ServiceLevel::L1);
        assert_eq!(resp.latency(), 2);
    }

    #[test]
    fn l1_victims_are_refetched_from_the_l2() {
        let mut h = conventional();
        // Touch a block, then push it out of the 32 KB L1 by touching enough
        // conflicting blocks (same L1 set, different tags) — but few enough
        // that the 8-way L2 still holds the original block.
        assert!(h.issue(read(1, 0x0, 0), Cycle(0)));
        let _ = wait_for(&mut h, 1);
        for i in 0..5u64 {
            let conflict = 0x8000 * (i + 1); // 32 KB apart => same L1 set
            assert!(h.issue(read(10 + i, conflict, 10_000 + i * 600), Cycle(10_000 + i * 600)));
            let _ = wait_for(&mut h, 10 + i);
        }
        assert!(h.issue(read(99, 0x0, 100_000), Cycle(100_000)));
        let resp = wait_for(&mut h, 99);
        assert_eq!(resp.served_by, ServiceLevel::L2, "evicted L1 block must still be in the L2");
        assert!(resp.latency() < 30);
    }

    #[test]
    fn mshr_exhaustion_rejects_new_primary_misses() {
        let mut h = conventional();
        // 16 distinct missing blocks fill the MSHR file.
        for i in 0..16u64 {
            assert!(h.issue(read(i, 0x100_0000 + i * 4096, 0), Cycle(0)));
        }
        assert!(
            !h.issue(read(99, 0xFFF_0000, 0), Cycle(0)),
            "the 17th outstanding miss must be rejected"
        );
        // Accesses to an already-outstanding block still merge.
        assert!(h.issue(read(100, 0x100_0000, 0), Cycle(0)));
    }

    #[test]
    fn secondary_misses_complete_with_the_primary() {
        let mut h = conventional();
        assert!(h.issue(read(1, 0x9000, 0), Cycle(0)));
        assert!(h.issue(read(2, 0x9010, 1), Cycle(1)));
        // Collect both completions in one pass so neither is dropped.
        let mut got: Vec<MemResponse> = Vec::new();
        for c in 0..10_000u64 {
            h.tick(Cycle(c));
            got.extend(h.completions(Cycle(c)));
            if got.len() == 2 {
                break;
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].completed_at, got[1].completed_at, "merged misses finish together");
        assert_eq!(got[0].served_by, got[1].served_by);
    }

    #[test]
    fn writes_complete_at_l1_speed_and_dirty_the_l2_via_the_write_buffer() {
        let mut h = conventional();
        // Bring the block on chip first.
        assert!(h.issue(read(1, 0x4000, 0), Cycle(0)));
        let _ = wait_for(&mut h, 1);
        let w = MemRequest::write(ReqId(2), Addr(0x4000), Cycle(2_000));
        assert!(h.issue(w, Cycle(2_000)));
        let resp = wait_for(&mut h, 2);
        assert_eq!(resp.served_by, ServiceLevel::L1);
        assert_eq!(resp.latency(), 2);
        // Let the write buffer drain.
        for c in 2_010..2_100 {
            h.tick(Cycle(c));
        }
        assert!(h.stats().write_drains >= 1);
    }

    #[test]
    fn dnuca_variant_attributes_hits_to_rows() {
        let mut h = ClassicHierarchy::from_spec(&HierarchySpec::dnuca()).unwrap();
        assert!(h.issue(read(1, 0x7_0000, 0), Cycle(0)));
        let first = wait_for(&mut h, 1);
        assert_eq!(first.served_by, ServiceLevel::Memory);
        // Evict from L1 by conflicting blocks, then re-access: now served by
        // the D-NUCA.
        for i in 0..5u64 {
            assert!(h.issue(
                read(10 + i, 0x7_0000 + 0x8000 * (i + 1), 10_000 + i * 600),
                Cycle(10_000 + i * 600)
            ));
            let _ = wait_for(&mut h, 10 + i);
        }
        assert!(h.issue(read(99, 0x7_0000, 100_000), Cycle(100_000)));
        let again = wait_for(&mut h, 99);
        assert!(matches!(again.served_by, ServiceLevel::DNucaRow(_)));
        let stats = h.stats();
        assert!(stats.dnuca.is_some());
        assert_eq!(stats.dnuca_banks, 32);
    }

    /// Drives ticks forward until the response for `id` appears.
    fn wait_for(h: &mut ClassicHierarchy, id: u64) -> MemResponse {
        for c in 0..2_000_000u64 {
            h.tick(Cycle(c));
            for r in h.completions(Cycle(c)) {
                if r.id == ReqId(id) {
                    return r;
                }
            }
        }
        panic!("request {id} never completed");
    }
}
