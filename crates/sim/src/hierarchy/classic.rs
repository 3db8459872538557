//! The hierarchies with a conventional L1 in front: the 3-level baseline
//! (Fig. 1(a)) and L1 + D-NUCA (Fig. 1(c)).

use crate::configs;
use crate::hierarchy::{HierarchyStats, OuterLevel};
use crate::spec::HierarchySpec;
use lnuca_cpu::{CompletionQueue, DataMemory};
use lnuca_mem::{
    AccessClass, AccessOutcome, ConventionalCache, MainMemory, MshrAllocation, MshrFile, NoProbe,
    ProbeEvent, ProbeSink, WriteBuffer,
};
use lnuca_types::{Addr, ConfigError, Cycle, MemRequest, MemResponse, ServiceLevel};

/// One in-flight block fetch: its L1 block index, when it completes and who
/// serviced it.
#[derive(Debug, Clone, Copy)]
struct OutstandingFetch {
    key: u64,
    completion: Cycle,
    served: ServiceLevel,
}

/// A hierarchy with a conventional (non-tiled) L1 in front of an
/// [`OuterLevel`]: either L1 + L2 + L3 or L1 + D-NUCA.
///
/// The L1 is write-through with write-allocate; store traffic is absorbed by
/// a coalescing write buffer and drained one block per cycle to the outer
/// level (marking it dirty there), matching the 32-entry write buffers of
/// Table I. Misses allocate one of the 16 L1 MSHRs; when all are busy the
/// request is rejected and the core retries, which is how limited
/// memory-level parallelism is enforced.
///
/// The hierarchy is generic over a [`ProbeSink`] through which it reports
/// every functional state transition; the default [`NoProbe`] compiles the
/// instrumentation away entirely (DESIGN.md §11).
#[derive(Debug)]
pub struct ClassicHierarchy<P: ProbeSink = NoProbe> {
    label: String,
    l1: ConventionalCache,
    l1_mshrs: MshrFile,
    write_buffer: WriteBuffer,
    outer: OuterLevel,
    memory: MainMemory,
    probe: P,
    /// In-flight block fetches in a fixed array of [`configs::L1_MSHRS`]
    /// slots, mirroring the paper's 16 physical L1 MSHRs one to one (every
    /// entry here holds a primary-miss MSHR, so the file's capacity bounds
    /// this array exactly). First-fit allocation and an index-order retire
    /// sweep keep the order deterministic without any per-miss map churn.
    outstanding: [Option<OutstandingFetch>; configs::L1_MSHRS],
    /// The earliest `completion` in `outstanding` (`None` when every slot
    /// is free): the retire sweep and the horizon read it instead of
    /// walking the slots.
    outstanding_earliest: Option<Cycle>,
    completions: CompletionQueue,
    write_drains: u64,
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
            l1: ConventionalCache::new(spec.root.clone())?,
            l1_mshrs: MshrFile::new(
                configs::L1_MSHRS,
                configs::MSHR_SECONDARY,
                spec.root.block_size,
            )?,
            write_buffer: WriteBuffer::new(
                configs::WRITE_BUFFER_ENTRIES,
                spec.below_root_block_size(),
            )?,
            outer: OuterLevel::from_spec(spec)?,
            memory: MainMemory::new(spec.memory)?,
            probe,
            outstanding: [None; configs::L1_MSHRS],
            outstanding_earliest: None,
            completions: CompletionQueue::new(),
            write_drains: 0,
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
        &self.l1
    }

    /// The outer level (exposed for residency enumeration in verification).
    #[must_use]
    pub fn outer(&self) -> &OuterLevel {
        &self.outer
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
            lnuca: None,
            lnuca_tiles: 0,
            dnuca: self.outer.dnuca_stats(),
            dnuca_mesh: self.outer.dnuca_mesh_stats(),
            dnuca_banks: self.outer.dnuca_banks(),
            memory_accesses: self.memory.accesses(),
            write_drains: self.write_drains,
        }
    }

    /// Configuration label (e.g. `L2-256KB`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    fn block_key(&self, addr: Addr) -> u64 {
        addr.block_index(self.l1.config().block_size)
    }

    /// Completion time and attribution of the in-flight fetch for `key`.
    fn outstanding_for(&self, key: u64) -> (Cycle, ServiceLevel) {
        self.outstanding
            .iter()
            .flatten()
            .find(|f| f.key == key)
            .map(|f| (f.completion, f.served))
            .expect("a pending MSHR always has an outstanding-fetch slot")
    }

    /// Records an in-flight fetch in the first free slot (first fit).
    fn record_outstanding(&mut self, key: u64, completion: Cycle, served: ServiceLevel) {
        let slot = self
            .outstanding
            .iter_mut()
            .find(|s| s.is_none())
            .expect("the MSHR file caps primary misses at the slot count");
        *slot = Some(OutstandingFetch {
            key,
            completion,
            served,
        });
        self.outstanding_earliest =
            Some(self.outstanding_earliest.map_or(completion, |e| e.min(completion)));
    }
}

impl<P: ProbeSink> DataMemory for ClassicHierarchy<P> {
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let addr = req.addr;
        let is_write = req.kind.is_write();
        let key = self.block_key(addr);

        // A fetch of this block is already in flight: merge into it.
        if self.l1_mshrs.is_pending(addr) {
            return match self.l1_mshrs.allocate(addr, req.id) {
                MshrAllocation::Secondary | MshrAllocation::Primary => {
                    let (completion, served) = self.outstanding_for(key);
                    if is_write {
                        let _ = self.write_buffer.push(addr);
                    }
                    self.probe.record(ProbeEvent::Access {
                        addr,
                        is_write,
                        class: AccessClass::Merged,
                    });
                    self.completions.push(MemResponse::for_request(
                        &req,
                        completion.max(now),
                        served,
                    ));
                    true
                }
                MshrAllocation::Full => false,
            };
        }

        // A new miss would need a free MSHR; reject early so the L1 port and
        // the miss counters are not touched by a request that must retry.
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
                let (completion, served) =
                    self.outer
                        .fetch(addr, is_write, determined_at, &mut self.memory);
                // Write-allocate: the block is installed in the L1; its
                // victim is clean because the L1 is write-through.
                let _ = self.l1.fill(addr, false);
                if is_write {
                    let _ = self.write_buffer.push(addr);
                }
                self.probe.record(ProbeEvent::Access {
                    addr,
                    is_write,
                    class: AccessClass::Miss(served),
                });
                self.record_outstanding(key, completion, served);
                self.completions
                    .push(MemResponse::for_request(&req, completion, served));
                true
            }
        }
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.completions.drain_ready(now, out);
    }

    fn tick(&mut self, now: Cycle) {
        // Retire finished fetches so their MSHR entries free up, sweeping
        // the fixed slot array in index order (stable across runs) — only
        // on cycles where the earliest fetch has completed.
        if self.outstanding_earliest.is_some_and(|e| e <= now) {
            let block_size = self.l1.config().block_size;
            let mut earliest: Option<Cycle> = None;
            for slot in &mut self.outstanding {
                if let Some(fetch) = slot {
                    if fetch.completion <= now {
                        let _ = self.l1_mshrs.retire(Addr(fetch.key * block_size));
                        *slot = None;
                    } else {
                        let at = fetch.completion;
                        earliest = Some(earliest.map_or(at, |e| e.min(at)));
                    }
                }
            }
            self.outstanding_earliest = earliest;
        }
        // Drain one coalesced write per cycle toward the outer level.
        if let Some(addr) = self.write_buffer.drain_one() {
            self.outer.write_through(addr);
            self.probe.record(ProbeEvent::WriteDrain { addr });
            self.write_drains += 1;
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let floor = now.next();
        // The write buffer drains (and dirties the outer level) every cycle
        // it holds anything.
        if !self.write_buffer.is_empty() {
            return Some(floor);
        }
        let mut horizon: Option<Cycle> = None;
        let merge = |cur: &mut Option<Cycle>, at: Cycle| Cycle::merge_horizon(cur, at, floor);
        // Undelivered responses mature at their completion cycles; in-flight
        // fetches retire (freeing MSHRs) at theirs.
        for at in [self.completions.earliest(), self.outstanding_earliest]
            .into_iter()
            .flatten()
        {
            merge(&mut horizon, at);
        }
        horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_types::ReqId;

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
            assert!(h.issue(read(10 + i, 0x7_0000 + 0x8000 * (i + 1), 10_000 + i * 600), Cycle(10_000 + i * 600)));
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
