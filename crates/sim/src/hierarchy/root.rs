//! The root tile both hierarchy families share: the L1 with its MSHR file,
//! its write buffer and the responses waiting for delivery. The paper's
//! r-tile is this same L1 whether an L2 or the L-NUCA fabric sits behind
//! it (Fig. 1, Table I).

use crate::configs;
use crate::hierarchy::{HierarchyStats, OuterLevel};
use crate::spec::HierarchySpec;
use lnuca_cpu::CompletionQueue;
use lnuca_mem::{
    AccessClass, AccessOutcome, ConventionalCache, EvictedLine, MainMemory, MshrFile, ProbeEvent,
    ProbeSink, WriteBuffer,
};
use lnuca_types::{Addr, ConfigError, Cycle, MemRequest, MemResponse, ServiceLevel};

/// What [`RootTile::admit`] did with a request.
pub(super) enum Admission {
    /// Refused (no MSHR free, or the block's entry is saturated): the core
    /// retries later.
    Rejected,
    /// Accepted as an L1 hit or merged into an in-flight fetch.
    Accepted,
    /// A primary miss: the request waits in a fresh MSHR entry, and the
    /// caller launches the fetch, which the L1 determined at
    /// `determined_at`.
    Missed {
        /// When the L1 has determined the miss.
        determined_at: Cycle,
    },
}

/// The L1 / root tile: a conventional write-through cache with write
/// allocate, its MSHR file, and a coalescing write buffer drained one block
/// per cycle toward the outer level (marking it dirty there), matching
/// Table I. Misses allocate one of the 16 L1 MSHRs; when all are busy the
/// request is rejected and the core retries, which is how limited
/// memory-level parallelism is enforced. The MSHR entries hold the waiting
/// requests until their block arrives.
#[derive(Debug)]
pub(super) struct RootTile {
    l1: ConventionalCache,
    mshrs: MshrFile,
    write_buffer: WriteBuffer,
    completions: CompletionQueue,
    write_drains: u64,
}

impl RootTile {
    /// Builds the root cache of `spec` and its Table I MSHRs and write
    /// buffer.
    pub(super) fn from_spec(spec: &HierarchySpec) -> Result<Self, ConfigError> {
        Ok(RootTile {
            l1: ConventionalCache::new(spec.root.clone())?,
            mshrs: MshrFile::new(configs::L1_MSHRS, configs::MSHR_SECONDARY, spec.root.block_size)?,
            write_buffer: WriteBuffer::new(
                configs::WRITE_BUFFER_ENTRIES,
                spec.below_root_block_size(),
            )?,
            completions: CompletionQueue::new(),
            write_drains: 0,
        })
    }

    /// The L1 cache.
    pub(super) fn l1(&self) -> &ConventionalCache {
        &self.l1
    }

    /// Offers `req` to the L1 at `now`: merges it into an in-flight fetch of
    /// its block, serves it as a hit, or allocates an MSHR for a new miss.
    /// A write is posted to the write buffer whenever it is accepted. Hits
    /// and merges are reported to `probe` here; the caller reports a miss
    /// once it has launched it.
    pub(super) fn admit<P: ProbeSink>(
        &mut self,
        req: MemRequest,
        now: Cycle,
        probe: &mut P,
    ) -> Admission {
        let addr = req.addr;
        let is_write = req.kind.is_write();

        let admission = if self.mshrs.is_pending(addr) {
            // A fetch of this block is already in flight: merge into it.
            if self.mshrs.allocate(req).is_full() {
                return Admission::Rejected;
            }
            probe.record(ProbeEvent::Access {
                addr,
                is_write,
                class: AccessClass::Merged,
            });
            Admission::Accepted
        } else if self.mshrs.is_full() && !self.l1.probe(addr) {
            // A new miss would need a free MSHR; reject early so the L1 port
            // and the miss counters are not touched by a request that must
            // retry.
            return Admission::Rejected;
        } else {
            match self.l1.access(addr, is_write, now) {
                AccessOutcome::Hit { ready_at } => {
                    probe.record(ProbeEvent::Access {
                        addr,
                        is_write,
                        class: AccessClass::Hit,
                    });
                    self.completions.push(MemResponse::for_request(
                        &req,
                        ready_at,
                        ServiceLevel::L1,
                    ));
                    Admission::Accepted
                }
                AccessOutcome::Miss { determined_at } => {
                    let allocated = self.mshrs.allocate(req);
                    debug_assert!(
                        allocated.is_primary(),
                        "pending and full cases were handled above"
                    );
                    Admission::Missed { determined_at }
                }
            }
        };
        if is_write {
            self.post_write(addr);
        }
        admission
    }

    /// Installs a block in the L1, returning the displaced victim. The L1 is
    /// write-through, so the victim is clean.
    pub(super) fn fill(&mut self, addr: Addr) -> Option<EvictedLine> {
        self.l1.fill(addr, false)
    }

    /// Posts a write of the block at `addr` toward the outer level. A full
    /// buffer drops it.
    pub(super) fn post_write(&mut self, addr: Addr) {
        let _ = self.write_buffer.push(addr);
    }

    /// Records that the missed block at `addr` arrives at `at`, served by
    /// `served`; its requests complete in the [`RootTile::tick`] of `at`.
    pub(super) fn set_arrival(&mut self, addr: Addr, at: Cycle, served: ServiceLevel) {
        self.mshrs.set_arrival(addr, at, served);
    }

    /// The block at `addr` has arrived: frees its MSHR entry and completes
    /// every request that waited on it at `at`, attributed to `served`.
    pub(super) fn complete(&mut self, addr: Addr, at: Cycle, served: ServiceLevel) {
        for req in self.mshrs.retire(addr) {
            self.completions
                .push(MemResponse::for_request(&req, at, served));
        }
    }

    /// The root tile's share of a cycle: completes the fetches whose
    /// arrival is due (sweeping the MSHRs in slot order) and drains one
    /// coalesced write toward `outer`.
    pub(super) fn tick<P: ProbeSink>(&mut self, now: Cycle, outer: &mut OuterLevel, probe: &mut P) {
        let completions = &mut self.completions;
        self.mshrs.retire_arrived(now, |req, at, served| {
            completions.push(MemResponse::for_request(&req, at, served));
        });
        if let Some(addr) = self.write_buffer.drain_one() {
            outer.write_through(addr);
            probe.record(ProbeEvent::WriteDrain { addr });
            self.write_drains += 1;
        }
    }

    /// The root tile's horizon: the next cycle while the write buffer holds
    /// anything (it drains every cycle), else the earliest undelivered
    /// response or due arrival.
    pub(super) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let floor = now.next();
        if !self.write_buffer.is_empty() {
            return Some(floor);
        }
        let mut horizon: Option<Cycle> = None;
        for at in [self.completions.earliest(), self.mshrs.next_arrival()]
            .into_iter()
            .flatten()
        {
            Cycle::merge_horizon(&mut horizon, at, floor);
        }
        horizon
    }

    /// Moves the responses completed by `now` to `out`.
    pub(super) fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.completions.drain_ready(now, out);
    }

    /// The statistics of a hierarchy with this root tile, `outer` and
    /// `memory`, without a fabric.
    pub(super) fn stats(
        &self,
        label: &str,
        outer: &OuterLevel,
        memory: &MainMemory,
    ) -> HierarchyStats {
        HierarchyStats {
            label: label.to_owned(),
            l1: *self.l1.stats(),
            l2: outer.l2_stats(),
            deeper_levels: outer.deeper_stats(),
            l3: outer.l3_stats(),
            lnuca: None,
            lnuca_tiles: 0,
            dnuca: outer.dnuca_stats(),
            dnuca_mesh: outer.dnuca_mesh_stats(),
            dnuca_banks: outer.dnuca_banks(),
            memory_accesses: memory.accesses(),
            write_drains: self.write_drains,
        }
    }
}
