//! The levels below the L1 / L-NUCA: a chain of intermediate conventional
//! caches in front of a backing store (an L3-style cache, a D-NUCA, or
//! nothing but DRAM).
//!
//! Until the `HierarchySpec` redesign this was a closed three-variant enum
//! (`L2L3` / `L3Only` / `DNuca`); the composable form subsumes those three
//! shapes bit-identically — the paper's conventional hierarchy is one
//! intermediate (the L2, paying its bus transfers) in front of a cache
//! backing, the bare L3 is an empty chain in front of the same backing,
//! and the D-NUCA shapes are an empty chain in front of a D-NUCA — and
//! additionally admits deeper stacks and the bare-memory backing.

use crate::spec::{BackingSpec, HierarchySpec};
use lnuca_dnuca::{DNuca, DNucaOutcome};
use lnuca_mem::{AccessOutcome, ConventionalCache, MainMemory};
use lnuca_types::{Addr, ConfigError, Cycle, ServiceLevel};

/// One intermediate conventional cache level with its bus transfer costs.
#[derive(Debug)]
struct IntermediateLevel {
    cache: ConventionalCache,
    request_transfer: u64,
    response_transfer: u64,
}

/// The store behind the last intermediate level.
#[derive(Debug)]
pub enum Backing {
    /// An L3-style conventional cache.
    Cache(ConventionalCache),
    /// A D-NUCA.
    DNuca(DNuca),
    /// Nothing on chip: every miss of the levels above is a DRAM fetch of
    /// `block_size` bytes (the root's block — there is no outer cache to
    /// define a larger one).
    Memory {
        /// Fetch granularity in bytes.
        block_size: u64,
    },
}

/// The on-chip hierarchy below the first level.
///
/// `OuterLevel` resolves a miss coming from above by chaining accesses
/// level by level (respecting each level's port occupancy and the memory
/// channel), filling the traversed levels on the way back and reporting
/// where the data was found. Write-back traffic from dirty victims is
/// propagated downward.
#[derive(Debug)]
pub struct OuterLevel {
    /// Intermediate conventional caches, nearest first.
    levels: Vec<IntermediateLevel>,
    /// The backing store behind them.
    backing: Backing,
}

impl OuterLevel {
    /// Builds the outer levels described by `spec` (everything below the
    /// root cache and the fabric).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any component configuration is invalid.
    pub fn from_spec(spec: &HierarchySpec) -> Result<Self, ConfigError> {
        let levels = spec
            .intermediate
            .iter()
            .map(|level| {
                Ok(IntermediateLevel {
                    cache: ConventionalCache::new(level.cache.clone())?,
                    request_transfer: level.request_transfer_cycles,
                    response_transfer: level.response_transfer_cycles,
                })
            })
            .collect::<Result<Vec<_>, ConfigError>>()?;
        let backing = match &spec.backing {
            BackingSpec::Cache(cache) => Backing::Cache(ConventionalCache::new(cache.clone())?),
            BackingSpec::DNuca(dnuca) => Backing::DNuca(DNuca::new(dnuca.clone())?),
            BackingSpec::Memory => Backing::Memory {
                block_size: spec.root.block_size,
            },
        };
        Ok(OuterLevel { levels, backing })
    }

    /// Resolves a miss for the block containing `addr`, starting at `start`.
    ///
    /// Returns the cycle at which the block is available to the level above
    /// and the component that provided it. Each intermediate level charges
    /// its request transfer on the way down and (on a hit) its response
    /// transfer on the way back; levels traversed on a miss are filled, and
    /// their dirty victims are written back one level down. `is_write`
    /// reaches only the first level below (deeper levels see the fetch as a
    /// read, like the original chain did).
    pub fn fetch(
        &mut self,
        addr: Addr,
        is_write: bool,
        start: Cycle,
        memory: &mut MainMemory,
    ) -> (Cycle, ServiceLevel) {
        self.fetch_level(0, addr, is_write, start, memory)
    }

    fn fetch_level(
        &mut self,
        idx: usize,
        addr: Addr,
        is_write: bool,
        start: Cycle,
        memory: &mut MainMemory,
    ) -> (Cycle, ServiceLevel) {
        if idx == self.levels.len() {
            return match &mut self.backing {
                // The backing cache's latency already includes its wire
                // delay, and it is always accessed as a read (the fetch of
                // a block, not the demand write itself) — exactly like the
                // old `fetch_l3`.
                Backing::Cache(l3) => match l3.access(addr, false, start) {
                    AccessOutcome::Hit { ready_at } => (ready_at, ServiceLevel::L3),
                    AccessOutcome::Miss { determined_at } => {
                        let block = l3.config().block_size;
                        let ready = memory.access(determined_at, block);
                        // Fill the backing cache; its dirty victims go to
                        // memory (timing hidden by the write buffer, only
                        // energy sees the write).
                        let _ = l3.fill(addr, false);
                        (ready, ServiceLevel::Memory)
                    }
                },
                Backing::DNuca(dnuca) => match dnuca.access(addr, is_write, start) {
                    DNucaOutcome::Hit { ready_at, row } => (ready_at, ServiceLevel::DNucaRow(row)),
                    DNucaOutcome::Miss { determined_at } => {
                        let block = dnuca.config().block_size;
                        let ready = memory.access(determined_at, block);
                        // Dirty victims displaced by the fill go back to
                        // memory; the timing of that write is hidden by the
                        // write buffer.
                        let _ = dnuca.fill(addr, false, ready);
                        (ready, ServiceLevel::Memory)
                    }
                },
                Backing::Memory { block_size } => {
                    (memory.access(start, *block_size), ServiceLevel::Memory)
                }
            };
        }

        let outcome = {
            let level = &mut self.levels[idx];
            // The request pays this level's bus transfer to reach it.
            level
                .cache
                .access(addr, is_write, start + level.request_transfer)
        };
        match outcome {
            AccessOutcome::Hit { ready_at } => {
                (ready_at + self.levels[idx].response_transfer, intermediate_service_level(idx))
            }
            AccessOutcome::Miss { determined_at } => {
                let (ready, served) = self.fetch_level(idx + 1, addr, false, determined_at, memory);
                // The block is installed at this level on its way up; dirty
                // victims are written back one level down.
                let victim = self.levels[idx].cache.fill(addr, false);
                if let Some(victim) = victim {
                    if victim.dirty {
                        self.writeback_below(idx + 1, victim.addr);
                    }
                }
                (ready, served)
            }
        }
    }

    /// Writes a dirty victim displaced from the level above `idx` into the
    /// first level at or below `idx`: marked dirty where resident, installed
    /// dirty into a cache level otherwise (that fill's own victim is
    /// absorbed by the write path, as the old L2→L3 rule did); D-NUCA and
    /// memory backings absorb absent blocks silently.
    fn writeback_below(&mut self, idx: usize, addr: Addr) {
        if idx < self.levels.len() {
            if !self.levels[idx].cache.mark_dirty(addr) {
                let _ = self.levels[idx].cache.fill(addr, true);
            }
            return;
        }
        match &mut self.backing {
            Backing::Cache(l3) => {
                if !l3.mark_dirty(addr) {
                    let _ = l3.fill(addr, true);
                }
            }
            Backing::DNuca(dnuca) => {
                let _ = dnuca.mark_dirty(addr);
            }
            Backing::Memory { .. } => {}
        }
    }

    /// Applies write(-through/-back) traffic arriving from the level above:
    /// the block is marked dirty where it resides (nearest level first); if
    /// it is nowhere on chip the write is absorbed by this level's write
    /// buffer and eventually reaches memory (only the energy accounting
    /// sees it).
    pub fn write_through(&mut self, addr: Addr) {
        for level in &mut self.levels {
            if level.cache.mark_dirty(addr) {
                return;
            }
        }
        match &mut self.backing {
            Backing::Cache(l3) => {
                let _ = l3.mark_dirty(addr);
            }
            Backing::DNuca(dnuca) => {
                let _ = dnuca.mark_dirty(addr);
            }
            Backing::Memory { .. } => {}
        }
    }

    /// The backing store (exposed for residency enumeration in
    /// verification).
    #[must_use]
    pub fn backing(&self) -> &Backing {
        &self.backing
    }

    /// The intermediate caches, nearest first (exposed for residency
    /// enumeration in verification).
    pub fn intermediate_caches(&self) -> impl Iterator<Item = &ConventionalCache> {
        self.levels.iter().map(|level| &level.cache)
    }

    /// Statistics of the first intermediate level (the L2 slot), if any.
    #[must_use]
    pub fn l2_stats(&self) -> Option<lnuca_mem::CacheStats> {
        self.levels.first().map(|level| *level.cache.stats())
    }

    /// Statistics of the intermediate levels beyond the first (deep stacks
    /// only; empty for every paper shape).
    #[must_use]
    pub fn deeper_stats(&self) -> Vec<lnuca_mem::CacheStats> {
        self.levels
            .iter()
            .skip(1)
            .map(|level| *level.cache.stats())
            .collect()
    }

    /// Statistics of the backing cache, if the backing is a cache.
    #[must_use]
    pub fn l3_stats(&self) -> Option<lnuca_mem::CacheStats> {
        match &self.backing {
            Backing::Cache(l3) => Some(*l3.stats()),
            _ => None,
        }
    }

    /// D-NUCA statistics, if the backing is a D-NUCA.
    #[must_use]
    pub fn dnuca_stats(&self) -> Option<lnuca_dnuca::DNucaStats> {
        match &self.backing {
            Backing::DNuca(dnuca) => Some(dnuca.stats().clone()),
            _ => None,
        }
    }

    /// D-NUCA mesh statistics, if the backing is a D-NUCA.
    #[must_use]
    pub fn dnuca_mesh_stats(&self) -> Option<lnuca_noc::mesh::MeshStats> {
        match &self.backing {
            Backing::DNuca(dnuca) => Some(*dnuca.mesh_stats()),
            _ => None,
        }
    }

    /// Number of D-NUCA banks (0 otherwise), for leakage accounting.
    #[must_use]
    pub fn dnuca_banks(&self) -> usize {
        match &self.backing {
            Backing::DNuca(dnuca) => dnuca.config().rows * dnuca.config().cols,
            _ => 0,
        }
    }
}

/// The attribution of a hit in intermediate level `idx`: the first
/// intermediate is the classical L2; deeper ones (spec-composed stacks
/// only) get their own variant.
fn intermediate_service_level(idx: usize) -> ServiceLevel {
    if idx == 0 {
        ServiceLevel::L2
    } else {
        ServiceLevel::Intermediate(u8::try_from(idx).unwrap_or(u8::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use crate::spec::{HierarchySpec, IntermediateSpec};
    use lnuca_dnuca::DNucaConfig;
    use lnuca_mem::{CacheConfig, MemoryConfig};

    fn memory() -> MainMemory {
        MainMemory::new(MemoryConfig::default()).unwrap()
    }

    fn l2l3() -> OuterLevel {
        OuterLevel::from_spec(
            &HierarchySpec::builder()
                .intermediate(IntermediateSpec::paper_l2())
                .backing_cache(configs::paper_l3())
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn l2l3_chain_escalates_until_it_finds_data() {
        let mut outer = l2l3();
        let mut mem = memory();
        let addr = Addr(0x10_0000);
        // Cold: comes from memory.
        let (t1, s1) = outer.fetch(addr, false, Cycle(0), &mut mem);
        assert_eq!(s1, ServiceLevel::Memory);
        assert!(t1.0 > 200, "must include the DRAM latency, got {t1}");
        // Second access: the L2 was filled on the way up.
        let (t2, s2) = outer.fetch(addr, false, Cycle(1_000), &mut mem);
        assert_eq!(s2, ServiceLevel::L2);
        assert_eq!(
            t2.since(Cycle(1_000)),
            4 + crate::configs::L2_REQUEST_TRANSFER_CYCLES
                + crate::configs::L2_RESPONSE_TRANSFER_CYCLES,
            "an L2 hit pays the interconnect transfers plus the 4-cycle completion"
        );
    }

    #[test]
    fn l3_only_serves_from_l3_after_a_fill() {
        let mut outer = OuterLevel::from_spec(
            &HierarchySpec::builder()
                .backing_cache(configs::paper_l3())
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut mem = memory();
        let addr = Addr(0xAB_0000);
        let (_, s1) = outer.fetch(addr, false, Cycle(0), &mut mem);
        assert_eq!(s1, ServiceLevel::Memory);
        let (t2, s2) = outer.fetch(addr, false, Cycle(5_000), &mut mem);
        assert_eq!(s2, ServiceLevel::L3);
        assert_eq!(t2.since(Cycle(5_000)), 20);
    }

    #[test]
    fn dnuca_outer_reports_row_attribution() {
        let mut outer = OuterLevel::from_spec(
            &HierarchySpec::builder()
                .backing_dnuca(DNucaConfig::paper())
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut mem = memory();
        let addr = Addr(0x77_0000);
        let (_, s1) = outer.fetch(addr, false, Cycle(0), &mut mem);
        assert_eq!(s1, ServiceLevel::Memory);
        let (_, s2) = outer.fetch(addr, false, Cycle(10_000), &mut mem);
        match s2 {
            ServiceLevel::DNucaRow(row) => assert_eq!(row, 3, "fills land in the farthest row"),
            other => panic!("expected a D-NUCA hit, got {other}"),
        }
        assert_eq!(outer.dnuca_banks(), 32);
    }

    #[test]
    fn write_through_marks_resident_blocks_dirty() {
        let mut outer = l2l3();
        let mut mem = memory();
        let addr = Addr(0x20_0000);
        outer.fetch(addr, false, Cycle(0), &mut mem);
        outer.write_through(addr);
        let l2 = outer
            .intermediate_caches()
            .next()
            .expect("one intermediate");
        assert!(l2.probe(addr));
    }

    #[test]
    fn memory_backing_always_fetches_from_dram() {
        let mut outer = OuterLevel::from_spec(&HierarchySpec::builder().build().unwrap()).unwrap();
        let mut mem = memory();
        let addr = Addr(0x5000);
        for round in 0..3u64 {
            let (t, s) = outer.fetch(addr, false, Cycle(round * 10_000), &mut mem);
            assert_eq!(s, ServiceLevel::Memory, "nothing on chip can cache the block");
            assert!(t.since(Cycle(round * 10_000)) > 200);
        }
        assert_eq!(mem.accesses(), 3);
        // Write drains vanish into DRAM (energy-only); no panic, no state.
        outer.write_through(addr);
        assert!(outer.l2_stats().is_none() && outer.l3_stats().is_none());
    }

    #[test]
    fn deep_stacks_chain_through_every_intermediate() {
        let l2b = CacheConfig::builder("L2B")
            .size_bytes(1024 * 1024)
            .ways(8)
            .block_size(64)
            .completion_cycles(8)
            .initiation_interval(4)
            .build()
            .unwrap();
        let mut outer = OuterLevel::from_spec(
            &HierarchySpec::builder()
                .intermediate(IntermediateSpec::paper_l2())
                .intermediate(IntermediateSpec::new(l2b).with_transfers(3, 3))
                .backing_cache(configs::paper_l3())
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut mem = memory();
        let addr = Addr(0x42_0000);
        let (_, s1) = outer.fetch(addr, false, Cycle(0), &mut mem);
        assert_eq!(s1, ServiceLevel::Memory);
        // Both intermediates were filled on the way up; the nearest one
        // answers first.
        let (_, s2) = outer.fetch(addr, false, Cycle(10_000), &mut mem);
        assert_eq!(s2, ServiceLevel::L2);
        // Evict the block from the 8-way L2 with nine conflicting blocks
        // (32 KB apart: same L2 set, mostly distinct L2B sets, so the
        // deeper 1 MB intermediate still holds it).
        let mut clock = 20_000;
        for i in 1..=9u64 {
            let conflict = Addr(0x42_0000 + i * 32 * 1024);
            outer.fetch(conflict, false, Cycle(clock), &mut mem);
            clock += 2_000;
        }
        let (_, s3) = outer.fetch(addr, false, Cycle(clock), &mut mem);
        assert_eq!(
            s3,
            ServiceLevel::Intermediate(1),
            "the deeper intermediate answers once the L2 evicted the block"
        );
        assert_eq!(outer.deeper_stats().len(), 1);
        assert!(outer.deeper_stats()[0].read_hits >= 1);
    }
}
