//! The timing-free reference model: obviously-correct set-associative LRU
//! caches and the functional composition rules of the paper's hierarchies.
//!
//! Nothing in this module knows about cycles, ports, networks or MSHRs. The
//! model advances only when the harness replays a recorded
//! [`lnuca_mem::ProbeEvent`] stream through it (see
//! [`crate::hierarchy::RefHierarchy`]): scheduling decisions (which access
//! merged, when a write drained) are inputs, every *cache-content* decision
//! — hit/miss, victim choice, dirty propagation, writeback — is recomputed
//! here and cross-checked against what the detailed simulator did.

use lnuca_dnuca::DNucaConfig;
use lnuca_mem::{
    CacheConfig, CacheGeometry, CacheStats, EvictedLine, Line, ReplacementPolicy, WritePolicy,
};
use lnuca_types::{Addr, ConfigError, ServiceLevel};

/// A nested-`Vec`, `Option`-per-way set-associative array with explicit LRU
/// stamps — deliberately the most straightforward implementation possible
/// (the same shape `crates/mem/tests/flat_array_model.rs` uses to verify
/// the flat `CacheArray`).
///
/// The stamp discipline mirrors `CacheArray` exactly: `lookup` and `fill`
/// each advance the local tick (even when they miss), `mark_dirty` and
/// `invalidate` do not, and the LRU victim is the way with the smallest
/// `last_use` (first such way on the impossible tie).
#[derive(Debug, Clone)]
pub struct RefArray {
    geometry: CacheGeometry,
    sets: Vec<Vec<RefWay>>,
    tick: u64,
}

#[derive(Debug, Clone, Copy)]
struct RefWay {
    line: Option<Line>,
    last_use: u64,
}

impl RefArray {
    /// Creates an empty array. Only LRU replacement is supported — the
    /// paper's configurations use LRU everywhere, and an obviously-correct
    /// oracle should not share victim-choice code with the implementation
    /// under test.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for non-LRU policies.
    pub fn new(geometry: CacheGeometry, policy: ReplacementPolicy) -> Result<Self, ConfigError> {
        if policy != ReplacementPolicy::Lru {
            return Err(ConfigError::new(
                "replacement",
                "the reference model implements LRU only (the paper's policy)",
            ));
        }
        Ok(RefArray {
            geometry,
            sets: vec![
                vec![
                    RefWay {
                        line: None,
                        last_use: 0
                    };
                    geometry.ways()
                ];
                geometry.sets()
            ],
            tick: 0,
        })
    }

    fn base(&self, addr: Addr) -> Addr {
        addr.block_base(self.geometry.block_size())
    }

    /// Residency probe without recency side effects.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        let base = self.base(addr);
        self.sets[self.geometry.set_index(addr)]
            .iter()
            .any(|w| w.line.map(|l| l.addr) == Some(base))
    }

    /// Looks the block up, refreshing its recency on a hit.
    pub fn lookup(&mut self, addr: Addr) -> Option<Line> {
        self.tick += 1;
        let tick = self.tick;
        let base = self.base(addr);
        let set = &mut self.sets[self.geometry.set_index(addr)];
        for way in set.iter_mut() {
            if let Some(line) = way.line {
                if line.addr == base {
                    way.last_use = tick;
                    return Some(line);
                }
            }
        }
        None
    }

    /// Marks the block dirty if resident.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        let base = self.base(addr);
        let set = &mut self.sets[self.geometry.set_index(addr)];
        for way in set.iter_mut() {
            if let Some(line) = way.line.as_mut() {
                if line.addr == base {
                    line.dirty = true;
                    return true;
                }
            }
        }
        false
    }

    /// Inserts the block, evicting the LRU line of a full set.
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<EvictedLine> {
        self.tick += 1;
        let tick = self.tick;
        let base = self.base(addr);
        let set = &mut self.sets[self.geometry.set_index(addr)];
        // Already resident: merge dirtiness, refresh.
        for way in set.iter_mut() {
            if let Some(line) = way.line.as_mut() {
                if line.addr == base {
                    line.dirty |= dirty;
                    way.last_use = tick;
                    return None;
                }
            }
        }
        // Free way.
        if let Some(way) = set.iter_mut().find(|w| w.line.is_none()) {
            way.line = Some(Line { addr: base, dirty });
            way.last_use = tick;
            return None;
        }
        // LRU victim: smallest last_use, lowest way index first.
        let victim_way = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.last_use)
            .map(|(i, _)| i)
            .expect("sets have at least one way");
        let way = &mut set[victim_way];
        let victim = way.line.expect("a full set has a line in every way");
        way.line = Some(Line { addr: base, dirty });
        way.last_use = tick;
        Some(EvictedLine {
            addr: victim.addr,
            dirty: victim.dirty,
        })
    }

    /// Removes the block, returning its metadata.
    pub fn invalidate(&mut self, addr: Addr) -> Option<Line> {
        let base = self.base(addr);
        let set = &mut self.sets[self.geometry.set_index(addr)];
        for way in set.iter_mut() {
            if let Some(line) = way.line {
                if line.addr == base {
                    way.line = None;
                    return Some(line);
                }
            }
        }
        None
    }

    /// Every resident line (in no particular order).
    pub fn lines(&self) -> impl Iterator<Item = Line> + '_ {
        self.sets.iter().flatten().filter_map(|w| w.line)
    }
}

/// A reference conventional cache: [`RefArray`] plus the exact counter
/// discipline of `lnuca_mem::ConventionalCache` (which is what the final
/// [`CacheStats`] equality check leans on).
#[derive(Debug, Clone)]
pub struct RefCache {
    array: RefArray,
    write_policy: WritePolicy,
    /// Counters accumulated with `ConventionalCache`'s bucketing rules.
    pub stats: CacheStats,
}

impl RefCache {
    /// Builds an empty reference cache from the same configuration the
    /// detailed cache was built from.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid geometry or non-LRU policies.
    pub fn new(config: &CacheConfig) -> Result<Self, ConfigError> {
        Ok(RefCache {
            array: RefArray::new(config.geometry()?, config.replacement)?,
            write_policy: config.write_policy,
            stats: CacheStats::default(),
        })
    }

    /// Performs a demand access; returns `true` on a hit.
    pub fn access(&mut self, addr: Addr, is_write: bool) -> bool {
        self.stats.accesses += 1;
        let hit = self.array.lookup(addr).is_some();
        match (hit, is_write) {
            (true, true) => {
                self.stats.write_hits += 1;
                if self.write_policy == WritePolicy::CopyBack {
                    self.array.mark_dirty(addr);
                }
            }
            (true, false) => self.stats.read_hits += 1,
            (false, true) => self.stats.write_misses += 1,
            (false, false) => self.stats.read_misses += 1,
        }
        hit
    }

    /// Fills the block, counting the eviction like the detailed cache does.
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<EvictedLine> {
        self.stats.fills += 1;
        let evicted = self.array.fill(addr, dirty);
        if let Some(e) = &evicted {
            if e.dirty {
                self.stats.dirty_evictions += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
        }
        evicted
    }

    /// Marks the block dirty if resident.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        self.array.mark_dirty(addr)
    }

    /// Residency probe without side effects.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        self.array.contains(addr)
    }

    /// Every resident line.
    pub fn lines(&self) -> impl Iterator<Item = Line> + '_ {
        self.array.lines()
    }
}

/// The functional subset of `lnuca_dnuca::DNucaStats` the reference model
/// recomputes (the timing fields — `hit_latency_sum` — and the unused
/// `misses` counter are excluded from comparison).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefDnucaCounters {
    /// Total accesses.
    pub accesses: u64,
    /// Hits per bank row (0 = closest to the controller).
    pub hits_per_row: Vec<u64>,
    /// Individual bank lookups.
    pub bank_lookups: u64,
    /// Bank writes caused by fills and migrations.
    pub bank_fills: u64,
    /// Promotions performed.
    pub migrations: u64,
    /// Dirty victims evicted by fills.
    pub dirty_evictions: u64,
}

/// Reference D-NUCA: per-bank [`RefArray`]s plus the exact functional rules
/// of `lnuca_dnuca::DNuca` — row-ordered probing, hit promotion by swap,
/// fills into the farthest row.
#[derive(Debug, Clone)]
pub struct RefDnuca {
    config: DNucaConfig,
    /// `banks[col][row]`, like the detailed cache.
    banks: Vec<Vec<RefArray>>,
    /// Functional counters.
    pub counters: RefDnucaCounters,
}

impl RefDnuca {
    /// Builds an empty reference D-NUCA.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid bank geometry.
    pub fn new(config: &DNucaConfig) -> Result<Self, ConfigError> {
        let geometry =
            CacheGeometry::new(config.bank_size_bytes, config.bank_ways, config.block_size)?;
        let banks = (0..config.cols)
            .map(|_| {
                (0..config.rows)
                    .map(|_| RefArray::new(geometry, ReplacementPolicy::Lru))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RefDnuca {
            counters: RefDnucaCounters {
                hits_per_row: vec![0; config.rows],
                ..RefDnucaCounters::default()
            },
            config: config.clone(),
            banks,
        })
    }

    fn bank_set(&self, addr: Addr) -> usize {
        (addr.block_index(self.config.block_size) % self.config.cols as u64) as usize
    }

    /// Performs a demand access; returns the hit row, or `None` on a miss.
    ///
    /// Both search policies probe the rows in distance order and stop at the
    /// first hit, so they are functionally identical; only timing differs.
    pub fn access(&mut self, addr: Addr, is_write: bool) -> Option<u8> {
        self.counters.accesses += 1;
        let col = self.bank_set(addr);
        for row in 0..self.config.rows {
            self.counters.bank_lookups += 1;
            // The probe performs a real lookup (recency refresh on a hit),
            // exactly like `DNuca::probe_bank`.
            if self.banks[col][row].lookup(addr).is_some() {
                self.counters.hits_per_row[row] += 1;
                if is_write {
                    self.banks[col][row].mark_dirty(addr);
                }
                if self.config.promotion && row > 0 {
                    self.promote(addr, col, row);
                }
                return Some(row as u8);
            }
        }
        None
    }

    /// Swaps the hit block one row closer to the controller (mirrors
    /// `DNuca::promote`, including its silent drop of a secondary victim).
    fn promote(&mut self, addr: Addr, col: usize, row: usize) {
        let closer = row - 1;
        let line = self.banks[col][row]
            .invalidate(addr)
            .expect("promoted block is resident in the hitting bank");
        if let Some(displaced) = self.banks[col][closer].fill(line.addr, line.dirty) {
            let _ = self.banks[col][row].fill(displaced.addr, displaced.dirty);
            self.counters.bank_fills += 2;
        } else {
            self.counters.bank_fills += 1;
        }
        self.counters.migrations += 1;
    }

    /// Fills a block arriving from memory into the farthest row.
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<EvictedLine> {
        let col = self.bank_set(addr);
        let row = self.config.rows - 1;
        self.counters.bank_fills += 1;
        let evicted = self.banks[col][row].fill(addr, dirty);
        if let Some(e) = &evicted {
            if e.dirty {
                self.counters.dirty_evictions += 1;
            }
        }
        evicted
    }

    /// Marks the block dirty wherever it resides (closest row first).
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        let col = self.bank_set(addr);
        self.banks[col].iter_mut().any(|b| b.mark_dirty(addr))
    }

    /// Every resident line, tagged `(col, row, line)` like
    /// `DNuca::resident_lines`.
    #[must_use]
    pub fn resident_lines(&self) -> Vec<(usize, usize, Line)> {
        let mut out = Vec::new();
        for (col, rows) in self.banks.iter().enumerate() {
            for (row, bank) in rows.iter().enumerate() {
                out.extend(bank.lines().map(|line| (col, row, line)));
            }
        }
        out
    }
}

/// The reference backing store (mirrors
/// `lnuca_sim::hierarchy::Backing`, minus all timing).
#[derive(Debug)]
pub enum RefBacking {
    /// An L3-style conventional cache.
    Cache(RefCache),
    /// A D-NUCA.
    DNuca(RefDnuca),
    /// Nothing on chip: every fetch falls through to DRAM.
    Memory,
}

/// The reference outer level: the functional composition rules of
/// `lnuca_sim::hierarchy::OuterLevel` (fill-on-the-way-up, dirty victims
/// written back one level down, write-through marking resident blocks
/// dirty), minus all timing. Like the detailed struct it is a chain of
/// intermediate caches in front of a [`RefBacking`], so every shape a
/// `HierarchySpec` composes — not just the paper's three — replays here.
#[derive(Debug)]
pub struct RefOuter {
    /// Intermediate conventional caches, nearest first.
    pub intermediates: Vec<RefCache>,
    /// The backing store behind them.
    pub backing: RefBacking,
}

impl RefOuter {
    /// Builds the reference outer levels of `spec`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid or non-LRU configurations.
    pub fn from_spec(spec: &lnuca_sim::spec::HierarchySpec) -> Result<Self, ConfigError> {
        let intermediates = spec
            .intermediate
            .iter()
            .map(|level| RefCache::new(&level.cache))
            .collect::<Result<Vec<_>, _>>()?;
        let backing = match &spec.backing {
            lnuca_sim::spec::BackingSpec::Cache(cache) => RefBacking::Cache(RefCache::new(cache)?),
            lnuca_sim::spec::BackingSpec::DNuca(dnuca) => RefBacking::DNuca(RefDnuca::new(dnuca)?),
            lnuca_sim::spec::BackingSpec::Memory => RefBacking::Memory,
            // `BackingSpec` is #[non_exhaustive]: a future backing kind must
            // teach the reference model its rules before it can be verified.
            other => {
                return Err(ConfigError::new(
                    "backing",
                    format!(
                        "the reference model does not implement {} backings yet",
                        other.kind_name()
                    ),
                ))
            }
        };
        Ok(RefOuter {
            intermediates,
            backing,
        })
    }

    /// Resolves a miss coming from above, returning the level that provided
    /// the block; `memory_accesses` counts block fetches that fell through
    /// to DRAM (mirrors `MainMemory::accesses`).
    pub fn fetch(&mut self, addr: Addr, is_write: bool, memory_accesses: &mut u64) -> ServiceLevel {
        self.fetch_level(0, addr, is_write, memory_accesses)
    }

    fn fetch_level(
        &mut self,
        idx: usize,
        addr: Addr,
        is_write: bool,
        memory_accesses: &mut u64,
    ) -> ServiceLevel {
        if idx == self.intermediates.len() {
            return match &mut self.backing {
                // The backing cache is always accessed as a read (the fetch
                // of a block), like the detailed chain.
                RefBacking::Cache(l3) => {
                    if l3.access(addr, false) {
                        ServiceLevel::L3
                    } else {
                        *memory_accesses += 1;
                        let _ = l3.fill(addr, false);
                        ServiceLevel::Memory
                    }
                }
                RefBacking::DNuca(dnuca) => match dnuca.access(addr, is_write) {
                    Some(row) => ServiceLevel::DNucaRow(row),
                    None => {
                        *memory_accesses += 1;
                        let _ = dnuca.fill(addr, false);
                        ServiceLevel::Memory
                    }
                },
                RefBacking::Memory => {
                    *memory_accesses += 1;
                    ServiceLevel::Memory
                }
            };
        }
        if self.intermediates[idx].access(addr, is_write) {
            return if idx == 0 {
                ServiceLevel::L2
            } else {
                ServiceLevel::Intermediate(u8::try_from(idx).unwrap_or(u8::MAX))
            };
        }
        // `is_write` reaches only the first level below; deeper levels see
        // the fetch as a read (the detailed chain's rule).
        let served = self.fetch_level(idx + 1, addr, false, memory_accesses);
        if let Some(victim) = self.intermediates[idx].fill(addr, false) {
            if victim.dirty {
                self.writeback_below(idx + 1, victim.addr);
            }
        }
        served
    }

    /// Writes a dirty victim into the first level at or below `idx`
    /// (mark-dirty where resident, install dirty into a cache otherwise;
    /// D-NUCA and memory absorb absent blocks silently) — the detailed
    /// chain's rule.
    fn writeback_below(&mut self, idx: usize, addr: Addr) {
        if idx < self.intermediates.len() {
            if !self.intermediates[idx].mark_dirty(addr) {
                let _ = self.intermediates[idx].fill(addr, true);
            }
            return;
        }
        match &mut self.backing {
            RefBacking::Cache(l3) => {
                if !l3.mark_dirty(addr) {
                    let _ = l3.fill(addr, true);
                }
            }
            RefBacking::DNuca(dnuca) => {
                let _ = dnuca.mark_dirty(addr);
            }
            RefBacking::Memory => {}
        }
    }

    /// Applies one drained write: the block is marked dirty where it
    /// resides (nearest level first), like `OuterLevel::write_through`.
    pub fn write_through(&mut self, addr: Addr) {
        for level in &mut self.intermediates {
            if level.mark_dirty(addr) {
                return;
            }
        }
        match &mut self.backing {
            RefBacking::Cache(l3) => {
                let _ = l3.mark_dirty(addr);
            }
            RefBacking::DNuca(dnuca) => {
                let _ = dnuca.mark_dirty(addr);
            }
            RefBacking::Memory => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_mem::AccessMode;

    fn small_cache() -> RefCache {
        RefCache::new(
            &CacheConfig::builder("t")
                .size_bytes(1024)
                .ways(2)
                .block_size(32)
                .completion_cycles(1)
                .initiation_interval(1)
                .access_mode(AccessMode::Parallel)
                .write_policy(WritePolicy::CopyBack)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn lru_order_and_counters() {
        let mut c = small_cache();
        assert!(!c.access(Addr(0x000), false));
        c.fill(Addr(0x000), false);
        c.fill(Addr(0x400), false);
        assert!(c.access(Addr(0x000), false), "refreshes recency");
        let evicted = c.fill(Addr(0x800), false).expect("set of 2 ways is full");
        assert_eq!(evicted.addr, Addr(0x400), "LRU victim");
        assert_eq!(c.stats.read_hits, 1);
        assert_eq!(c.stats.read_misses, 1);
        assert_eq!(c.stats.fills, 3);
        assert_eq!(c.stats.clean_evictions, 1);
    }

    #[test]
    fn copy_back_write_hits_dirty_the_line() {
        let mut c = small_cache();
        c.fill(Addr(0x40), false);
        assert!(c.access(Addr(0x40), true));
        assert!(c.lines().any(|l| l.addr == Addr(0x40) && l.dirty));
        assert_eq!(c.stats.write_hits, 1);
    }

    #[test]
    fn non_lru_policies_are_rejected() {
        let cfg = CacheConfig::builder("t")
            .size_bytes(1024)
            .ways(2)
            .block_size(32)
            .replacement(ReplacementPolicy::Fifo)
            .build()
            .unwrap();
        assert!(RefCache::new(&cfg).is_err());
    }

    #[test]
    fn dnuca_promotes_on_hits_and_fills_far_row() {
        let mut d = RefDnuca::new(&DNucaConfig::paper()).unwrap();
        let addr = Addr(0x4_2000);
        d.fill(addr, false);
        let rows = d.config.rows as u8;
        assert_eq!(d.access(addr, false), Some(rows - 1));
        assert_eq!(d.access(addr, false), Some(rows - 2), "promotion moved it closer");
        assert_eq!(d.counters.migrations, 2);
        assert!(d.counters.bank_lookups >= u64::from(rows));
    }

    #[test]
    fn outer_l2l3_chain_fills_on_the_way_up() {
        let mut outer = RefOuter {
            intermediates: vec![small_cache()],
            backing: RefBacking::Cache(small_cache()),
        };
        let mut mem = 0u64;
        assert_eq!(outer.fetch(Addr(0x9000), false, &mut mem), ServiceLevel::Memory);
        assert_eq!(mem, 1);
        assert_eq!(outer.fetch(Addr(0x9000), false, &mut mem), ServiceLevel::L2);
        assert_eq!(mem, 1);
    }

    #[test]
    fn memory_backing_counts_every_fetch() {
        let mut outer = RefOuter {
            intermediates: Vec::new(),
            backing: RefBacking::Memory,
        };
        let mut mem = 0u64;
        for _ in 0..3 {
            assert_eq!(outer.fetch(Addr(0x40), false, &mut mem), ServiceLevel::Memory);
        }
        assert_eq!(mem, 3, "nothing on chip can absorb the fetches");
        outer.write_through(Addr(0x40)); // absorbed silently
    }
}
