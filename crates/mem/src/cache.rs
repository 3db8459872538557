//! A timed conventional set-associative cache.

use crate::{CacheArray, CacheGeometry, EvictedLine, ReplacementPolicy};
use lnuca_types::{Addr, ConfigError, Cycle};

/// Whether tag and data arrays are accessed in parallel or serially.
///
/// Parallel access (used by the paper's L1, r-tile and L-NUCA tiles) reads
/// all data ways while the tags are compared, which is faster but burns more
/// dynamic energy. Serial access (used by the L2) reads only the matching
/// data way after tag comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessMode {
    /// Tags and data accessed concurrently.
    #[default]
    Parallel,
    /// Tags first, then the selected data way.
    Serial,
}

/// How writes that hit are propagated to the next level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Every write is forwarded to the next level (paper's L1/r-tile).
    WriteThrough,
    /// Writes dirty the line; data reaches the next level on eviction
    /// (paper's L2, L3, L-NUCA tiles and D-NUCA banks).
    #[default]
    CopyBack,
}

/// Static configuration of a [`ConventionalCache`].
///
/// Use [`CacheConfig::builder`] to construct one; the builder applies the
/// paper's defaults (LRU replacement, copy-back, parallel access, one port)
/// and validates the result.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Human-readable name used in reports ("L1", "L2", ...).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Block size in bytes.
    pub block_size: u64,
    /// Cycles from access start until the data is available (completion).
    pub completion_cycles: u64,
    /// Minimum cycles between two successive accesses on the same port
    /// (initiation interval).
    pub initiation_interval: u64,
    /// Cycles from access start until a miss is determined. For the small,
    /// low-associativity caches of the paper this is roughly 80 % of the
    /// completion latency; for serial-access caches it equals the tag-array
    /// latency.
    pub miss_determination_cycles: u64,
    /// Number of ports.
    pub ports: usize,
    /// Tag/data access mode.
    pub access_mode: AccessMode,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
}

impl CacheConfig {
    /// Starts building a configuration named `name` with the paper defaults.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> CacheConfigBuilder {
        CacheConfigBuilder::new(name)
    }

    /// The cache geometry implied by this configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if size/ways/block size are inconsistent.
    pub fn geometry(&self) -> Result<CacheGeometry, ConfigError> {
        CacheGeometry::new(self.size_bytes, self.ways, self.block_size)
    }
}

/// Builder for [`CacheConfig`] (see [`CacheConfig::builder`]).
#[derive(Debug, Clone)]
pub struct CacheConfigBuilder {
    config: CacheConfig,
    miss_determination_set: bool,
}

impl CacheConfigBuilder {
    fn new(name: impl Into<String>) -> Self {
        CacheConfigBuilder {
            config: CacheConfig {
                name: name.into(),
                size_bytes: 32 * 1024,
                ways: 4,
                block_size: 32,
                completion_cycles: 2,
                initiation_interval: 1,
                miss_determination_cycles: 2,
                ports: 1,
                access_mode: AccessMode::Parallel,
                write_policy: WritePolicy::CopyBack,
                replacement: ReplacementPolicy::Lru,
            },
            miss_determination_set: false,
        }
    }

    /// Sets the total capacity in bytes.
    #[must_use]
    pub fn size_bytes(mut self, size: u64) -> Self {
        self.config.size_bytes = size;
        self
    }

    /// Sets the associativity.
    #[must_use]
    pub fn ways(mut self, ways: usize) -> Self {
        self.config.ways = ways;
        self
    }

    /// Sets the block size in bytes.
    #[must_use]
    pub fn block_size(mut self, block_size: u64) -> Self {
        self.config.block_size = block_size;
        self
    }

    /// Sets the completion latency in cycles.
    #[must_use]
    pub fn completion_cycles(mut self, cycles: u64) -> Self {
        self.config.completion_cycles = cycles;
        self
    }

    /// Sets the initiation interval in cycles.
    #[must_use]
    pub fn initiation_interval(mut self, cycles: u64) -> Self {
        self.config.initiation_interval = cycles;
        self
    }

    /// Sets the miss-determination latency in cycles. If not called, it
    /// defaults to 80 % of the completion latency (rounded up, at least one
    /// cycle), matching the paper's Cacti observation.
    #[must_use]
    pub fn miss_determination_cycles(mut self, cycles: u64) -> Self {
        self.config.miss_determination_cycles = cycles;
        self.miss_determination_set = true;
        self
    }

    /// Sets the number of ports.
    #[must_use]
    pub fn ports(mut self, ports: usize) -> Self {
        self.config.ports = ports;
        self
    }

    /// Sets the tag/data access mode.
    #[must_use]
    pub fn access_mode(mut self, mode: AccessMode) -> Self {
        self.config.access_mode = mode;
        self
    }

    /// Sets the write policy.
    #[must_use]
    pub fn write_policy(mut self, policy: WritePolicy) -> Self {
        self.config.write_policy = policy;
        self
    }

    /// Sets the replacement policy.
    #[must_use]
    pub fn replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.config.replacement = policy;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the geometry is inconsistent, any latency
    /// is zero, or the port count is zero.
    pub fn build(mut self) -> Result<CacheConfig, ConfigError> {
        if !self.miss_determination_set {
            let md = (self.config.completion_cycles * 4).div_ceil(5).max(1);
            self.config.miss_determination_cycles = md;
        }
        let cfg = self.config;
        CacheGeometry::new(cfg.size_bytes, cfg.ways, cfg.block_size)?;
        if cfg.completion_cycles == 0 {
            return Err(ConfigError::new("completion_cycles", "must be nonzero"));
        }
        if cfg.initiation_interval == 0 {
            return Err(ConfigError::new("initiation_interval", "must be nonzero"));
        }
        if cfg.miss_determination_cycles == 0 || cfg.miss_determination_cycles > cfg.completion_cycles {
            return Err(ConfigError::new(
                "miss_determination_cycles",
                format!(
                    "must be in 1..={} (completion), got {}",
                    cfg.completion_cycles, cfg.miss_determination_cycles
                ),
            ));
        }
        if cfg.ports == 0 {
            return Err(ConfigError::new("ports", "must be nonzero"));
        }
        Ok(cfg)
    }
}

/// The timing outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block is resident; data is available at `ready_at`.
    Hit {
        /// Cycle at which the data is available to the requester.
        ready_at: Cycle,
    },
    /// The block is absent; the miss is known at `determined_at` and a
    /// request to the next level can be launched then.
    Miss {
        /// Cycle at which the miss is determined.
        determined_at: Cycle,
    },
}

impl AccessOutcome {
    /// Returns `true` for a hit.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit { .. })
    }

    /// The cycle at which the outcome (data or miss signal) is known.
    #[must_use]
    pub fn resolved_at(self) -> Cycle {
        match self {
            AccessOutcome::Hit { ready_at } => ready_at,
            AccessOutcome::Miss { determined_at } => determined_at,
        }
    }
}

/// Event counters of a [`ConventionalCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (reads + writes).
    pub accesses: u64,
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Blocks filled from the next level.
    pub fills: u64,
    /// Evictions of clean blocks.
    pub clean_evictions: u64,
    /// Evictions of dirty blocks (write-backs).
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// All hits (read + write).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// All misses (read + write).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss ratio over all accesses, or 0.0 if there were none.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// A conventional set-associative cache with completion/initiation timing.
///
/// The cache tracks residency (via [`CacheArray`]), port occupancy and event
/// counters. It does **not** own the downstream connection: the hierarchy
/// model in `lnuca-sim` reacts to [`AccessOutcome::Miss`] by allocating an
/// MSHR and querying the next level, then calls [`ConventionalCache::fill`]
/// when the data returns. This keeps the cache reusable both as an L2/L3 and
/// as the tag/data pipeline inside D-NUCA banks.
#[derive(Debug, Clone)]
pub struct ConventionalCache {
    config: CacheConfig,
    array: CacheArray,
    ports_free_at: Vec<Cycle>,
    stats: CacheStats,
}

impl ConventionalCache {
    /// Creates an empty cache from its configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration geometry is invalid.
    pub fn new(config: CacheConfig) -> Result<Self, ConfigError> {
        let geometry = config.geometry()?;
        let array = CacheArray::new(geometry, config.replacement);
        let ports_free_at = vec![Cycle::ZERO; config.ports];
        Ok(ConventionalCache {
            config,
            array,
            ports_free_at,
            stats: CacheStats::default(),
        })
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Event counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Returns `true` if the block containing `addr` is resident (no timing
    /// or recency side effects).
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        self.array.contains(addr)
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.array.resident()
    }

    /// Iterates over all resident lines (in no particular order) — the
    /// final-residency enumeration the differential oracle compares.
    pub fn lines(&self) -> impl Iterator<Item = crate::Line> + '_ {
        self.array.iter()
    }

    /// Earliest cycle, not before `now`, at which a port can start an access.
    #[must_use]
    pub fn next_port_available(&self, now: Cycle) -> Cycle {
        self.ports_free_at
            .iter()
            .copied()
            .min()
            .unwrap_or(Cycle::ZERO)
            .max(now)
    }

    /// Performs a timed access for the block containing `addr`.
    ///
    /// `is_write` selects the counter bucket and, for copy-back caches, marks
    /// the line dirty on a hit. The access starts when a port is free (which
    /// may be after `now`) and the returned outcome carries the cycle at
    /// which data (hit) or the miss indication becomes available.
    pub fn access(&mut self, addr: Addr, is_write: bool, now: Cycle) -> AccessOutcome {
        let start = self.reserve_port(now);
        self.stats.accesses += 1;
        let hit = self.array.lookup(addr).is_some();
        if hit {
            if is_write {
                self.stats.write_hits += 1;
                if self.config.write_policy == WritePolicy::CopyBack {
                    self.array.mark_dirty(addr);
                }
            } else {
                self.stats.read_hits += 1;
            }
            AccessOutcome::Hit {
                ready_at: start + self.config.completion_cycles,
            }
        } else {
            if is_write {
                self.stats.write_misses += 1;
            } else {
                self.stats.read_misses += 1;
            }
            AccessOutcome::Miss {
                determined_at: start + self.config.miss_determination_cycles,
            }
        }
    }

    /// Fills the block containing `addr`, evicting a victim if necessary.
    ///
    /// `dirty` should be `true` when the fill carries modified data (e.g. a
    /// dirty block displaced from a level above in an exclusive hierarchy).
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

    /// Marks the block containing `addr` dirty if resident.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        self.array.mark_dirty(addr)
    }

    /// Invalidates the block containing `addr`, returning its metadata.
    pub fn invalidate(&mut self, addr: Addr) -> Option<crate::Line> {
        self.array.invalidate(addr)
    }

    fn reserve_port(&mut self, now: Cycle) -> Cycle {
        let (idx, &free_at) = self
            .ports_free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .expect("cache has at least one port");
        let start = free_at.max(now);
        self.ports_free_at[idx] = start + self.config.initiation_interval;
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2_config() -> CacheConfig {
        CacheConfig::builder("L2")
            .size_bytes(256 * 1024)
            .ways(8)
            .block_size(64)
            .completion_cycles(4)
            .initiation_interval(2)
            .access_mode(AccessMode::Serial)
            .write_policy(WritePolicy::CopyBack)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_miss_determination_to_80_percent() {
        let cfg = CacheConfig::builder("L3")
            .size_bytes(8 * 1024 * 1024)
            .ways(16)
            .block_size(128)
            .completion_cycles(20)
            .initiation_interval(15)
            .build()
            .unwrap();
        assert_eq!(cfg.miss_determination_cycles, 16);
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        assert!(CacheConfig::builder("x").size_bytes(3000).build().is_err());
        assert!(CacheConfig::builder("x").completion_cycles(0).build().is_err());
        assert!(CacheConfig::builder("x").ports(0).build().is_err());
        assert!(CacheConfig::builder("x")
            .completion_cycles(2)
            .miss_determination_cycles(5)
            .build()
            .is_err());
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = ConventionalCache::new(l2_config()).unwrap();
        let a = Addr(0x4_0000);
        let out = c.access(a, false, Cycle(0));
        assert!(!out.is_hit());
        c.fill(a, false);
        let out = c.access(a, false, Cycle(10));
        match out {
            AccessOutcome::Hit { ready_at } => assert_eq!(ready_at, Cycle(14)),
            AccessOutcome::Miss { .. } => panic!("expected hit after fill"),
        }
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn initiation_interval_serialises_port_usage() {
        let mut c = ConventionalCache::new(l2_config()).unwrap();
        c.fill(Addr(0x0), false);
        c.fill(Addr(0x40), false);
        let first = c.access(Addr(0x0), false, Cycle(0));
        let second = c.access(Addr(0x40), false, Cycle(0));
        // Single port, initiation interval 2: second access starts at cycle 2.
        assert_eq!(first.resolved_at(), Cycle(4));
        assert_eq!(second.resolved_at(), Cycle(6));
    }

    #[test]
    fn two_ports_allow_concurrent_accesses() {
        let cfg = CacheConfig::builder("L1")
            .size_bytes(32 * 1024)
            .ways(4)
            .block_size(32)
            .completion_cycles(2)
            .initiation_interval(1)
            .ports(2)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut c = ConventionalCache::new(cfg).unwrap();
        c.fill(Addr(0x0), false);
        c.fill(Addr(0x20), false);
        let a = c.access(Addr(0x0), false, Cycle(5));
        let b = c.access(Addr(0x20), false, Cycle(5));
        assert_eq!(a.resolved_at(), Cycle(7));
        assert_eq!(b.resolved_at(), Cycle(7));
    }

    #[test]
    fn copy_back_write_hits_dirty_the_line() {
        let mut c = ConventionalCache::new(l2_config()).unwrap();
        let a = Addr(0x100);
        c.fill(a, false);
        c.access(a, true, Cycle(0));
        // Evict by filling conflicting blocks; the victim must be dirty.
        let sets = c.config().geometry().unwrap().sets() as u64;
        let block = c.config().block_size;
        let mut dirty_seen = false;
        for i in 1..=8 {
            if let Some(e) = c.fill(Addr(0x100 + i * sets * block), false) {
                if e.addr == Addr(0x100) {
                    dirty_seen = e.dirty;
                }
            }
        }
        assert!(dirty_seen, "the written block must be evicted dirty");
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn miss_determination_uses_configured_latency() {
        let cfg = CacheConfig::builder("tile")
            .size_bytes(8 * 1024)
            .ways(2)
            .block_size(32)
            .completion_cycles(1)
            .initiation_interval(1)
            .miss_determination_cycles(1)
            .build()
            .unwrap();
        let mut c = ConventionalCache::new(cfg).unwrap();
        match c.access(Addr(0x40), false, Cycle(3)) {
            AccessOutcome::Miss { determined_at } => assert_eq!(determined_at, Cycle(4)),
            AccessOutcome::Hit { .. } => panic!("empty cache cannot hit"),
        }
    }

    #[test]
    fn stats_miss_ratio() {
        let mut c = ConventionalCache::new(l2_config()).unwrap();
        c.access(Addr(0x0), false, Cycle(0));
        c.fill(Addr(0x0), false);
        c.access(Addr(0x0), false, Cycle(0));
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }
}
