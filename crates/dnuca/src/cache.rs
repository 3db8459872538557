//! The banked D-NUCA cache with migration and mesh transport.

use crate::config::{DNucaConfig, SearchPolicy};
use lnuca_mem::{CacheArray, CacheGeometry, EvictedLine, ReplacementPolicy};
use lnuca_noc::{MeshConfig, WormholeMesh};
use lnuca_types::{Addr, ConfigError, Cycle};

/// Timing outcome of a D-NUCA access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DNucaOutcome {
    /// The block was found in a bank of the addressed bank set.
    Hit {
        /// Cycle at which the data arrives back at the cache controller.
        ready_at: Cycle,
        /// Row (distance class) of the bank that hit; 0 is closest to the
        /// controller.
        row: u8,
    },
    /// The block is not in the cache.
    Miss {
        /// Cycle at which the miss is known at the controller (all probed
        /// banks have answered).
        determined_at: Cycle,
    },
}

impl DNucaOutcome {
    /// Returns `true` for hits.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, DNucaOutcome::Hit { .. })
    }

    /// The cycle at which the outcome is known at the controller.
    #[must_use]
    pub fn resolved_at(self) -> Cycle {
        match self {
            DNucaOutcome::Hit { ready_at, .. } => ready_at,
            DNucaOutcome::Miss { determined_at } => determined_at,
        }
    }
}

/// Event counters of a [`DNuca`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DNucaStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits, bucketed by bank row (index 0 = closest to the controller).
    pub hits_per_row: Vec<u64>,
    /// Misses.
    pub misses: u64,
    /// Individual bank lookups (dominates dynamic energy under multicast).
    pub bank_lookups: u64,
    /// Bank accesses caused by fills and migrations.
    pub bank_fills: u64,
    /// Block migrations (promotions) performed.
    pub migrations: u64,
    /// Dirty blocks evicted (to be written back to memory).
    pub dirty_evictions: u64,
    /// Sum of hit latencies in cycles.
    pub hit_latency_sum: u64,
}

impl DNucaStats {
    /// Total hits across all rows.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits_per_row.iter().sum()
    }

    /// Average hit latency in cycles (0.0 if there were no hits).
    #[must_use]
    pub fn mean_hit_latency(&self) -> f64 {
        if self.hits() == 0 {
            0.0
        } else {
            self.hit_latency_sum as f64 / self.hits() as f64
        }
    }
}

/// An 8 MB dynamic NUCA: banks on a wormhole mesh with multicast search and
/// hit-driven promotion.
///
/// Like [`lnuca_mem::ConventionalCache`], the D-NUCA does not own its
/// downstream connection: the hierarchy reacts to [`DNucaOutcome::Miss`] by
/// fetching from memory and then calls [`DNuca::fill`].
#[derive(Debug, Clone)]
pub struct DNuca {
    config: DNucaConfig,
    /// `banks[col][row]`.
    banks: Vec<Vec<CacheArray>>,
    /// Earliest cycle each bank can start a new access: `ports[col][row]`.
    bank_free_at: Vec<Vec<Cycle>>,
    mesh: WormholeMesh,
    controller_col: usize,
    stats: DNucaStats,
}

impl DNuca {
    /// Builds an empty D-NUCA from its configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid.
    pub fn new(config: DNucaConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let bank_geometry =
            CacheGeometry::new(config.bank_size_bytes, config.bank_ways, config.block_size)?;
        let banks = (0..config.cols)
            .map(|_| {
                (0..config.rows)
                    .map(|_| CacheArray::new(bank_geometry, ReplacementPolicy::Lru))
                    .collect()
            })
            .collect();
        let bank_free_at = vec![vec![Cycle::ZERO; config.rows]; config.cols];
        let mesh = WormholeMesh::new(MeshConfig {
            cols: config.cols,
            rows: config.rows,
            routing_latency: config.routing_latency,
            virtual_channels: config.virtual_channels,
        })?;
        let controller_col = config.cols / 2;
        let stats = DNucaStats {
            hits_per_row: vec![0; config.rows],
            ..DNucaStats::default()
        };
        Ok(DNuca {
            config,
            banks,
            bank_free_at,
            mesh,
            controller_col,
            stats,
        })
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &DNucaConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DNucaStats {
        &self.stats
    }

    /// Network statistics of the underlying mesh (for the energy model).
    #[must_use]
    pub fn mesh_stats(&self) -> &lnuca_noc::mesh::MeshStats {
        self.mesh.stats()
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.config.capacity_bytes()
    }

    /// Returns `true` if the block containing `addr` is resident in any bank
    /// of its bank set.
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let col = self.bank_set(addr);
        self.banks[col].iter().any(|b| b.contains(addr))
    }

    /// Every resident line, tagged with its `(col, row)` bank coordinates —
    /// the final-residency enumeration the differential oracle compares.
    /// Allocates a fresh `Vec`; verification and tests only.
    #[must_use]
    pub fn resident_lines(&self) -> Vec<(usize, usize, lnuca_mem::Line)> {
        let mut out = Vec::new();
        for (col, rows) in self.banks.iter().enumerate() {
            for (row, bank) in rows.iter().enumerate() {
                out.extend(bank.iter().map(|line| (col, row, line)));
            }
        }
        out
    }

    /// Column (sparse bank set) that `addr` maps to.
    #[must_use]
    pub fn bank_set(&self, addr: Addr) -> usize {
        (addr.block_index(self.config.block_size) % self.config.cols as u64) as usize
    }

    /// Performs a timed access.
    ///
    /// Under the multicast policy the request is sent to every bank of the
    /// bank set; the hit latency is the round trip to the hitting bank and
    /// the miss is determined when the farthest bank has answered. A hit
    /// promotes the block one row toward the controller (swapping with
    /// whatever occupies that slot), which is the D-NUCA migration mechanism.
    pub fn access(&mut self, addr: Addr, is_write: bool, now: Cycle) -> DNucaOutcome {
        self.stats.accesses += 1;
        let col = self.bank_set(addr);

        // Rows are probed in distance order (0 = closest); iterating the
        // range directly keeps this per-access path allocation-free.
        match self.config.search {
            SearchPolicy::Multicast => self.access_multicast(addr, is_write, now, col),
            SearchPolicy::Incremental => self.access_incremental(addr, is_write, now, col),
        }
    }

    fn access_multicast(
        &mut self,
        addr: Addr,
        is_write: bool,
        now: Cycle,
        col: usize,
    ) -> DNucaOutcome {
        let mut hit: Option<(usize, Cycle)> = None;
        let mut worst_miss = now;
        for row in 0..self.config.rows {
            let answer_at = self.probe_bank(addr, is_write, now, col, row);
            self.stats.bank_lookups += 1;
            if self.banks[col][row].contains(addr) {
                // The lookup above already refreshed recency via probe_bank.
                hit = Some((row, answer_at));
                break;
            }
            worst_miss = worst_miss.max(answer_at);
        }
        match hit {
            Some((row, data_back_at)) => {
                self.finish_hit(addr, is_write, col, row, data_back_at, now)
            }
            None => DNucaOutcome::Miss {
                determined_at: worst_miss,
            },
        }
    }

    fn access_incremental(
        &mut self,
        addr: Addr,
        is_write: bool,
        now: Cycle,
        col: usize,
    ) -> DNucaOutcome {
        // Banks are probed in order of distance; each probe starts after the
        // previous one has answered with a miss.
        let mut clock = now;
        for row in 0..self.config.rows {
            let answer_at = self.probe_bank(addr, is_write, clock, col, row);
            self.stats.bank_lookups += 1;
            if self.banks[col][row].contains(addr) {
                return self.finish_hit(addr, is_write, col, row, answer_at, now);
            }
            clock = answer_at;
        }
        DNucaOutcome::Miss {
            determined_at: clock,
        }
    }

    /// Sends the request to bank (`col`, `row`), performs the bank lookup and
    /// returns the cycle at which the answer (data or miss) is back at the
    /// controller.
    fn probe_bank(
        &mut self,
        addr: Addr,
        _is_write: bool,
        now: Cycle,
        col: usize,
        row: usize,
    ) -> Cycle {
        // Request: one flit from the controller edge to the bank.
        let request_arrives = self
            .mesh
            .traverse((self.controller_col, 0), (col, row), 1, now);
        // Bank port occupancy and access latency.
        let start = request_arrives.max(self.bank_free_at[col][row]);
        self.bank_free_at[col][row] = start + self.config.bank_initiation_interval;
        let bank_done = start + self.config.bank_completion_cycles;
        // Touch recency on a real hit.
        let _ = self.banks[col][row].lookup(addr);
        // Response: data blocks are block-sized, miss answers a single flit.
        let flits = if self.banks[col][row].contains(addr) {
            self.config.flits_per_block() + 1
        } else {
            1
        };
        self.mesh
            .traverse((col, row), (self.controller_col, 0), flits, bank_done)
    }

    fn finish_hit(
        &mut self,
        addr: Addr,
        is_write: bool,
        col: usize,
        row: usize,
        ready_at: Cycle,
        issued_at: Cycle,
    ) -> DNucaOutcome {
        self.stats.hits_per_row[row] += 1;
        self.stats.hit_latency_sum += ready_at.since(issued_at);
        if is_write {
            self.banks[col][row].mark_dirty(addr);
        }
        if self.config.promotion && row > 0 {
            self.promote(addr, col, row);
        }
        DNucaOutcome::Hit {
            ready_at,
            row: row as u8,
        }
    }

    /// Swaps the hit block one row closer to the controller.
    fn promote(&mut self, addr: Addr, col: usize, row: usize) {
        let closer = row - 1;
        let line = self.banks[col][row]
            .invalidate(addr)
            .expect("promoted block is resident in the hitting bank");
        // Whatever the promoted block displaces in the closer bank moves to
        // the slot the promoted block vacated (a swap), so no data is lost.
        if let Some(displaced) = self.banks[col][closer].fill(line.addr, line.dirty) {
            self.banks[col][row].fill(displaced.addr, displaced.dirty);
            self.stats.bank_fills += 2;
        } else {
            self.stats.bank_fills += 1;
        }
        self.stats.migrations += 1;
    }

    /// Inserts a block arriving from memory into the farthest bank of its
    /// bank set, returning the displaced victim if one had to be evicted.
    pub fn fill(&mut self, addr: Addr, dirty: bool, _now: Cycle) -> Option<EvictedLine> {
        let col = self.bank_set(addr);
        let row = self.config.rows - 1;
        self.stats.bank_fills += 1;
        let evicted = self.banks[col][row].fill(addr, dirty);
        if let Some(e) = &evicted {
            if e.dirty {
                self.stats.dirty_evictions += 1;
            }
        }
        evicted
    }

    /// Marks the block containing `addr` dirty wherever it resides. Returns
    /// `true` if the block was found.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        let col = self.bank_set(addr);
        self.banks[col].iter_mut().any(|b| b.mark_dirty(addr))
    }

    /// Removes the block containing `addr`. Returns `true` if it was present.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let col = self.bank_set(addr);
        let mut removed = false;
        for bank in &mut self.banks[col] {
            removed |= bank.invalidate(addr).is_some();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dnuca() -> DNuca {
        DNuca::new(DNucaConfig::paper()).unwrap()
    }

    #[test]
    fn cold_cache_misses_and_fills_hit() {
        let mut d = dnuca();
        let addr = Addr(0xDEAD_0000);
        assert!(!d.access(addr, false, Cycle(0)).is_hit());
        d.fill(addr, false, Cycle(50));
        let out = d.access(addr, false, Cycle(100));
        assert!(out.is_hit());
        assert_eq!(d.stats().misses, 0, "misses counter is owned by the hierarchy");
        assert_eq!(d.stats().hits(), 1);
    }

    #[test]
    fn fills_land_in_the_farthest_row_and_promote_on_hits() {
        let mut d = dnuca();
        let addr = Addr(0x4_2000);
        d.fill(addr, false, Cycle(0));
        let rows = d.config().rows as u8;
        let first = d.access(addr, false, Cycle(10));
        match first {
            DNucaOutcome::Hit { row, .. } => {
                assert_eq!(row, rows - 1, "first hit is in the insertion row")
            }
            DNucaOutcome::Miss { .. } => panic!("expected hit"),
        }
        // Each subsequent hit moves the block one row closer.
        for expected in (0..rows - 1).rev() {
            let out = d.access(addr, false, Cycle(1_000 * u64::from(expected + 2)));
            match out {
                DNucaOutcome::Hit { row, .. } => assert_eq!(row, expected),
                DNucaOutcome::Miss { .. } => panic!("expected hit"),
            }
        }
        // Already in row 0: stays there.
        match d.access(addr, false, Cycle(100_000)) {
            DNucaOutcome::Hit { row, .. } => assert_eq!(row, 0),
            DNucaOutcome::Miss { .. } => panic!("expected hit"),
        }
        assert_eq!(d.stats().migrations, u64::from(rows) - 1);
    }

    #[test]
    fn closer_rows_have_lower_hit_latency() {
        let mut d = dnuca();
        let addr = Addr(0x8_0000);
        d.fill(addr, false, Cycle(0));
        let far = match d.access(addr, false, Cycle(1_000)) {
            DNucaOutcome::Hit { ready_at, .. } => ready_at.since(Cycle(1_000)),
            DNucaOutcome::Miss { .. } => panic!(),
        };
        // Promote to row 0 with repeated hits.
        for i in 0..4 {
            d.access(addr, false, Cycle(10_000 + i * 1_000));
        }
        let near = match d.access(addr, false, Cycle(100_000)) {
            DNucaOutcome::Hit { ready_at, .. } => ready_at.since(Cycle(100_000)),
            DNucaOutcome::Miss { .. } => panic!(),
        };
        assert!(
            near < far,
            "row-0 hit ({near}) must be faster than row-{} hit ({far})",
            d.config().rows - 1
        );
    }

    #[test]
    fn promotion_swaps_rather_than_drops_the_displaced_block() {
        let mut d = dnuca();
        // Two blocks in the same bank set mapping to the same bank set index.
        let cols = d.config().cols as u64;
        let block = d.config().block_size;
        let a = Addr(0);
        let b = Addr(cols * block * 1024); // same column, different tag
        assert_eq!(d.bank_set(a), d.bank_set(b));
        d.fill(a, false, Cycle(0));
        // Promote `a` all the way to row 0.
        for i in 0..5 {
            d.access(a, false, Cycle(1_000 * (i + 1)));
        }
        d.fill(b, true, Cycle(10_000));
        // Promote `b` to row 0; each promotion swaps with whatever is there.
        for i in 0..5 {
            d.access(b, false, Cycle(20_000 + 1_000 * (i + 1)));
        }
        // Both blocks must still be resident somewhere in the bank set.
        assert!(d.probe(a));
        assert!(d.probe(b));
    }

    #[test]
    fn incremental_search_is_slower_on_far_hits_but_cheaper_in_lookups() {
        let mut multicast = dnuca();
        let mut incremental = DNuca::new(DNucaConfig {
            search: SearchPolicy::Incremental,
            promotion: false,
            ..DNucaConfig::paper()
        })
        .unwrap();
        let mut multicast_nopromo = DNuca::new(DNucaConfig {
            promotion: false,
            ..DNucaConfig::paper()
        })
        .unwrap();
        let addr = Addr(0x12_3400);
        for d in [&mut multicast, &mut incremental, &mut multicast_nopromo] {
            d.fill(addr, false, Cycle(0));
        }
        let m = multicast_nopromo
            .access(addr, false, Cycle(100))
            .resolved_at();
        let i = incremental.access(addr, false, Cycle(100)).resolved_at();
        assert!(i >= m, "incremental far hit cannot be faster than multicast");
        assert!(incremental.stats().bank_lookups >= multicast_nopromo.stats().bank_lookups);
    }

    #[test]
    fn eviction_reports_dirty_victims() {
        let mut d = dnuca();
        let cols = d.config().cols as u64;
        let block = d.config().block_size;
        let sets = 1024u64; // 256 KB, 2-way, 128 B => 1024 sets per bank
                            // Fill the same set of the insertion bank three times (2 ways).
        let mk = |i: u64| Addr(i * cols * sets * block);
        assert!(d.fill(mk(1), true, Cycle(0)).is_none());
        assert!(d.fill(mk(2), false, Cycle(0)).is_none());
        let evicted = d.fill(mk(3), false, Cycle(0)).expect("set overflow evicts");
        assert!(evicted.dirty);
        assert_eq!(d.stats().dirty_evictions, 1);
    }

    #[test]
    fn invalidate_and_mark_dirty() {
        let mut d = dnuca();
        let addr = Addr(0xFE_0000);
        d.fill(addr, false, Cycle(0));
        assert!(d.mark_dirty(addr));
        assert!(d.invalidate(addr));
        assert!(!d.probe(addr));
        assert!(!d.mark_dirty(addr));
        assert!(!d.invalidate(addr));
    }

    proptest! {
        #[test]
        fn bank_set_is_stable_and_in_range(addr in any::<u64>()) {
            let d = dnuca();
            let col = d.bank_set(Addr(addr));
            prop_assert!(col < d.config().cols);
            prop_assert_eq!(col, d.bank_set(Addr(addr)));
        }

        #[test]
        fn filled_blocks_are_always_probeable(addrs in proptest::collection::vec(0u64..0x100_0000, 1..50)) {
            let mut d = dnuca();
            for &a in &addrs {
                d.fill(Addr(a), false, Cycle(0));
                prop_assert!(d.probe(Addr(a)));
            }
        }
    }
}
