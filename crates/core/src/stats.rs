//! Statistics collected by the L-NUCA fabric.

/// Event counters accumulated by an [`LNuca`](crate::LNuca) fabric.
///
/// These counters feed three consumers: the Table III reproduction (read
/// hits per level and the average-to-minimum transport latency ratio), the
/// energy model (tile accesses, link traversals) and the general sanity
/// assertions in the test suite.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LNucaStats {
    /// Searches injected by the root tile.
    pub searches: u64,
    /// Read hits per level, indexed by `level - 2` (Le2 first).
    pub read_hits_per_level: Vec<u64>,
    /// Write hits per level, indexed by `level - 2`.
    pub write_hits_per_level: Vec<u64>,
    /// Searches that missed in every tile.
    pub global_misses: u64,
    /// Individual tile lookups performed by search messages.
    pub tile_lookups: u64,
    /// Hits satisfied from an in-flight Replacement (U) buffer instead of a
    /// tile's array.
    pub in_flight_hits: u64,
    /// Blocks written into tiles by the replacement "domino".
    pub tile_fills: u64,
    /// Blocks evicted out of the fabric to the next cache level.
    pub spills: u64,
    /// Evictions accepted from the root tile.
    pub root_evictions: u64,
    /// Transport messages delivered to the root tile.
    pub transport_deliveries: u64,
    /// Sum of observed transport latencies (cycles).
    pub transport_latency_sum: u64,
    /// Sum of contention-free transport latencies (cycles).
    pub transport_min_latency_sum: u64,
    /// Cycles a transport message spent waiting because every downstream
    /// buffer was Off.
    pub transport_stall_cycles: u64,
    /// Cycles a replacement victim spent waiting because every downstream
    /// buffer was Off.
    pub replacement_stall_cycles: u64,
    /// Search-network link traversals (for dynamic energy).
    pub search_link_traversals: u64,
    /// Transport-network link traversals.
    pub transport_link_traversals: u64,
    /// Replacement-network link traversals.
    pub replacement_link_traversals: u64,
}

impl LNucaStats {
    /// Creates zeroed statistics for a fabric with `levels` levels.
    #[must_use]
    pub fn new(levels: u8) -> Self {
        let buckets = levels.saturating_sub(1) as usize;
        LNucaStats {
            read_hits_per_level: vec![0; buckets],
            write_hits_per_level: vec![0; buckets],
            ..Self::default()
        }
    }

    /// Total read hits across all levels.
    #[must_use]
    pub fn read_hits(&self) -> u64 {
        self.read_hits_per_level.iter().sum()
    }

    /// Total hits (read + write) across all levels.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.read_hits() + self.write_hits_per_level.iter().sum::<u64>()
    }

    /// Read hits serviced by the given level (2-based), or 0 for levels the
    /// fabric does not have.
    #[must_use]
    pub fn read_hits_in_level(&self, level: u8) -> u64 {
        if level < 2 {
            return 0;
        }
        self.read_hits_per_level
            .get((level - 2) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Average observed transport latency divided by the contention-free
    /// latency. Values close to 1.0 mean the Transport mesh and the random
    /// distributed routing keep contention negligible (Table III reports
    /// values below 1.015).
    #[must_use]
    pub fn transport_latency_ratio(&self) -> f64 {
        if self.transport_min_latency_sum == 0 {
            1.0
        } else {
            self.transport_latency_sum as f64 / self.transport_min_latency_sum as f64
        }
    }

    /// Fraction of injected searches that missed in every tile.
    #[must_use]
    pub fn global_miss_ratio(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.global_misses as f64 / self.searches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sizes_the_per_level_buckets() {
        let s = LNucaStats::new(4);
        assert_eq!(s.read_hits_per_level.len(), 3);
        assert_eq!(s.write_hits_per_level.len(), 3);
    }

    #[test]
    fn aggregations_sum_levels() {
        let mut s = LNucaStats::new(3);
        s.read_hits_per_level[0] = 10;
        s.read_hits_per_level[1] = 5;
        s.write_hits_per_level[0] = 2;
        assert_eq!(s.read_hits(), 15);
        assert_eq!(s.hits(), 17);
        assert_eq!(s.read_hits_in_level(2), 10);
        assert_eq!(s.read_hits_in_level(3), 5);
        assert_eq!(s.read_hits_in_level(4), 0);
        assert_eq!(s.read_hits_in_level(1), 0);
    }

    #[test]
    fn latency_ratio_defaults_to_one() {
        let s = LNucaStats::new(2);
        assert_eq!(s.transport_latency_ratio(), 1.0);
        let mut s = LNucaStats::new(2);
        s.transport_latency_sum = 105;
        s.transport_min_latency_sum = 100;
        assert!((s.transport_latency_ratio() - 1.05).abs() < 1e-12);
    }

    #[test]
    fn global_miss_ratio_handles_zero_searches() {
        let mut s = LNucaStats::new(2);
        assert_eq!(s.global_miss_ratio(), 0.0);
        s.searches = 4;
        s.global_misses = 1;
        assert!((s.global_miss_ratio() - 0.25).abs() < 1e-12);
    }
}
