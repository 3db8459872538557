//! Configuration of an L-NUCA fabric.

use lnuca_mem::ReplacementPolicy;
use lnuca_noc::RoutingPolicy;
use lnuca_types::ConfigError;

/// Configuration of an [`LNuca`](crate::LNuca) fabric.
///
/// The defaults reproduce the paper's configuration (Table I): 8 KB, 2-way,
/// 32 B-block tiles with single-cycle completion and initiation, two-entry
/// On/Off buffers and random distributed routing.
///
/// # Example
///
/// ```
/// use lnuca_core::LNucaConfig;
///
/// let cfg = LNucaConfig::paper(3)?;
/// assert_eq!(cfg.levels, 3);
/// assert_eq!(cfg.tile_size_bytes, 8 * 1024);
/// cfg.validate()?;
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LNucaConfig {
    /// Number of levels including the root tile (2..=8).
    pub levels: u8,
    /// Capacity of each tile in bytes.
    pub tile_size_bytes: u64,
    /// Associativity of each tile.
    pub tile_ways: usize,
    /// Block size in bytes (shared with the root tile to allow migration).
    pub block_size: u64,
    /// Entries per Transport/Replacement flow-control buffer.
    pub buffer_entries: usize,
    /// Routing policy for the Transport and Replacement networks.
    pub routing: RoutingPolicy,
    /// Replacement policy inside each tile.
    pub tile_replacement: ReplacementPolicy,
    /// Seed for the distributed random routing decisions.
    pub seed: u64,
}

impl LNucaConfig {
    /// The paper's configuration with the given number of levels.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `levels` is out of range.
    pub fn paper(levels: u8) -> Result<Self, ConfigError> {
        let cfg = LNucaConfig {
            levels,
            ..Self::default()
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks all parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        crate::geometry::LNucaGeometry::new(self.levels)?;
        if self.tile_size_bytes == 0 || !self.tile_size_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "tile_size_bytes",
                format!("must be a nonzero power of two, got {}", self.tile_size_bytes),
            ));
        }
        if self.block_size == 0 || !self.block_size.is_power_of_two() {
            return Err(ConfigError::new(
                "block_size",
                format!("must be a nonzero power of two, got {}", self.block_size),
            ));
        }
        if self.block_size > self.tile_size_bytes {
            return Err(ConfigError::new(
                "block_size",
                "must not exceed the tile size",
            ));
        }
        if self.tile_ways == 0 {
            return Err(ConfigError::new("tile_ways", "must be nonzero"));
        }
        if self.buffer_entries == 0 {
            return Err(ConfigError::new("buffer_entries", "must be nonzero"));
        }
        // The tile itself must form a valid cache geometry.
        lnuca_mem::CacheGeometry::new(self.tile_size_bytes, self.tile_ways, self.block_size)?;
        Ok(())
    }
}

impl Default for LNucaConfig {
    fn default() -> Self {
        LNucaConfig {
            levels: 3,
            tile_size_bytes: 8 * 1024,
            tile_ways: 2,
            block_size: 32,
            buffer_entries: 2,
            routing: RoutingPolicy::RandomValid,
            tile_replacement: ReplacementPolicy::Lru,
            seed: 0xC0FF_EE00,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table1() {
        let cfg = LNucaConfig::default();
        assert_eq!(cfg.tile_size_bytes, 8 * 1024);
        assert_eq!(cfg.tile_ways, 2);
        assert_eq!(cfg.block_size, 32);
        assert_eq!(cfg.buffer_entries, 2);
        assert_eq!(cfg.routing, RoutingPolicy::RandomValid);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn paper_constructor_validates_levels() {
        assert!(LNucaConfig::paper(2).is_ok());
        assert!(LNucaConfig::paper(4).is_ok());
        assert!(LNucaConfig::paper(1).is_err());
        assert!(LNucaConfig::paper(12).is_err());
    }

    #[test]
    fn validation_catches_each_field() {
        let base = LNucaConfig::default();
        assert!(LNucaConfig { tile_size_bytes: 3000, ..base.clone() }.validate().is_err());
        assert!(LNucaConfig { block_size: 0, ..base.clone() }.validate().is_err());
        assert!(LNucaConfig { block_size: 16 * 1024, ..base.clone() }.validate().is_err());
        assert!(LNucaConfig { tile_ways: 0, ..base.clone() }.validate().is_err());
        assert!(LNucaConfig { buffer_entries: 0, ..base.clone() }.validate().is_err());
        assert!(LNucaConfig { tile_ways: 3, ..base }.validate().is_err());
    }
}
