//! D-NUCA configuration.

use lnuca_types::ConfigError;

/// How the banks of a bank set are searched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchPolicy {
    /// The request is multicast to every bank of the bank set at once
    /// (the performance-oriented policy of Kim et al. used by the paper).
    #[default]
    Multicast,
    /// Banks are probed one after another, closest first. Cheaper in energy,
    /// slower on hits in far banks; provided for the ablation benches.
    Incremental,
}

/// Configuration of a [`DNuca`](crate::DNuca) cache.
///
/// The defaults (via [`DNucaConfig::paper`]) reproduce Table I's `DN-4x8`:
/// 8 MB in 32 banks of 256 KB arranged as 8 columns (sparse bank sets) by
/// 4 rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DNucaConfig {
    /// Number of bank rows (distance levels from the controller).
    pub rows: usize,
    /// Number of bank columns (sparse bank sets).
    pub cols: usize,
    /// Capacity of each bank in bytes.
    pub bank_size_bytes: u64,
    /// Associativity of each bank.
    pub bank_ways: usize,
    /// Block size in bytes.
    pub block_size: u64,
    /// Bank access (completion) latency in cycles.
    pub bank_completion_cycles: u64,
    /// Bank initiation interval in cycles.
    pub bank_initiation_interval: u64,
    /// Link width in bytes (one flit).
    pub flit_bytes: u64,
    /// Per-hop routing latency of the mesh routers.
    pub routing_latency: u64,
    /// Virtual channels per link.
    pub virtual_channels: usize,
    /// Search policy across the banks of a bank set.
    pub search: SearchPolicy,
    /// Whether hit blocks migrate one row closer to the controller.
    pub promotion: bool,
}

impl DNucaConfig {
    /// The paper's `DN-4x8` configuration (Table I).
    #[must_use]
    pub fn paper() -> Self {
        DNucaConfig {
            rows: 4,
            cols: 8,
            bank_size_bytes: 256 * 1024,
            bank_ways: 2,
            block_size: 128,
            bank_completion_cycles: 3,
            bank_initiation_interval: 3,
            flit_bytes: 32,
            routing_latency: 1,
            virtual_channels: 4,
            search: SearchPolicy::Multicast,
            promotion: true,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.rows as u64 * self.cols as u64 * self.bank_size_bytes
    }

    /// Number of data flits needed to carry one block.
    #[must_use]
    pub fn flits_per_block(&self) -> u64 {
        self.block_size.div_ceil(self.flit_bytes).max(1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any dimension, size or latency is zero or
    /// inconsistent.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(ConfigError::new("rows/cols", "must be nonzero"));
        }
        if self.bank_completion_cycles == 0 || self.bank_initiation_interval == 0 {
            return Err(ConfigError::new(
                "bank latencies",
                "completion and initiation must be nonzero",
            ));
        }
        if self.flit_bytes == 0 || !self.flit_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "flit_bytes",
                format!("must be a nonzero power of two, got {}", self.flit_bytes),
            ));
        }
        if self.virtual_channels == 0 {
            return Err(ConfigError::new("virtual_channels", "must be nonzero"));
        }
        // Bank geometry must be a valid cache geometry.
        lnuca_mem::CacheGeometry::new(self.bank_size_bytes, self.bank_ways, self.block_size)?;
        Ok(())
    }
}

impl Default for DNucaConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = DNucaConfig::paper();
        assert_eq!(c.capacity_bytes(), 8 * 1024 * 1024);
        assert_eq!(c.rows * c.cols, 32);
        assert_eq!(c.bank_size_bytes, 256 * 1024);
        assert_eq!(c.block_size, 128);
        assert_eq!(c.flits_per_block(), 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = DNucaConfig::paper();
        c.rows = 0;
        assert!(c.validate().is_err());
        let mut c = DNucaConfig::paper();
        c.flit_bytes = 48;
        assert!(c.validate().is_err());
        let mut c = DNucaConfig::paper();
        c.bank_ways = 3;
        assert!(c.validate().is_err());
        let mut c = DNucaConfig::paper();
        c.virtual_channels = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(DNucaConfig::default(), DNucaConfig::paper());
    }
}
