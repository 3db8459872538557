//! The main-memory (DRAM) timing model.

use lnuca_types::{ConfigError, Cycle};

/// Main memory timing parameters.
///
/// The paper's configuration (Table I): the first 16-byte chunk arrives after
/// 200 cycles and each subsequent chunk after 4 more cycles, over 16-byte
/// wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Cycles until the first chunk of the block arrives.
    pub first_chunk_cycles: u64,
    /// Cycles between subsequent chunks.
    pub inter_chunk_cycles: u64,
    /// Width of the memory channel in bytes (one chunk).
    pub chunk_bytes: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            first_chunk_cycles: 200,
            inter_chunk_cycles: 4,
            chunk_bytes: 16,
        }
    }
}

impl MemoryConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any field is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.first_chunk_cycles == 0 {
            return Err(ConfigError::new("first_chunk_cycles", "must be nonzero"));
        }
        if self.inter_chunk_cycles == 0 {
            return Err(ConfigError::new("inter_chunk_cycles", "must be nonzero"));
        }
        if self.chunk_bytes == 0 || !self.chunk_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "chunk_bytes",
                format!("must be a nonzero power of two, got {}", self.chunk_bytes),
            ));
        }
        Ok(())
    }

    /// Unloaded latency for fetching `block_bytes` bytes.
    #[must_use]
    pub fn block_latency(&self, block_bytes: u64) -> u64 {
        let chunks = block_bytes.div_ceil(self.chunk_bytes).max(1);
        self.first_chunk_cycles + (chunks - 1) * self.inter_chunk_cycles
    }
}

/// A fixed-latency main memory with a single data channel.
///
/// Requests pay the configured first-chunk latency and then occupy the data
/// channel for the duration of the block transfer, so back-to-back misses
/// observe queueing delay — the paper relies on this to model miss bursts
/// realistically.
///
/// # Example
///
/// ```
/// use lnuca_mem::{MainMemory, MemoryConfig};
/// use lnuca_types::Cycle;
///
/// let mut memory = MainMemory::new(MemoryConfig::default())?;
/// let ready = memory.access(Cycle(0), 128);
/// assert_eq!(ready, Cycle(228)); // 200 + 7 * 4
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    config: MemoryConfig,
    channel_free_at: Cycle,
    accesses: u64,
    busy_cycles: u64,
}

impl MainMemory {
    /// Creates a memory model from its configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid.
    pub fn new(config: MemoryConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(MainMemory {
            config,
            channel_free_at: Cycle::ZERO,
            accesses: 0,
            busy_cycles: 0,
        })
    }

    /// The configuration this memory was built with.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Issues a block fetch of `block_bytes` at `now` and returns the cycle
    /// at which the whole block is available. Channel contention from earlier
    /// transfers delays the start of this one.
    pub fn access(&mut self, now: Cycle, block_bytes: u64) -> Cycle {
        self.accesses += 1;
        let chunks = block_bytes.div_ceil(self.config.chunk_bytes).max(1);
        let transfer = (chunks - 1) * self.config.inter_chunk_cycles;
        // The transfer can start once the row access completes and the
        // channel is free.
        let data_start = (now + self.config.first_chunk_cycles).max(self.channel_free_at);
        let done = data_start + transfer;
        self.channel_free_at = done + self.config.inter_chunk_cycles;
        self.busy_cycles += transfer + self.config.inter_chunk_cycles;
        done
    }

    /// Total block fetches served.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total cycles the data channel was occupied.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table1() {
        let cfg = MemoryConfig::default();
        assert_eq!(cfg.first_chunk_cycles, 200);
        assert_eq!(cfg.inter_chunk_cycles, 4);
        assert_eq!(cfg.chunk_bytes, 16);
        // 128-byte L3 block: 200 + 7*4.
        assert_eq!(cfg.block_latency(128), 228);
        // 32-byte block: 200 + 1*4.
        assert_eq!(cfg.block_latency(32), 204);
    }

    #[test]
    fn validation_rejects_zeroes() {
        let cfg = MemoryConfig {
            first_chunk_cycles: 0,
            ..MemoryConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = MemoryConfig {
            chunk_bytes: 0,
            ..MemoryConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = MemoryConfig {
            chunk_bytes: 24,
            ..MemoryConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn isolated_access_has_unloaded_latency() {
        let mut m = MainMemory::new(MemoryConfig::default()).unwrap();
        assert_eq!(m.access(Cycle(100), 128), Cycle(328));
        assert_eq!(m.accesses(), 1);
    }

    #[test]
    fn back_to_back_accesses_queue_on_the_channel() {
        let mut m = MainMemory::new(MemoryConfig::default()).unwrap();
        let first = m.access(Cycle(0), 128);
        let second = m.access(Cycle(0), 128);
        assert_eq!(first, Cycle(228));
        // Second transfer cannot start until the channel frees (cycle 232).
        assert_eq!(second, Cycle(232 + 28));
        assert!(m.busy_cycles() > 0);
    }

    #[test]
    fn widely_spaced_accesses_do_not_interfere() {
        let mut m = MainMemory::new(MemoryConfig::default()).unwrap();
        let first = m.access(Cycle(0), 64);
        let second = m.access(Cycle(10_000), 64);
        assert_eq!(first, Cycle(212));
        assert_eq!(second, Cycle(10_212));
    }

    #[test]
    fn tiny_blocks_still_pay_first_chunk() {
        let mut m = MainMemory::new(MemoryConfig::default()).unwrap();
        assert_eq!(m.access(Cycle(0), 8), Cycle(200));
    }
}
