//! Core (pipeline) configuration.

use lnuca_types::ConfigError;

/// Parameters of the out-of-order core, mirroring Table I of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched and dispatched per cycle.
    pub fetch_width: usize,
    /// Integer/memory instructions issued per cycle.
    pub issue_width_int_mem: usize,
    /// Floating-point instructions issued per cycle.
    pub issue_width_fp: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Load/store-queue entries.
    pub lsq_size: usize,
    /// Integer issue-window entries.
    pub int_window: usize,
    /// Floating-point issue-window entries.
    pub fp_window: usize,
    /// Memory issue-window entries.
    pub mem_window: usize,
    /// Store-buffer entries (post-commit write buffer).
    pub store_buffer_size: usize,
    /// Branch misprediction recovery penalty in cycles.
    pub mispredict_penalty: u64,
    /// Execution latency of floating-point operations.
    pub fp_latency: u64,
    /// Execution latency of integer ALU operations.
    pub int_latency: u64,
    /// Store writes drained from the store buffer to memory per cycle.
    pub store_drain_per_cycle: usize,
}

impl CoreConfig {
    /// The paper's core configuration (Table I).
    #[must_use]
    pub fn paper() -> Self {
        CoreConfig {
            fetch_width: 4,
            issue_width_int_mem: 4,
            issue_width_fp: 4,
            commit_width: 4,
            rob_size: 128,
            lsq_size: 64,
            int_window: 32,
            fp_window: 24,
            mem_window: 16,
            store_buffer_size: 48,
            mispredict_penalty: 8,
            fp_latency: 4,
            int_latency: 1,
            store_drain_per_cycle: 1,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any width, window or latency is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, v) in [
            ("fetch_width", self.fetch_width),
            ("issue_width_int_mem", self.issue_width_int_mem),
            ("issue_width_fp", self.issue_width_fp),
            ("commit_width", self.commit_width),
            ("rob_size", self.rob_size),
            ("lsq_size", self.lsq_size),
            ("int_window", self.int_window),
            ("fp_window", self.fp_window),
            ("mem_window", self.mem_window),
            ("store_buffer_size", self.store_buffer_size),
            ("store_drain_per_cycle", self.store_drain_per_cycle),
        ] {
            if v == 0 {
                return Err(ConfigError::new(name, "must be nonzero"));
            }
        }
        if self.int_latency == 0 || self.fp_latency == 0 {
            return Err(ConfigError::new("int_latency/fp_latency", "must be nonzero"));
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = CoreConfig::paper();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.rob_size, 128);
        assert_eq!(c.lsq_size, 64);
        assert_eq!((c.int_window, c.fp_window, c.mem_window), (32, 24, 16));
        assert_eq!(c.store_buffer_size, 48);
        assert_eq!(c.mispredict_penalty, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_fields_are_rejected() {
        let mut c = CoreConfig::paper();
        c.rob_size = 0;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::paper();
        c.fp_latency = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_the_paper_config() {
        assert_eq!(CoreConfig::default(), CoreConfig::paper());
    }
}
