//! Workload profiles: the knobs of one synthetic benchmark.

use lnuca_types::ConfigError;

/// Which SPEC-like suite a profile belongs to. The paper reports Integer and
/// Floating-Point results separately (harmonic means per suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Suite {
    /// Integer-code behaviour class (pointer chasing, branchy control flow,
    /// small-to-medium working sets).
    #[default]
    Integer,
    /// Floating-point behaviour class (streaming loops, large working sets,
    /// predictable branches, higher FP-op density).
    FloatingPoint,
}

impl Suite {
    /// Short label used in reports ("Int." / "FP.").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Suite::Integer => "Int.",
            Suite::FloatingPoint => "FP.",
        }
    }
}

/// The memory access-pattern class of a profile.
///
/// [`AccessPattern::Regions`] is the original three-region reuse model every
/// paper-suite profile uses; the other classes are the adversarial patterns
/// of the `suites::adversarial` expansion (pointer chasing, streaming,
/// GUPS-like random updates and phase switching), designed to stress the
/// cache hierarchies in ways the stationary region model cannot. Every
/// pattern-generated address lands inside the four standard regions, so
/// with `spatial_stride_prob = 0` the footprint is bounded exactly by
/// [`WorkloadProfile::footprint_bytes`]; the spatial-stride shortcut can
/// additionally walk a run of word-sized steps past a region's edge, like
/// it always could under the region model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessPattern {
    /// The three-region reuse model plus streaming walker (paper default).
    #[default]
    Regions,
    /// A deterministic pointer chase: each access follows a pseudo-random
    /// permutation cycle over the cold region (one giant linked list), with
    /// probability `hot_prob` of touching the hot region instead. Defeats
    /// spatial locality entirely; reuse distance equals the chain length.
    PointerChase,
    /// A strided streaming kernel: each access advances the streaming walker
    /// by `stream_stride_blocks` blocks (wrapping over the streaming
    /// region), with probability `hot_prob` of touching the hot region.
    Streaming,
    /// GUPS-like uniform-random accesses over the *entire* footprint (all
    /// four regions glued into one giant table). Maximises tag pressure:
    /// almost every access is a conflict candidate.
    Gups,
    /// Phase switching: rotates through `Regions`, `Streaming`,
    /// `PointerChase` and `Gups` every `phase_period` instructions,
    /// stressing residency turnover and the event-horizon engine.
    PhaseMix,
    /// Replay of an ingested `lnuca-trace/v1` binary trace (see
    /// [`crate::trace`]): memory addresses and read/write kinds come from
    /// the file named by [`WorkloadProfile::trace_path`] (wrapping at the
    /// end), while the non-memory instruction mix, branches and dependency
    /// distances still follow the profile's knobs.
    Trace,
    /// Producer-consumer sharing (CMP): cores hand blocks of the shared
    /// region around a ring — each core writes a window of blocks "owned"
    /// by its stage and reads the window its upstream neighbour just
    /// wrote, so lines migrate M→S→M between neighbours. Single-core runs
    /// degenerate to a rotating private window over the shared region.
    ProducerConsumer,
    /// Migratory sharing (CMP): a read-modify-write working set whose
    /// "home" core rotates every [`WorkloadProfile::phase_period`]
    /// instructions; whole lines migrate from core to core with an
    /// ownership transfer (and writeback) per hop. Single-core runs see a
    /// stationary read-modify-write working set.
    Migratory,
    /// False sharing (CMP): every core hammers its *own* word, but the
    /// words of all cores are interleaved within the same small set of
    /// lines, so the directory invalidates furiously while no data is
    /// truly shared. Single-core runs see a tiny hot working set.
    FalseSharing,
}

impl AccessPattern {
    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AccessPattern::Regions => "regions",
            AccessPattern::PointerChase => "pointer-chase",
            AccessPattern::Streaming => "streaming",
            AccessPattern::Gups => "gups",
            AccessPattern::PhaseMix => "phase-mix",
            AccessPattern::Trace => "trace",
            AccessPattern::ProducerConsumer => "producer-consumer",
            AccessPattern::Migratory => "migratory",
            AccessPattern::FalseSharing => "false-sharing",
        }
    }
}

/// The parameters of one synthetic benchmark.
///
/// Memory behaviour is controlled by the profile's [`AccessPattern`]; under
/// the default [`AccessPattern::Regions`] class it is a three-region reuse
/// model plus a streaming walker:
///
/// * a **hot** region that mostly fits in the L1 / root tile,
/// * a **warm** region sized like the L2/L-NUCA capacity range — this is the
///   region whose service latency the paper's proposal improves,
/// * a **cold** region sized like the L3,
/// * a **streaming** footprint larger than the L3 that always misses on chip.
///
/// Each memory access picks a region with the configured probability and a
/// block within it; with probability `spatial_stride_prob` it instead
/// continues sequentially from the previous access (spatial locality).
///
/// The struct is `#[non_exhaustive]`: construct one with
/// [`WorkloadProfile::builder`] (or start from [`WorkloadProfile::default`]
/// and mutate fields) so that future knobs can be added without breaking
/// downstream struct literals — three consecutive PRs grew this type by
/// literal breakage before the builder existed.
///
/// # Example
///
/// ```
/// use lnuca_workloads::{AccessPattern, Suite, WorkloadProfile};
///
/// let profile = WorkloadProfile::builder("my.stream")
///     .suite(Suite::FloatingPoint)
///     .pattern(AccessPattern::Streaming)
///     .stream_stride_blocks(3)
///     .build()?;
/// assert_eq!(profile.name, "my.stream");
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name used in reports.
    pub name: String,
    /// Which suite the benchmark belongs to.
    pub suite: Suite,
    /// Fraction of instructions that are loads.
    pub load_fraction: f64,
    /// Fraction of instructions that are stores.
    pub store_fraction: f64,
    /// Fraction of instructions that are conditional branches.
    pub branch_fraction: f64,
    /// Fraction of the remaining (ALU) instructions that are floating point.
    pub fp_fraction: f64,
    /// Number of 32-byte blocks in the hot region.
    pub hot_blocks: u64,
    /// Number of 32-byte blocks in the warm region.
    pub warm_blocks: u64,
    /// Number of 32-byte blocks in the cold region.
    pub cold_blocks: u64,
    /// Number of 32-byte blocks in the streaming footprint.
    pub stream_blocks: u64,
    /// Number of 32-byte blocks in the **shared** region used by the CMP
    /// sharing patterns ([`AccessPattern::ProducerConsumer`],
    /// [`AccessPattern::Migratory`], [`AccessPattern::FalseSharing`]);
    /// ignored by the single-core patterns. Every core of a CMP run sees
    /// the same shared region, partitioned per pattern semantics.
    pub shared_blocks: u64,
    /// Probability that a memory access targets the hot region.
    pub hot_prob: f64,
    /// Probability that a memory access targets the warm region.
    pub warm_prob: f64,
    /// Probability that a memory access targets the cold region.
    pub cold_prob: f64,
    /// Probability that a memory access continues sequentially from the
    /// previous one instead of sampling a region.
    pub spatial_stride_prob: f64,
    /// Mean register-dependency distance (larger = more ILP).
    pub mean_dep_distance: f64,
    /// Probability that a branch follows its per-branch bias (higher =
    /// easier to predict).
    pub branch_bias: f64,
    /// Number of static branches in the synthetic program.
    pub static_branches: u64,
    /// Memory access-pattern class.
    pub pattern: AccessPattern,
    /// Instructions per phase for [`AccessPattern::PhaseMix`] (ignored by
    /// the other patterns).
    pub phase_period: u64,
    /// Walker stride in blocks for [`AccessPattern::Streaming`] (ignored by
    /// the other patterns).
    pub stream_stride_blocks: u64,
    /// Path of the `lnuca-trace/v1` file replayed by
    /// [`AccessPattern::Trace`]; must be `Some` exactly when the pattern is
    /// `Trace`. The file is opened when a generator is constructed, not at
    /// validation time.
    pub trace_path: Option<String>,
}

impl WorkloadProfile {
    /// Starts building a profile named `name`, with every other knob at the
    /// balanced defaults of [`WorkloadProfile::default`].
    #[must_use]
    pub fn builder(name: impl Into<String>) -> WorkloadProfileBuilder {
        let profile = WorkloadProfile {
            name: name.into(),
            ..WorkloadProfile::default()
        };
        WorkloadProfileBuilder { profile }
    }

    /// Validates the profile.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if fractions/probabilities are outside
    /// `[0, 1]`, their sums exceed 1, or any region is empty.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let frac_sum = self.load_fraction + self.store_fraction + self.branch_fraction;
        for (name, v) in [
            ("load_fraction", self.load_fraction),
            ("store_fraction", self.store_fraction),
            ("branch_fraction", self.branch_fraction),
            ("fp_fraction", self.fp_fraction),
            ("hot_prob", self.hot_prob),
            ("warm_prob", self.warm_prob),
            ("cold_prob", self.cold_prob),
            ("spatial_stride_prob", self.spatial_stride_prob),
            ("branch_bias", self.branch_bias),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ConfigError::new(name, format!("must be in [0, 1], got {v}")));
            }
        }
        if frac_sum > 1.0 + 1e-9 {
            return Err(ConfigError::new(
                "load/store/branch fractions",
                format!("must sum to at most 1, got {frac_sum}"),
            ));
        }
        if self.hot_prob + self.warm_prob + self.cold_prob > 1.0 + 1e-9 {
            return Err(ConfigError::new(
                "hot/warm/cold probabilities",
                "must sum to at most 1 (the remainder goes to the streaming walker)",
            ));
        }
        for (name, v) in [
            ("hot_blocks", self.hot_blocks),
            ("warm_blocks", self.warm_blocks),
            ("cold_blocks", self.cold_blocks),
            ("stream_blocks", self.stream_blocks),
            ("shared_blocks", self.shared_blocks),
            ("static_branches", self.static_branches),
        ] {
            if v == 0 {
                return Err(ConfigError::new(name, "must be nonzero"));
            }
        }
        // A NaN mean would draw every distance as 0, below the floor of 1.
        if self.mean_dep_distance.is_nan() || self.mean_dep_distance < 1.0 {
            return Err(ConfigError::new(
                "mean_dep_distance",
                format!("must be at least 1, got {}", self.mean_dep_distance),
            ));
        }
        if self.phase_period == 0 {
            return Err(ConfigError::new("phase_period", "must be nonzero"));
        }
        if self.stream_stride_blocks == 0 {
            return Err(ConfigError::new("stream_stride_blocks", "must be nonzero"));
        }
        match (&self.pattern, &self.trace_path) {
            (AccessPattern::Trace, None) => {
                return Err(ConfigError::new(
                    "trace_path",
                    "pattern `trace` requires a trace_path",
                ));
            }
            (AccessPattern::Trace, Some(path)) if path.is_empty() => {
                return Err(ConfigError::new("trace_path", "must not be empty"));
            }
            (pattern, Some(_)) if *pattern != AccessPattern::Trace => {
                return Err(ConfigError::new(
                    "trace_path",
                    format!(
                        "only pattern `trace` replays a file, this profile is `{}`",
                        pattern.label()
                    ),
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Fraction of instructions that access memory.
    #[must_use]
    pub fn memory_fraction(&self) -> f64 {
        self.load_fraction + self.store_fraction
    }

    /// Total data footprint of the benchmark in bytes (32-byte blocks).
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        (self.hot_blocks + self.warm_blocks + self.cold_blocks + self.stream_blocks) * 32
    }
}

impl Default for WorkloadProfile {
    /// A balanced integer-like default profile.
    fn default() -> Self {
        WorkloadProfile {
            name: "default".to_owned(),
            suite: Suite::Integer,
            load_fraction: 0.25,
            store_fraction: 0.10,
            branch_fraction: 0.18,
            fp_fraction: 0.05,
            hot_blocks: 512,
            warm_blocks: 4_096,
            cold_blocks: 131_072,
            stream_blocks: 4_000_000,
            shared_blocks: 2_048,
            hot_prob: 0.55,
            warm_prob: 0.33,
            cold_prob: 0.09,
            spatial_stride_prob: 0.35,
            mean_dep_distance: 6.0,
            branch_bias: 0.92,
            static_branches: 2_048,
            pattern: AccessPattern::Regions,
            phase_period: 4_096,
            stream_stride_blocks: 1,
            trace_path: None,
        }
    }
}

/// Builder for [`WorkloadProfile`] (see [`WorkloadProfile::builder`]).
///
/// Every setter overrides one knob; grouped setters exist for the knobs
/// that are always tuned together ([`mix`](Self::mix),
/// [`regions`](Self::regions), [`region_probs`](Self::region_probs)).
/// [`build`](Self::build) validates the result.
#[derive(Debug, Clone)]
pub struct WorkloadProfileBuilder {
    profile: WorkloadProfile,
}

impl WorkloadProfileBuilder {
    /// Sets the suite the benchmark belongs to.
    #[must_use]
    pub fn suite(mut self, suite: Suite) -> Self {
        self.profile.suite = suite;
        self
    }

    /// Sets the load/store/branch/FP instruction mix in one call.
    #[must_use]
    pub fn mix(mut self, loads: f64, stores: f64, branches: f64, fp: f64) -> Self {
        self.profile.load_fraction = loads;
        self.profile.store_fraction = stores;
        self.profile.branch_fraction = branches;
        self.profile.fp_fraction = fp;
        self
    }

    /// Sets the hot/warm/cold region sizes (in 32-byte blocks) in one call.
    #[must_use]
    pub fn regions(mut self, hot: u64, warm: u64, cold: u64) -> Self {
        self.profile.hot_blocks = hot;
        self.profile.warm_blocks = warm;
        self.profile.cold_blocks = cold;
        self
    }

    /// Sets the hot/warm/cold region probabilities in one call (the
    /// remainder goes to the streaming walker).
    #[must_use]
    pub fn region_probs(mut self, hot: f64, warm: f64, cold: f64) -> Self {
        self.profile.hot_prob = hot;
        self.profile.warm_prob = warm;
        self.profile.cold_prob = cold;
        self
    }

    /// Sets the streaming footprint size in 32-byte blocks.
    #[must_use]
    pub fn stream_blocks(mut self, blocks: u64) -> Self {
        self.profile.stream_blocks = blocks;
        self
    }

    /// Sets the shared-region size (in 32-byte blocks) used by the CMP
    /// sharing patterns.
    #[must_use]
    pub fn shared_blocks(mut self, blocks: u64) -> Self {
        self.profile.shared_blocks = blocks;
        self
    }

    /// Sets the probability of continuing sequentially from the previous
    /// access.
    #[must_use]
    pub fn spatial_stride_prob(mut self, prob: f64) -> Self {
        self.profile.spatial_stride_prob = prob;
        self
    }

    /// Sets the mean register-dependency distance.
    #[must_use]
    pub fn mean_dep_distance(mut self, distance: f64) -> Self {
        self.profile.mean_dep_distance = distance;
        self
    }

    /// Sets the probability that a branch follows its per-branch bias.
    #[must_use]
    pub fn branch_bias(mut self, bias: f64) -> Self {
        self.profile.branch_bias = bias;
        self
    }

    /// Sets the number of static branches in the synthetic program.
    #[must_use]
    pub fn static_branches(mut self, branches: u64) -> Self {
        self.profile.static_branches = branches;
        self
    }

    /// Sets the memory access-pattern class.
    #[must_use]
    pub fn pattern(mut self, pattern: AccessPattern) -> Self {
        self.profile.pattern = pattern;
        self
    }

    /// Sets the instructions per phase for [`AccessPattern::PhaseMix`].
    #[must_use]
    pub fn phase_period(mut self, period: u64) -> Self {
        self.profile.phase_period = period;
        self
    }

    /// Sets the walker stride in blocks for [`AccessPattern::Streaming`].
    #[must_use]
    pub fn stream_stride_blocks(mut self, stride: u64) -> Self {
        self.profile.stream_stride_blocks = stride;
        self
    }

    /// Sets the trace file replayed by [`AccessPattern::Trace`] (pair with
    /// `.pattern(AccessPattern::Trace)`; `build` enforces the coupling).
    #[must_use]
    pub fn trace_path(mut self, path: impl Into<String>) -> Self {
        self.profile.trace_path = Some(path.into());
        self
    }

    /// Validates and produces the profile.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] [`WorkloadProfile::validate`]
    /// reports.
    pub fn build(self) -> Result<WorkloadProfile, ConfigError> {
        self.profile.validate()?;
        Ok(self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_valid() {
        assert!(WorkloadProfile::default().validate().is_ok());
    }

    #[test]
    fn suite_labels() {
        assert_eq!(Suite::Integer.label(), "Int.");
        assert_eq!(Suite::FloatingPoint.label(), "FP.");
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let base = WorkloadProfile::default();
        assert!(WorkloadProfile {
            load_fraction: 1.5,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadProfile {
            load_fraction: 0.6,
            store_fraction: 0.6,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadProfile {
            hot_prob: 0.7,
            warm_prob: 0.6,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadProfile {
            hot_blocks: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadProfile {
            mean_dep_distance: 0.5,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadProfile {
            phase_period: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadProfile {
            stream_stride_blocks: 0,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadProfile {
            branch_bias: -0.1,
            ..base.clone()
        }
        .validate()
        .is_err());
        // pattern/trace_path coupling, both directions.
        assert!(WorkloadProfile {
            pattern: AccessPattern::Trace,
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadProfile {
            pattern: AccessPattern::Trace,
            trace_path: Some(String::new()),
            ..base.clone()
        }
        .validate()
        .is_err());
        assert!(WorkloadProfile {
            trace_path: Some("x.lnt".to_owned()),
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validation_rejects_a_nan_dependency_distance() {
        let nan = WorkloadProfile {
            mean_dep_distance: f64::NAN,
            ..WorkloadProfile::default()
        };
        let err = nan.validate().unwrap_err();
        assert_eq!(err.parameter(), "mean_dep_distance");
        assert!(WorkloadProfile {
            mean_dep_distance: 1.0,
            ..WorkloadProfile::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn pattern_labels_are_distinct() {
        let labels = [
            AccessPattern::Regions.label(),
            AccessPattern::PointerChase.label(),
            AccessPattern::Streaming.label(),
            AccessPattern::Gups.label(),
            AccessPattern::PhaseMix.label(),
            AccessPattern::Trace.label(),
            AccessPattern::ProducerConsumer.label(),
            AccessPattern::Migratory.label(),
            AccessPattern::FalseSharing.label(),
        ];
        let unique: std::collections::HashSet<&str> = labels.into_iter().collect();
        assert_eq!(unique.len(), 9);
        assert_eq!(AccessPattern::default(), AccessPattern::Regions);
    }

    #[test]
    fn builder_sets_every_knob_and_validates() {
        let p = WorkloadProfile::builder("b.test")
            .suite(Suite::FloatingPoint)
            .mix(0.3, 0.1, 0.1, 0.5)
            .regions(100, 200, 300)
            .region_probs(0.5, 0.3, 0.1)
            .stream_blocks(4_096)
            .spatial_stride_prob(0.2)
            .mean_dep_distance(7.0)
            .branch_bias(0.95)
            .static_branches(512)
            .pattern(AccessPattern::PhaseMix)
            .phase_period(1_000)
            .stream_stride_blocks(2)
            .build()
            .unwrap();
        assert_eq!(p.name, "b.test");
        assert_eq!(p.suite, Suite::FloatingPoint);
        assert_eq!((p.hot_blocks, p.warm_blocks, p.cold_blocks), (100, 200, 300));
        assert_eq!(p.pattern, AccessPattern::PhaseMix);
        assert_eq!(p.phase_period, 1_000);

        let err = WorkloadProfile::builder("b.bad")
            .mix(0.7, 0.7, 0.0, 0.0)
            .build();
        assert!(err.is_err(), "the builder validates on build");
    }

    #[test]
    fn derived_quantities() {
        let p = WorkloadProfile::default();
        assert!((p.memory_fraction() - 0.35).abs() < 1e-12);
        assert_eq!(p.footprint_bytes(), (512 + 4_096 + 131_072 + 4_000_000) * 32);
    }
}
