//! The declarative hierarchy description: what used to be the closed
//! four-variant [`HierarchyKind`] enum, opened up into a composable spec.
//!
//! A [`HierarchySpec`] is a root cache, an optional L-NUCA fabric behind
//! it, any number of intermediate conventional cache levels, and a backing
//! store (an L3-style cache, a D-NUCA, or nothing but DRAM). Every one of
//! the paper's four organisations (Fig. 1) is one point in this space —
//! [`HierarchyKind::to_spec`] produces it, bit-identically — and shapes the
//! enum could never express compose freely: a fabric in front of nothing
//! (`LN3 + mem`), deeper conventional stacks (`L1 + L2 + L2B + L3`), a
//! fabric with an intermediate cache, non-paper tile sizes from the
//! ablation bins, and so on.
//!
//! Specs are validated at build time ([`HierarchySpecBuilder::build`]),
//! labelled deterministically ([`HierarchySpec::label`]), and round-trip
//! through the scenario JSON layer (`crate::scenario`). The differential
//! oracle in `lnuca-verify` accepts specs directly, so DESIGN.md §11 keeps
//! holding beyond the paper's four kinds.

use crate::configs::{self, HierarchyKind};
use lnuca_core::LNucaConfig;
use lnuca_dnuca::DNucaConfig;
use lnuca_mem::{CacheConfig, MemoryConfig};
use lnuca_types::ConfigError;

/// One intermediate conventional cache level between the root (or fabric)
/// and the backing store, with the bus transfer cycles a request pays to
/// reach it and a hit pays to come back.
///
/// The paper's conventional L2 is `IntermediateSpec::paper_l2()`: the
/// 256 KB macro at the far end of the inter-cache interconnect
/// ([`configs::L2_REQUEST_TRANSFER_CYCLES`] /
/// [`configs::L2_RESPONSE_TRANSFER_CYCLES`]).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct IntermediateSpec {
    /// The cache at this level.
    pub cache: CacheConfig,
    /// Cycles for a miss request to travel from the level above to this
    /// cache.
    pub request_transfer_cycles: u64,
    /// Cycles for a hit block to travel back to the level above.
    pub response_transfer_cycles: u64,
}

impl IntermediateSpec {
    /// An intermediate level with no bus transfer cost (the cache's own
    /// latencies already include its wires).
    #[must_use]
    pub fn new(cache: CacheConfig) -> Self {
        IntermediateSpec {
            cache,
            request_transfer_cycles: 0,
            response_transfer_cycles: 0,
        }
    }

    /// Sets the request/response bus transfer cycles.
    #[must_use]
    pub fn with_transfers(mut self, request: u64, response: u64) -> Self {
        self.request_transfer_cycles = request;
        self.response_transfer_cycles = response;
        self
    }

    /// The paper's L2 as an intermediate level: the Table I 256 KB cache
    /// plus the 2 + 2 cycle inter-cache bus transfers of the conventional
    /// hierarchy.
    #[must_use]
    pub fn paper_l2() -> Self {
        IntermediateSpec::new(configs::paper_l2()).with_transfers(
            configs::L2_REQUEST_TRANSFER_CYCLES,
            configs::L2_RESPONSE_TRANSFER_CYCLES,
        )
    }
}

/// What sits behind the last intermediate level (or directly behind the
/// root/fabric when there are no intermediates).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum BackingSpec {
    /// An L3-style conventional cache whose latencies already include its
    /// wire delay (no extra transfer cycles are charged).
    Cache(CacheConfig),
    /// A D-NUCA.
    DNuca(DNucaConfig),
    /// Nothing on chip: misses go straight to main memory.
    Memory,
}

impl BackingSpec {
    /// Short name of the backing kind, for labels and error messages.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            BackingSpec::Cache(_) => "cache",
            BackingSpec::DNuca(_) => "dnuca",
            BackingSpec::Memory => "memory",
        }
    }
}

/// A complete, composable description of a memory hierarchy.
///
/// Construct one with [`HierarchySpec::builder`], convert a paper
/// configuration with [`HierarchyKind::to_spec`], or load one from a
/// scenario file (`crate::scenario`). The struct is `#[non_exhaustive]`;
/// fields remain readable (and mutable on an owned value) but literals are
/// reserved so future components can be added compatibly.
///
/// # Example
///
/// ```
/// use lnuca_sim::spec::{BackingSpec, HierarchySpec};
///
/// // A 3-level L-NUCA with nothing behind it but DRAM — a shape the old
/// // `HierarchyKind` enum could not express.
/// let spec = HierarchySpec::builder()
///     .fabric(lnuca_core::LNucaConfig::paper(3)?)
///     .backing(BackingSpec::Memory)
///     .build()?;
/// assert_eq!(spec.label(), "LN3-144KB + mem");
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchySpec {
    /// Label override; `None` derives one from the composition
    /// ([`HierarchySpec::label`]).
    pub label: Option<String>,
    /// The first-level cache (the L-NUCA root tile when `fabric` is set).
    pub root: CacheConfig,
    /// The L-NUCA fabric behind the root tile, if any.
    pub fabric: Option<LNucaConfig>,
    /// Intermediate conventional cache levels, nearest first.
    pub intermediate: Vec<IntermediateSpec>,
    /// The backing store behind everything else on chip.
    pub backing: BackingSpec,
    /// Main memory timing.
    pub memory: MemoryConfig,
    /// Number of root tiles (cores). `1` is the classic single-core
    /// hierarchy; `> 1` replicates the private side — the root cache plus
    /// the optional fabric — once per core over the **shared** backing,
    /// with an MSI directory (`lnuca-coherence`) keeping the private
    /// copies coherent (DESIGN.md §17). Intermediate levels are not
    /// supported in CMP shapes yet.
    pub cores: usize,
}

impl HierarchySpec {
    /// Starts building a spec: paper L1 root, no fabric, no intermediates,
    /// memory backing, paper memory timing.
    #[must_use]
    pub fn builder() -> HierarchySpecBuilder {
        HierarchySpecBuilder {
            spec: HierarchySpec {
                label: None,
                root: configs::paper_l1(),
                fabric: None,
                intermediate: Vec::new(),
                backing: BackingSpec::Memory,
                memory: configs::paper_memory(),
                cores: 1,
            },
        }
    }

    /// Validates the composition.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any component configuration is invalid
    /// or the components disagree (e.g. fabric and root block sizes differ —
    /// blocks migrate between the root tile and the tiles, so they must
    /// match).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.root.geometry()?;
        if let Some(fabric) = &self.fabric {
            fabric.validate()?;
            if fabric.block_size != self.root.block_size {
                return Err(ConfigError::new(
                    "fabric.block_size",
                    format!(
                        "must equal the root block size ({} B) so blocks can migrate \
                         between the root tile and the fabric, got {} B",
                        self.root.block_size, fabric.block_size
                    ),
                ));
            }
        }
        for (i, level) in self.intermediate.iter().enumerate() {
            level
                .cache
                .geometry()
                .map_err(|e| ConfigError::new(format!("intermediate[{i}]"), e.to_string()))?;
        }
        match &self.backing {
            BackingSpec::Cache(cache) => {
                cache.geometry()?;
            }
            BackingSpec::DNuca(dnuca) => dnuca.validate()?,
            BackingSpec::Memory => {}
        }
        if self.cores == 0 || self.cores > lnuca_coherence::MAX_CORES {
            return Err(ConfigError::new(
                "cores",
                format!(
                    "must be 1..={} (directory sharer sets are 64-bit masks), got {}",
                    lnuca_coherence::MAX_CORES,
                    self.cores
                ),
            ));
        }
        if self.cores > 1 && !self.intermediate.is_empty() {
            return Err(ConfigError::new(
                "cores",
                "CMP shapes do not support intermediate levels yet (the private \
                 side is root + optional fabric; the next level is the shared backing)",
            ));
        }
        Ok(())
    }

    /// The configuration label: the override if one was set, otherwise a
    /// deterministic name derived from the composition. The four paper
    /// shapes derive exactly the labels of the figures (`L2-256KB`,
    /// `LN3-144KB`, `DN-4x8`, `LN2 + DN-4x8`); every other shape joins its
    /// component names with ` + ` (e.g. `LN3-144KB + mem`).
    #[must_use]
    pub fn label(&self) -> String {
        if let Some(label) = &self.label {
            return label.clone();
        }
        let base = self.composition_label();
        if self.cores > 1 {
            format!("{}x {}", self.cores, base)
        } else {
            base
        }
    }

    /// The single-core composition name (the `label()` body before the
    /// CMP `{cores}x ` prefix is applied).
    fn composition_label(&self) -> String {
        match (&self.fabric, self.intermediate.as_slice(), &self.backing) {
            // The four paper shapes keep their figure names.
            (None, [l2], BackingSpec::Cache(_)) => {
                format!("L2-{}KB", l2.cache.size_bytes / 1024)
            }
            (Some(fabric), [], BackingSpec::Cache(_)) => self.fabric_label(fabric),
            (None, [], BackingSpec::DNuca(d)) => format!("DN-{}x{}", d.rows, d.cols),
            (Some(fabric), [], BackingSpec::DNuca(d)) => {
                format!("LN{} + DN-{}x{}", fabric.levels, d.rows, d.cols)
            }
            // Everything else: component names joined.
            (fabric, intermediates, backing) => {
                let mut parts = Vec::new();
                if let Some(fabric) = fabric {
                    parts.push(self.fabric_label(fabric));
                }
                for level in intermediates {
                    parts.push(format!(
                        "{}-{}KB",
                        level.cache.name,
                        level.cache.size_bytes / 1024
                    ));
                }
                match backing {
                    BackingSpec::Cache(cache) => {
                        parts.push(format!("{}-{}KB", cache.name, cache.size_bytes / 1024));
                    }
                    BackingSpec::DNuca(d) => parts.push(format!("DN-{}x{}", d.rows, d.cols)),
                    BackingSpec::Memory => parts.push("mem".to_owned()),
                }
                if fabric.is_none() {
                    parts.insert(0, format!("L1-{}KB", self.root.size_bytes / 1024));
                }
                parts.join(" + ")
            }
        }
    }

    /// The `LN{levels}-{capacity}KB` name of a fabric-plus-root front end.
    fn fabric_label(&self, fabric: &LNucaConfig) -> String {
        let tiles = lnuca_core::LNucaGeometry::new(fabric.levels)
            .map(|g| g.capacity_bytes(fabric.tile_size_bytes))
            .unwrap_or(0);
        format!(
            "LN{}-{}KB",
            fabric.levels,
            (tiles + self.root.size_bytes) / 1024
        )
    }

    /// Block size of the first level below the root/fabric — the
    /// granularity of the root's coalescing write buffer (and of memory
    /// fetches under a bare [`BackingSpec::Memory`]).
    #[must_use]
    pub fn below_root_block_size(&self) -> u64 {
        if let Some(level) = self.intermediate.first() {
            return level.cache.block_size;
        }
        match &self.backing {
            BackingSpec::Cache(cache) => cache.block_size,
            BackingSpec::DNuca(dnuca) => dnuca.block_size,
            BackingSpec::Memory => self.root.block_size,
        }
    }
}

/// Builder for [`HierarchySpec`] (see [`HierarchySpec::builder`]).
#[derive(Debug, Clone)]
pub struct HierarchySpecBuilder {
    spec: HierarchySpec,
}

impl HierarchySpecBuilder {
    /// Overrides the derived label.
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.spec.label = Some(label.into());
        self
    }

    /// Sets the root cache (defaults to the paper L1).
    #[must_use]
    pub fn root(mut self, root: CacheConfig) -> Self {
        self.spec.root = root;
        self
    }

    /// Puts an L-NUCA fabric behind the root tile.
    #[must_use]
    pub fn fabric(mut self, fabric: LNucaConfig) -> Self {
        self.spec.fabric = Some(fabric);
        self
    }

    /// Appends an intermediate conventional cache level (nearest first).
    #[must_use]
    pub fn intermediate(mut self, level: IntermediateSpec) -> Self {
        self.spec.intermediate.push(level);
        self
    }

    /// Sets the backing store (defaults to [`BackingSpec::Memory`]).
    #[must_use]
    pub fn backing(mut self, backing: BackingSpec) -> Self {
        self.spec.backing = backing;
        self
    }

    /// Shorthand for an L3-style cache backing.
    #[must_use]
    pub fn backing_cache(self, cache: CacheConfig) -> Self {
        self.backing(BackingSpec::Cache(cache))
    }

    /// Shorthand for a D-NUCA backing.
    #[must_use]
    pub fn backing_dnuca(self, dnuca: DNucaConfig) -> Self {
        self.backing(BackingSpec::DNuca(dnuca))
    }

    /// Sets the main-memory timing (defaults to the paper's).
    #[must_use]
    pub fn memory(mut self, memory: MemoryConfig) -> Self {
        self.spec.memory = memory;
        self
    }

    /// Sets the number of root tiles (cores; defaults to 1). Each core
    /// gets a private copy of the root cache and the optional fabric; the
    /// backing is shared and kept coherent by an MSI directory.
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.spec.cores = cores;
        self
    }

    /// Validates and produces the spec.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] [`HierarchySpec::validate`]
    /// reports.
    pub fn build(self) -> Result<HierarchySpec, ConfigError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

impl HierarchyKind {
    /// Lowers this paper configuration to the equivalent [`HierarchySpec`].
    ///
    /// The lowering is exact: the spec carries the same component
    /// configurations, derives the same label, and — through
    /// [`crate::system::System`] — builds a hierarchy whose behaviour is
    /// bit-identical to the one built from the enum (pinned by the golden
    /// scenario tests).
    #[must_use]
    pub fn to_spec(&self) -> HierarchySpec {
        let builder = HierarchySpec::builder();
        match self {
            HierarchyKind::Conventional(c) => builder
                .root(c.l1.clone())
                .intermediate(
                    IntermediateSpec::new(c.l2.clone()).with_transfers(
                        configs::L2_REQUEST_TRANSFER_CYCLES,
                        configs::L2_RESPONSE_TRANSFER_CYCLES,
                    ),
                )
                .backing_cache(c.l3.clone())
                .memory(c.memory),
            HierarchyKind::LNucaL3(c) => builder
                .root(c.l1.clone())
                .fabric(c.lnuca.clone())
                .backing_cache(c.l3.clone())
                .memory(c.memory),
            HierarchyKind::DNuca(c) => builder
                .root(c.l1.clone())
                .backing_dnuca(c.dnuca.clone())
                .memory(c.memory),
            HierarchyKind::LNucaDNuca(c) => builder
                .root(c.l1.clone())
                .fabric(c.lnuca.clone())
                .backing_dnuca(c.dnuca.clone())
                .memory(c.memory),
        }
        .build()
        .expect("paper configurations always lower to valid specs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_kinds_lower_to_specs_with_identical_labels() {
        let kinds = [
            HierarchyKind::Conventional(configs::conventional()),
            HierarchyKind::LNucaL3(configs::lnuca_hierarchy(2)),
            HierarchyKind::LNucaL3(configs::lnuca_hierarchy(3)),
            HierarchyKind::LNucaL3(configs::lnuca_hierarchy(4)),
            HierarchyKind::DNuca(configs::dnuca_hierarchy()),
            HierarchyKind::LNucaDNuca(configs::lnuca_dnuca_hierarchy(2)),
        ];
        for kind in &kinds {
            let spec = kind.to_spec();
            assert_eq!(spec.label(), kind.label(), "derived label matches the figure name");
            spec.validate().expect("lowered specs validate");
        }
    }

    #[test]
    fn conventional_lowering_preserves_the_bus_transfers() {
        let spec = HierarchyKind::Conventional(configs::conventional()).to_spec();
        assert_eq!(spec.intermediate.len(), 1);
        assert_eq!(
            spec.intermediate[0].request_transfer_cycles,
            configs::L2_REQUEST_TRANSFER_CYCLES
        );
        assert_eq!(
            spec.intermediate[0].response_transfer_cycles,
            configs::L2_RESPONSE_TRANSFER_CYCLES
        );
        assert_eq!(spec.below_root_block_size(), 64, "write buffer coalesces at L2 blocks");
    }

    #[test]
    fn novel_shapes_validate_and_label_deterministically() {
        let no_l3 = HierarchySpec::builder()
            .fabric(LNucaConfig::paper(3).unwrap())
            .build()
            .unwrap();
        assert_eq!(no_l3.label(), "LN3-144KB + mem");
        assert_eq!(no_l3.below_root_block_size(), 32, "memory backing fetches root blocks");

        let deep = HierarchySpec::builder()
            .intermediate(IntermediateSpec::paper_l2())
            .intermediate(IntermediateSpec::new(
                CacheConfig::builder("L2B")
                    .size_bytes(1024 * 1024)
                    .ways(8)
                    .block_size(64)
                    .completion_cycles(8)
                    .initiation_interval(4)
                    .build()
                    .unwrap(),
            ))
            .backing_cache(configs::paper_l3())
            .build()
            .unwrap();
        assert_eq!(deep.label(), "L1-32KB + L2-256KB + L2B-1024KB + L3-8192KB");

        let named = HierarchySpec::builder().label("custom").build().unwrap();
        assert_eq!(named.label(), "custom");
        assert_eq!(named.backing, BackingSpec::Memory);
    }

    #[test]
    fn cmp_specs_validate_and_prefix_their_labels() {
        let cmp = HierarchySpec::builder()
            .fabric(LNucaConfig::paper(2).unwrap())
            .backing_dnuca(configs::dnuca_hierarchy().dnuca)
            .cores(4)
            .build()
            .unwrap();
        assert_eq!(cmp.label(), "4x LN2 + DN-4x8");
        let solo = HierarchySpec::builder().cores(1).build().unwrap();
        assert!(!solo.label().contains('x'), "single-core labels are unchanged: {}", solo.label());

        let err = HierarchySpec::builder().cores(0).build().unwrap_err();
        assert!(err.to_string().contains("cores"), "{err}");
        let err = HierarchySpec::builder().cores(65).build().unwrap_err();
        assert!(err.to_string().contains("cores"), "{err}");
        let err = HierarchySpec::builder()
            .intermediate(IntermediateSpec::paper_l2())
            .cores(2)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("intermediate"), "{err}");
    }

    #[test]
    fn validation_rejects_mismatched_fabric_blocks() {
        let mut fabric = LNucaConfig::paper(2).unwrap();
        fabric.block_size = 64;
        fabric.tile_size_bytes = 8 * 1024;
        let err = HierarchySpec::builder().fabric(fabric).build().unwrap_err();
        assert!(err.to_string().contains("fabric.block_size"), "{err}");
    }
}
