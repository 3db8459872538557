//! The declarative hierarchy description: the one way to name a memory
//! hierarchy.
//!
//! A [`HierarchySpec`] is a root cache, an optional L-NUCA fabric behind
//! it, any number of intermediate conventional cache levels, and a backing
//! store (an L3-style cache, a D-NUCA, or nothing but DRAM). The paper's
//! four organisations (Fig. 1) are four points in this space, each with a
//! preset constructor: [`HierarchySpec::conventional`],
//! [`HierarchySpec::lnuca_l3`], [`HierarchySpec::dnuca`] and
//! [`HierarchySpec::lnuca_dnuca`]. Other shapes compose freely through
//! [`HierarchySpec::builder`]: a fabric in front of nothing (`LN3 + mem`),
//! deeper conventional stacks (`L1 + L2 + L2B + L3`), a fabric with an
//! intermediate cache, non-paper tile sizes from the ablation bins, and so
//! on.
//!
//! Specs are validated at build time ([`HierarchySpecBuilder::build`]),
//! labelled deterministically ([`HierarchySpec::label`]), and round-trip
//! through the scenario JSON layer (`crate::scenario`). The differential
//! oracle in `lnuca-verify` accepts specs directly, so DESIGN.md §11 holds
//! for every shape, not only the paper's four.

use crate::configs;
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
/// Construct one with a paper preset ([`HierarchySpec::conventional`],
/// [`HierarchySpec::lnuca_l3`], [`HierarchySpec::dnuca`],
/// [`HierarchySpec::lnuca_dnuca`]), compose one with
/// [`HierarchySpec::builder`], or load one from a scenario file
/// (`crate::scenario`). The struct is `#[non_exhaustive]`;
/// fields remain readable (and mutable on an owned value) but literals are
/// reserved so future components can be added compatibly.
///
/// # Example
///
/// ```
/// use lnuca_sim::spec::{BackingSpec, HierarchySpec};
///
/// // A 3-level L-NUCA with nothing behind it but DRAM — a shape none of
/// // the paper's four organisations has.
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
    /// hierarchy; `> 1` gives every core a private root cache over the
    /// **shared** backing, with an MSI directory (`lnuca-coherence`)
    /// keeping the private copies coherent (DESIGN.md §17). The CMP
    /// machine does not model the fabric tile by tile: each core's optional
    /// fabric is collapsed into one private set-associative victim cache
    /// of equivalent capacity, and a D-NUCA backing into a
    /// capacity/latency-equivalent shared cache. Intermediate levels are
    /// not supported in CMP shapes yet.
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

    /// The paper's conventional baseline, Fig. 1(a) (`L2-256KB`): the
    /// Table I L1, the L2 behind its 2 + 2 cycle inter-cache bus
    /// ([`IntermediateSpec::paper_l2`]), the 8 MB L3 and DRAM.
    #[must_use]
    pub fn conventional() -> HierarchySpec {
        Self::builder()
            .intermediate(IntermediateSpec::paper_l2())
            .backing_cache(configs::paper_l3())
            .build()
            .expect("the paper conventional hierarchy is valid")
    }

    /// The paper's L-NUCA + L3 hierarchy, Fig. 1(b) (`LN2-72KB`,
    /// `LN3-144KB`, `LN4-248KB`, ...): the L1 as root tile, a paper fabric
    /// of `levels` levels, the 8 MB L3 and DRAM.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `levels` is outside 2..=8.
    pub fn lnuca_l3(levels: u8) -> Result<HierarchySpec, ConfigError> {
        Self::builder()
            .fabric(LNucaConfig::paper(levels)?)
            .backing_cache(configs::paper_l3())
            .build()
    }

    /// The paper's D-NUCA baseline, Fig. 1(c) (`DN-4x8`): the L1 in front
    /// of the 4 x 8 D-NUCA and DRAM.
    #[must_use]
    pub fn dnuca() -> HierarchySpec {
        Self::builder()
            .backing_dnuca(DNucaConfig::paper())
            .build()
            .expect("the paper D-NUCA hierarchy is valid")
    }

    /// The paper's L-NUCA + D-NUCA hierarchy, Fig. 1(d) (`LN2 + DN-4x8`,
    /// ...): the L1 as root tile, a paper fabric of `levels` levels, the
    /// 4 x 8 D-NUCA and DRAM.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `levels` is outside 2..=8.
    pub fn lnuca_dnuca(levels: u8) -> Result<HierarchySpec, ConfigError> {
        Self::builder()
            .fabric(LNucaConfig::paper(levels)?)
            .backing_dnuca(DNucaConfig::paper())
            .build()
    }

    /// Validates the composition.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the main-memory timing or any component
    /// configuration is invalid, or the components disagree (e.g. fabric and root block sizes differ —
    /// blocks migrate between the root tile and the tiles, so they must
    /// match).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.memory.validate()?;
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
                    parts.push(format!("{}-{}KB", level.cache.name, level.cache.size_bytes / 1024));
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
        format!("LN{}-{}KB", fabric.levels, (tiles + self.root.size_bytes) / 1024)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_kinds_lower_to_specs_with_identical_labels() {
        // Each Fig. 1 preset is the Table I components composed in the
        // paper's order, labelled with the figure name.
        let l3 = BackingSpec::Cache(configs::paper_l3());
        let dnuca = BackingSpec::DNuca(DNucaConfig::paper());
        let presets = [
            (HierarchySpec::conventional(), None, 1, &l3, "L2-256KB"),
            (HierarchySpec::lnuca_l3(2).unwrap(), Some(2), 0, &l3, "LN2-72KB"),
            (HierarchySpec::lnuca_l3(3).unwrap(), Some(3), 0, &l3, "LN3-144KB"),
            (HierarchySpec::lnuca_l3(4).unwrap(), Some(4), 0, &l3, "LN4-248KB"),
            (HierarchySpec::dnuca(), None, 0, &dnuca, "DN-4x8"),
            (HierarchySpec::lnuca_dnuca(2).unwrap(), Some(2), 0, &dnuca, "LN2 + DN-4x8"),
        ];
        for (spec, levels, intermediates, backing, label) in presets {
            assert_eq!(spec.label(), label, "derived label matches the figure name");
            assert_eq!(spec.root, configs::paper_l1(), "{label}");
            assert_eq!(spec.fabric, levels.map(|l| LNucaConfig::paper(l).unwrap()), "{label}");
            assert_eq!(spec.intermediate.len(), intermediates, "{label}");
            assert_eq!(&spec.backing, backing, "{label}");
            assert_eq!(spec.memory, configs::paper_memory(), "{label}");
            assert_eq!(spec.cores, 1, "{label}");
            spec.validate().expect("paper presets validate");
        }
    }

    #[test]
    fn conventional_lowering_preserves_the_bus_transfers() {
        let spec = HierarchySpec::conventional();
        assert_eq!(spec.intermediate.len(), 1);
        assert_eq!(spec.intermediate[0].cache, configs::paper_l2());
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
    fn validation_rejects_zero_dram_timing() {
        let memory = MemoryConfig {
            chunk_bytes: 0,
            ..configs::paper_memory()
        };
        let err = HierarchySpec::builder().memory(memory).build().unwrap_err();
        assert!(err.to_string().contains("chunk_bytes"), "{err}");
        let memory = MemoryConfig {
            first_chunk_cycles: 0,
            ..configs::paper_memory()
        };
        let err = HierarchySpec::builder().memory(memory).build().unwrap_err();
        assert!(err.to_string().contains("first_chunk_cycles"), "{err}");
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
            .backing_dnuca(DNucaConfig::paper())
            .cores(4)
            .build()
            .unwrap();
        assert_eq!(cmp.label(), "4x LN2 + DN-4x8");
        let solo = HierarchySpec::builder().cores(1).build().unwrap();
        assert!(
            !solo.label().contains('x'),
            "single-core labels are unchanged: {}",
            solo.label()
        );

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
