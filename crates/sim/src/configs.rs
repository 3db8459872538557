//! The four cache hierarchies evaluated in the paper (Fig. 1), with the
//! Table I parameters as defaults.

use lnuca_core::LNucaConfig;
use lnuca_dnuca::DNucaConfig;
use lnuca_mem::{AccessMode, CacheConfig, MemoryConfig, WritePolicy};

/// Number of MSHR entries in front of the L1 / root tile (Table I).
pub const L1_MSHRS: usize = 16;
/// Number of MSHR entries in front of the L2 (Table I).
pub const L2_MSHRS: usize = 16;
/// Number of MSHR entries in front of the L3 (Table I).
pub const L3_MSHRS: usize = 8;
/// Secondary misses allowed per MSHR entry (Table I).
pub const MSHR_SECONDARY: usize = 4;
/// Write-buffer entries in front of the L2 and the L3 (Table I).
pub const WRITE_BUFFER_ENTRIES: usize = 32;

/// Cycles for a miss request to travel from the L1 to the L2 macro over the
/// inter-cache interconnect of the conventional hierarchy.
///
/// The paper's whole premise is that a multi-hundred-kilobyte L2 sits at the
/// far end of global wires ("inter-cache latency gap"), and its methodology
/// explicitly models buses between the cache levels. The L-NUCA tiles, in
/// contrast, sit immediately next to the root tile and pay only their
/// single-cycle hops. Two cycles of request transfer and two cycles of
/// response transfer (a 64-byte block over a 32-byte bus) reproduce that
/// asymmetry; the L3 latency of Table I (20 cycles) already includes its own
/// wire delay and is charged identically in every configuration.
pub const L2_REQUEST_TRANSFER_CYCLES: u64 = 2;

/// Cycles for a 64-byte L2 block to travel back to the L1 over the
/// inter-cache bus (see [`L2_REQUEST_TRANSFER_CYCLES`]).
pub const L2_RESPONSE_TRANSFER_CYCLES: u64 = 2;

/// The paper's 32 KB, 4-way, 32 B-block, write-through, 2-port L1 (also used
/// as the L-NUCA root tile).
#[must_use]
pub fn paper_l1() -> CacheConfig {
    CacheConfig::builder("L1")
        .size_bytes(32 * 1024)
        .ways(4)
        .block_size(32)
        .completion_cycles(2)
        .initiation_interval(1)
        .ports(2)
        .access_mode(AccessMode::Parallel)
        .write_policy(WritePolicy::WriteThrough)
        .build()
        .expect("the paper L1 configuration is valid")
}

/// The paper's 256 KB, 8-way, 64 B-block, copy-back, serial-access L2.
#[must_use]
pub fn paper_l2() -> CacheConfig {
    CacheConfig::builder("L2")
        .size_bytes(256 * 1024)
        .ways(8)
        .block_size(64)
        .completion_cycles(4)
        .initiation_interval(2)
        .ports(1)
        .access_mode(AccessMode::Serial)
        .write_policy(WritePolicy::CopyBack)
        .build()
        .expect("the paper L2 configuration is valid")
}

/// The paper's 8 MB, 16-way, 128 B-block L3 (20-cycle completion, 15-cycle
/// initiation), similar to the Intel Core 2's last-level cache.
#[must_use]
pub fn paper_l3() -> CacheConfig {
    CacheConfig::builder("L3")
        .size_bytes(8 * 1024 * 1024)
        .ways(16)
        .block_size(128)
        .completion_cycles(20)
        .initiation_interval(15)
        .ports(1)
        .access_mode(AccessMode::Serial)
        .write_policy(WritePolicy::CopyBack)
        .build()
        .expect("the paper L3 configuration is valid")
}

/// The paper's main-memory timing (200-cycle first chunk, 4-cycle inter
/// chunk, 16-byte wires).
#[must_use]
pub fn paper_memory() -> MemoryConfig {
    MemoryConfig::default()
}

/// Configuration of the conventional three-level hierarchy (Fig. 1(a)).
#[derive(Debug, Clone, PartialEq)]
pub struct ConventionalConfig {
    /// First-level cache.
    pub l1: CacheConfig,
    /// Second-level cache.
    pub l2: CacheConfig,
    /// Third-level cache.
    pub l3: CacheConfig,
    /// Main memory.
    pub memory: MemoryConfig,
}

/// Configuration of the L-NUCA + L3 hierarchy (Fig. 1(b)).
#[derive(Debug, Clone, PartialEq)]
pub struct LNucaL3Config {
    /// Root tile (L1).
    pub l1: CacheConfig,
    /// The L-NUCA fabric.
    pub lnuca: LNucaConfig,
    /// Third-level cache behind the fabric.
    pub l3: CacheConfig,
    /// Main memory.
    pub memory: MemoryConfig,
}

/// Configuration of the L1 + D-NUCA hierarchy (Fig. 1(c)).
#[derive(Debug, Clone, PartialEq)]
pub struct DNucaOnlyConfig {
    /// First-level cache.
    pub l1: CacheConfig,
    /// The D-NUCA secondary cache.
    pub dnuca: DNucaConfig,
    /// Main memory.
    pub memory: MemoryConfig,
}

/// Configuration of the L-NUCA + D-NUCA hierarchy (Fig. 1(d)).
#[derive(Debug, Clone, PartialEq)]
pub struct LNucaDNucaConfig {
    /// Root tile (L1).
    pub l1: CacheConfig,
    /// The L-NUCA fabric.
    pub lnuca: LNucaConfig,
    /// The D-NUCA behind the fabric.
    pub dnuca: DNucaConfig,
    /// Main memory.
    pub memory: MemoryConfig,
}

/// One of the four hierarchies under study, ready to be instantiated by
/// [`crate::system::System`].
#[derive(Debug, Clone, PartialEq)]
pub enum HierarchyKind {
    /// Conventional L1 + L2 + L3 (the Fig. 4 baseline, `L2-256KB`).
    Conventional(ConventionalConfig),
    /// L1 (root tile) + L-NUCA + L3 (`LN2/LN3/LN4`).
    LNucaL3(LNucaL3Config),
    /// L1 + D-NUCA (the Fig. 5 baseline, `DN-4x8`).
    DNuca(DNucaOnlyConfig),
    /// L1 (root tile) + L-NUCA + D-NUCA (`LNx + DN-4x8`).
    LNucaDNuca(LNucaDNucaConfig),
}

impl HierarchyKind {
    /// Short configuration name matching the paper's figures
    /// (`L2-256KB`, `LN3-144KB`, `DN-4x8`, `LN2 + DN-4x8`, ...).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            HierarchyKind::Conventional(c) => {
                format!("L2-{}KB", c.l2.size_bytes / 1024)
            }
            HierarchyKind::LNucaL3(c) => {
                let tiles = lnuca_core::LNucaGeometry::new(c.lnuca.levels)
                    .map(|g| g.capacity_bytes(c.lnuca.tile_size_bytes))
                    .unwrap_or(0);
                format!(
                    "LN{}-{}KB",
                    c.lnuca.levels,
                    (tiles + c.l1.size_bytes) / 1024
                )
            }
            HierarchyKind::DNuca(c) => {
                format!("DN-{}x{}", c.dnuca.rows, c.dnuca.cols)
            }
            HierarchyKind::LNucaDNuca(c) => {
                format!("LN{} + DN-{}x{}", c.lnuca.levels, c.dnuca.rows, c.dnuca.cols)
            }
        }
    }
}

/// The paper's conventional baseline (`L2-256KB`).
#[must_use]
pub fn conventional() -> ConventionalConfig {
    ConventionalConfig {
        l1: paper_l1(),
        l2: paper_l2(),
        l3: paper_l3(),
        memory: paper_memory(),
    }
}

/// The paper's L-NUCA + L3 hierarchy with the given number of levels
/// (2, 3 or 4 in the evaluation).
///
/// # Panics
///
/// Panics if `levels` is outside the supported 2..=8 range.
#[must_use]
pub fn lnuca_hierarchy(levels: u8) -> LNucaL3Config {
    LNucaL3Config {
        l1: paper_l1(),
        lnuca: LNucaConfig::paper(levels).expect("levels validated by the caller"),
        l3: paper_l3(),
        memory: paper_memory(),
    }
}

/// The paper's D-NUCA baseline (`DN-4x8`).
#[must_use]
pub fn dnuca_hierarchy() -> DNucaOnlyConfig {
    DNucaOnlyConfig {
        l1: paper_l1(),
        dnuca: DNucaConfig::paper(),
        memory: paper_memory(),
    }
}

/// The paper's L-NUCA + D-NUCA hierarchy with the given number of L-NUCA
/// levels.
///
/// # Panics
///
/// Panics if `levels` is outside the supported 2..=8 range.
#[must_use]
pub fn lnuca_dnuca_hierarchy(levels: u8) -> LNucaDNucaConfig {
    LNucaDNucaConfig {
        l1: paper_l1(),
        lnuca: LNucaConfig::paper(levels).expect("levels validated by the caller"),
        dnuca: DNucaConfig::paper(),
        memory: paper_memory(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cache_configs_match_table1() {
        let l1 = paper_l1();
        assert_eq!(l1.size_bytes, 32 * 1024);
        assert_eq!(l1.ports, 2);
        assert_eq!(l1.write_policy, WritePolicy::WriteThrough);
        let l2 = paper_l2();
        assert_eq!(l2.completion_cycles, 4);
        assert_eq!(l2.initiation_interval, 2);
        let l3 = paper_l3();
        assert_eq!(l3.size_bytes, 8 * 1024 * 1024);
        assert_eq!(l3.completion_cycles, 20);
        assert_eq!(paper_memory().first_chunk_cycles, 200);
    }

    #[test]
    fn hierarchy_labels_match_the_figures() {
        assert_eq!(HierarchyKind::Conventional(conventional()).label(), "L2-256KB");
        assert_eq!(HierarchyKind::LNucaL3(lnuca_hierarchy(2)).label(), "LN2-72KB");
        assert_eq!(HierarchyKind::LNucaL3(lnuca_hierarchy(3)).label(), "LN3-144KB");
        assert_eq!(HierarchyKind::LNucaL3(lnuca_hierarchy(4)).label(), "LN4-248KB");
        assert_eq!(HierarchyKind::DNuca(dnuca_hierarchy()).label(), "DN-4x8");
        assert_eq!(
            HierarchyKind::LNucaDNuca(lnuca_dnuca_hierarchy(2)).label(),
            "LN2 + DN-4x8"
        );
    }

    #[test]
    fn mshr_and_write_buffer_constants_match_table1() {
        assert_eq!((L1_MSHRS, L2_MSHRS, L3_MSHRS), (16, 16, 8));
        assert_eq!(MSHR_SECONDARY, 4);
        assert_eq!(WRITE_BUFFER_ENTRIES, 32);
    }
}
