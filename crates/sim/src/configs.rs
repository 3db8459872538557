//! The Table I component parameters: the paper's L1, L2, L3 and DRAM, and
//! the MSHR, write-buffer and bus constants. The four hierarchies built
//! from them (Fig. 1) are the [`crate::spec::HierarchySpec`] presets.

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
        use crate::spec::HierarchySpec;
        assert_eq!(HierarchySpec::conventional().label(), "L2-256KB");
        assert_eq!(HierarchySpec::lnuca_l3(2).unwrap().label(), "LN2-72KB");
        assert_eq!(HierarchySpec::lnuca_l3(3).unwrap().label(), "LN3-144KB");
        assert_eq!(HierarchySpec::lnuca_l3(4).unwrap().label(), "LN4-248KB");
        assert_eq!(HierarchySpec::dnuca().label(), "DN-4x8");
        assert_eq!(HierarchySpec::lnuca_dnuca(2).unwrap().label(), "LN2 + DN-4x8");
    }

    #[test]
    fn mshr_and_write_buffer_constants_match_table1() {
        assert_eq!((L1_MSHRS, L2_MSHRS, L3_MSHRS), (16, 16, 8));
        assert_eq!(MSHR_SECONDARY, 4);
        assert_eq!(WRITE_BUFFER_ENTRIES, 32);
    }
}
