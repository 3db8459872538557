//! End-to-end pin of the global-miss path (DESIGN.md §4): one cold read
//! issued at cycle 0 into an empty hierarchy misses everywhere and is
//! served by memory. Its latency is the sum of each level's miss
//! determination plus the DRAM fetch of the L3's block:
//!
//! * the L1 / root tile (2-cycle completion) knows it missed after
//!   `ceil(2 * 4 / 5) = 2` cycles;
//! * the conventional path then pays the L2 bus's 2 request-transfer
//!   cycles and the 4-cycle L2's `ceil(4 * 4 / 5) = 4`-cycle miss
//!   determination (its 2 response-transfer cycles are charged on hits
//!   only);
//! * the 20-cycle L3 knows it missed after `ceil(20 * 4 / 5) = 16` cycles;
//! * memory delivers the L3's 128-byte block after 200 cycles for the
//!   first 16-byte chunk plus 7 × 4 for the rest: 228 cycles.
//!
//! The fabric replaces the L2's 2 + 4 cycles with its search, injected
//! when the root tile's miss is determined: level `l` is looked up `l - 1`
//! cycles later and the miss line adds one more (`fabric.rs`,
//! `empty_fabric_reports_global_miss_after_last_level_plus_one`). So a
//! global miss costs exactly one cycle per fabric level, 246 + k for k
//! levels, and LN2 reaches the L3 4 cycles before the L2 path does.

use lnuca_cpu::DataMemory;
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::system::System;
use lnuca_types::{Addr, Cycle, MemRequest, MemResponse, ReqId, ServiceLevel};

/// A block no earlier access has touched.
const COLD: u64 = 0x40_0000;

/// Root tile miss determination (2-cycle L1).
const L1_MISS: u64 = 2;
/// L2 bus request transfer plus the 4-cycle L2's miss determination.
const L2_MISS: u64 = 2 + 4;
/// The 20-cycle L3's miss determination.
const L3_MISS: u64 = 16;
/// DRAM: first 16-byte chunk, then 7 more of the 128-byte L3 block.
const DRAM_BLOCK: u64 = 200 + 7 * 4;

/// Issues one cold read at cycle 0 and returns its response.
fn cold_read(spec: &HierarchySpec) -> MemResponse {
    let mut memory = System::build_spec(spec).expect("spec builds");
    let read = MemRequest::read(ReqId(1), Addr(COLD), Cycle(0));
    assert!(memory.issue(read, Cycle(0)), "an empty hierarchy accepts the read");
    let mut out = Vec::new();
    for now in 0..1_000 {
        memory.tick(Cycle(now));
        memory.drain_completions(Cycle(now), &mut out);
        if let Some(response) = out.pop() {
            assert!(out.is_empty(), "one read, one response");
            assert_eq!(response.id, ReqId(1));
            assert_eq!(response.served_by, ServiceLevel::Memory);
            return response;
        }
    }
    panic!("the cold read never completed");
}

#[test]
fn conventional_global_miss_pays_l1_l2_l3_and_dram() {
    let response = cold_read(&HierarchySpec::conventional());
    assert_eq!(L1_MISS + L2_MISS + L3_MISS + DRAM_BLOCK, 252);
    assert_eq!(response.latency(), 252);
}

#[test]
fn fabric_global_miss_costs_one_cycle_per_level() {
    assert_eq!(L1_MISS + L3_MISS + DRAM_BLOCK, 246);
    for levels in 2..=8u8 {
        let spec = HierarchySpec::lnuca_l3(levels).expect("2..=8 levels");
        let search = u64::from(levels);
        assert_eq!(cold_read(&spec).latency(), 246 + search, "{}", spec.label());
    }
    // LN2's global miss reaches memory 4 cycles before the L2 path's.
    assert_eq!(
        cold_read(&HierarchySpec::conventional()).latency()
            - cold_read(&HierarchySpec::lnuca_l3(2).expect("LN2")).latency(),
        4
    );
}
