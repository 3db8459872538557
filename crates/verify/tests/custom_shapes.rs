//! The differential oracle beyond the paper's four presets: hierarchies
//! that only exist as composed `HierarchySpec`s — a fabric with nothing
//! behind it, a four-level conventional stack, a fabric with an
//! intermediate cache, non-paper tile sizes — all replayed through the
//! timing-free reference model (DESIGN.md §11 holds for the whole spec
//! space, not just the paper's four organisations).

use lnuca_core::LNucaConfig;
use lnuca_mem::{AccessMode, CacheConfig, WritePolicy};
use lnuca_sim::configs;
use lnuca_sim::spec::{HierarchySpec, IntermediateSpec};
use lnuca_verify::harness::run_differential_spec_both_engines;
use lnuca_workloads::suites;

fn instructions() -> u64 {
    std::env::var("LNUCA_VERIFY_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1_500)
}

fn verify_spec(spec: &HierarchySpec, workloads: &[&str]) {
    let instructions = instructions();
    for name in workloads {
        let profile = suites::by_name(name).expect("shipped profile");
        for seed in [1u64, 7] {
            if let Err(e) = run_differential_spec_both_engines(spec, &profile, instructions, seed) {
                panic!("{e}");
            }
        }
    }
}

/// The acceptance shape of the scenario redesign: LN3 with no L3 — every
/// fabric miss goes straight to DRAM, every spill vanishes.
#[test]
fn fabric_over_bare_memory_matches_the_reference_model() {
    let spec = HierarchySpec::builder()
        .fabric(LNucaConfig::paper(3).unwrap())
        .build()
        .unwrap();
    assert_eq!(spec.label(), "LN3-144KB + mem");
    verify_spec(
        &spec,
        &[
            "int.compress",
            "fp.wave_solver",
            "adv.gups",
            "adv.phase_mix",
        ],
    );
}

/// A four-level conventional stack: L1 + L2 + 1 MB L2B + L3, deeper than
/// anything in the paper (the `deeper_levels` stats and
/// `ServiceLevel::Intermediate` attribution paths).
#[test]
fn deep_conventional_stack_matches_the_reference_model() {
    let l2b = CacheConfig::builder("L2B")
        .size_bytes(1024 * 1024)
        .ways(8)
        .block_size(64)
        .completion_cycles(8)
        .initiation_interval(4)
        .access_mode(AccessMode::Serial)
        .write_policy(WritePolicy::CopyBack)
        .build()
        .unwrap();
    let spec = HierarchySpec::builder()
        .intermediate(IntermediateSpec::paper_l2())
        .intermediate(IntermediateSpec::new(l2b).with_transfers(3, 3))
        .backing_cache(configs::paper_l3())
        .build()
        .unwrap();
    verify_spec(&spec, &["int.pointer_chase", "fp.lattice_qcd", "adv.stream"]);
}

/// A fabric *and* an intermediate conventional cache — the two families the
/// paper's organisations keep separate, composed.
#[test]
fn fabric_with_intermediate_cache_matches_the_reference_model() {
    let spec = HierarchySpec::builder()
        .fabric(LNucaConfig::paper(2).unwrap())
        .intermediate(IntermediateSpec::paper_l2())
        .backing_cache(configs::paper_l3())
        .build()
        .unwrap();
    verify_spec(&spec, &["int.compiler", "adv.pointer_chase"]);
}

/// Non-paper tile sizes (the ablation bins' sweep points) stay verified.
#[test]
fn ablation_tile_sizes_match_the_reference_model() {
    for tile_kb in [2u64, 16] {
        let mut fabric = LNucaConfig::paper(3).unwrap();
        fabric.tile_size_bytes = tile_kb * 1024;
        let spec = HierarchySpec::builder()
            .fabric(fabric)
            .backing_cache(configs::paper_l3())
            .build()
            .unwrap();
        verify_spec(&spec, &["int.compress"]);
    }
}
