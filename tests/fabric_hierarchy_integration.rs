//! Integration tests spanning the core fabric, the memory substrates and the
//! full-system hierarchies: the end-to-end behaviours the paper's evaluation
//! relies on, checked on small but complete simulations.

use lnuca_suite::core::{LNuca, LNucaConfig, LNucaGeometry};
use lnuca_suite::cpu::{CoreConfig, DataMemory, FixedLatencyMemory, OooCore};
use lnuca_suite::sim::configs;
use lnuca_suite::sim::spec::{BackingSpec, HierarchySpec};
use lnuca_suite::sim::system::System;
use lnuca_suite::types::{Addr, Cycle, ReqId};
use lnuca_suite::workloads::{suites, TraceGenerator, WorkloadProfile};

/// The paper's three evaluated fabric sizes have the published capacities.
#[test]
fn lnuca_capacities_match_figure_1() {
    let l1 = 32 * 1024;
    for (levels, expected_kb) in [(2u8, 72u64), (3, 144), (4, 248)] {
        let geometry = LNucaGeometry::new(levels).expect("paper sizes are valid");
        assert_eq!((geometry.capacity_bytes(8 * 1024) + l1) / 1024, expected_kb);
    }
}

/// A block that leaves the root tile is found again by the fabric and comes
/// back faster than the L3 would deliver it — the core victim-cache claim.
#[test]
fn fabric_recovers_victims_faster_than_the_l3_would() {
    let mut fabric = LNuca::new(LNucaConfig::paper(3).expect("valid")).expect("valid");
    let victim = Addr(0xABC0);
    fabric.evict_from_root(victim, false);
    for c in 0..6 {
        fabric.tick(Cycle(c));
    }
    assert!(fabric.inject_search(victim, ReqId(1), false, Cycle(6)));
    let mut arrival = None;
    for c in 6..30 {
        fabric.tick(Cycle(c));
        if let Some(a) = fabric.pop_arrivals(Cycle(c)).into_iter().next() {
            arrival = Some(a);
            break;
        }
    }
    let arrival = arrival.expect("the evicted block must be found");
    let latency = arrival.available_at.since(Cycle(6));
    let l3_latency = configs::paper_l3().completion_cycles;
    assert!(
        latency < l3_latency,
        "fabric hit took {latency} cycles, not faster than the {l3_latency}-cycle L3"
    );
}

/// Content exclusion holds across a full-system run: after the simulation no
/// block is resident in more than one place of the L1 + fabric pair.
#[test]
fn full_system_run_preserves_exclusion_invariants() {
    use lnuca_suite::cpu::DataMemory as _;
    use lnuca_suite::sim::hierarchy::LNucaHierarchy;

    let spec = HierarchySpec::lnuca_l3(2).expect("valid config");
    let mut hierarchy = LNucaHierarchy::from_spec(&spec).expect("valid config");
    let profile = suites::spec_int_like()[1].clone();
    let trace = TraceGenerator::new(profile, 5).take(3_000);
    let mut core = OooCore::new(CoreConfig::paper(), trace).expect("valid core");
    let mut now = Cycle(0);
    while !core.is_finished() && now.0 < 1_000_000 {
        hierarchy.tick(now);
        core.tick(now, &mut hierarchy);
        now = now.next();
    }
    assert!(core.is_finished());
    // The fabric never holds more blocks than its capacity.
    let fabric = hierarchy.fabric();
    assert!(
        fabric.resident_blocks() as u64 <= fabric.capacity_bytes() / fabric.config().block_size,
        "fabric holds more blocks than it has room for"
    );
}

/// The four hierarchies of Fig. 1 produce comparable, reproducible runs with
/// the attribution fields each experiment needs.
#[test]
fn all_four_hierarchies_run_the_same_workload() {
    let profile = WorkloadProfile::default();
    let specs = [
        HierarchySpec::conventional(),
        HierarchySpec::lnuca_l3(3).unwrap(),
        HierarchySpec::dnuca(),
        HierarchySpec::lnuca_dnuca(2).unwrap(),
    ];
    for spec in specs {
        let result = System::run_spec(&spec, &profile, 4_000, 3).expect("valid config");
        assert_eq!(result.instructions, 4_000, "{} did not finish", result.label);
        assert!(result.ipc > 0.05, "{} IPC {}", result.label, result.ipc);
        assert!(result.energy.total_pj() > 0.0);
        match (spec.fabric.is_some(), &spec.backing) {
            (false, BackingSpec::Cache(_)) => assert!(result.hierarchy.l2.is_some()),
            (true, BackingSpec::Cache(_)) => {
                assert!(result.hierarchy.lnuca.is_some());
                assert!(result.hierarchy.l3.is_some());
            }
            (false, BackingSpec::DNuca(_)) => assert!(result.hierarchy.dnuca.is_some()),
            (true, BackingSpec::DNuca(_)) => {
                assert!(result.hierarchy.lnuca.is_some());
                assert!(result.hierarchy.dnuca.is_some());
            }
            (_, backing) => panic!("not a paper preset backing: {backing:?}"),
        }
    }
}

/// The L-NUCA hierarchy services a visible share of its requests from the
/// tiles, and closer levels service at least as many reads as farther ones
/// (the Table III monotonicity).
#[test]
fn tile_hit_distribution_is_monotone_in_level() {
    let profile = suites::spec_fp_like()[0].clone();
    let spec = HierarchySpec::lnuca_l3(4).unwrap();
    let result = System::run_spec(&spec, &profile, 30_000, 11).expect("valid config");
    let fabric = result.hierarchy.lnuca.expect("fabric stats present");
    assert!(fabric.read_hits() > 100, "only {} fabric read hits", fabric.read_hits());
    assert!(
        fabric.read_hits_in_level(2) >= fabric.read_hits_in_level(3),
        "Le2 ({}) should service at least as many reads as Le3 ({})",
        fabric.read_hits_in_level(2),
        fabric.read_hits_in_level(3)
    );
    assert!(
        fabric.read_hits_in_level(3) >= fabric.read_hits_in_level(4),
        "Le3 should service at least as many reads as Le4"
    );
    // Near-contention-free transport, as in Table III.
    assert!(fabric.transport_latency_ratio() < 1.10);
}

/// The core model alone (perfect memory) reaches a much higher IPC than the
/// same trace against a realistic hierarchy — i.e. the hierarchy, not the
/// core, is the bottleneck being studied.
#[test]
fn memory_hierarchy_is_the_bottleneck() {
    let profile = suites::spec_int_like()[0].clone();
    let trace: Vec<_> = TraceGenerator::new(profile.clone(), 1)
        .take(10_000)
        .collect();

    let mut ideal_core = OooCore::new(CoreConfig::paper(), trace.into_iter()).expect("valid");
    let mut ideal_mem = FixedLatencyMemory::new(1);
    let mut now = Cycle(0);
    while !ideal_core.is_finished() && now.0 < 1_000_000 {
        ideal_mem.tick(now);
        ideal_core.tick(now, &mut ideal_mem);
        now = now.next();
    }
    let ideal_ipc = ideal_core.stats().ipc(now);

    let spec = HierarchySpec::conventional();
    let real = System::run_spec(&spec, &profile, 10_000, 1).expect("valid config");
    assert!(
        ideal_ipc > real.ipc,
        "ideal-memory IPC {ideal_ipc} should exceed realistic-hierarchy IPC {}",
        real.ipc
    );
}

/// Identical seeds give identical results across the whole stack (trace
/// generation, routing randomness, replacement) — every experiment in the
/// repository is reproducible.
#[test]
fn end_to_end_determinism() {
    let spec = HierarchySpec::lnuca_dnuca(3).unwrap();
    let profile = suites::spec_fp_like()[2].clone();
    let a = System::run_spec(&spec, &profile, 6_000, 77).expect("valid config");
    let b = System::run_spec(&spec, &profile, 6_000, 77).expect("valid config");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(
        a.hierarchy.lnuca.as_ref().map(|s| s.read_hits()),
        b.hierarchy.lnuca.as_ref().map(|s| s.read_hits())
    );
    assert_eq!(a.hierarchy.memory_accesses, b.hierarchy.memory_accesses);
}
