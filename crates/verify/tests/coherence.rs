//! The coherence oracle matrix (DESIGN.md §17): every sharing pattern ×
//! both engines × 3 seeds on a 2-core shape, plus the 4-core
//! private-fabric-over-D-NUCA flagship shape, replayed through the
//! map-based MSI reference model. `LNUCA_VERIFY_INSTRUCTIONS` scales the
//! per-core budget (default 800 here).

use lnuca_sim::configs;
use lnuca_sim::spec::{BackingSpec, HierarchySpec};
use lnuca_sim::system::Engine;
use lnuca_verify::coherence::{run_coherence, run_coherence_both_engines};
use lnuca_workloads::{suites, AccessPattern, WorkloadProfile};

const SEEDS: [u64; 3] = [1, 2, 3];

fn instructions() -> u64 {
    std::env::var("LNUCA_VERIFY_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(800)
}

fn cmp_spec(cores: usize, fabric: bool, backing: BackingSpec) -> HierarchySpec {
    let mut builder = HierarchySpec::builder().backing(backing).cores(cores);
    if fabric {
        builder = builder.fabric(lnuca_core::LNucaConfig::paper(2).unwrap());
    }
    builder.build().unwrap()
}

fn sharing_profiles() -> Vec<WorkloadProfile> {
    let profiles: Vec<_> = suites::adversarial()
        .into_iter()
        .filter(|p| {
            matches!(
                p.pattern,
                AccessPattern::ProducerConsumer
                    | AccessPattern::Migratory
                    | AccessPattern::FalseSharing
            )
        })
        .collect();
    assert_eq!(profiles.len(), 3, "the adversarial suite ships three sharing classes");
    profiles
}

/// The CI matrix: sharing patterns × engines × seeds on two cores over a
/// shared L3. Each case must pass the oracle, and the two engines must
/// produce identical coherence behaviour.
#[test]
fn sharing_matrix_passes_the_oracle_under_both_engines() {
    let spec = cmp_spec(2, false, BackingSpec::Cache(configs::paper_l3()));
    for profile in sharing_profiles() {
        for seed in SEEDS {
            match run_coherence_both_engines(&spec, &profile, instructions(), seed) {
                Ok(report) => {
                    assert!(report.accesses > 0, "{}: no demand traffic", profile.name);
                    assert!(
                        report.transactions > 0,
                        "{}: sharing pattern never reached the directory",
                        profile.name
                    );
                }
                Err(e) => panic!("{e}"),
            }
        }
    }
}

/// The flagship CMP shape of the issue: four cores, each with a private
/// L1 + L-NUCA-equivalent fabric, over a shared D-NUCA.
#[test]
fn four_core_fabric_over_dnuca_passes_the_oracle() {
    let spec = cmp_spec(4, true, BackingSpec::DNuca(lnuca_dnuca::DNucaConfig::paper()));
    for profile in sharing_profiles() {
        match run_coherence_both_engines(&spec, &profile, instructions(), 7) {
            Ok(report) => assert_eq!(report.cores, 4),
            Err(e) => panic!("{e}"),
        }
    }
}

/// Non-sharing workloads on a CMP must also satisfy the oracle — private
/// working sets still migrate through the directory (misses, evictions,
/// recalls), they just never invalidate each other... unless the
/// fixed-slot directory recalls across cores, which the oracle tracks
/// through the explicit recall events either way.
#[test]
fn private_workloads_pass_the_oracle_too() {
    let spec = cmp_spec(4, false, BackingSpec::Cache(configs::paper_l3()));
    let profile = suites::by_name("int.compress").unwrap();
    for engine in [Engine::EventHorizon, Engine::CycleStep] {
        if let Err(e) = run_coherence(&spec, &profile, instructions(), 5, engine) {
            panic!("{e}");
        }
    }
}

/// A memory-only backing exercises the no-shared-cache path of the CMP
/// machine (writebacks drain straight to DRAM accounting).
#[test]
fn memory_backed_cmp_passes_the_oracle() {
    let spec = cmp_spec(2, true, BackingSpec::Memory);
    let profile = &sharing_profiles()[0];
    if let Err(e) = run_coherence_both_engines(&spec, profile, instructions(), 9) {
        panic!("{e}");
    }
}
