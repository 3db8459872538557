//! The differential-oracle matrix: every paper preset × both engines ×
//! every shipped workload profile (the paper's 22 plus the 4 adversarial
//! access-pattern classes) × 3 seeds.
//!
//! Split into one test per paper preset so `cargo test` runs the four
//! quadrants in parallel. `LNUCA_VERIFY_INSTRUCTIONS` scales the per-run
//! instruction budget (default 1 500 — small runs are enough because every
//! functional decision is checked, not just final aggregates; the deep
//! tests below cover long-horizon behaviour like spill cascades).

use lnuca_sim::spec::HierarchySpec;
use lnuca_verify::harness::run_differential_spec_both_engines;
use lnuca_workloads::suites;

const SEEDS: [u64; 3] = [1, 2, 3];

fn instructions() -> u64 {
    std::env::var("LNUCA_VERIFY_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1_500)
}

fn verify_spec(spec: &HierarchySpec) {
    let instructions = instructions();
    for profile in suites::extended() {
        for seed in SEEDS {
            if let Err(e) = run_differential_spec_both_engines(spec, &profile, instructions, seed) {
                panic!("{e}");
            }
        }
    }
}

#[test]
fn conventional_matches_the_reference_model() {
    verify_spec(&HierarchySpec::conventional());
}

#[test]
fn lnuca_l3_matches_the_reference_model() {
    verify_spec(&HierarchySpec::lnuca_l3(3).unwrap());
}

#[test]
fn dnuca_matches_the_reference_model() {
    verify_spec(&HierarchySpec::dnuca());
}

#[test]
fn lnuca_dnuca_matches_the_reference_model() {
    verify_spec(&HierarchySpec::lnuca_dnuca(2).unwrap());
}

/// Long-horizon runs on the workloads that stress eviction cascades, spills
/// and DRAM turnaround the hardest, across every remaining level count.
#[test]
fn deep_runs_exercise_spill_cascades() {
    let specs = [
        HierarchySpec::lnuca_l3(2).unwrap(),
        HierarchySpec::lnuca_l3(4).unwrap(),
        HierarchySpec::lnuca_dnuca(3).unwrap(),
    ];
    for spec in &specs {
        for name in ["adv.pointer_chase", "adv.gups", "fp.lattice_qcd"] {
            let profile = suites::by_name(name).expect("shipped profile");
            if let Err(e) = run_differential_spec_both_engines(spec, &profile, 12_000, 7) {
                panic!("{e}");
            }
        }
    }
}
