//! Top-level smoke of the differential oracle: one configuration per
//! hierarchy family, one adversarial and one paper workload, through the
//! umbrella crate. The exhaustive matrix (4 presets × 2 engines × 26
//! profiles × 3 seeds) lives in `crates/verify/tests/differential.rs`.

use lnuca_suite::sim::spec::HierarchySpec;
use lnuca_suite::verify::harness::run_differential_spec_both_engines;
use lnuca_suite::workloads::suites;

#[test]
fn every_hierarchy_family_survives_the_oracle() {
    let specs = [
        HierarchySpec::conventional(),
        HierarchySpec::lnuca_l3(3).unwrap(),
        HierarchySpec::dnuca(),
        HierarchySpec::lnuca_dnuca(2).unwrap(),
    ];
    for spec in &specs {
        for name in ["int.compress", "adv.phase_mix"] {
            let profile = suites::by_name(name).expect("shipped profile");
            let report = run_differential_spec_both_engines(spec, &profile, 2_000, 1)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(report.accesses > 0);
            assert!(report.events as u64 >= report.accesses);
        }
    }
}

#[test]
fn the_oracle_counts_what_the_run_did() {
    let spec = HierarchySpec::lnuca_l3(2).unwrap();
    let profile = suites::by_name("adv.gups").expect("shipped profile");
    let report = run_differential_spec_both_engines(&spec, &profile, 3_000, 9)
        .unwrap_or_else(|e| panic!("{e}"));
    // GUPS over a >L3-sized table: plenty of DRAM traffic and write drains.
    assert!(report.memory_accesses > 100, "memory accesses {}", report.memory_accesses);
    assert!(report.write_drains > 50, "write drains {}", report.write_drains);
}
