//! Integration tests that pin the qualitative claims of the paper's
//! evaluation (the "expected result shape" list in DESIGN.md §7) on reduced
//! but complete experiment runs. These are the repository's regression net:
//! if a change to any substrate breaks one of the paper's directional
//! results, a test here fails.

use lnuca_suite::energy::AreaModel;
use lnuca_suite::sim::experiments::{area_table, ExperimentOptions, ExperimentPlan, Study};
use lnuca_suite::workloads::Suite;

fn reduced_options() -> ExperimentOptions {
    ExperimentOptions::builder()
        .instructions(12_000)
        .seed(1)
        .benchmarks_per_suite(Some(2))
        .lnuca_levels(vec![2, 3])
        .build()
}

/// The single-entry-point form of the old `Study::conventional`.
fn conventional_study(opts: &ExperimentOptions) -> Study {
    let plan = ExperimentPlan::paper_conventional(opts).expect("valid configurations");
    Study::run(&plan).expect("valid configurations")
}

/// Table II: LN3 needs less area than the 256 KB L2 baseline, LN4 more, and
/// the network overhead stays below a quarter of the fabric area.
#[test]
fn area_claims_hold() {
    let rows = area_table();
    let baseline = rows
        .iter()
        .find(|r| r.label == "L2-256KB")
        .expect("baseline row");
    let ln3 = rows
        .iter()
        .find(|r| r.label == "LN3-144KB")
        .expect("LN3 row");
    let ln4 = rows
        .iter()
        .find(|r| r.label == "LN4-248KB")
        .expect("LN4 row");
    assert!(ln3.model_mm2 < baseline.model_mm2);
    assert!(ln4.model_mm2 > baseline.model_mm2);
    for row in &rows {
        assert!(row.model_network_pct < 25.0);
        if let Some(paper) = row.paper_mm2 {
            let err = (row.model_mm2 - paper).abs() / paper;
            assert!(err < 0.2, "{}: model {:.2} vs paper {:.2}", row.label, row.model_mm2, paper);
        }
    }
    // D-NUCA: adding an LN2 is a small relative area increase (paper: 1.2%).
    let model = AreaModel::paper();
    let dnuca = model.dnuca_mm2(32, 256 * 1024);
    let ln2_tiles = model.lnuca_mm2(32 * 1024, 5, 8 * 1024) - model.l1_mm2(32 * 1024);
    assert!(ln2_tiles / dnuca < 0.05);
}

/// Table III shape: the per-level hit distribution decreases outward, the
/// FP suite spreads more of its reuse into the outer levels than the INT
/// suite, and the transport network stays essentially contention-free.
#[test]
fn hit_distribution_claims_hold() {
    let study = conventional_study(&reduced_options());
    let rows = study.hit_distribution();
    assert!(!rows.is_empty());
    for row in &rows {
        // Monotone decrease from Le2 outward.
        for pair in row.level_percent.windows(2) {
            assert!(
                pair[0] >= pair[1] - 1e-9,
                "{} {:?}: level percentages must not increase outward: {:?}",
                row.label,
                row.suite,
                row.level_percent
            );
        }
        // Near-contention-free transport (paper: below 1.015; we allow a
        // small margin for the reduced runs).
        assert!(
            row.avg_to_min_transport < 1.05,
            "{} {:?}: transport ratio {}",
            row.label,
            row.suite,
            row.avg_to_min_transport
        );
        assert!(row.all_levels_percent > 10.0, "the fabric must capture a visible share");
    }
    // The 3-level fabric captures at least as much as the 2-level one.
    let total_for = |label_prefix: &str, suite: Suite| {
        rows.iter()
            .find(|r| r.label.starts_with(label_prefix) && r.suite == suite)
            .map(|r| r.all_levels_percent)
            .expect("row present")
    };
    assert!(total_for("LN3", Suite::Integer) >= total_for("LN2", Suite::Integer) - 1e-9);
    assert!(
        total_for("LN3", Suite::FloatingPoint) >= total_for("LN2", Suite::FloatingPoint) - 1e-9
    );
}

/// Energy shape of Fig. 4(b): static L3 energy dominates every configuration,
/// and the tiles of an L-NUCA leak less than the L2 they replace.
#[test]
fn energy_breakdown_claims_hold() {
    let study = conventional_study(&reduced_options());
    let rows = study.energy_summary();
    let baseline = &rows[0];
    assert!(baseline.static_last > baseline.dynamic);
    assert!(baseline.static_last > baseline.static_second);
    for row in &rows {
        assert!(row.static_last > 0.5, "{}: the L3 leakage dominates the bar", row.label);
        if row.label.starts_with("LN2") || row.label.starts_with("LN3") {
            assert!(
                row.static_second < baseline.static_second,
                "{}: tiles must leak less than the 256 KB L2",
                row.label
            );
        }
    }
}

/// D-NUCA study direction (Fig. 5(a)): adding an L-NUCA in front of the
/// D-NUCA does not hurt either suite on the reduced runs.
#[test]
fn lnuca_plus_dnuca_does_not_regress() {
    let opts = ExperimentOptions::builder()
        .instructions(12_000)
        .seed(3)
        .benchmarks_per_suite(Some(2))
        .lnuca_levels(vec![2])
        .build();
    let plan = ExperimentPlan::paper_dnuca(&opts).expect("valid configurations");
    let study = Study::run(&plan).expect("valid configurations");
    let ipc = study.ipc_summary();
    let baseline = &ipc[0];
    let ln2 = &ipc[1];
    assert!(
        ln2.int_ipc >= baseline.int_ipc * 0.97,
        "LN2 + DN-4x8 Integer IPC {} fell well below DN-4x8 {}",
        ln2.int_ipc,
        baseline.int_ipc
    );
    assert!(
        ln2.fp_ipc >= baseline.fp_ipc * 0.97,
        "LN2 + DN-4x8 FP IPC {} fell well below DN-4x8 {}",
        ln2.fp_ipc,
        baseline.fp_ipc
    );
}

/// The IPC summary always reports the baseline first with zero gain, and
/// every configuration yields finite, positive IPC for both suites.
#[test]
fn ipc_summaries_are_well_formed() {
    let study = conventional_study(&reduced_options());
    let rows = study.ipc_summary();
    assert_eq!(rows[0].label, study.baseline);
    assert!(rows[0].int_gain_pct.abs() < 1e-9);
    assert!(rows[0].fp_gain_pct.abs() < 1e-9);
    for row in &rows {
        assert!(row.int_ipc.is_finite() && row.int_ipc > 0.0);
        assert!(row.fp_ipc.is_finite() && row.fp_ipc > 0.0);
    }
}
