//! Golden pins of the scenario redesign:
//!
//! 1. the committed `scenarios/*.json` files are byte-for-byte the
//!    canonical serializations of the built-in registry (schema drift in
//!    either place fails here before it fails in CI),
//! 2. running the six paper configurations through the scenario files and
//!    `Study::run` produces `RunResult`s **bit-identical** to the
//!    programmatic paper plans (`ExperimentPlan::paper_conventional` /
//!    `ExperimentPlan::paper_dnuca`),
//! 3. a non-paper hierarchy loaded from a scenario file runs end to end,
//! 4. every built-in plan keeps its journal digest.
//!
//! (The differential-oracle coverage of the non-paper shapes lives in
//! `crates/verify/tests/custom_shapes.rs`.)

use lnuca_suite::sim::experiments::{ExperimentOptions, ExperimentPlan, Study};
use lnuca_suite::sim::journal;
use lnuca_suite::sim::scenario::{self, Scenario};
use std::path::PathBuf;

fn scenario_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.json"))
}

fn load(name: &str) -> Scenario {
    let path = scenario_path(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Scenario::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Small options for the equivalence runs: every configuration of both
/// studies, one benchmark per suite.
fn reduced_options() -> ExperimentOptions {
    ExperimentOptions::builder()
        .instructions(3_000)
        .seed(5)
        .benchmarks_per_suite(Some(1))
        .lnuca_levels(vec![2, 3, 4])
        .build()
}

#[test]
fn committed_scenario_files_are_the_canonical_builtins() {
    for name in scenario::builtin_names() {
        let builtin = scenario::builtin(name).expect("registry resolves its own names");
        let committed = load(name);
        assert_eq!(
            committed, builtin,
            "{name}: scenarios/{name}.json drifted from the built-in \
             (regenerate with `lnuca export {name}`)"
        );
        let canonical = builtin.to_json();
        let on_disk = std::fs::read_to_string(scenario_path(name)).expect("read back");
        assert_eq!(
            on_disk, canonical,
            "{name}: the committed file is not in canonical form \
             (regenerate with `lnuca export {name}`)"
        );
    }
}

/// Acceptance pin: the six paper configurations (L2-256KB, LN2/LN3/LN4 + L3,
/// DN-4x8, LNx + DN-4x8), driven through the committed scenario files and
/// the one `Study::run` entry point, are bit-identical to the programmatic
/// paper plans.
#[test]
fn scenario_runs_are_bit_identical_to_the_programmatic_paper_plans() {
    let opts = reduced_options();

    let conventional = ExperimentPlan::paper_conventional(&opts).expect("valid configurations");
    let dnuca = ExperimentPlan::paper_dnuca(&opts).expect("valid configurations");
    for (file, programmatic_plan) in [("paper-conventional", conventional), ("paper-dnuca", dnuca)]
    {
        let programmatic_study = Study::run(&programmatic_plan).expect("valid configurations");
        let mut plan = load(file).plan;
        plan.options = opts.clone();
        let scenario_study = Study::run(&plan).expect("valid configurations");

        assert_eq!(scenario_study.configs, programmatic_study.configs, "{file}: same matrix");
        assert_eq!(scenario_study.baseline, programmatic_study.baseline);
        assert_eq!(
            scenario_study.results, programmatic_study.results,
            "{file}: RunResults must be bit-identical between the scenario \
             path and the programmatic paper plan"
        );
        // The derived summaries follow, but they are what the figures print.
        assert_eq!(scenario_study.ipc_summary(), programmatic_study.ipc_summary());
        assert_eq!(scenario_study.energy_summary(), programmatic_study.energy_summary());
        assert_eq!(scenario_study.hit_distribution(), programmatic_study.hit_distribution());
    }
}

#[test]
fn non_paper_hierarchies_run_from_their_scenario_files() {
    let mut plan = load("ln3-no-l3").plan;
    plan.options = ExperimentOptions::builder()
        .instructions(2_000)
        .benchmarks_per_suite(Some(1))
        .build();
    let study = Study::run(&plan).expect("the composed shapes run");
    assert_eq!(study.configs, vec!["LN3-144KB", "LN3-144KB + mem"]);
    let no_l3: Vec<_> = study.results_for("LN3-144KB + mem").collect();
    assert!(!no_l3.is_empty());
    for result in no_l3 {
        assert!(result.hierarchy.l3.is_none(), "nothing behind the fabric");
        assert!(result.hierarchy.lnuca.is_some());
        assert!(result.hierarchy.memory_accesses > 0, "misses go straight to DRAM");
    }

    let mut plan = load("deep-stack").plan;
    plan.options = ExperimentOptions::builder()
        .instructions(2_000)
        .benchmarks_per_suite(Some(1))
        .build();
    let study = Study::run(&plan).expect("the deep stack runs");
    let deep_label = &study.configs[1];
    for result in study.results_for(deep_label) {
        assert_eq!(result.hierarchy.deeper_levels.len(), 1, "the L2B level reports stats");
        assert!(result.hierarchy.l2.is_some() && result.hierarchy.l3.is_some());
    }
}

/// The plan digest is the content address of every journal and every serve
/// cache entry: a changed digest silently orphans both. Each built-in
/// scenario's digest is pinned here, so a change to the scenario encoding
/// (which the digest is computed over) fails loudly instead.
#[test]
fn builtin_plan_digests_are_pinned() {
    for (name, expected) in [
        ("paper-conventional", "66216f53e571f7e0"),
        ("paper-dnuca", "823159020b3382a0"),
        ("adversarial", "647a0d5e8f0d4446"),
        ("ablation-tile-size", "20645a1fce81755e"),
        ("ablation-routing", "c0e30b0aa594ca9d"),
        ("ln3-no-l3", "98c265b2b3466a1a"),
        ("deep-stack", "4e6d8310748e169e"),
        ("trace-replay", "d896ddc7b2ea09ca"),
        ("cmp-sharing", "447bc996c3bfba97"),
        ("cmp-lnuca-dnuca", "29c6635117b655f6"),
    ] {
        let plan = scenario::builtin(name).expect("registry resolves its own names").plan;
        let digest = journal::plan_digest(&plan).expect("built-in workloads resolve");
        assert_eq!(format!("{digest:016x}"), expected, "{name}: plan digest drifted");
    }
    assert_eq!(scenario::builtin_names().len(), 10, "pin the digest of every built-in");
}
