//! The journal-digest property (DESIGN.md §14): the content-address a
//! study journal is keyed by must be **invariant** under scenario JSON
//! round-trips — exporting a scenario and loading it back must resume the
//! same journal — and **sensitive** to every semantic plan field, so a
//! journal can never be replayed against a plan that would produce
//! different results.

use lnuca_sim::experiments::{ExperimentOptions, ExperimentPlan, WorkloadSelection};
use lnuca_sim::journal::plan_digest;
use lnuca_sim::scenario::{builtin, builtin_names, Scenario};

/// Round-tripping every builtin scenario through its JSON form preserves
/// the journal digest: `export | load` must address the same journal.
#[test]
fn digest_is_invariant_under_scenario_json_round_trip() {
    for name in builtin_names() {
        let scenario = builtin(name).expect("builtin resolves");
        let direct = plan_digest(&scenario.plan).expect("digest computes");
        let round_tripped = Scenario::from_json(&scenario.to_json()).expect("round-trips");
        let back = plan_digest(&round_tripped.plan).expect("digest computes");
        assert_eq!(
            direct, back,
            "scenario {name:?} changes its journal digest across a JSON round-trip"
        );
    }
}

/// Every semantic field of a plan moves the digest; every pure execution
/// knob (thread count, engine, batching, supervision budgets) leaves it
/// unchanged — those may differ between the crashed run and the resume.
#[test]
fn digest_tracks_semantics_and_ignores_execution_knobs() {
    let scenario = builtin("paper-conventional").expect("builtin resolves");
    let base_plan = &scenario.plan;
    let base = plan_digest(base_plan).expect("digest computes");

    let rebuild = |options: ExperimentOptions| {
        let plan = ExperimentPlan::builder(&base_plan.name)
            .configs(base_plan.configs.clone())
            .options(options)
            .build()
            .expect("plan rebuilds");
        plan_digest(&plan).expect("digest computes")
    };

    // Semantic mutations: each must produce a distinct digest.
    let semantic: Vec<ExperimentOptions> = {
        let mut mutated = Vec::new();
        let mut o = base_plan.options.clone();
        o.instructions += 1;
        mutated.push(o);
        let mut o = base_plan.options.clone();
        o.seed += 1;
        mutated.push(o);
        let mut o = base_plan.options.clone();
        o.benchmarks_per_suite = Some(1);
        mutated.push(o);
        let mut o = base_plan.options.clone();
        o.workloads = WorkloadSelection::Adversarial;
        mutated.push(o);
        mutated
    };
    let mut digests = vec![base];
    for options in semantic {
        let digest = rebuild(options);
        assert!(
            !digests.contains(&digest),
            "a semantic mutation failed to move the journal digest"
        );
        digests.push(digest);
    }

    // Execution knobs: identical digest, so a journal survives re-running
    // the study with different parallelism or supervision settings.
    let knobs: Vec<ExperimentOptions> = {
        let mut mutated = Vec::new();
        let mut o = base_plan.options.clone();
        o.threads += 7;
        mutated.push(o);
        let mut o = base_plan.options.clone();
        o.batch_size += 3;
        mutated.push(o);
        let mut o = base_plan.options.clone();
        o.cycle_budget = Some(u64::MAX);
        o.run_timeout_ms = Some(u64::MAX);
        o.livelock_window = Some(u64::MAX);
        o.retries = 9;
        mutated.push(o);
        mutated
    };
    for options in knobs {
        assert_eq!(rebuild(options), base, "an execution knob moved the journal digest");
    }

    // Dropping a configuration is semantic too.
    let fewer = ExperimentPlan::builder(&base_plan.name)
        .configs(base_plan.configs[..base_plan.configs.len() - 1].to_vec())
        .options(base_plan.options.clone())
        .build()
        .expect("plan rebuilds");
    assert_ne!(
        plan_digest(&fewer).expect("digest computes"),
        base,
        "removing a configuration must move the journal digest"
    );
}
