//! Property test (DESIGN.md §13): arbitrary batch partitionings and
//! member permutations of a random job set must yield per-run outcomes
//! bit-identical to the solo engine — batch composition can never leak
//! between members, whatever the cut or the neighbours.
//!
//! The vendored `proptest!` macro always draws its full 256-case budget,
//! which is far too many full simulations; these tests instead drive the
//! shim's [`test_runner::TestRunner`] directly with a reduced budget,
//! drawing from the same strategy combinators. Solo baselines are memoised
//! across cases so each distinct (spec, profile, budget, seed) job is
//! simulated sequentially only once.

use std::collections::HashMap;

use lnuca_sim::batch::{BatchJob, BatchRunner};
use lnuca_sim::experiments::{ExperimentOptions, ExperimentPlan, Study, WorkloadSelection};
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::system::{Engine, RunResult, System};
use lnuca_workloads::{suites, WorkloadProfile};
use proptest::{collection, test_runner::TestRunner, Strategy};

/// Job identity within one drawn case: indices into the spec/profile
/// pools plus the per-run knobs. Hashable so solo baselines memoise.
type JobKey = (usize, usize, u64, u64);

fn spec_pool() -> Vec<HierarchySpec> {
    vec![
        HierarchySpec::conventional(),
        HierarchySpec::lnuca_l3(2).unwrap(),
        HierarchySpec::dnuca(),
        HierarchySpec::lnuca_dnuca(3).unwrap(),
    ]
}

fn profile_pool() -> Vec<WorkloadProfile> {
    suites::extended()
}

/// Applies a drawn swap list as a permutation of `0..len` (any permutation
/// is reachable through transpositions; the draw just samples them).
fn permutation(len: usize, swaps: &[(usize, usize)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    if len == 0 {
        return order;
    }
    for &(a, b) in swaps {
        order.swap(a % len, b % len);
    }
    order
}

/// Solo baseline for one job, memoised across property cases.
fn solo(
    cache: &mut HashMap<(Engine, JobKey), RunResult>,
    specs: &[HierarchySpec],
    profiles: &[WorkloadProfile],
    engine: Engine,
    key: JobKey,
) -> RunResult {
    cache
        .entry((engine, key))
        .or_insert_with(|| {
            let (spec_idx, profile_idx, instructions, seed) = key;
            System::run_spec_with(
                engine,
                &specs[spec_idx],
                &profiles[profile_idx],
                instructions,
                seed,
            )
            .expect("pool specs are valid")
        })
        .clone()
}

#[test]
fn arbitrary_partitions_and_permutations_preserve_every_run() {
    let specs = spec_pool();
    let profiles = profile_pool();
    let mut runner = TestRunner {
        cases: 10,
        ..TestRunner::default()
    };

    // One case = a random job list, a random permutation of it, and a
    // random list of batch widths applied cyclically as the cut.
    let jobs_strat =
        collection::vec((0..specs.len(), 0..profiles.len(), 200u64..700, 1u64..6), 2..8);
    let swaps_strat = collection::vec((0usize..64, 0usize..64), 0..24);
    let widths_strat = collection::vec(1usize..5, 1..5);

    let mut baselines: HashMap<(Engine, JobKey), RunResult> = HashMap::new();
    for case in 0..runner.cases {
        let job_keys: Vec<JobKey> = jobs_strat.generate(&mut runner.rng);
        let swaps = swaps_strat.generate(&mut runner.rng);
        let widths = widths_strat.generate(&mut runner.rng);
        let engine = if case % 2 == 0 {
            Engine::EventHorizon
        } else {
            Engine::CycleStep
        };

        let order = permutation(job_keys.len(), &swaps);
        let mut batched: Vec<Option<RunResult>> = vec![None; job_keys.len()];
        let mut cursor = 0;
        let mut cut = 0;
        while cursor < order.len() {
            let width = widths[cut % widths.len()];
            cut += 1;
            let members = &order[cursor..(cursor + width).min(order.len())];
            cursor += members.len();
            let jobs: Vec<BatchJob<'_>> = members
                .iter()
                .map(|&original| {
                    let (spec_idx, profile_idx, instructions, seed) = job_keys[original];
                    BatchJob {
                        spec: &specs[spec_idx],
                        profile: &profiles[profile_idx],
                        instructions,
                        seed,
                    }
                })
                .collect();
            let results = BatchRunner::new(engine, &jobs)
                .expect("pool specs are valid")
                .run_results();
            for (&original, result) in members.iter().zip(results) {
                batched[original] = Some(result);
            }
        }

        for (original, result) in batched.into_iter().enumerate() {
            let expect = solo(&mut baselines, &specs, &profiles, engine, job_keys[original]);
            assert_eq!(
                result.as_ref(),
                Some(&expect),
                "case {case}: job #{original} {:?} diverged from its solo run \
                 (permutation {order:?}, widths {widths:?}, {})",
                job_keys[original],
                engine.label(),
            );
        }
    }
}

/// `Study::run` outcomes are invariant to the `batch_size` option: a
/// proptest-drawn batch size (including full-width) must reproduce the
/// per-run path exactly, whatever the thread count.
#[test]
fn study_outcomes_are_invariant_to_batch_size() {
    let mut runner = TestRunner {
        cases: 4,
        ..TestRunner::default()
    };

    let batch_strat = proptest::prop_oneof![2usize..7, proptest::Just(usize::MAX)];
    for case in 0..runner.cases {
        let batch_size = batch_strat.generate(&mut runner.rng);
        let threads = (1usize..3).generate(&mut runner.rng);
        let engine = if case % 2 == 0 {
            Engine::EventHorizon
        } else {
            Engine::CycleStep
        };

        let options = |batch: usize| {
            ExperimentOptions::builder()
                .instructions(400)
                .seed(7 + u64::from(case))
                .benchmarks_per_suite(Some(2))
                .workloads(WorkloadSelection::Adversarial)
                .engine(engine)
                .threads(threads)
                .batch_size(batch)
                .build()
        };
        let plan = |batch: usize| {
            ExperimentPlan::builder("batch-partition-property")
                .config(HierarchySpec::conventional())
                .config(HierarchySpec::lnuca_l3(2).unwrap())
                .options(options(batch))
                .build()
                .expect("plan is valid")
        };

        let sequential = Study::run(&plan(1)).expect("sequential study runs");
        let batched = Study::run(&plan(batch_size)).expect("batched study runs");
        assert_eq!(
            sequential.results, batched.results,
            "case {case}: batch size {batch_size} with {threads} thread(s) \
             changed study outcomes"
        );
        assert_eq!(sequential.configs, batched.configs);
        assert_eq!(sequential.baseline, batched.baseline);
    }
}
