//! The batch-equivalence matrix (DESIGN.md §13): every paper preset ×
//! every shipped workload profile (the paper's 22 plus the 7 adversarial
//! classes) × 3 seeds, run through `BatchRunner` at batch sizes
//! {1, 3, 8, full} and pinned bit-identical — `RunResult` and probe event
//! stream — to the sequential engine.
//!
//! The sequential side of each comparison is the full differential oracle
//! (`lnuca_verify::batch::SequentialBaseline`), so a batched run is not
//! merely "same as solo" but "same as a solo run the reference model
//! signed off on". Each paper preset is one test so the quadrants run in
//! parallel; each preset's 87-case baseline is captured once and reused by
//! all four batched passes. `LNUCA_VERIFY_INSTRUCTIONS` scales the per-run
//! budget (default 700 here: the matrix is stepped five times over).

use lnuca_sim::configs;
use lnuca_sim::spec::{BackingSpec, HierarchySpec};
use lnuca_sim::system::{Engine, System};
use lnuca_sim::{BatchJob, BatchRunner};
use lnuca_verify::batch::{BatchCase, SequentialBaseline};
use lnuca_workloads::suites;

const SEEDS: [u64; 3] = [1, 2, 3];

/// Batch sizes every preset is checked at; 0 is the full-width batch.
const BATCH_SIZES: [usize; 4] = [1, 3, 8, 0];

fn instructions() -> u64 {
    std::env::var("LNUCA_VERIFY_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(700)
}

fn verify_spec(spec: &HierarchySpec) {
    let instructions = instructions();
    let cases: Vec<BatchCase> = suites::extended()
        .into_iter()
        .flat_map(|profile| {
            SEEDS.map(|seed| BatchCase {
                spec: spec.clone(),
                profile: profile.clone(),
                instructions,
                seed,
            })
        })
        .collect();
    let expected = cases.len();
    assert_eq!(expected, 29 * SEEDS.len(), "the shipped profile set is the verify matrix");
    let baseline = match SequentialBaseline::capture(Engine::EventHorizon, cases) {
        Ok(baseline) => baseline,
        Err(e) => panic!("{e}"),
    };
    for batch_size in BATCH_SIZES {
        match baseline.check_batched(batch_size) {
            Ok(report) => {
                assert_eq!(report.runs, expected, "width {} compared every run", report.batch_size)
            }
            Err(e) => panic!("{e}"),
        }
    }
}

#[test]
fn conventional_batches_are_bit_identical() {
    verify_spec(&HierarchySpec::conventional());
}

#[test]
fn lnuca_l3_batches_are_bit_identical() {
    verify_spec(&HierarchySpec::lnuca_l3(3).unwrap());
}

#[test]
fn dnuca_batches_are_bit_identical() {
    verify_spec(&HierarchySpec::dnuca());
}

#[test]
fn lnuca_dnuca_batches_are_bit_identical() {
    verify_spec(&HierarchySpec::lnuca_dnuca(2).unwrap());
}

/// Multicore members batch bit-identically too: a mixed batch of CMP
/// shapes (2-core over L3, 4-core private-fabric over D-NUCA, and a
/// single-core control) reproduces each member's solo `RunResult` —
/// per-core rows and coherence counters included — under both engines
/// and at every width.
#[test]
fn cmp_batches_are_bit_identical_under_both_engines() {
    let cmp = |cores: usize, fabric: bool, backing: BackingSpec| {
        let mut builder = HierarchySpec::builder().backing(backing).cores(cores);
        if fabric {
            builder = builder.fabric(lnuca_core::LNucaConfig::paper(2).unwrap());
        }
        builder.build().unwrap()
    };
    let specs = [
        cmp(2, false, BackingSpec::Cache(configs::paper_l3())),
        cmp(4, true, BackingSpec::DNuca(lnuca_dnuca::DNucaConfig::paper())),
        cmp(1, true, BackingSpec::Cache(configs::paper_l3())),
    ];
    let profiles = suites::adversarial();
    let cases: Vec<(usize, u64)> = (0..specs.len())
        .flat_map(|i| SEEDS.map(|seed| (i, seed)))
        .collect();
    for engine in [Engine::EventHorizon, Engine::CycleStep] {
        let solo: Vec<_> = cases
            .iter()
            .map(|&(i, seed)| {
                System::run_spec_with(
                    engine,
                    &specs[i],
                    &profiles[i * 2],
                    400 + 37 * i as u64,
                    seed,
                )
                .unwrap()
            })
            .collect();
        for batch_size in [1, 2, 0] {
            let jobs: Vec<BatchJob<'_>> = cases
                .iter()
                .map(|&(i, seed)| BatchJob {
                    spec: &specs[i],
                    profile: &profiles[i * 2],
                    instructions: 400 + 37 * i as u64,
                    seed,
                })
                .collect();
            let width = if batch_size == 0 {
                jobs.len()
            } else {
                batch_size
            };
            let batched: Vec<_> = jobs
                .chunks(width)
                .flat_map(|chunk| BatchRunner::new(engine, chunk).unwrap().run_results())
                .collect();
            assert_eq!(solo, batched, "{engine:?} width {width} diverged from solo CMP runs");
        }
    }
}

/// Mixed-kind batches under both engines: one batch holding all four paper
/// shapes at different budgets must still reproduce each member's solo
/// run, including under the cycle-step engine the matrix above skips.
#[test]
fn mixed_kind_batches_are_bit_identical_under_both_engines() {
    let specs = [
        HierarchySpec::conventional(),
        HierarchySpec::lnuca_l3(2).unwrap(),
        HierarchySpec::dnuca(),
        HierarchySpec::lnuca_dnuca(3).unwrap(),
    ];
    let profiles = suites::extended();
    for engine in [Engine::EventHorizon, Engine::CycleStep] {
        let cases: Vec<BatchCase> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| BatchCase {
                spec: spec.clone(),
                profile: profiles[i * 5].clone(),
                instructions: instructions() + 137 * i as u64,
                seed: 4 + i as u64,
            })
            .collect();
        let baseline = match SequentialBaseline::capture(engine, cases) {
            Ok(baseline) => baseline,
            Err(e) => panic!("{e}"),
        };
        for batch_size in [2, 0] {
            if let Err(e) = baseline.check_batched(batch_size) {
                panic!("{e}");
            }
        }
    }
}
