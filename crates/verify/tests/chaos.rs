//! The chaos matrix: deterministic fault injection against the supervised
//! experiment engine (DESIGN.md §14).
//!
//! Every test schedules faults at exact cycles of exact runs through
//! [`lnuca_verify::chaos`] and asserts the supervision layer's contracts:
//! batch quarantine leaves survivors bit-identical to their solo baselines,
//! watchdog trips reproduce identically across engines and are never
//! retried, transient faults are retried to bit-identical results, and a
//! torn study journal resumes to a byte-identical report.
//! `LNUCA_VERIFY_INSTRUCTIONS` scales the per-run instruction budget
//! (default 1 500), matching the differential matrix.

use lnuca_sim::batch::BatchJob;
use lnuca_sim::configs::{self, HierarchyKind};
use lnuca_sim::experiments::{ExperimentOptions, ExperimentPlan, Study};
use lnuca_sim::scenario::report_value;
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::supervise::{run_batch_supervised, run_job_supervised, Supervisor};
use lnuca_sim::system::{Engine, System};
use lnuca_types::RunError;
use lnuca_verify::chaos::{with_fault, without_faults, ChaosPlan, FaultKind, ScheduledFault};
use lnuca_workloads::suites;

fn instructions() -> u64 {
    std::env::var("LNUCA_VERIFY_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1_500)
}

fn fabric_spec() -> HierarchySpec {
    HierarchyKind::LNucaL3(configs::lnuca_hierarchy(2)).to_spec()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("lnuca-chaos-{tag}-{}.jsonl", std::process::id()));
    path
}

/// A panic injected into one member of a batch unwinds the whole batch;
/// quarantine must re-run the survivors solo and hand back results
/// bit-identical to their solo baselines, with only the poisoned member
/// reporting a structured failure.
#[test]
fn batch_panic_quarantines_only_the_poisoned_member() {
    let instructions = instructions();
    let spec = fabric_spec();
    let profiles = suites::spec_int_like();
    assert!(profiles.len() >= 3, "need at least 3 workloads");
    let jobs: Vec<BatchJob<'_>> = profiles[..3]
        .iter()
        .map(|profile| BatchJob {
            spec: &spec,
            profile,
            instructions,
            seed: 1,
        })
        .collect();
    let poisoned = &profiles[1].name;

    // Solo baselines, unsupervised: what every member must equal.
    let baselines: Vec<_> = jobs
        .iter()
        .map(|job| {
            System::run_spec_with(Engine::EventHorizon, job.spec, job.profile, instructions, 1)
                .expect("baseline runs")
        })
        .collect();

    let supervisor = Supervisor::from_options(&ExperimentOptions::default());
    let outcomes = with_fault(
        ScheduledFault {
            workload: Some(poisoned.clone()),
            at_cycle: 40,
            ..ScheduledFault::any()
        },
        || run_batch_supervised(Engine::EventHorizon, &jobs, &supervisor),
    );

    assert_eq!(outcomes.len(), jobs.len());
    for (i, (outcome, baseline)) in outcomes.iter().zip(&baselines).enumerate() {
        if &profiles[i].name == poisoned {
            // Batch pass (attempt 0) + the default single retry (attempt 1),
            // both poisoned: the failure is final and structured.
            let err = outcome.outcome.as_ref().expect_err("poisoned member fails");
            assert_eq!(err.status(), "panic");
            assert!(matches!(err, RunError::Panic { .. }), "got {err:?}");
            assert_eq!(outcome.attempts, 2);
        } else {
            let (result, _) = outcome.outcome.as_ref().expect("survivor succeeds");
            assert_eq!(result, baseline, "survivor {i} drifted from its solo baseline");
            // One lost batch pass, one clean solo re-run.
            assert_eq!(outcome.attempts, 2);
        }
    }
}

/// Cycle-budget and livelock trips are deterministic: identical structured
/// errors from both engines (the horizon clamp guarantees the jumping
/// engine cannot skip the trip cycle), identical whether the job runs solo
/// or as a member of a batch, and never retried.
#[test]
fn watchdog_trips_are_deterministic_across_engines_and_never_retried() {
    let spec = fabric_spec();
    let profile = suites::by_name("int.compress").expect("workload exists");
    let siblings = suites::spec_fp_like();

    for (options, status) in [
        (
            ExperimentOptions::builder().cycle_budget(Some(64)).retries(3).build(),
            "cycle-budget",
        ),
        (
            ExperimentOptions::builder().livelock_window(Some(1)).retries(3).build(),
            "livelock",
        ),
    ] {
        let supervisor = Supervisor::from_options(&options);
        let trips: Vec<_> = [Engine::EventHorizon, Engine::CycleStep]
            .into_iter()
            .map(|engine| {
                let outcome = without_faults(|| {
                    run_job_supervised(engine, &spec, &profile, instructions(), 1, &supervisor)
                });
                let err = outcome.outcome.expect_err("watchdog trips");
                assert_eq!(err.status(), status);
                // Deterministic trips reproduce identically: no retry is
                // ever spent on them, even with retries budgeted.
                assert_eq!(outcome.attempts, 1);

                // The same job as member 1 of a 3-member batch trips with
                // the same error: the batch clamps its horizon exactly as
                // the solo run does.
                let jobs: Vec<BatchJob<'_>> = [&siblings[0], &profile, &siblings[1]]
                    .into_iter()
                    .map(|profile| BatchJob {
                        spec: &spec,
                        profile,
                        instructions: instructions(),
                        seed: 1,
                    })
                    .collect();
                let batched = without_faults(|| run_batch_supervised(engine, &jobs, &supervisor));
                let member = &batched[1];
                assert_eq!(
                    member.outcome.as_ref().expect_err("batched watchdog trips"),
                    &err,
                    "{status} trip differs between solo and batched runs under {engine:?}"
                );
                assert_eq!(member.attempts, 1);
                err
            })
            .collect();
        assert_eq!(trips[0], trips[1], "{status} trip differs between engines");
    }
}

/// A zero wall-clock timeout trips on the first observation of every
/// attempt; as a transient failure it consumes the whole retry budget.
#[test]
fn zero_wall_clock_timeout_consumes_the_retry_budget() {
    let spec = fabric_spec();
    let profile = suites::by_name("int.compress").expect("workload exists");
    let options = ExperimentOptions::builder().run_timeout_ms(Some(0)).retries(2).build();
    let supervisor = Supervisor::from_options(&options);
    let outcome = without_faults(|| {
        run_job_supervised(
            Engine::EventHorizon,
            &spec,
            &profile,
            instructions(),
            1,
            &supervisor,
        )
    });
    let err = outcome.outcome.expect_err("zero timeout always trips");
    assert_eq!(err.status(), "timeout");
    assert_eq!(outcome.attempts, 3, "attempt 0 plus retries = 2");
}

/// A first-attempt-only panic is transient: the bounded retry re-runs the
/// job clean, and the retried result is bit-identical to an unsupervised
/// run — supervision must never perturb simulation state.
#[test]
fn transient_panic_is_retried_to_a_bit_identical_result() {
    let instructions = instructions();
    let spec = fabric_spec();
    let profile = suites::by_name("fp.wave_solver").expect("workload exists");
    let baseline =
        System::run_spec_with(Engine::EventHorizon, &spec, &profile, instructions, 7)
            .expect("baseline runs");

    let supervisor = Supervisor::from_options(&ExperimentOptions::default());
    let outcome = with_fault(
        ScheduledFault {
            workload: Some(profile.name.clone()),
            at_cycle: 25,
            first_attempt_only: true,
            ..ScheduledFault::any()
        },
        || run_job_supervised(Engine::EventHorizon, &spec, &profile, instructions, 7, &supervisor),
    );
    assert_eq!(outcome.attempts, 2);
    let (result, _) = outcome.outcome.expect("retry succeeds");
    assert_eq!(result, baseline);
}

/// An injected clean trip (the fault returns a structured error instead of
/// panicking) quarantines exactly one batch member without unwinding the
/// batch: siblings finish their batched pass on attempt 0.
#[test]
fn injected_trip_quarantines_without_unwinding_the_batch() {
    let instructions = instructions();
    let spec = fabric_spec();
    let profiles = suites::spec_int_like();
    let jobs: Vec<BatchJob<'_>> = profiles[..3]
        .iter()
        .map(|profile| BatchJob {
            spec: &spec,
            profile,
            instructions,
            seed: 1,
        })
        .collect();

    let supervisor = Supervisor::from_options(&ExperimentOptions::default());
    let tripped = &profiles[2].name;
    let outcomes = with_fault(
        ScheduledFault {
            workload: Some(tripped.clone()),
            at_cycle: 10,
            kind: FaultKind::Trip(RunError::CycleBudgetExceeded { budget: 10, at_cycle: 10 }),
            ..ScheduledFault::any()
        },
        || run_batch_supervised(Engine::EventHorizon, &jobs, &supervisor),
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        if &profiles[i].name == tripped {
            let err = outcome.outcome.as_ref().expect_err("tripped member fails");
            assert_eq!(err.status(), "cycle-budget");
            assert_eq!(outcome.attempts, 1, "deterministic trip is never retried");
        } else {
            assert!(outcome.outcome.is_ok(), "sibling {i} must survive in-batch");
            assert_eq!(outcome.attempts, 1, "siblings keep their batched pass");
        }
    }
}

/// A whole study with one deterministically poisoned workload, fanned over
/// worker threads: the study completes, the poisoned runs land in
/// `failures` with a structured status, and every healthy run is
/// bit-identical to the unfaulted study.
#[test]
fn threaded_study_survives_a_poisoned_workload() {
    let options = ExperimentOptions::builder()
        .instructions(instructions())
        .benchmarks_per_suite(Some(2))
        .threads(3)
        .build();
    let plan = ExperimentPlan::builder("chaos-threads")
        .config(fabric_spec())
        .options(options)
        .build()
        .expect("plan is valid");

    let clean = without_faults(|| Study::run(&plan)).expect("clean study runs");
    assert!(clean.failures.is_empty());
    let poisoned = clean.results[0].workload.clone();

    let study = ChaosPlan::new()
        .fault(ScheduledFault {
            workload: Some(poisoned.clone()),
            at_cycle: 30,
            ..ScheduledFault::any()
        })
        .with_chaos(|| Study::run(&plan).expect("poisoned study still completes"));

    assert_eq!(study.failures.len(), 1, "exactly the poisoned workload fails");
    let failure = &study.failures[0];
    assert_eq!(failure.workload, poisoned);
    assert_eq!(failure.error.status(), "panic");
    assert_eq!(failure.attempts, 2, "one retry was spent before giving up");

    let healthy: Vec<_> = clean
        .results
        .iter()
        .filter(|r| r.workload != poisoned)
        .collect();
    assert_eq!(study.results.len(), healthy.len());
    for (faulted, baseline) in study.results.iter().zip(healthy) {
        assert_eq!(faulted, baseline, "healthy run drifted under chaos");
    }
}

/// Kill-and-resume: a journaled study whose journal is torn mid-write
/// resumes to a **byte-identical** report — the checkpoint/resume
/// acceptance gate of DESIGN.md §14.
#[test]
fn torn_journal_resumes_to_a_byte_identical_report() {
    let options = ExperimentOptions::builder()
        .instructions(instructions())
        .benchmarks_per_suite(Some(1))
        .build();
    let plan = ExperimentPlan::builder("chaos-resume")
        .config(fabric_spec())
        .options(options)
        .build()
        .expect("plan is valid");

    let path = temp_path("resume");
    let full =
        without_faults(|| Study::run_journaled(&plan, &path, false)).expect("journaled run succeeds");
    let full_report = report_value(&plan, &full).to_pretty();

    // Tear the journal the way a kill mid-write would: keep the header and
    // the first record, then a truncated half-record.
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let keep: Vec<&str> = text.lines().take(2).collect();
    std::fs::write(&path, format!("{}\n{{\"job\":1,\"result\":{{\"lab", keep.join("\n")))
        .expect("journal writable");

    let resumed =
        without_faults(|| Study::run_journaled(&plan, &path, true)).expect("resume succeeds");
    assert_eq!(
        report_value(&plan, &resumed).to_pretty(),
        full_report,
        "resumed report is not byte-identical"
    );
    std::fs::remove_file(&path).ok();
}
