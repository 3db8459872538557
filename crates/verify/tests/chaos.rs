//! The chaos matrix: deterministic fault injection against the supervised
//! experiment engine (DESIGN.md §14).
//!
//! Every test schedules faults at exact cycles of exact runs through
//! [`lnuca_verify::chaos`] and asserts the supervision layer's contracts:
//! a poisoned job fails alone while every other job of a full-width batch
//! matches its solo baseline on its first attempt, watchdog trips
//! reproduce identically across engines and batch widths and are never
//! retried, transient faults are retried to bit-identical results, a stop
//! raised mid-batch takes effect at the next job, and a torn study journal
//! resumes to a byte-identical report.
//! `LNUCA_VERIFY_INSTRUCTIONS` scales the per-run instruction budget
//! (default 1 500), matching the differential matrix.

use lnuca_sim::experiments::{ExperimentOptions, ExperimentPlan, Study, WorkloadSelection};
use lnuca_sim::scenario::report_value;
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::supervise::{run_job_supervised, FaultHook, RunKey, StopSignal, Supervisor};
use lnuca_sim::system::{Engine, System};
use lnuca_types::RunError;
use lnuca_verify::chaos::{ChaosPlan, FaultKind, ScheduledFault};
use lnuca_workloads::suites;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

fn instructions() -> u64 {
    std::env::var("LNUCA_VERIFY_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1_500)
}

fn fabric_spec() -> HierarchySpec {
    HierarchySpec::lnuca_l3(2).unwrap()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("lnuca-chaos-{tag}-{}.jsonl", std::process::id()));
    path
}

/// A one-configuration plan over `workloads`, all in one full-width batch
/// on one worker. The base seed is 0, so workload `i` runs at seed `i`.
fn full_batch_plan(
    name: &str,
    workloads: &[&str],
    mut options: ExperimentOptions,
) -> ExperimentPlan {
    options.instructions = instructions();
    options.seed = 0;
    options.threads = 1;
    options.batch_size = usize::MAX;
    options.workloads =
        WorkloadSelection::Named(workloads.iter().map(|w| (*w).to_owned()).collect());
    ExperimentPlan::builder(name)
        .config(fabric_spec())
        .options(options)
        .build()
        .expect("plan is valid")
}

/// Runs `plan` as one study whose supervisor carries `hook`.
fn run_hooked(plan: &ExperimentPlan, hook: Arc<FaultHook>) -> Result<Study, RunError> {
    let supervisor = Supervisor::from_options(&plan.options).with_fault_hook(hook);
    Study::run_controlled(plan, None, false, &StopSignal::new(), &supervisor)
}

/// Runs `plan` as one study under `chaos`'s faults and returns, beside
/// it, the highest attempt number each workload's guard was observed at.
fn run_recorded(plan: &ExperimentPlan, chaos: ChaosPlan) -> (Study, BTreeMap<String, u32>) {
    let attempts = Arc::new(Mutex::new(BTreeMap::new()));
    let seen = Arc::clone(&attempts);
    let hook: Arc<FaultHook> = Arc::new(move |key: &RunKey, cycle, _committed| {
        {
            let mut seen = seen.lock().unwrap_or_else(PoisonError::into_inner);
            let max = seen.entry(key.workload.clone()).or_insert(0);
            *max = key.attempt.max(*max);
        }
        chaos.fire(key, cycle)
    });
    let study = run_hooked(plan, hook).expect("the study completes");
    let attempts = attempts
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    (study, attempts)
}

/// A panic injected into one job of a full-width batch fails that job
/// alone: every other job runs to a result bit-identical to its solo
/// baseline on its first and only attempt.
#[test]
fn panic_in_a_full_batch_fails_only_the_poisoned_job() {
    let profiles = suites::spec_int_like();
    assert!(profiles.len() >= 3, "need at least 3 workloads");
    let names: Vec<&str> = profiles[..3].iter().map(|p| p.name.as_str()).collect();
    let plan = full_batch_plan("chaos-panic", &names, ExperimentOptions::default());
    let poisoned = names[1];

    // Solo baselines, unsupervised: what every other job must equal.
    let spec = fabric_spec();
    let baselines: Vec<_> = profiles[..3]
        .iter()
        .zip(0..)
        .map(|(profile, seed)| {
            System::run_spec_with(Engine::EventHorizon, &spec, profile, instructions(), seed)
                .expect("baseline runs")
        })
        .collect();

    let (study, attempts) = run_recorded(
        &plan,
        ChaosPlan::new().fault(ScheduledFault {
            workload: Some(poisoned.to_owned()),
            at_cycle: 40,
            ..ScheduledFault::any()
        }),
    );

    // Attempt 0 plus the default single retry, both poisoned: the failure
    // is final and structured.
    assert_eq!(study.failures.len(), 1, "exactly the poisoned job fails");
    let failure = &study.failures[0];
    assert_eq!(failure.workload, poisoned);
    assert!(matches!(failure.error, RunError::Panic { .. }), "got {:?}", failure.error);
    assert_eq!(failure.attempts, 2);

    let healthy: Vec<_> = baselines
        .iter()
        .filter(|r| r.workload != poisoned)
        .collect();
    assert_eq!(study.results.iter().collect::<Vec<_>>(), healthy);
    for name in names.iter().filter(|&&n| n != poisoned) {
        assert_eq!(attempts.get(*name), Some(&0), "{name} needed more than one attempt");
    }
}

/// Cycle-budget and livelock trips are deterministic: identical structured
/// errors from both engines (the horizon clamp guarantees the jumping
/// engine cannot skip the trip cycle), identical whether the job runs solo
/// or inside a full-width batch of a study, and never retried.
#[test]
fn watchdog_trips_are_deterministic_across_engines_and_never_retried() {
    let spec = fabric_spec();
    let profile = suites::by_name("int.compress").expect("workload exists");
    let siblings = suites::spec_fp_like();

    for (options, status) in [
        (
            ExperimentOptions::builder()
                .cycle_budget(Some(64))
                .retries(3)
                .build(),
            "cycle-budget",
        ),
        (
            ExperimentOptions::builder()
                .livelock_window(Some(1))
                .retries(3)
                .build(),
            "livelock",
        ),
    ] {
        let supervisor = Supervisor::from_options(&options);
        let trips: Vec<_> = [Engine::EventHorizon, Engine::CycleStep]
            .into_iter()
            .map(|engine| {
                let outcome =
                    run_job_supervised(engine, &spec, &profile, instructions(), 1, &supervisor);
                let err = outcome.outcome.expect_err("watchdog trips");
                assert_eq!(err.status(), status);
                // Deterministic trips reproduce identically: no retry is
                // ever spent on them, even with retries budgeted.
                assert_eq!(outcome.attempts, 1);

                // The same job as job 1 of a 3-job full-width batch (so at
                // seed 1) trips with the same error.
                let mut batch_options = options.clone();
                batch_options.engine = engine;
                let plan = full_batch_plan(
                    "chaos-trip",
                    &[&siblings[0].name, &profile.name, &siblings[1].name],
                    batch_options,
                );
                let batched = Study::run(&plan).expect("the study completes");
                let member = batched
                    .failures
                    .iter()
                    .find(|f| f.workload == profile.name)
                    .expect("batched watchdog trips");
                assert_eq!(
                    member.error, err,
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
    let options = ExperimentOptions::builder()
        .run_timeout_ms(Some(0))
        .retries(2)
        .build();
    let supervisor = Supervisor::from_options(&options);
    let outcome =
        run_job_supervised(Engine::EventHorizon, &spec, &profile, instructions(), 1, &supervisor);
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
    let baseline = System::run_spec_with(Engine::EventHorizon, &spec, &profile, instructions, 7)
        .expect("baseline runs");

    let chaos = ChaosPlan::new().fault(ScheduledFault {
        workload: Some(profile.name.clone()),
        at_cycle: 25,
        first_attempt_only: true,
        ..ScheduledFault::any()
    });
    let supervisor =
        Supervisor::from_options(&ExperimentOptions::default()).with_fault_hook(chaos.hook());
    let outcome =
        run_job_supervised(Engine::EventHorizon, &spec, &profile, instructions, 7, &supervisor);
    assert_eq!(outcome.attempts, 2);
    let (result, _) = outcome.outcome.expect("retry succeeds");
    assert_eq!(result, baseline);
}

/// An injected clean trip (the fault returns a structured error instead of
/// panicking) fails exactly one job of a full-width batch, on its first
/// attempt: every other job succeeds on its first attempt too.
#[test]
fn injected_trip_fails_one_job_of_a_full_batch() {
    let profiles = suites::spec_int_like();
    let names: Vec<&str> = profiles[..3].iter().map(|p| p.name.as_str()).collect();
    let plan = full_batch_plan("chaos-injected-trip", &names, ExperimentOptions::default());
    let tripped = names[2];
    let (study, attempts) = run_recorded(
        &plan,
        ChaosPlan::new().fault(ScheduledFault {
            workload: Some(tripped.to_owned()),
            at_cycle: 10,
            kind: FaultKind::Trip(RunError::CycleBudgetExceeded {
                budget: 10,
                at_cycle: 10,
            }),
            ..ScheduledFault::any()
        }),
    );
    assert_eq!(study.failures.len(), 1, "exactly the tripped job fails");
    let failure = &study.failures[0];
    assert_eq!(failure.workload, tripped);
    assert_eq!(failure.error.status(), "cycle-budget");
    assert_eq!(failure.attempts, 1, "deterministic trip is never retried");
    assert_eq!(study.results.len(), 2);
    for name in &names {
        assert_eq!(attempts.get(*name), Some(&0), "{name} needed more than one attempt");
    }
}

/// A stop raised from inside the first job of a full-width batch takes
/// effect at the next job: job 0 finishes and is journaled at once, and
/// every later job reports the stop without being simulated.
#[test]
fn stop_raised_in_the_first_job_of_a_full_batch_cancels_the_rest() {
    let profiles = suites::spec_int_like();
    let names: Vec<&str> = profiles[..4].iter().map(|p| p.name.as_str()).collect();
    let plan = full_batch_plan("chaos-stop", &names, ExperimentOptions::default());
    let first = names[0].to_owned();
    let path = temp_path("stop");
    let stop = StopSignal::new();
    let raise = stop.clone();
    let supervisor = Supervisor::from_options(&plan.options).with_fault_hook(Arc::new(
        move |key: &RunKey, _cycle, _committed| {
            if key.workload == first {
                raise.cancel();
            }
            None
        },
    ));
    let study = Study::run_controlled(&plan, Some(&path), false, &stop, &supervisor)
        .expect("the stopped study completes");

    assert_eq!(study.results.len(), 1, "job 0 was already running and finishes");
    assert_eq!(study.results[0].workload, names[0]);
    assert_eq!(study.failures.len(), names.len() - 1);
    for failure in &study.failures {
        assert_eq!(failure.error, RunError::Cancelled, "{}", failure.workload);
        assert_eq!(failure.attempts, 0, "{} was simulated after the stop", failure.workload);
    }
    let journal = std::fs::read_to_string(&path).expect("journal readable");
    let records: Vec<&str> = journal.lines().skip(1).collect();
    assert_eq!(records.len(), 1, "only job 0 is journaled");
    assert!(records[0].starts_with("{\"job\":0,"), "got {}", records[0]);
    std::fs::remove_file(&path).ok();
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

    let clean = Study::run(&plan).expect("clean study runs");
    assert!(clean.failures.is_empty());
    let poisoned = clean.results[0].workload.clone();

    let chaos = ChaosPlan::new().fault(ScheduledFault {
        workload: Some(poisoned.clone()),
        at_cycle: 30,
        ..ScheduledFault::any()
    });
    let study = run_hooked(&plan, chaos.hook()).expect("poisoned study still completes");

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
    let full = Study::run_journaled(&plan, &path, false).expect("journaled run succeeds");
    let full_report = report_value(&plan, &full).to_pretty();

    // Tear the journal the way a kill mid-write would: keep the header and
    // the first record, then a truncated half-record.
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let keep: Vec<&str> = text.lines().take(2).collect();
    std::fs::write(&path, format!("{}\n{{\"job\":1,\"result\":{{\"lab", keep.join("\n")))
        .expect("journal writable");

    let resumed = Study::run_journaled(&plan, &path, true).expect("resume succeeds");
    assert_eq!(
        report_value(&plan, &resumed).to_pretty(),
        full_report,
        "resumed report is not byte-identical"
    );
    std::fs::remove_file(&path).ok();
}
