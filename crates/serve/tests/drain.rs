//! Graceful-drain chaos test at the service layer: SIGTERM-equivalent
//! drain lands mid-study, and a restarted daemon resumes the journal
//! **byte-identically** — the service-level extension of the study-level
//! kill-and-resume guarantees in `crates/verify/tests/chaos.rs` and the
//! CI SIGKILL smoke. (The real SIGTERM → exit-0 path of the daemon binary
//! is exercised by the CI serve job and the hammer's `--drain-pid` phase.)

use lnuca_bench::cli::{self, ResolvedScenario};
use lnuca_serve::{JobState, ServeConfig, Server, Submission};
use lnuca_sim::experiments::{ExperimentOptions, Study};
use lnuca_sim::scenario::{self, Scenario};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A fresh scratch directory under the target-adjacent tmp root. No
/// timestamps: process id + a counter keep concurrent test binaries apart.
fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lnuca-serve-drain-{}-{}-{tag}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A one-configuration, many-run document: enough runs that a drain
/// triggered right after the first journal record lands mid-study.
fn multi_run_doc(seed: u64) -> String {
    let mut scenario = scenario::builtin("paper-conventional").expect("builtin scenario");
    scenario.plan.configs.truncate(1);
    let mut options = ExperimentOptions::quick();
    options.seed = seed;
    options.instructions = 150_000;
    options.benchmarks_per_suite = Some(3);
    options.threads = 1;
    scenario.plan.options = options;
    scenario.to_json()
}

fn accepted_id(submission: Submission) -> u64 {
    match submission {
        Submission::Accepted { id, .. } => id,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

#[test]
fn drain_mid_study_journals_and_a_restarted_daemon_resumes_byte_identical() {
    let journal_dir = scratch_dir("resume");
    let document = multi_run_doc(900);

    // The report an uninterrupted run produces — computed through the
    // exact resolution path the daemon uses.
    let resolved = ResolvedScenario {
        scenario: Scenario::from_json(&document).expect("document parses"),
        from_registry: false,
    };
    let plan = cli::resolved_plan(&resolved).expect("plan resolves");
    let study = Study::run(&plan).expect("uninterrupted run");
    let expected = scenario::report_value(&plan, &study).to_pretty();

    // Daemon A: submit, wait for the first journal record, drain.
    let server_a = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_capacity: 4,
        journal_dir: Some(journal_dir.clone()),
        baseline_path: None,
    });
    let digest = match server_a.submit_document(&document, 0) {
        Submission::Accepted { id, digest } => {
            let journal_path = journal_dir.join(format!("{digest:016x}.jsonl"));
            // Poll for the first *data* record (the journal starts with a
            // header line) so the drain provably lands mid-study.
            let deadline = Instant::now() + Duration::from_secs(120);
            loop {
                let records = std::fs::read_to_string(&journal_path)
                    .map(|text| text.lines().count())
                    .unwrap_or(0);
                if records >= 2 {
                    break;
                }
                assert!(Instant::now() < deadline, "no journal record appeared within 120s");
                std::thread::sleep(Duration::from_millis(1));
            }
            server_a.begin_drain();
            let snapshot = server_a
                .wait(id, Duration::from_secs(300))
                .expect("job exists");
            assert!(
                snapshot.state.is_terminal(),
                "drain must terminate the job, got {:?}",
                snapshot.state
            );
            if snapshot.state == JobState::Shutdown {
                let report = snapshot.report.expect("shutdown still reports");
                assert!(
                    report.contains("\"shutdown\""),
                    "unstarted runs land as shutdown failure rows"
                );
            } else {
                // The study may have raced to completion before the stop
                // was observed; the resume below is then a pure cache of
                // journal replay — still a valid byte-identity check.
                assert_eq!(snapshot.state, JobState::Done);
            }
            digest
        }
        other => panic!("expected Accepted, got {other:?}"),
    };
    server_a.drain_join();
    let journal_path = journal_dir.join(format!("{digest:016x}.jsonl"));

    // Daemon B: same journal dir, same document. The worker resumes the
    // journal (completed runs replayed, the rest simulated) and the final
    // report is byte-identical to the uninterrupted run.
    let server_b = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_capacity: 4,
        journal_dir: Some(journal_dir.clone()),
        baseline_path: None,
    });
    let id = accepted_id(server_b.submit_document(&document, 0));
    let snapshot = server_b
        .wait(id, Duration::from_secs(300))
        .expect("job exists");
    assert_eq!(snapshot.state, JobState::Done, "error: {:?}", snapshot.error);
    let report = snapshot.report.expect("done jobs report");
    assert_eq!(&*report, &expected, "resumed report differs from the uninterrupted run");
    assert!(!journal_path.exists(), "a completed job's journal is consumed");

    // And the resumed result is cached like any other completed job.
    match server_b.submit_document(&document, 0) {
        Submission::CacheHit { report: hit, .. } => assert_eq!(&*hit, &*report),
        other => panic!("expected CacheHit after the resume, got {other:?}"),
    }
    server_b.begin_drain();
    server_b.drain_join();
    let _ = std::fs::remove_dir_all(&journal_dir);
}
