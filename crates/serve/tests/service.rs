//! In-process integration tests of the daemon core: admission control,
//! cancellation, panic quarantine, and the semantic result cache.
//!
//! These drive [`Server`] directly (no sockets) so every timing-sensitive
//! step can poll job state instead of racing a TCP accept loop; the HTTP
//! surface on top is covered by `tests/http_api.rs` and the CI serve job.

use lnuca_serve::{JobState, ServeConfig, Server, Source, Submission};
use lnuca_sim::experiments::ExperimentOptions;
use lnuca_sim::scenario;
use lnuca_types::RUN_STATUSES;
use std::time::{Duration, Instant};

/// A small single-configuration scenario document. Distinct `seed`s give
/// distinct semantic digests; `instructions` scales how long a job holds
/// its worker.
fn doc(seed: u64, instructions: u64) -> String {
    let mut scenario = scenario::builtin("paper-conventional").expect("builtin scenario");
    scenario.plan.configs.truncate(1);
    let mut options = ExperimentOptions::quick();
    options.seed = seed;
    options.instructions = instructions;
    options.benchmarks_per_suite = Some(1);
    options.threads = 1;
    scenario.plan.options = options;
    scenario.to_json()
}

fn config(workers: usize, queue_depth: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_depth,
        cache_capacity: 8,
        journal_dir: None,
        baseline_path: None,
    }
}

fn accepted_id(submission: Submission) -> u64 {
    match submission {
        Submission::Accepted { id, .. } => id,
        other => panic!("expected Accepted, got {other:?}"),
    }
}

fn wait_terminal(server: &Server, id: u64) -> lnuca_serve::JobSnapshot {
    let snapshot = server
        .wait(id, Duration::from_secs(300))
        .expect("job exists");
    assert!(snapshot.state.is_terminal(), "job {id} still {:?} after 300s", snapshot.state);
    snapshot
}

/// Polls until job `id` is claimed by a worker (deterministic setup for
/// the queue-pressure tests: once the slow job runs, submissions land in
/// the queue, not on a worker).
fn wait_running(server: &Server, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = server.snapshot(id).expect("job exists").state;
        if state == JobState::Running {
            return;
        }
        assert!(
            !state.is_terminal(),
            "job {id} finished ({state:?}) before the test could build queue pressure"
        );
        assert!(Instant::now() < deadline, "job {id} never started running");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn completed_job_is_cached_and_resubmission_is_byte_identical() {
    let server = Server::start(config(2, 8));
    let document = doc(11, 5_000);

    let id = accepted_id(server.submit_document(&document, 0));
    let snapshot = wait_terminal(&server, id);
    assert_eq!(snapshot.state, JobState::Done);
    let report = snapshot.report.expect("done jobs carry a report");
    let parsed = serde::json::parse(&report).expect("report is JSON");
    scenario::validate_report(&parsed).expect("report validates");

    // Same document again: served from the cache, byte for byte, with no
    // new job.
    match server.submit_document(&document, 0) {
        Submission::CacheHit { report: hit, .. } => assert_eq!(
            &*hit, &*report,
            "cache hit must be byte-identical to the run that filled it"
        ),
        other => panic!("expected CacheHit, got {other:?}"),
    }

    // An execution-knob change (threads) keeps the semantic digest: still
    // a hit, still the same bytes.
    let mut knob_variant = scenario::builtin("paper-conventional").expect("builtin scenario");
    knob_variant.plan.configs.truncate(1);
    let mut options = ExperimentOptions::quick();
    options.seed = 11;
    options.instructions = 5_000;
    options.benchmarks_per_suite = Some(1);
    options.threads = 2;
    knob_variant.plan.options = options;
    match server.submit_document(&knob_variant.to_json(), 0) {
        Submission::CacheHit { report: hit, .. } => assert_eq!(&*hit, &*report),
        other => panic!("expected CacheHit for an execution-knob variant, got {other:?}"),
    }

    // A semantic change (seed) misses and runs fresh.
    let id2 = accepted_id(server.submit_document(&doc(12, 5_000), 0));
    let snapshot2 = wait_terminal(&server, id2);
    assert_eq!(snapshot2.state, JobState::Done);
    assert_ne!(
        snapshot2.report.as_deref(),
        Some(&*report),
        "a different seed is a different report"
    );

    let (hits, misses, _) = (
        server
            .metrics()
            .cache_hits_total
            .load(std::sync::atomic::Ordering::Relaxed),
        server
            .metrics()
            .cache_misses_total
            .load(std::sync::atomic::Ordering::Relaxed),
        (),
    );
    assert_eq!(hits, 2, "two hits (identical + knob variant)");
    assert_eq!(misses, 2, "two misses (first submission + seed change)");

    server.begin_drain();
    server.drain_join();
}

#[test]
fn evicted_digest_reruns_and_never_serves_stale_bytes() {
    // Capacity 1: running B evicts A. Resubmitting A must be a fresh run
    // (never a stale hit) and — runs being deterministic — byte-identical
    // to the first A run.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 8,
        cache_capacity: 1,
        journal_dir: None,
        baseline_path: None,
    });
    let doc_a = doc(21, 5_000);
    let doc_b = doc(22, 5_000);

    let a1 = wait_terminal(&server, accepted_id(server.submit_document(&doc_a, 0)));
    assert_eq!(a1.state, JobState::Done);
    let b = wait_terminal(&server, accepted_id(server.submit_document(&doc_b, 0)));
    assert_eq!(b.state, JobState::Done);

    let a2 = match server.submit_document(&doc_a, 0) {
        Submission::Accepted { id, .. } => wait_terminal(&server, id),
        Submission::CacheHit { .. } => panic!("A was evicted; a hit would be stale"),
        other => panic!("unexpected submission outcome {other:?}"),
    };
    assert_eq!(a2.state, JobState::Done);
    assert_eq!(a1.report, a2.report, "the re-run after eviction reproduces the original bytes");
    let evictions = server
        .metrics()
        .cache_evictions_total
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(evictions >= 1, "the eviction is counted");
    server.begin_drain();
    server.drain_join();
}

#[test]
fn admission_control_rejects_work_past_the_queue_bound() {
    // One worker, queue depth 2: with the worker pinned on a slow job, the
    // third queued submission must be refused.
    let server = Server::start(config(1, 2));
    let slow = accepted_id(server.submit_document(&doc(100, 300_000), 0));
    wait_running(&server, slow);

    let q1 = accepted_id(server.submit_document(&doc(101, 5_000), 0));
    let q2 = accepted_id(server.submit_document(&doc(102, 5_000), 0));
    match server.submit_document(&doc(103, 5_000), 0) {
        // No job has completed yet, so there is no service-time sample for
        // the drain ETA; the advice must still be the nonzero floor.
        Submission::Busy { retry_after_secs } => assert_eq!(retry_after_secs, 1),
        other => panic!("expected Busy at the bound, got {other:?}"),
    }
    let rejected = server
        .metrics()
        .rejected_total
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(rejected, 1, "the rejection is counted");

    // The refused submission cost nothing: everything admitted completes.
    for id in [slow, q1, q2] {
        assert_eq!(wait_terminal(&server, id).state, JobState::Done);
    }

    // With completed-job samples on record, the average wall time of these
    // tiny studies is far below a second — the drain ETA must round *up*
    // to 1, never down to `Retry-After: 0` (the hot-retry-loop bug).
    let slow2 = accepted_id(server.submit_document(&doc(110, 300_000), 0));
    wait_running(&server, slow2);
    let q3 = accepted_id(server.submit_document(&doc(111, 5_000), 0));
    let q4 = accepted_id(server.submit_document(&doc(112, 5_000), 0));
    match server.submit_document(&doc(113, 5_000), 0) {
        Submission::Busy { retry_after_secs } => {
            assert!(retry_after_secs >= 1, "a sub-second ETA clamps to 1, got {retry_after_secs}");
        }
        other => panic!("expected Busy at the bound, got {other:?}"),
    }
    for id in [slow2, q3, q4] {
        assert_eq!(wait_terminal(&server, id).state, JobState::Done);
    }
    server.begin_drain();
    server.drain_join();
}

#[test]
fn cancelling_kills_exactly_the_targeted_job() {
    let server = Server::start(config(1, 8));
    let slow = accepted_id(server.submit_document(&doc(200, 300_000), 0));
    wait_running(&server, slow);

    let doomed = accepted_id(server.submit_document(&doc(201, 5_000), 0));
    let survivor = accepted_id(server.submit_document(&doc(202, 5_000), 0));

    assert_eq!(server.cancel(doomed), Some(JobState::Queued));
    let snapshot = wait_terminal(&server, doomed);
    assert_eq!(snapshot.state, JobState::Cancelled);
    assert!(snapshot.report.is_none(), "a queued cancel never simulates");

    // Cancelling a terminal job is a no-op; unknown ids are None.
    assert_eq!(server.cancel(doomed), Some(JobState::Cancelled));
    assert_eq!(server.cancel(999_999), None);

    assert_eq!(wait_terminal(&server, survivor).state, JobState::Done);
    assert_eq!(wait_terminal(&server, slow).state, JobState::Done);
    server.begin_drain();
    server.drain_join();
}

#[test]
fn cancelling_a_running_job_stops_it_at_run_granularity() {
    let server = Server::start(config(1, 8));
    // Two runs (two suites × 1 benchmark): cancel lands after the claim,
    // so completed runs stay and unstarted runs fail as `cancelled`.
    let mut scenario = scenario::builtin("paper-conventional").expect("builtin scenario");
    scenario.plan.configs.truncate(1);
    let mut options = ExperimentOptions::quick();
    options.seed = 300;
    options.instructions = 400_000;
    options.benchmarks_per_suite = Some(2);
    options.threads = 1;
    scenario.plan.options = options;

    let id = accepted_id(server.submit_document(&scenario.to_json(), 0));
    wait_running(&server, id);
    assert_eq!(server.cancel(id), Some(JobState::Running));
    let snapshot = wait_terminal(&server, id);
    assert_eq!(snapshot.state, JobState::Cancelled);
    let report = snapshot.report.expect("a running cancel still reports");
    let parsed = serde::json::parse(&report).expect("report is JSON");
    scenario::validate_report(&parsed).expect("cancelled reports validate");
    assert!(
        report.contains("\"cancelled\""),
        "unstarted runs land as cancelled failure rows"
    );
    assert!(RUN_STATUSES.contains(&"cancelled"));
    server.begin_drain();
    server.drain_join();
}

#[test]
fn poisoned_scenario_fails_its_own_job_and_the_worker_survives() {
    let server = Server::start(config(1, 8));
    // The poison is in the document itself: a cycle budget far below the
    // run's length trips the watchdog in every run of the study.
    let mut scenario = scenario::Scenario::from_json(&doc(777_777, 5_000)).expect("doc parses");
    scenario.plan.options.cycle_budget = Some(100);
    let poison = scenario.to_json();

    let poisoned = accepted_id(server.submit_document(&poison, 0));
    let healthy = accepted_id(server.submit_document(&doc(301, 5_000), 0));
    let (poisoned, healthy) = (wait_terminal(&server, poisoned), wait_terminal(&server, healthy));
    assert_eq!(
        poisoned.state,
        JobState::Degraded,
        "the tripped runs land in the poisoned job's own report"
    );
    let report = poisoned.report.expect("degraded jobs still report");
    assert!(report.contains("\"cycle-budget\""), "failure rows carry the trip status");
    assert_eq!(healthy.state, JobState::Done, "the sibling job is untouched");

    // The worker that absorbed the poison is still alive and runs the
    // next submission — and the degraded report was *not* cached, so the
    // same document is accepted as new work rather than served.
    match server.submit_document(&poison, 0) {
        Submission::Accepted { id, .. } => {
            assert_eq!(wait_terminal(&server, id).state, JobState::Degraded);
        }
        other => panic!("degraded reports must not be cached, got {other:?}"),
    }
    server.begin_drain();
    server.drain_join();
}

#[test]
fn draining_refuses_new_work_and_fails_queued_jobs_as_shutdown() {
    let server = Server::start(config(1, 8));
    let slow = accepted_id(server.submit_document(&doc(400, 300_000), 0));
    wait_running(&server, slow);
    let queued = accepted_id(server.submit_document(&doc(401, 5_000), 0));

    server.begin_drain();
    match server.submit_document(&doc(402, 5_000), 0) {
        Submission::Draining => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    let queued_snapshot = wait_terminal(&server, queued);
    assert_eq!(queued_snapshot.state, JobState::Shutdown);
    // Without a journal the drain lets the running job finish whole.
    assert_eq!(wait_terminal(&server, slow).state, JobState::Done);
    server.drain_join();

    let shutdowns = server
        .metrics()
        .jobs_shutdown_total
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(shutdowns, 1);

    // A cache hit is still served mid-drain: stored bytes admit no work.
    let document = doc(400, 300_000);
    match server.submit_document(&document, 0) {
        Submission::CacheHit { .. } => {}
        other => panic!("expected a drain-time CacheHit, got {other:?}"),
    }
}

#[test]
fn priority_orders_the_queue_and_ties_stay_fifo() {
    let server = Server::start(config(1, 8));
    let slow = accepted_id(server.submit_document(&doc(500, 300_000), 0));
    wait_running(&server, slow);

    // Queue (one worker busy): submitted low-first, expected to *run*
    // high-first, ties FIFO. Each queued job is long enough that its
    // Running phase cannot slip between two 1ms polls.
    let low = accepted_id(server.submit_document(&doc(501, 150_000), 0));
    let tie_a = accepted_id(server.submit_document(&doc(502, 150_000), 5));
    let tie_b = accepted_id(server.submit_document(&doc(503, 150_000), 5));
    let high = accepted_id(server.submit_document(&doc(504, 150_000), 9));

    let expected = [high, tie_a, tie_b, low];
    let mut claim_order: Vec<u64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        for &id in &expected {
            if !claim_order.contains(&id) {
                let state = server.snapshot(id).expect("job exists").state;
                if state == JobState::Running || state.is_terminal() {
                    claim_order.push(id);
                }
            }
        }
        if expected
            .iter()
            .all(|&id| server.snapshot(id).expect("job exists").state.is_terminal())
        {
            break;
        }
        assert!(Instant::now() < deadline, "queue never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(claim_order, expected, "claims must follow priority desc, FIFO within a level");
    for &id in &expected {
        assert_eq!(wait_terminal(&server, id).state, JobState::Done);
    }
    server.begin_drain();
    server.drain_join();
}

#[test]
fn invalid_documents_and_unknown_names_are_rejected_without_a_job() {
    let server = Server::start(config(1, 2));
    match server.submit_document("{ not json", 0) {
        Submission::Invalid(_) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
    match server.submit_document("{\"schema\": \"wrong/v9\", \"name\": \"x\", \"configs\": []}", 0)
    {
        Submission::Invalid(message) => {
            assert!(message.contains("lnuca-scenario/v1"), "got: {message}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    match server.submit_name("no-such-scenario", 0) {
        Submission::Invalid(_) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert_eq!(
        server
            .metrics()
            .jobs_submitted_total
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "rejected documents never become jobs"
    );
    server.begin_drain();
    server.drain_join();
}

/// The registry path mirrors `lnuca run <name>`: regenerated configs under
/// layered env. Submitting a registry name twice hits the cache.
#[test]
fn registry_submission_runs_and_caches_like_the_cli() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_depth: 8,
        cache_capacity: 8,
        journal_dir: None,
        baseline_path: None,
    });
    // `ln3-no-l3` is the smallest builtin (2 configs); still heavy at full
    // scale, so this test only asserts admission + digest plumbing, then
    // cancels before simulating for long.
    let first = match server.submit_name("ln3-no-l3", 0) {
        Submission::Accepted { id, digest } => {
            assert_ne!(digest, 0);
            id
        }
        other => panic!("expected Accepted, got {other:?}"),
    };
    let _ = server.cancel(first);
    let snapshot = wait_terminal(&server, first);
    assert!(matches!(snapshot.state, JobState::Cancelled | JobState::Done));
    server.begin_drain();
    server.drain_join();
}

/// The capacity that bounds the result cache bounds the finished job
/// records too, evicting the least recently used one: finishing, a
/// snapshot and a wait each count as a use.
#[test]
fn finished_job_records_are_bounded_by_the_cache_capacity_in_lru_order() {
    let server = Server::start(ServeConfig {
        cache_capacity: 2,
        ..config(1, 8)
    });
    let docs: Vec<String> = (0..4).map(|k| doc(600 + k, 5_000)).collect();
    let run = |document: &str| {
        let snapshot = wait_terminal(&server, accepted_id(server.submit_document(document, 0)));
        assert_eq!(snapshot.state, JobState::Done);
        snapshot
    };
    let j0 = run(&docs[0]);
    let j1 = run(&docs[1]);
    let j2 = run(&docs[2]);
    assert!(
        server.snapshot(j0.id).is_none(),
        "the untouched oldest record is evicted by the third finish"
    );
    // Reading j1 makes j2 the least recently used finished record.
    assert!(server.snapshot(j1.id).is_some());
    let j3 = run(&docs[3]);

    let live: Vec<u64> = [j0.id, j1.id, j2.id, j3.id]
        .into_iter()
        .filter(|&id| server.snapshot(id).is_some())
        .collect();
    assert_eq!(live, vec![j1.id, j3.id], "the record read in between survives");
    let evicted = server
        .metrics()
        .jobs_evicted_total
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(evicted, 2, "both evictions are counted");

    // The evicted j2's report is still in the result cache (which evicted
    // j0 and j1 instead): resubmitting it is a hit with the same bytes.
    match server.submit_document(&docs[2], 0) {
        Submission::CacheHit { report, .. } => assert_eq!(Some(report), j2.report),
        other => panic!("expected CacheHit for an evicted job's document, got {other:?}"),
    }
    server.begin_drain();
    server.drain_join();
}

/// At capacity 1, two workers finishing close together must never evict a
/// record out from under a `?wait` submitter: each gets its own report.
/// Tiny jobs and several rounds make finishes land close together often.
#[test]
fn concurrent_waiting_submissions_at_capacity_one_each_get_their_own_report() {
    const ROUNDS: u64 = 4;
    const SUBMITTERS: u64 = 24;
    let server = Server::start(ServeConfig {
        cache_capacity: 1,
        ..config(2, SUBMITTERS as usize)
    });
    for round in 0..ROUNDS {
        let start = std::sync::Barrier::new(SUBMITTERS as usize);
        let outcomes: Vec<(u64, Submission, Option<lnuca_serve::JobSnapshot>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..SUBMITTERS)
                    .map(|k| {
                        let (server, start) = (&server, &start);
                        scope.spawn(move || {
                            let seed = 700 + round * 100 + k;
                            let document = doc(seed, 1_000);
                            start.wait();
                            let (submission, waited) = server.submit(
                                Source::Document(&document),
                                0,
                                Some(Duration::from_secs(300)),
                            );
                            (seed, submission, waited)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("submitter"))
                    .collect()
            });
        for (seed, submission, waited) in outcomes {
            let Submission::Accepted { id, digest } = submission else {
                panic!("seed {seed}: expected Accepted, got {submission:?}");
            };
            let snapshot = waited.expect("the waited-on record is never evicted");
            assert_eq!((snapshot.id, snapshot.digest), (id, digest));
            assert_eq!(snapshot.state, JobState::Done, "seed {seed}: {:?}", snapshot.error);
            let report = snapshot.report.expect("done jobs carry a report");
            let parsed = serde::json::parse(&report).expect("report is JSON");
            let reported_seed = parsed
                .get("options")
                .and_then(|options| options.get("seed"))
                .and_then(|seed| seed.as_u64());
            assert_eq!(reported_seed, Some(seed), "each submitter gets its own report");
        }
    }
    let evicted = server
        .metrics()
        .jobs_evicted_total
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(evicted, ROUNDS * SUBMITTERS - 1, "capacity 1 keeps one finished record");
    server.begin_drain();
    server.drain_join();
}
