//! End-to-end HTTP tests: a real daemon (accept loop + router + worker
//! pool) on an ephemeral port, driven through the same client codec the
//! hammer harness uses.

use lnuca_serve::{http, router, ServeConfig, Server};
use lnuca_sim::experiments::ExperimentOptions;
use lnuca_sim::scenario;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(120);

fn doc(seed: u64) -> String {
    let mut scenario = scenario::builtin("paper-conventional").expect("builtin scenario");
    scenario.plan.configs.truncate(1);
    let mut options = ExperimentOptions::quick();
    options.seed = seed;
    options.benchmarks_per_suite = Some(1);
    options.threads = 1;
    scenario.plan.options = options;
    scenario.to_json()
}

/// Boots a daemon on an ephemeral port; returns (server, addr, loop handle).
fn boot() -> (Arc<Server>, String, std::thread::JoinHandle<()>) {
    boot_with_capacity(8)
}

/// [`boot`] with a given result-cache (and finished-job) capacity.
fn boot_with_capacity(cache_capacity: usize) -> (Arc<Server>, String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_depth: 4,
        cache_capacity,
        journal_dir: None,
        baseline_path: None,
    });
    let loop_server = Arc::clone(&server);
    let handle = std::thread::spawn(move || {
        router::run_until_drained(&loop_server, listener).expect("serve loop");
    });
    (server, addr, handle)
}

#[test]
fn http_surface_submits_polls_caches_cancels_and_drains() {
    let (server, addr, handle) = boot();

    // Liveness and metrics respond before any job exists.
    let health = http::request(&addr, "GET", "/healthz", b"", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"ok\""));
    let metrics = http::request(&addr, "GET", "/metrics", b"", TIMEOUT).expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.text().contains("lnuca_serve_queue_bound 4"));

    // Submit-and-wait: one round trip, report body, miss header.
    let body = doc(9001);
    let cold = http::request(&addr, "POST", "/v1/jobs?wait=120", body.as_bytes(), TIMEOUT)
        .expect("cold submit");
    assert_eq!(cold.status, 200, "body: {}", cold.text());
    assert_eq!(cold.header("x-lnuca-cache"), Some("miss"));
    assert_eq!(cold.header("x-lnuca-job-state"), Some("done"));
    let report = serde::json::parse(&cold.text()).expect("report parses");
    scenario::validate_report(&report).expect("report validates");

    // Resubmission: cache hit, byte-identical body, hit header.
    let warm = http::request(&addr, "POST", "/v1/jobs?wait=120", body.as_bytes(), TIMEOUT)
        .expect("warm submit");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-lnuca-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "hit must be byte-identical");

    // Async submit + poll + DELETE round trip.
    let async_body = doc(9002);
    let accepted = http::request(&addr, "POST", "/v1/jobs", async_body.as_bytes(), TIMEOUT)
        .expect("async submit");
    assert_eq!(accepted.status, 202);
    let parsed = serde::json::parse(&accepted.text()).expect("ticket parses");
    let id = parsed
        .get("id")
        .and_then(|v| v.as_u64())
        .expect("ticket id");
    let polled =
        http::request(&addr, "GET", &format!("/v1/jobs/{id}"), b"", TIMEOUT).expect("poll");
    assert_eq!(polled.status, 200);
    let cancel =
        http::request(&addr, "DELETE", &format!("/v1/jobs/{id}"), b"", TIMEOUT).expect("cancel");
    assert_eq!(cancel.status, 200);

    // Registry-name submission (cancelled immediately — full-scale plans
    // are too heavy for a unit test to run to completion).
    let named = http::request(&addr, "POST", "/v1/scenarios/ln3-no-l3", b"", TIMEOUT)
        .expect("registry submit");
    assert_eq!(named.status, 202);
    let ticket = serde::json::parse(&named.text()).expect("ticket parses");
    let named_id = ticket
        .get("id")
        .and_then(|v| v.as_u64())
        .expect("ticket id");
    let _ = http::request(&addr, "DELETE", &format!("/v1/jobs/{named_id}"), b"", TIMEOUT);

    // Error surface: bad JSON is 400, unknown routes/jobs are 404.
    let bad = http::request(&addr, "POST", "/v1/jobs", b"{ nope", TIMEOUT).expect("bad doc");
    assert_eq!(bad.status, 400);
    let missing = http::request(&addr, "GET", "/v1/jobs/123456", b"", TIMEOUT).expect("missing");
    assert_eq!(missing.status, 404);
    let nowhere = http::request(&addr, "GET", "/nowhere", b"", TIMEOUT).expect("nowhere");
    assert_eq!(nowhere.status, 404);
    let unknown_name =
        http::request(&addr, "POST", "/v1/scenarios/blorp", b"", TIMEOUT).expect("unknown name");
    assert_eq!(unknown_name.status, 400);

    // Drain: the loop notices `begin_drain` (the in-process stand-in for
    // SIGTERM — the signal path itself is covered by the CI serve job),
    // finishes in-flight jobs and returns; afterwards the port is closed.
    server.begin_drain();
    handle.join().expect("serve loop exits cleanly");
    assert!(
        http::request(&addr, "GET", "/healthz", b"", Duration::from_secs(2)).is_err(),
        "listener must be closed after the drain"
    );
}

#[test]
fn an_evicted_job_id_answers_404() {
    // Capacity 1: the second finished job evicts the first one's record.
    // Ids count up from 0 in a fresh daemon.
    let (server, addr, handle) = boot_with_capacity(1);
    for seed in [9101, 9102] {
        let body = doc(seed);
        let done = http::request(&addr, "POST", "/v1/jobs?wait=120", body.as_bytes(), TIMEOUT)
            .expect("submit");
        assert_eq!(done.status, 200, "body: {}", done.text());
    }
    let evicted = http::request(&addr, "GET", "/v1/jobs/0", b"", TIMEOUT).expect("poll 0");
    assert_eq!(evicted.status, 404, "body: {}", evicted.text());
    let kept = http::request(&addr, "GET", "/v1/jobs/1", b"", TIMEOUT).expect("poll 1");
    assert_eq!(kept.status, 200);
    assert!(kept.text().contains("\"done\""));
    let metrics = http::request(&addr, "GET", "/metrics", b"", TIMEOUT).expect("metrics");
    assert!(metrics.text().contains("lnuca_serve_jobs_evicted_total 1"));
    server.begin_drain();
    handle.join().expect("serve loop exits cleanly");
}
