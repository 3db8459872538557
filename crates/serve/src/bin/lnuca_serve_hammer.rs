//! The breaking-point load harness for a live `lnuca-serve` daemon.
//!
//! ```text
//! lnuca-serve-hammer --addr HOST:PORT [--scenario NAME] [--ramp 1,2,4,...]
//!                    [--requests-per-level N] [--out PATH] [--drain-pid PID]
//! ```
//!
//! Three phases against a *running* daemon, asserting the service
//! invariants as it goes and recording the measured breaking points as a
//! JSON document:
//!
//! 1. **cold / warm cache** — submit one scenario twice with `?wait`.
//!    The first response must be a cache miss that runs, the second a
//!    cache hit served **byte-identically** (the harness compares the two
//!    bodies byte for byte).
//! 2. **concurrency ramp** — for each level N, fire N concurrent
//!    submissions with *distinct seeds* (distinct semantic digests, so the
//!    cache cannot absorb them). Every request must complete inside the
//!    client timeout (the no-deadlock invariant: a healthy daemon always
//!    answers, even if the answer is 429), the queue-depth gauge must
//!    never exceed the advertised bound, every `*_total` counter must be
//!    monotone between scrapes, and every 429 must come with
//!    `Retry-After`. The lowest level that drew a 429 is the measured
//!    **admission breaking point**.
//! 3. **sustained stress** — one more burst at the highest ramp level to
//!    observe steady-state throughput, then (with `--drain-pid`) SIGTERM
//!    the daemon mid-load and verify it stops listening within the drain
//!    timeout while the driver (CI) checks the exit status is 0.
//!
//! Any violated invariant exits 1 with the violation on stderr.

use lnuca_serve::http;
use lnuca_sim::scenario;
use serde::json::Value;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Client timeout doubling as the deadlock detector.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

struct Args {
    addr: String,
    scenario: String,
    ramp: Vec<usize>,
    requests_per_level: usize,
    out: Option<String>,
    drain_pid: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        scenario: "paper-conventional".to_owned(),
        ramp: vec![1, 2, 4, 8, 16],
        requests_per_level: 0,
        out: None,
        drain_pid: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--addr" => args.addr = iter.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--scenario" => {
                args.scenario = iter.next().ok_or("--scenario needs a name")?.clone();
            }
            "--ramp" => {
                let spec = iter.next().ok_or("--ramp needs N1,N2,...")?;
                args.ramp = spec
                    .split(',')
                    .map(|n| {
                        n.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("--ramp: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                if args.ramp.is_empty() {
                    return Err("--ramp needs at least one level".into());
                }
            }
            "--requests-per-level" => {
                args.requests_per_level = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--requests-per-level needs an integer")?;
            }
            "--out" => args.out = Some(iter.next().ok_or("--out needs a path")?.clone()),
            "--drain-pid" => {
                args.drain_pid = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--drain-pid needs a pid")?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".into());
    }
    Ok(args)
}

/// Value of an unlabelled series in a Prometheus text exposition.
fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .and_then(|line| line[name.len() + 1..].trim().parse().ok())
}

/// Every monotone counter the harness tracks between scrapes.
const COUNTERS: &[&str] = &[
    "lnuca_serve_requests_total",
    "lnuca_serve_jobs_submitted_total",
    "lnuca_serve_jobs_completed_total",
    "lnuca_serve_jobs_degraded_total",
    "lnuca_serve_jobs_failed_total",
    "lnuca_serve_jobs_cancelled_total",
    "lnuca_serve_jobs_shutdown_total",
    "lnuca_serve_rejected_total",
    "lnuca_serve_cache_hits_total",
    "lnuca_serve_cache_misses_total",
    "lnuca_serve_cache_evictions_total",
];

struct Scraper {
    addr: String,
    last: Vec<(String, f64)>,
    max_queue_depth: f64,
    queue_bound: f64,
}

impl Scraper {
    fn new(addr: &str) -> Self {
        Scraper {
            addr: addr.to_owned(),
            last: Vec::new(),
            max_queue_depth: 0.0,
            queue_bound: f64::INFINITY,
        }
    }

    /// Scrapes `/metrics`, asserting counter monotonicity and the queue
    /// bound against everything seen so far.
    fn scrape(&mut self) -> Result<(), String> {
        let resp = http::request(&self.addr, "GET", "/metrics", b"", CLIENT_TIMEOUT)?;
        if resp.status != 200 {
            return Err(format!("/metrics answered {}", resp.status));
        }
        let text = resp.text();
        let bound = metric(&text, "lnuca_serve_queue_bound")
            .ok_or("queue_bound series missing from /metrics")?;
        self.queue_bound = bound;
        let depth = metric(&text, "lnuca_serve_queue_depth")
            .ok_or("queue_depth series missing from /metrics")?;
        if depth > bound {
            return Err(format!(
                "invariant violated: queue_depth {depth} exceeds the bound {bound}"
            ));
        }
        self.max_queue_depth = self.max_queue_depth.max(depth);
        let mut now = Vec::with_capacity(COUNTERS.len());
        for name in COUNTERS {
            let value =
                metric(&text, name).ok_or_else(|| format!("{name} missing from /metrics"))?;
            if let Some((_, before)) = self.last.iter().find(|(n, _)| n == name) {
                if value < *before {
                    return Err(format!(
                        "invariant violated: counter {name} went backwards ({before} -> {value})"
                    ));
                }
            }
            now.push(((*name).to_owned(), value));
        }
        self.last = now;
        Ok(())
    }

    fn value(&self, name: &str) -> f64 {
        self.last
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The builtin scenario re-seeded so every submission has a distinct
/// semantic digest (the cache cannot absorb ramp load).
fn seeded_document(name: &str, seed: u64) -> Result<String, String> {
    let mut scenario = scenario::builtin(name).map_err(|e| e.to_string())?;
    scenario.plan.options.seed = seed;
    Ok(scenario.to_json())
}

struct LevelOutcome {
    level: usize,
    requests: usize,
    accepted: usize,
    rejected: usize,
    cache_hits: usize,
    slowest_ms: u64,
}

/// Fires `total` submissions at concurrency `level`, waiting for every
/// response. Distinct seeds per request; `?wait` keeps a submission's
/// connection open until its job is terminal, which is what generates
/// real queue pressure with more clients than workers.
fn fire_level(
    addr: &str,
    scenario_name: &str,
    level: usize,
    total: usize,
    seed_base: u64,
) -> Result<LevelOutcome, String> {
    let addr: Arc<str> = Arc::from(addr);
    let scenario_name: Arc<str> = Arc::from(scenario_name);
    let mut outcome = LevelOutcome {
        level,
        requests: total,
        accepted: 0,
        rejected: 0,
        cache_hits: 0,
        slowest_ms: 0,
    };
    let mut sent = 0usize;
    let mut batch_seed = seed_base;
    while sent < total {
        let batch = level.min(total - sent);
        let mut handles = Vec::with_capacity(batch);
        for i in 0..batch {
            let addr = Arc::clone(&addr);
            let scenario_name = Arc::clone(&scenario_name);
            let seed = batch_seed + i as u64;
            handles.push(thread::spawn(move || -> Result<(u16, bool, u64), String> {
                let body = seeded_document(&scenario_name, seed)?;
                let started = Instant::now();
                let resp = http::request(
                    &addr,
                    "POST",
                    "/v1/jobs?wait=120",
                    body.as_bytes(),
                    CLIENT_TIMEOUT,
                )?;
                let elapsed_ms = started.elapsed().as_millis() as u64;
                if resp.status == 429 && resp.header("retry-after").is_none() {
                    return Err("429 without Retry-After".into());
                }
                let cache_hit = resp.header("x-lnuca-cache") == Some("hit");
                Ok((resp.status, cache_hit, elapsed_ms))
            }));
        }
        for handle in handles {
            let (status, cache_hit, elapsed_ms) = handle
                .join()
                .map_err(|_| "client thread panicked".to_owned())??;
            outcome.slowest_ms = outcome.slowest_ms.max(elapsed_ms);
            match status {
                200 | 202 => {
                    outcome.accepted += 1;
                    if cache_hit {
                        outcome.cache_hits += 1;
                    }
                }
                429 => outcome.rejected += 1,
                other => return Err(format!("unexpected status {other} under load")),
            }
        }
        sent += batch;
        batch_seed += batch as u64;
    }
    Ok(outcome)
}

fn run() -> Result<(Value, Option<String>), String> {
    let args = parse_args()?;
    let mut scraper = Scraper::new(&args.addr);
    scraper.scrape()?;

    // Phase 1: cold, then warm. Same document both times.
    eprintln!("phase 1: cold/warm cache on {:?}", args.scenario);
    let doc = seeded_document(&args.scenario, 0xC0FFEE)?;
    let cold_started = Instant::now();
    let cold = http::request(
        &args.addr,
        "POST",
        "/v1/jobs?wait=600",
        doc.as_bytes(),
        Duration::from_secs(600),
    )?;
    let cold_ms = cold_started.elapsed().as_millis() as u64;
    if cold.status != 200 {
        return Err(format!("cold submission answered {}: {}", cold.status, cold.text()));
    }
    if cold.header("x-lnuca-cache") != Some("miss") {
        return Err("cold submission was not a cache miss".into());
    }
    let warm_started = Instant::now();
    let warm =
        http::request(&args.addr, "POST", "/v1/jobs?wait=600", doc.as_bytes(), CLIENT_TIMEOUT)?;
    let warm_ms = warm_started.elapsed().as_millis() as u64;
    if warm.status != 200 || warm.header("x-lnuca-cache") != Some("hit") {
        return Err(format!("warm submission was not a cache hit ({})", warm.status));
    }
    if warm.body != cold.body {
        return Err("invariant violated: cache hit is not byte-identical to the cold run".into());
    }
    scraper.scrape()?;
    if scraper.value("lnuca_serve_cache_hits_total") < 1.0 {
        return Err("cache hit not counted in /metrics".into());
    }

    // Phase 2: the concurrency ramp.
    let mut levels = Vec::new();
    let mut breaking_point: Option<usize> = None;
    let mut seed_base = 0x1000;
    for &level in &args.ramp {
        let total = if args.requests_per_level > 0 {
            args.requests_per_level
        } else {
            level * 2
        };
        eprintln!("phase 2: ramp level {level} ({total} requests)");
        let outcome = fire_level(&args.addr, &args.scenario, level, total, seed_base)?;
        seed_base += total as u64;
        scraper.scrape()?;
        if outcome.rejected > 0 && breaking_point.is_none() {
            breaking_point = Some(level);
        }
        eprintln!(
            "  accepted {} rejected {} cache-hits {} slowest {}ms",
            outcome.accepted, outcome.rejected, outcome.cache_hits, outcome.slowest_ms
        );
        levels.push(outcome);
    }
    let rejected_counted = scraper.value("lnuca_serve_rejected_total");
    let rejected_seen: usize = levels.iter().map(|l| l.rejected).sum();
    if (rejected_counted as usize) < rejected_seen {
        return Err(format!(
            "invariant violated: saw {rejected_seen} 429s but /metrics counts {rejected_counted}"
        ));
    }

    // Phase 3: sustained stress at the top level, then the optional drain.
    let top = *args.ramp.last().expect("ramp is non-empty");
    let sustained_total = if args.requests_per_level > 0 {
        args.requests_per_level * 2
    } else {
        top * 4
    };
    eprintln!("phase 3: sustained stress at level {top} ({sustained_total} requests)");
    let sustained = fire_level(&args.addr, &args.scenario, top, sustained_total, seed_base)?;
    scraper.scrape()?;
    let mut drain_seconds = -1.0f64;
    if let Some(pid) = args.drain_pid {
        eprintln!("phase 3: SIGTERM {pid} and waiting for the listener to close");
        let status = std::process::Command::new("kill")
            .args(["-TERM", &pid.to_string()])
            .status()
            .map_err(|e| format!("kill: {e}"))?;
        if !status.success() {
            return Err(format!("kill -TERM {pid} failed"));
        }
        let started = Instant::now();
        let deadline = started + Duration::from_secs(600);
        loop {
            match http::request(&args.addr, "GET", "/healthz", b"", Duration::from_secs(2)) {
                Err(_) => {
                    drain_seconds = started.elapsed().as_secs_f64();
                    break;
                }
                Ok(_) if Instant::now() > deadline => {
                    return Err(
                        "invariant violated: daemon still listening 600s after SIGTERM".into()
                    )
                }
                Ok(_) => thread::sleep(Duration::from_millis(100)),
            }
        }
        eprintln!("  listener closed {drain_seconds:.1}s after SIGTERM");
    }

    // The report document.
    let out = args.out.clone();
    let level_values: Vec<Value> = levels
        .iter()
        .chain(std::iter::once(&sustained))
        .map(|l| {
            Value::Object(vec![
                ("concurrency".into(), Value::UInt(l.level as u64)),
                ("requests".into(), Value::UInt(l.requests as u64)),
                ("accepted".into(), Value::UInt(l.accepted as u64)),
                ("rejected_429".into(), Value::UInt(l.rejected as u64)),
                ("cache_hits".into(), Value::UInt(l.cache_hits as u64)),
                ("slowest_ms".into(), Value::UInt(l.slowest_ms)),
            ])
        })
        .collect();
    let report = Value::Object(vec![
        ("schema".into(), Value::String("lnuca-serve-hammer/v1".into())),
        ("scenario".into(), Value::String(args.scenario.clone())),
        ("queue_bound".into(), Value::UInt(scraper.queue_bound as u64)),
        ("max_observed_queue_depth".into(), Value::UInt(scraper.max_queue_depth as u64)),
        (
            "admission_breaking_point_concurrency".into(),
            breaking_point.map_or(Value::Null, |l| Value::UInt(l as u64)),
        ),
        ("cold_run_ms".into(), Value::UInt(cold_ms)),
        ("warm_hit_ms".into(), Value::UInt(warm_ms)),
        (
            "drain_seconds".into(),
            if drain_seconds < 0.0 {
                Value::Null
            } else {
                Value::Float(drain_seconds)
            },
        ),
        ("levels".into(), Value::Array(level_values)),
        (
            "invariants".into(),
            Value::Array(
                [
                    "every request answered inside the client timeout (no deadlock)",
                    "queue_depth never exceeded queue_bound",
                    "every *_total counter monotone across scrapes",
                    "every 429 carried Retry-After and was counted in /metrics",
                    "warm cache hit byte-identical to the cold run",
                ]
                .iter()
                .map(|s| Value::String((*s).to_owned()))
                .collect(),
            ),
        ),
    ]);
    Ok((report, out))
}

fn main() -> ExitCode {
    match run() {
        Ok((report, out)) => {
            let text = report.to_pretty();
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &text) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("breaking points written to {path}");
                }
                None => print!("{text}"),
            }
            eprintln!("all invariants held");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lnuca-serve-hammer: {e}");
            ExitCode::FAILURE
        }
    }
}
