//! The `serve-mixed` workload: a one-worker `lnuca-serve` daemon driven by
//! one closed-loop client process over two connections, with a seeded mix
//! of cache hits, fresh submissions, job-status reads and `/metrics`
//! scrapes.

use crate::metrics::{Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_or_max, SplitMix};
use crate::study::{self, Gate};
use crate::traced::LayerTimes;
use lnuca_serve::{http, router, ServeConfig, Server};
use lnuca_sim::scenario::{self, Scenario};
use lnuca_sim::{journal, Study};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Daemon worker threads.
const WORKERS: usize = 1;
/// Closed-loop client connections (one request in flight on each).
const CONNECTIONS: u64 = 2;
/// Daemon admission bound; two connections can never fill it.
const QUEUE_DEPTH: usize = 16;
/// Scenario documents warmed into the result cache during set-up.
const PREWARM: u64 = 4;
/// Daemon set-ups (spawn + pre-warm) per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Instructions per run of a served study (2 configurations x 2 profiles).
const INSTRUCTIONS: u64 = 3_000;
/// Runs per served study.
const RUNS_PER_STUDY: u64 = 4;
/// Fresh documents re-checked after the timed section.
const FRESH_SAMPLES: u64 = 3;
/// Client timeout per request; a failed request counts as taking this long.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// One request kind of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Resubmit a pre-warmed document: a result-cache hit (read path).
    Hit,
    /// Submit a never-seen document: queue, worker, report, cache insert
    /// (write path).
    Fresh,
    /// `GET /v1/jobs/{id}` of a finished job.
    Status,
    /// `GET /metrics`.
    Scrape,
}

/// One closed-loop round per connection: 12 hits, 2 fresh submissions,
/// 4 status reads and 2 scrapes, shuffled per round from the seed.
const ROUND: [Kind; 20] = [
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Fresh,
    Kind::Fresh,
    Kind::Status,
    Kind::Status,
    Kind::Status,
    Kind::Status,
    Kind::Scrape,
    Kind::Scrape,
];

/// `--daemon`: the `lnuca-serve` daemon assembled from the library the
/// release binary uses (`Server::start` + `router::run_until_drained`),
/// bound to an ephemeral loopback port and configured explicitly rather
/// than from `LNUCA_*` knobs. It prints `listening on ADDR`, serves until
/// its standard input closes, then drains and exits 0 — so it can never
/// outlive the benchmark process that spawned it.
pub fn daemon_main() -> ExitCode {
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("daemon: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        cache_capacity: 64,
        journal_dir: None,
        baseline_path: None,
    });
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
    let watcher = std::sync::Arc::clone(&server);
    thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        watcher.begin_drain();
    });
    match router::run_until_drained(&server, listener) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daemon: serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A spawned daemon; killed and reaped on drop if not shut down cleanly.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut command = Command::new(exe);
        command
            .arg("--daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("LNUCA_") {
                command.env_remove(key);
            }
        }
        let mut child = command.spawn().map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("daemon stdout")?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            stdin,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => daemon.addr = addr.to_owned(),
            _ => return Err(format!("daemon did not announce its address: {line:?}")),
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match http::request(&daemon.addr, "GET", "/healthz", b"", TIMEOUT) {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if Instant::now() > deadline => return Err("daemon never became healthy".into()),
                _ => thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes the daemon's standard input (its drain signal) and waits for
    /// it to exit, killing it after 20 s.
    fn shut_down(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                _ => return Err("daemon did not drain within 20 s".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A tiny Fig. 4-shaped study (L2-256KB and LN3-144KB, one INT and one FP
/// profile) with its own trace seed.
#[must_use]
pub fn document(name: &str, seed: u64) -> String {
    let mut s = scenario::builtin("paper-conventional").expect("built-in scenario");
    s.plan.name = name.to_owned();
    s.description = "A small served study: L2-256KB against LN3-144KB.".to_owned();
    s.plan.configs = vec![s.plan.configs[0].clone(), s.plan.configs[2].clone()];
    let o = &mut s.plan.options;
    o.instructions = INSTRUCTIONS;
    o.benchmarks_per_suite = Some(1);
    o.seed = seed;
    o.threads = 1;
    o.batch_size = 1;
    s.to_json()
}

fn warm_seed(base: u64, k: u64) -> u64 {
    base.wrapping_add(k)
}

fn fresh_seed(base: u64, n: u64) -> u64 {
    base.wrapping_add(1_000 + n)
}

/// Per-connection request accounting. A failed request (non-2xx, 429,
/// timeout or transport error) counts against `attempted` and is recorded
/// at the full client timeout, so it misses every latency limit.
#[derive(Debug, Default)]
pub struct RequestLog {
    pub attempted: u64,
    pub failed: u64,
    pub ok: u64,
    pub rejected_429: u64,
    pub timeouts: u64,
    /// Latency (ms) of every request, failures at the timeout.
    pub all_ms: Vec<f64>,
    /// Latency (ms) per kind: hit, fresh, status, scrape.
    pub by_kind_ms: [Vec<f64>; 4],
    /// Host seconds of each completed round.
    pub rounds_s: Vec<f64>,
    pub fresh_done: u64,
    pub queue_depth_max: f64,
    pub problems: Vec<String>,
}

fn kind_index(kind: Kind) -> usize {
    match kind {
        Kind::Hit => 0,
        Kind::Fresh => 1,
        Kind::Status => 2,
        Kind::Scrape => 3,
    }
}

impl RequestLog {
    /// Records one request: its status (or transport error) and latency.
    pub fn record(&mut self, kind: Kind, outcome: &Result<u16, String>, ms: f64) {
        self.attempted += 1;
        let ok = matches!(outcome, Ok(s) if (200..300).contains(s));
        let ms = if ok {
            self.ok += 1;
            ms
        } else {
            self.failed += 1;
            match outcome {
                Ok(429) => self.rejected_429 += 1,
                // A socket read or write timeout surfaces as EAGAIN.
                Err(e) if e.contains("timed out") || e.contains("temporarily unavailable") => {
                    self.timeouts += 1;
                }
                _ => {}
            }
            TIMEOUT.as_secs_f64() * 1e3
        };
        self.all_ms.push(ms);
        self.by_kind_ms[kind_index(kind)].push(ms);
    }

    fn merge(&mut self, other: RequestLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ok += other.ok;
        self.rejected_429 += other.rejected_429;
        self.timeouts += other.timeouts;
        self.all_ms.extend(other.all_ms);
        for (mine, theirs) in self.by_kind_ms.iter_mut().zip(other.by_kind_ms) {
            mine.extend(theirs);
        }
        self.rounds_s.extend(other.rounds_s);
        self.fresh_done += other.fresh_done;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.problems.extend(other.problems);
    }
}

/// The value of an unlabelled series in a Prometheus text exposition.
fn gauge(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Everything a client connection shares with its siblings.
struct Shared<'a> {
    addr: &'a str,
    warm_docs: &'a [String],
    warm_reports: &'a [Vec<u8>],
    seed_base: u64,
    fresh_next: AtomicU64,
    fresh_samples: Mutex<Vec<(String, Vec<u8>)>>,
    deadline: Instant,
}

/// One closed-loop connection: rounds of [`ROUND`], shuffled from
/// `seed`, until the deadline.
fn client(shared: &Shared<'_>, seed: u64) -> RequestLog {
    let mut log = RequestLog::default();
    let mut rng = SplitMix::new(seed);
    let mut schedule = ROUND;
    'rounds: loop {
        rng.shuffle(&mut schedule);
        let round_start = Instant::now();
        for &kind in &schedule {
            if Instant::now() >= shared.deadline {
                break 'rounds;
            }
            let (method, target, body, warm) = match kind {
                Kind::Hit => {
                    let k = (rng.next_u64() % PREWARM) as usize;
                    (
                        "POST",
                        "/v1/jobs?wait=60".to_owned(),
                        shared.warm_docs[k].clone(),
                        Some(k),
                    )
                }
                Kind::Fresh => {
                    let n = shared.fresh_next.fetch_add(1, Ordering::Relaxed);
                    let doc = document("serve-fresh", fresh_seed(shared.seed_base, n));
                    ("POST", "/v1/jobs?wait=60".to_owned(), doc, None)
                }
                Kind::Status => {
                    let id = rng.next_u64() % PREWARM;
                    ("GET", format!("/v1/jobs/{id}"), String::new(), None)
                }
                Kind::Scrape => ("GET", "/metrics".to_owned(), String::new(), None),
            };
            let start = Instant::now();
            let response = http::request(shared.addr, method, &target, body.as_bytes(), TIMEOUT);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            log.record(
                kind,
                &response.as_ref().map(|r| r.status).map_err(String::clone),
                ms,
            );
            let Ok(r) = response else { continue };
            if r.status != 200 {
                continue;
            }
            match kind {
                Kind::Hit => {
                    let k = warm.expect("hits carry their document");
                    if r.body != shared.warm_reports[k] {
                        log.problems
                            .push(format!("hit on warm document {k} differs from its miss"));
                    }
                }
                Kind::Fresh => {
                    if r.header("x-lnuca-cache") != Some("miss")
                        || r.header("x-lnuca-job-state") != Some("done")
                    {
                        log.problems.push(format!(
                            "fresh submission answered {:?} / {:?}",
                            r.header("x-lnuca-cache"),
                            r.header("x-lnuca-job-state")
                        ));
                    }
                    log.fresh_done += 1;
                    // Keep the latest few: older fresh reports may since
                    // have been evicted from the LRU result cache.
                    let mut samples = shared.fresh_samples.lock().expect("samples lock");
                    if samples.len() as u64 == FRESH_SAMPLES {
                        samples.remove(0);
                    }
                    samples.push((body, r.body));
                }
                Kind::Status => {
                    if !r.text().contains("\"done\"") {
                        log.problems.push(format!("{target} is not done"));
                    }
                }
                Kind::Scrape => {
                    let depth = gauge(&r.text(), "lnuca_serve_queue_depth").unwrap_or(0.0);
                    log.queue_depth_max = log.queue_depth_max.max(depth);
                }
            }
        }
        log.rounds_s.push(round_start.elapsed().as_secs_f64());
    }
    log
}

/// Submits `doc` and waits for its report; the response must be a 200.
fn submit(addr: &str, doc: &str) -> Result<http::Message, String> {
    let r = http::request(addr, "POST", "/v1/jobs?wait=60", doc.as_bytes(), TIMEOUT)?;
    if r.status == 200 {
        Ok(r)
    } else {
        Err(format!("submission answered {}: {}", r.status, r.text()))
    }
}

/// Submits every warm document once (cache misses) and returns the
/// served reports.
fn prewarm(daemon: &Daemon, docs: &[String]) -> Result<Vec<Vec<u8>>, String> {
    docs.iter()
        .map(|doc| Ok(submit(&daemon.addr, doc)?.body))
        .collect()
}

fn scrape(addr: &str) -> Result<String, String> {
    let r = http::request(addr, "GET", "/metrics", b"", TIMEOUT)?;
    Ok(r.text())
}

/// Runs `doc` in process and checks the served `report` byte for byte
/// against the in-process rendering. Returns the plan, the study and the
/// `Study::run` host time.
fn replay(
    doc: &str,
    report: &[u8],
    gate: &mut Gate,
) -> Result<(study::Prepared, Study, Duration), String> {
    let (prepared, _) = study::set_up(doc)?;
    let start = Instant::now();
    let s = Study::run(&prepared.plan).map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    gate.check_other(&prepared, &s);
    if scenario::report_value(&prepared.plan, &s)
        .to_pretty()
        .as_bytes()
        != report
    {
        gate.fail(format!(
            "served report of {} differs from the in-process one",
            prepared.plan.name
        ));
    }
    Ok((prepared, s, wall))
}

/// Runs the serve workload and returns its outcome.
///
/// # Errors
///
/// A daemon that cannot start, warm or drain: the run has no result.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let base = seed.wrapping_mul(1_000_003);
    let warm_docs: Vec<String> = (0..PREWARM)
        .map(|k| document(&format!("serve-warm-{k}"), warm_seed(base, k)))
        .collect();
    let mut gate = Gate::default();

    // Set-up: daemon spawn to the first healthy answer, then the cache
    // pre-warm. It is repeated after the timed section (see below).
    let start = Instant::now();
    let daemon = Daemon::spawn()?;
    let warm_reports = prewarm(&daemon, &warm_docs)?;
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let cycles_before =
        gauge(&scrape(&daemon.addr)?, "lnuca_serve_simulated_cycles_total").unwrap_or(0.0);

    let shared = Shared {
        addr: &daemon.addr,
        warm_docs: &warm_docs,
        warm_reports: &warm_reports,
        seed_base: base,
        fresh_next: AtomicU64::new(0),
        fresh_samples: Mutex::new(Vec::new()),
        deadline: Instant::now() + Duration::from_secs_f64(seconds),
    };
    let started = Instant::now();
    let mut log = RequestLog::default();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let shared = &shared;
                scope.spawn(move || client(shared, seed ^ (c + 1).wrapping_mul(0x9e37_79b9)))
            })
            .collect();
        for h in handles {
            log.merge(h.join().expect("client thread"));
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let final_metrics = scrape(&daemon.addr)?;
    let cycles =
        gauge(&final_metrics, "lnuca_serve_simulated_cycles_total").unwrap_or(0.0) - cycles_before;
    let rss = crate::peak_rss_mb(Some(daemon.pid())).unwrap_or(0.0);

    // Correctness after the clock stops: a resubmitted fresh document must
    // hit with the bytes of the miss that filled the cache, and every
    // checked report must equal its in-process rendering.
    for problem in std::mem::take(&mut log.problems) {
        gate.fail(problem);
    }
    let samples = shared.fresh_samples.into_inner().expect("samples lock");
    for (doc, body) in &samples {
        let again = submit(&daemon.addr, doc)?;
        if again.header("x-lnuca-cache") != Some("hit") || &again.body != body {
            gate.fail("a fresh document's cache hit differs from its miss".to_owned());
        }
    }
    daemon.shut_down()?;
    // More set-ups on a warmed-up host; `setup_s` is the median of all.
    // Every daemon instance must serve the same warm reports.
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        let d = Daemon::spawn()?;
        let reports = prewarm(&d, &warm_docs)?;
        setups.push(start.elapsed().as_secs_f64());
        d.shut_down()?;
        if reports != warm_reports {
            gate.fail("a restarted daemon served different warm reports".to_owned());
        }
    }
    let mut results = Vec::new();
    let mut times = LayerTimes::default();
    let (mut study_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut first = None;
    let checked = warm_docs
        .iter()
        .zip(&warm_reports)
        .chain(samples.iter().map(|(d, b)| (d, b)));
    for (doc, report) in checked {
        let (prepared, s, wall) = replay(doc, report, &mut gate)?;
        study_wall += wall;
        if trace {
            traced_wall += study::trace_jobs(&prepared, &s.results, &mut gate, &mut times)?;
        }
        results.extend_from_slice(&s.results);
        first.get_or_insert((prepared, s));
    }
    println!(
        "sim_results_digest serve-mixed {:016x}",
        study::results_digest(&results)
    );
    let [hit, fresh, status, scrapes] = log.by_kind_ms.each_ref().map(Vec::len);
    eprintln!(
        "{} requests ({} failed: {} refused with 429, {} timed out) in {elapsed:.3} s over \
         {CONNECTIONS} connections, {} host threads: {hit} hits, {fresh} fresh, {status} status, \
         {scrapes} scrapes; {} rounds",
        log.attempted,
        log.failed,
        log.rejected_429,
        log.timeouts,
        thread::available_parallelism().map_or(0, usize::from),
        log.rounds_s.len()
    );

    let metrics = if trace {
        let mut m = Metrics::new(PER_LAYER);
        study::layer_times(&times, &mut m);
        study::simulated_counters(&results, &mut m);
        m.set(
            "trace.overhead_pct",
            (traced_wall.as_secs_f64() / study_wall.as_secs_f64() - 1.0) * 100.0,
        );
        m.set(
            "serve.hit_p50_ms",
            percentile_or_max(&log.by_kind_ms[0], 50.0),
        );
        m.set(
            "serve.miss_p50_ms",
            percentile_or_max(&log.by_kind_ms[1], 50.0),
        );
        m.set(
            "serve.status_p50_ms",
            percentile_or_max(&log.by_kind_ms[2], 50.0),
        );
        m.set(
            "serve.cache_hit_ratio",
            gauge(&final_metrics, "lnuca_serve_cache_hit_ratio").unwrap_or(0.0),
        );
        m.set("serve.queue_depth_max", log.queue_depth_max);
        m.set("serve.rejected_429", log.rejected_429 as f64);
        m.set("req_p50_ms", percentile_or_max(&log.all_ms, 50.0));
        m.set("req_p99_ms", percentile_or_max(&log.all_ms, 99.0));
        m.set("req_per_s", log.ok as f64 / elapsed);
        m.set(
            "failed_ratio",
            log.failed as f64 / log.attempted.max(1) as f64,
        );
        let (prepared, s) = first.as_ref().expect("warm documents were replayed");
        let doc = &warm_docs[0];
        m.set(
            "scenario.parse_ms",
            study::mean_ms(|| Scenario::from_json(doc).map(|_| ())),
        );
        m.set(
            "journal.digest_ms",
            study::mean_ms(|| journal::plan_digest(&prepared.plan)),
        );
        let report = scenario::report_value(&prepared.plan, s);
        m.set("report.render_ms", study::mean_ms(|| report.to_pretty()));
        let text = report.to_pretty();
        m.set(
            "report.validate_ms",
            study::mean_ms(|| serde::json::parse(&text).map(|v| scenario::validate_report(&v))),
        );
        m
    } else {
        let mut m = Metrics::new(END_TO_END);
        let instructions = (log.fresh_done * RUNS_PER_STUDY * INSTRUCTIONS) as f64;
        m.set("sim_kips", instructions / 1e3 / elapsed);
        m.set("sim_kcycles_per_s", cycles / 1e3 / elapsed);
        m.set("wall_s", median(&log.rounds_s));
        m.set("setup_s", median(&setups));
        m.set("peak_rss_mb", rss);
        m
    };
    Ok(Outcome {
        correct: gate.problems.is_empty(),
        attempted: log.attempted,
        failed: log.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    #[test]
    fn failures_count_against_attempts_and_miss_every_limit() {
        let mut log = RequestLog::default();
        log.record(Kind::Hit, &Ok(200), 2.0);
        log.record(Kind::Fresh, &Ok(429), 1.0);
        log.record(
            Kind::Hit,
            &Err("read: Resource temporarily unavailable (os error 11)".into()),
            30_000.0,
        );
        log.record(Kind::Status, &Ok(500), 3.0);
        log.record(
            Kind::Scrape,
            &Err("connect 127.0.0.1:1: refused".into()),
            0.5,
        );
        assert_eq!(log.attempted, 5);
        assert_eq!(log.failed, 4);
        assert_eq!(log.ok, 1);
        assert_eq!(log.rejected_429, 1);
        assert_eq!(log.timeouts, 1);
        let limit = TIMEOUT.as_secs_f64() * 1e3;
        assert!(log.all_ms.iter().filter(|&&ms| ms >= limit).count() == 4);
        // Four of five requests failed, so even the median misses any
        // limit below the timeout.
        assert_eq!(percentile_or_max(&log.all_ms, 50.0), limit);
        assert_eq!(log.by_kind_ms[kind_index(Kind::Fresh)], vec![limit]);
    }

    #[test]
    fn a_single_failure_in_a_thousand_requests_reaches_p99_only_when_tail_allows() {
        let mut log = RequestLog::default();
        for _ in 0..989 {
            log.record(Kind::Hit, &Ok(200), 1.0);
        }
        for _ in 0..11 {
            log.record(Kind::Hit, &Ok(503), 1.0);
        }
        // 11 failures beyond p99 of 1000 samples: p99 is a failure.
        assert_eq!(
            percentile(&log.all_ms, 99.0),
            Some(TIMEOUT.as_secs_f64() * 1e3)
        );
        assert_eq!(log.failed, 11);
    }

    #[test]
    fn the_round_mix_is_fixed() {
        let count = |k: Kind| ROUND.iter().filter(|&&r| r == k).count();
        assert_eq!(
            (
                count(Kind::Hit),
                count(Kind::Fresh),
                count(Kind::Status),
                count(Kind::Scrape)
            ),
            (12, 2, 4, 2)
        );
    }

    #[test]
    fn gauges_parse_from_the_exposition() {
        let text = "# TYPE lnuca_serve_queue_depth gauge\nlnuca_serve_queue_depth 3\n\
                    lnuca_serve_queue_depth_bound 8\n";
        assert_eq!(gauge(text, "lnuca_serve_queue_depth"), Some(3.0));
        assert_eq!(gauge(text, "lnuca_serve_missing"), None);
    }

    #[test]
    fn served_documents_are_small_fig4_studies_with_distinct_seeds() {
        let plan = Scenario::from_json(&document("x", 9)).unwrap().plan;
        let labels: Vec<String> = plan
            .configs
            .iter()
            .map(lnuca_sim::HierarchySpec::label)
            .collect();
        assert_eq!(labels, ["L2-256KB", "LN3-144KB"]);
        assert_eq!(plan.options.instructions, INSTRUCTIONS);
        let base = 7u64.wrapping_mul(1_000_003);
        let warm: Vec<u64> = (0..PREWARM).map(|k| warm_seed(base, k)).collect();
        assert!((0..1_000).all(|n| !warm.contains(&fresh_seed(base, n))));
    }
}
