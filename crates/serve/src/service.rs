//! The daemon core: job table, bounded priority queue, worker pool.
//!
//! [`Server`] generalises the per-study worker pool of
//! `lnuca_sim::experiments` into a daemon-lifetime scheduler. One
//! **submission** becomes one **job**: a validated scenario resolved to an
//! [`ExperimentPlan`] with the environment knobs layered exactly as the
//! CLI layers them, content-addressed by the semantic plan digest. Jobs
//! wait in a bounded max-priority queue (FIFO within a priority level);
//! admission control refuses work beyond the bound instead of queueing it.
//! Worker threads claim jobs and run each one as a full study behind a
//! `catch_unwind` quarantine — a poisoned scenario fails *its own job* and
//! the worker survives to take the next one. Completed failure-free
//! reports land in the [`ResultCache`] so a
//! semantically identical resubmission is served byte-identically without
//! simulating anything.
//!
//! Cancellation and the graceful drain both ride the cooperative
//! [`StopSignal`] from PR 7's supervision layer: a queued job dies in
//! place, a running job stops at run granularity — in-flight runs finish
//! (and are journaled when `--journal` is set), unstarted runs land in the
//! report's failure rows. See DESIGN.md §15 for the full state machine.

use crate::cache::ResultCache;
use crate::metrics::Metrics;
use lnuca_bench::cli::{self, ResolvedScenario};
use lnuca_sim::experiments::{ExperimentPlan, Study};
use lnuca_sim::scenario::{self, Scenario};
use lnuca_sim::{journal, StopSignal, Supervisor};
use std::collections::{BinaryHeap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Daemon configuration, resolved from flags and `LNUCA_SERVE_*` knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the pool (each runs one job at a time).
    pub workers: usize,
    /// Admission bound: queued-but-not-running jobs beyond this are 429s.
    pub queue_depth: usize,
    /// Result-cache capacity, in reports. The same number bounds the
    /// finished job records kept for `GET /v1/jobs/{id}`: past it, the
    /// least recently used finished record is evicted (its id answers 404,
    /// its report stays reachable by digest while it is cached).
    pub cache_capacity: usize,
    /// When set, every job journals completed runs to
    /// `<dir>/<digest:016x>.jsonl` and the drain stops running jobs at run
    /// granularity; a restarted daemon resumes them byte-identically. When
    /// unset, the drain lets running jobs finish.
    pub journal_dir: Option<PathBuf>,
    /// Ignored: the daemon reads it nowhere. It stays only so that
    /// `ServeConfig { .. }` literals outside this crate keep compiling.
    pub baseline_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: lnuca_bench::knobs::serve_workers(),
            queue_depth: lnuca_bench::knobs::queue_depth(),
            cache_capacity: 64,
            journal_dir: None,
            baseline_path: None,
        }
    }
}

/// Lifecycle of one job. Exactly the states of DESIGN.md §15.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Claimed by a worker, simulating.
    Running,
    /// Finished with a report free of failure rows (cached).
    Done,
    /// Finished with a report that carries failure rows — e.g. a poisoned
    /// scenario whose panics were quarantined per run (not cached).
    Degraded,
    /// Died without a report (config/journal error, or a panic that
    /// escaped the study layer).
    Failed,
    /// Cancelled by its submitter (queued: dropped in place; running:
    /// stopped at run granularity, the partial report carries the rest as
    /// `cancelled` failure rows).
    Cancelled,
    /// Stopped by the graceful drain before (or while, when journaling)
    /// running.
    Shutdown,
}

impl JobState {
    /// Whether the state is terminal (no worker will touch the job again).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// Stable lowercase label used in JSON responses.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Degraded => "degraded",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Shutdown => "shutdown",
        }
    }
}

/// What a submission got back.
#[derive(Debug)]
pub enum Submission {
    /// The semantic digest was cached: the stored report, byte-identical
    /// to the run that produced it. No job was created.
    CacheHit {
        /// The semantic plan digest that hit.
        digest: u64,
        /// The cached `lnuca-report/v1` document.
        report: Arc<str>,
    },
    /// Admitted: the job is queued (HTTP 202).
    Accepted {
        /// Job id, unique for the daemon's lifetime.
        id: u64,
        /// The semantic plan digest the result will be cached under.
        digest: u64,
    },
    /// Admission control refused: the queue is at its bound (HTTP 429).
    Busy {
        /// Suggested `Retry-After`, in seconds.
        retry_after_secs: u64,
    },
    /// The daemon is draining and admits nothing (HTTP 503).
    Draining,
    /// The document failed scenario validation or plan resolution
    /// (HTTP 400).
    Invalid(String),
}

/// A point-in-time copy of one job's externally visible state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Scenario name.
    pub name: String,
    /// Semantic plan digest (the cache and journal key).
    pub digest: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The rendered report, present in `Done`/`Degraded` (and in
    /// `Cancelled`/`Shutdown` when the study still produced one).
    pub report: Option<Arc<str>>,
    /// Human-readable failure reason, present in `Failed`.
    pub error: Option<String>,
}

/// One queue slot. `BinaryHeap` is a max-heap: higher `priority` first,
/// and *lower* sequence number first within a priority level (FIFO).
#[derive(Debug, PartialEq, Eq)]
struct Slot {
    priority: i64,
    seq_desc: std::cmp::Reverse<u64>,
    id: u64,
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, &self.seq_desc, self.id).cmp(&(other.priority, &other.seq_desc, other.id))
    }
}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything a worker needs to run a claimed job.
struct JobWork {
    id: u64,
    plan: Arc<ExperimentPlan>,
    digest: u64,
    stop: StopSignal,
}

struct JobRecord {
    name: String,
    digest: u64,
    plan: Arc<ExperimentPlan>,
    state: JobState,
    stop: StopSignal,
    report: Option<Arc<str>>,
    error: Option<String>,
    /// Callers blocked in a wait on this job; a waited-on record is never
    /// evicted.
    waiters: usize,
    /// Logical time of the last finish or read (LRU order of finished
    /// records).
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    queue: BinaryHeap<Slot>,
    jobs: HashMap<u64, JobRecord>,
    draining: bool,
    next_id: u64,
    next_seq: u64,
    /// Logical clock behind `JobRecord::last_used`.
    tick: u64,
}

impl Inner {
    /// Marks job `id` as used now (finished or read) for the LRU order.
    fn touch(&mut self, id: u64) -> Option<&mut JobRecord> {
        self.tick += 1;
        let job = self.jobs.get_mut(&id)?;
        job.last_used = self.tick;
        Some(job)
    }

    /// A point-in-time copy of job `id`; reading counts as a use.
    fn snapshot(&mut self, id: u64) -> Option<JobSnapshot> {
        let job = self.touch(id)?;
        Some(JobSnapshot {
            id,
            name: job.name.clone(),
            digest: job.digest,
            state: job.state,
            report: job.report.clone(),
            error: job.error.clone(),
        })
    }

    /// Evicts least recently used finished records until at most
    /// `capacity` remain, skipping any with a blocked waiter. Returns how
    /// many were evicted.
    fn evict_finished(&mut self, capacity: usize) -> u64 {
        let finished = self.jobs.values().filter(|j| j.state.is_terminal()).count();
        if finished <= capacity {
            return 0;
        }
        let mut idle: Vec<(u64, u64)> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.state.is_terminal() && j.waiters == 0)
            .map(|(&id, j)| (j.last_used, id))
            .collect();
        idle.sort_unstable();
        let mut evicted = 0;
        for (_, id) in idle.into_iter().take(finished - capacity) {
            self.jobs.remove(&id);
            evicted += 1;
        }
        evicted
    }
}

/// Where a submission's scenario comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// An `lnuca-scenario/v1` document (file semantics).
    Document(&'a str),
    /// A registry scenario name (registry semantics).
    Name(&'a str),
}

/// Running total of completed-job wall time, the service-time estimate
/// behind the `Retry-After` queue-drain ETA.
#[derive(Default)]
struct JobWallStats {
    total_seconds: f64,
    jobs: u64,
}

/// The daemon core. Construct with [`Server::start`], share as an `Arc`.
pub struct Server {
    config: ServeConfig,
    metrics: Metrics,
    cache: Mutex<ResultCache>,
    inner: Mutex<Inner>,
    /// Signals workers that the queue or the drain flag changed.
    work: Condvar,
    /// Signals waiters that some job reached a terminal state.
    done: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
    job_wall: Mutex<JobWallStats>,
    started: Instant,
}

impl Server {
    /// Boots the worker pool and returns the shared server handle.
    #[must_use]
    pub fn start(config: ServeConfig) -> Arc<Server> {
        if let Some(dir) = &config.journal_dir {
            // Best-effort: a failure surfaces later as a journal error on
            // the first job, with a clearer path in its message.
            let _ = std::fs::create_dir_all(dir);
        }
        let workers = config.workers.max(1);
        let server = Arc::new(Server {
            metrics: Metrics::new(workers, config.queue_depth),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            inner: Mutex::new(Inner::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            job_wall: Mutex::new(JobWallStats::default()),
            started: Instant::now(),
            config,
        });
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let server = Arc::clone(&server);
            handles.push(
                thread::Builder::new()
                    .name(format!("lnuca-serve-worker-{index}"))
                    .spawn(move || server.worker_loop(index))
                    .expect("spawn worker thread"),
            );
        }
        *server.workers.lock().expect("workers lock") = handles;
        server
    }

    /// The daemon configuration this server was started with.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The metrics registry (rendered by `GET /metrics`).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Daemon uptime.
    #[must_use]
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Submits an `lnuca-scenario/v1` document (HTTP request body).
    ///
    /// Document submissions use **file semantics**: the committed
    /// configuration matrix is run exactly as spelled out, with only the
    /// options layer (`LNUCA_*`) applied — the same behaviour as
    /// `lnuca run <file>`.
    pub fn submit_document(&self, text: &str, priority: i64) -> Submission {
        self.submit(Source::Document(text), priority, None).0
    }

    /// Submits a scenario by registry name.
    ///
    /// Name submissions use **registry semantics**: the paper scenarios
    /// regenerate their configuration matrix from the layered options
    /// (`LNUCA_LEVELS`, `LNUCA_QUICK`, ...), the same behaviour as
    /// `lnuca run <name>`.
    pub fn submit_name(&self, name: &str, priority: i64) -> Submission {
        self.submit(Source::Name(name), priority, None).0
    }

    /// Submits a scenario and, with `wait` set and the job admitted,
    /// blocks like [`Server::wait`] — the `?wait=SECS` path. The job
    /// record counts as waited on from admission to the end of the wait,
    /// so the finished-job bound can never evict it in between. The
    /// snapshot is `None` when no wait ran.
    pub fn submit(
        &self,
        source: Source<'_>,
        priority: i64,
        wait: Option<Duration>,
    ) -> (Submission, Option<JobSnapshot>) {
        let scenario = match source {
            Source::Document(text) => Scenario::from_json(text).map_err(|e| e.to_string()),
            Source::Name(name) => scenario::builtin(name).map_err(|e| e.to_string()),
        };
        let scenario = match scenario {
            Ok(s) => s,
            Err(e) => return (Submission::Invalid(e), None),
        };
        let resolved = ResolvedScenario {
            scenario,
            from_registry: matches!(source, Source::Name(_)),
        };
        let submission = self.submit_resolved(resolved, priority, wait.is_some());
        let snapshot = match (&submission, wait) {
            (Submission::Accepted { id, .. }, Some(timeout)) => self.wait_held(*id, timeout),
            _ => None,
        };
        (submission, snapshot)
    }

    /// Admits a resolved scenario; `held` registers the submitter as the
    /// job's first waiter.
    fn submit_resolved(&self, resolved: ResolvedScenario, priority: i64, held: bool) -> Submission {
        let plan = match cli::resolved_plan(&resolved) {
            Ok(p) => p,
            Err(e) => return Submission::Invalid(e),
        };
        let digest = match journal::plan_digest(&plan) {
            Ok(d) => d,
            Err(e) => return Submission::Invalid(e.to_string()),
        };
        // Cache first: a hit costs no queue slot and works mid-drain too —
        // serving stored bytes admits no new work.
        {
            let mut cache = self.cache.lock().expect("cache lock");
            let hit = cache.get(digest);
            self.sync_cache_stats(&cache);
            if let Some(report) = hit {
                return Submission::CacheHit { digest, report };
            }
        }
        let mut inner = self.inner.lock().expect("inner lock");
        if inner.draining {
            Metrics::bump(&self.metrics.refused_draining_total);
            return Submission::Draining;
        }
        if inner.queue.len() >= self.config.queue_depth {
            Metrics::bump(&self.metrics.rejected_total);
            let queued = inner.queue.len();
            drop(inner);
            return Submission::Busy {
                retry_after_secs: self.retry_after_secs(queued),
            };
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.jobs.insert(
            id,
            JobRecord {
                name: plan.name.clone(),
                digest,
                plan: Arc::new(plan),
                state: JobState::Queued,
                stop: StopSignal::new(),
                report: None,
                error: None,
                waiters: usize::from(held),
                last_used: 0,
            },
        );
        inner.queue.push(Slot {
            priority,
            seq_desc: std::cmp::Reverse(seq),
            id,
        });
        self.metrics
            .queue_depth
            .store(inner.queue.len() as u64, Ordering::Relaxed);
        Metrics::bump(&self.metrics.jobs_submitted_total);
        drop(inner);
        self.work.notify_one();
        Submission::Accepted { id, digest }
    }

    /// A point-in-time snapshot of job `id`. Reading a job counts as a use
    /// for the finished-job LRU.
    #[must_use]
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        self.inner.lock().expect("inner lock").snapshot(id)
    }

    /// Blocks until job `id` reaches a terminal state, or `timeout`
    /// elapses. Returns the final snapshot, or the current (non-terminal)
    /// one on timeout; `None` for an unknown (or evicted) id. The record
    /// is not evicted while the wait blocks.
    #[must_use]
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobSnapshot> {
        self.inner
            .lock()
            .expect("inner lock")
            .jobs
            .get_mut(&id)?
            .waiters += 1;
        self.wait_held(id, timeout)
    }

    /// [`Server::wait`] for a caller already counted among job `id`'s
    /// waiters; releases that hold on return.
    fn wait_held(&self, id: u64, timeout: Duration) -> Option<JobSnapshot> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("inner lock");
        loop {
            // Present: a record with a waiter is never evicted.
            let terminal = inner
                .jobs
                .get(&id)
                .is_none_or(|job| job.state.is_terminal());
            let now = Instant::now();
            if terminal || now >= deadline {
                break;
            }
            let (guard, _timed_out) = self
                .done
                .wait_timeout(inner, deadline - now)
                .expect("done wait");
            inner = guard;
        }
        let snapshot = inner.snapshot(id);
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.waiters -= 1;
        }
        self.evict_finished(&mut inner);
        snapshot
    }

    /// Applies the finished-job bound (`cache_capacity`) and counts the
    /// evictions.
    fn evict_finished(&self, inner: &mut Inner) {
        let evicted = inner.evict_finished(self.config.cache_capacity.max(1));
        self.metrics
            .jobs_evicted_total
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// Cancels job `id`. A queued job dies in place (state `Cancelled`,
    /// removed from the queue lazily on claim); a running job gets its
    /// [`StopSignal`] raised and finishes at run granularity. Returns the
    /// state the job was in when the cancel landed, or `None` for an
    /// unknown id. Cancelling a terminal job is a no-op.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut inner = self.inner.lock().expect("inner lock");
        let job = inner.jobs.get_mut(&id)?;
        let was = job.state;
        match was {
            JobState::Queued => {
                let job = inner.touch(id)?;
                job.state = JobState::Cancelled;
                job.error = Some("cancelled while queued".to_owned());
                Metrics::bump(&self.metrics.jobs_cancelled_total);
                self.evict_finished(&mut inner);
                drop(inner);
                self.done.notify_all();
            }
            JobState::Running => {
                // The worker folds the raise into the terminal state when
                // the study returns.
                job.stop.cancel();
            }
            _ => {}
        }
        Some(was)
    }

    /// Begins the graceful drain: stop admitting, fail every queued job
    /// with `Shutdown`, and — when journaling — stop running jobs at run
    /// granularity so a restarted daemon resumes them. Idempotent.
    pub fn begin_drain(&self) {
        let mut inner = self.inner.lock().expect("inner lock");
        if inner.draining {
            return;
        }
        inner.draining = true;
        self.metrics.draining.store(1, Ordering::Relaxed);
        let queued: Vec<u64> = inner.queue.drain().map(|slot| slot.id).collect();
        self.metrics.queue_depth.store(0, Ordering::Relaxed);
        for id in queued {
            if inner
                .jobs
                .get(&id)
                .is_some_and(|job| job.state == JobState::Queued)
            {
                let job = inner.touch(id).expect("job present");
                job.state = JobState::Shutdown;
                job.error = Some("daemon drained before the job ran".to_owned());
                Metrics::bump(&self.metrics.jobs_shutdown_total);
            }
        }
        self.evict_finished(&mut inner);
        if self.config.journal_dir.is_some() {
            for job in inner.jobs.values_mut() {
                if job.state == JobState::Running {
                    job.stop.shutdown();
                }
            }
        }
        drop(inner);
        self.work.notify_all();
        self.done.notify_all();
    }

    /// Whether [`Server::begin_drain`] has run.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.inner.lock().expect("inner lock").draining
    }

    /// Joins every worker after a drain. Call exactly once, after
    /// [`Server::begin_drain`].
    pub fn drain_join(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Pushes the cache's lifetime counters into the metrics registry.
    /// `fetch_max` keeps each series monotone even when two submissions
    /// race to publish.
    fn sync_cache_stats(&self, cache: &ResultCache) {
        let (hits, misses, evictions) = cache.stats();
        self.metrics
            .cache_hits_total
            .fetch_max(hits, Ordering::Relaxed);
        self.metrics
            .cache_misses_total
            .fetch_max(misses, Ordering::Relaxed);
        self.metrics
            .cache_evictions_total
            .fetch_max(evictions, Ordering::Relaxed);
    }

    /// Claims the next runnable job, blocking until one exists or the
    /// drain empties the world. `None` means "worker should exit".
    fn claim(&self) -> Option<JobWork> {
        let mut inner = self.inner.lock().expect("inner lock");
        loop {
            while let Some(slot) = inner.queue.pop() {
                let depth = inner.queue.len() as u64;
                self.metrics.queue_depth.store(depth, Ordering::Relaxed);
                let Some(job) = inner.jobs.get_mut(&slot.id) else {
                    continue;
                };
                // A job cancelled while queued stays in the heap until
                // claimed; skip its corpse here.
                if job.state != JobState::Queued {
                    continue;
                }
                job.state = JobState::Running;
                return Some(JobWork {
                    id: slot.id,
                    plan: Arc::clone(&job.plan),
                    digest: job.digest,
                    stop: job.stop.clone(),
                });
            }
            if inner.draining {
                return None;
            }
            inner = self.work.wait(inner).expect("work wait");
        }
    }

    /// Suggested `Retry-After` for a refused submission: the queue-drain
    /// ETA — `queued / workers` jobs ahead of the caller, each taking the
    /// average wall time of the jobs completed so far — rounded **up** and
    /// clamped to at least 1. The old hardcoded `1` under-advised loaded
    /// daemons, and a naive `as u64` of a sub-second ETA rounds down to
    /// `Retry-After: 0`, which clients read as "retry immediately" and
    /// turn into a hot retry loop against a still-full queue.
    fn retry_after_secs(&self, queued: usize) -> u64 {
        let wall = self.job_wall.lock().expect("job wall lock");
        if wall.jobs == 0 {
            return 1; // no service-time sample yet: nonzero, but optimistic
        }
        let avg = wall.total_seconds / wall.jobs as f64;
        let eta = queued as f64 / self.config.workers.max(1) as f64 * avg;
        (eta.ceil() as u64).max(1)
    }

    fn worker_loop(self: Arc<Server>, index: usize) {
        while let Some(work) = self.claim() {
            self.metrics.inflight_jobs.fetch_add(1, Ordering::Relaxed);
            let outcome = self.run_job(index, &work);
            self.metrics.inflight_jobs.fetch_sub(1, Ordering::Relaxed);
            self.finish_job(work.id, outcome);
        }
    }

    /// Runs one job behind the panic quarantine. Returns the terminal
    /// state plus the report / error to record.
    fn run_job(
        &self,
        index: usize,
        work: &JobWork,
    ) -> (JobState, Option<Arc<str>>, Option<String>) {
        let journal_path = self
            .config
            .journal_dir
            .as_ref()
            .map(|dir| dir.join(format!("{:016x}.jsonl", work.digest)));
        let plan = Arc::clone(&work.plan);
        let stop = work.stop.clone();
        let started = Instant::now();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            // resume = true: a journal left by a drained predecessor (same
            // digest → same plan semantics) is continued, not restarted.
            let supervisor = Supervisor::from_options(&plan.options);
            Study::run_controlled(&plan, journal_path.as_deref(), true, &stop, &supervisor)
        }));
        let wall_seconds = started.elapsed().as_secs_f64();
        {
            // Every job that ran — even a failed one — is a service-time
            // sample for the Retry-After queue-drain ETA.
            let mut wall = self.job_wall.lock().expect("job wall lock");
            wall.total_seconds += wall_seconds;
            wall.jobs += 1;
        }
        match result {
            Err(payload) => {
                // The per-run supervision inside the study already contains
                // simulation panics; reaching here means setup/reporting
                // code died. Quarantine: this job fails, the worker lives.
                let message = lnuca_sim::supervise::panic_message(&payload);
                Metrics::bump(&self.metrics.jobs_failed_total);
                (
                    JobState::Failed,
                    None,
                    Some(format!("job panicked outside run supervision: {message}")),
                )
            }
            Ok(Err(e)) => {
                Metrics::bump(&self.metrics.jobs_failed_total);
                (JobState::Failed, None, Some(e.to_string()))
            }
            Ok(Ok(study)) => {
                let cycles: u64 = study.perf.iter().map(|p| p.cycles).sum();
                self.metrics
                    .simulated_cycles_total
                    .fetch_add(cycles, Ordering::Relaxed);
                // CMP jobs additionally feed the coherence counters
                // (single-core results carry no coherence block).
                let mut transactions = 0u64;
                let mut invalidations = 0u64;
                let mut writebacks = 0u64;
                let mut recalls = 0u64;
                for c in study.results.iter().filter_map(|r| r.coherence.as_ref()) {
                    transactions += c.reads + c.writes;
                    invalidations += c.invalidations_sent;
                    writebacks += c.writebacks;
                    recalls += c.recalls;
                }
                for (counter, amount) in [
                    (&self.metrics.coherence_transactions_total, transactions),
                    (&self.metrics.coherence_invalidations_total, invalidations),
                    (&self.metrics.coherence_writebacks_total, writebacks),
                    (&self.metrics.coherence_recalls_total, recalls),
                ] {
                    counter.fetch_add(amount, Ordering::Relaxed);
                }
                if wall_seconds > 0.0 {
                    self.metrics
                        .record_worker_rate(index, cycles as f64 / 1_000.0 / wall_seconds);
                }
                let report: Arc<str> = Arc::from(scenario::report_value(&plan, &study).to_pretty());
                let stopped = work.stop.error();
                if let Some(stop_error) = stopped {
                    let state = match stop_error {
                        lnuca_types::RunError::Shutdown => {
                            Metrics::bump(&self.metrics.jobs_shutdown_total);
                            JobState::Shutdown
                        }
                        _ => {
                            Metrics::bump(&self.metrics.jobs_cancelled_total);
                            JobState::Cancelled
                        }
                    };
                    return (state, Some(report), Some(stop_error.to_string()));
                }
                if study.failures.is_empty() {
                    let mut cache = self.cache.lock().expect("cache lock");
                    cache.insert(work.digest, Arc::clone(&report));
                    self.sync_cache_stats(&cache);
                    drop(cache);
                    // A completed job's journal is spent: the cache now
                    // owns the result, and keeping the file would only
                    // make a future identical submission re-read it.
                    if let Some(path) = &journal_path {
                        let _ = std::fs::remove_file(path);
                    }
                    Metrics::bump(&self.metrics.jobs_completed_total);
                    (JobState::Done, Some(report), None)
                } else {
                    let summary = format!(
                        "{} of {} runs failed (first: {})",
                        study.failures.len(),
                        study.results.len() + study.failures.len(),
                        study.failures[0].error,
                    );
                    Metrics::bump(&self.metrics.jobs_degraded_total);
                    (JobState::Degraded, Some(report), Some(summary))
                }
            }
        }
    }

    fn finish_job(&self, id: u64, outcome: (JobState, Option<Arc<str>>, Option<String>)) {
        let (state, report, error) = outcome;
        let mut inner = self.inner.lock().expect("inner lock");
        if let Some(job) = inner.touch(id) {
            job.state = state;
            job.report = report;
            job.error = error;
        }
        self.evict_finished(&mut inner);
        drop(inner);
        self.done.notify_all();
    }
}
