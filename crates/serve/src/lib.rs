//! The supervised simulation daemon (DESIGN.md §15).
//!
//! `lnuca-serve` turns the experiment engine into a long-running service:
//! a hand-rolled HTTP/1.1 endpoint (std `TcpListener` only — the workspace
//! builds offline, DESIGN.md §8) accepts `lnuca-scenario/v1` documents,
//! validates them with the strict scenario parser, and schedules each
//! submission as one **job** on a persistent, seed-isolated worker pool.
//! The pool generalises the per-study worker queue of
//! `lnuca_sim::experiments` into a daemon-lifetime priority queue with:
//!
//! * **admission control** — a bounded queue depth; a full queue answers
//!   `429 Too Many Requests` with `Retry-After` instead of growing,
//! * **per-job cancellation** — a queued job is dropped in place, a
//!   running job is stopped cleanly at run granularity through the
//!   cooperative [`lnuca_sim::StopSignal`],
//! * **per-job deadlines** — the PR 7 watchdog budgets
//!   (`LNUCA_CYCLE_BUDGET` / `LNUCA_RUN_TIMEOUT_MS` /
//!   `LNUCA_LIVELOCK_WINDOW`) layer onto every submission exactly as they
//!   do for the CLI,
//! * **panic quarantine** — a poisoned scenario fails its own job as a
//!   structured report row (or a `failed` job state); the worker thread
//!   survives and takes the next job,
//! * a **content-addressed result cache** keyed by the semantic plan
//!   digest (`lnuca_sim::journal::plan_digest`): resubmitting a scenario
//!   whose semantic fields are unchanged is served the stored report
//!   **byte-identically** without simulating anything, with deterministic
//!   LRU eviction under a configured capacity; the same capacity bounds
//!   the finished job records, also by LRU,
//! * **Prometheus-style `/metrics`** — monotone counters plus queue-depth
//!   / in-flight / per-worker-throughput gauges,
//! * **graceful drain** — SIGTERM stops admission, journals or finishes
//!   in-flight work (`--journal DIR` writes one content-addressed study
//!   journal per job), and exits 0 with state a restarted daemon resumes
//!   byte-identically.
//!
//! The breaking-point load harness lives in the `lnuca-serve-hammer`
//! binary (see `validation/`): concurrency ramps, cold/warm cache phases
//! and sustained stress against a live daemon, asserting the invariants
//! (bounded queue, no deadlock, monotone metrics, clean drain) and
//! recording the measured breaking points as JSON.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod metrics;
pub mod router;
pub mod service;
pub mod signals;

pub use cache::ResultCache;
pub use metrics::Metrics;
pub use service::{JobSnapshot, JobState, ServeConfig, Server, Source, Submission};
