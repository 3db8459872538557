//! Prometheus-style text metrics (`GET /metrics`).
//!
//! Plain atomics rendered as the Prometheus text exposition format
//! (version 0.0.4): `*_total` series are counters and **monotone by
//! construction** — nothing ever decrements them — while queue depth,
//! in-flight jobs, the drain flag and per-worker throughput are gauges.
//! The hammer harness scrapes this endpoint between phases and asserts the
//! monotonicity and the queue bound.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// All counters and gauges of one daemon instance.
///
/// Counters use relaxed atomics: every series is independently monotone and
/// scrape-consistency across series is not a guarantee Prometheus-style
/// polling can have anyway.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests accepted (any route, any outcome).
    pub requests_total: AtomicU64,
    /// Jobs admitted into the queue (cache hits are *not* jobs).
    pub jobs_submitted_total: AtomicU64,
    /// Jobs that finished with a complete report (no failure rows).
    pub jobs_completed_total: AtomicU64,
    /// Jobs that finished with a report carrying failure rows (e.g. a
    /// poisoned scenario quarantined to its own job).
    pub jobs_degraded_total: AtomicU64,
    /// Jobs that died without a report (panic escaping the study layer,
    /// journal corruption).
    pub jobs_failed_total: AtomicU64,
    /// Jobs cancelled by their submitter.
    pub jobs_cancelled_total: AtomicU64,
    /// Jobs stopped by the graceful drain.
    pub jobs_shutdown_total: AtomicU64,
    /// Submissions rejected by admission control (HTTP 429).
    pub rejected_total: AtomicU64,
    /// Submissions refused because the daemon is draining (HTTP 503).
    pub refused_draining_total: AtomicU64,
    /// Result-cache hits served byte-identically without running.
    pub cache_hits_total: AtomicU64,
    /// Result-cache misses (submissions that had to run).
    pub cache_misses_total: AtomicU64,
    /// Result-cache LRU evictions.
    pub cache_evictions_total: AtomicU64,
    /// Finished job records evicted by the job-table bound (their ids
    /// answer 404 from then on).
    pub jobs_evicted_total: AtomicU64,
    /// Simulated cycles retired by completed jobs.
    pub simulated_cycles_total: AtomicU64,
    /// MSI directory transactions (reads + writes) of CMP runs, summed
    /// over completed jobs. Single-core jobs contribute nothing.
    pub coherence_transactions_total: AtomicU64,
    /// MSI invalidations sent to private caches, summed over completed
    /// jobs.
    pub coherence_invalidations_total: AtomicU64,
    /// Dirty-line writebacks the MSI protocol drained, summed over
    /// completed jobs.
    pub coherence_writebacks_total: AtomicU64,
    /// Fixed-slot directory capacity recalls, summed over completed jobs.
    pub coherence_recalls_total: AtomicU64,
    /// Current queued (admitted, not yet running) jobs.
    pub queue_depth: AtomicU64,
    /// The configured admission bound (constant gauge, for dashboards).
    pub queue_bound: AtomicU64,
    /// Jobs currently running.
    pub inflight_jobs: AtomicU64,
    /// 1 while draining, else 0.
    pub draining: AtomicU64,
    /// Last observed throughput per worker, in kcycles/s (stored as `f64`
    /// bits; one slot per worker thread).
    pub worker_kcycles_per_sec: Vec<AtomicU64>,
}

impl Metrics {
    /// Metrics for a daemon with `workers` worker threads and the given
    /// admission bound.
    #[must_use]
    pub fn new(workers: usize, queue_bound: usize) -> Self {
        let mut metrics = Metrics::default();
        metrics
            .queue_bound
            .store(queue_bound as u64, Ordering::Relaxed);
        metrics.worker_kcycles_per_sec = (0..workers).map(|_| AtomicU64::new(0)).collect();
        metrics
    }

    /// Adds one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `kcycles_per_sec` for `worker` (ignored for out-of-range
    /// worker indices, which cannot happen with a correctly-sized pool).
    pub fn record_worker_rate(&self, worker: usize, kcycles_per_sec: f64) {
        if let Some(slot) = self.worker_kcycles_per_sec.get(worker) {
            slot.store(kcycles_per_sec.to_bits(), Ordering::Relaxed);
        }
    }

    /// Renders every series in the Prometheus text exposition format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let counters: &[(&str, &AtomicU64, &str)] = &[
            ("lnuca_serve_requests_total", &self.requests_total, "HTTP requests accepted"),
            (
                "lnuca_serve_jobs_submitted_total",
                &self.jobs_submitted_total,
                "jobs admitted into the queue",
            ),
            (
                "lnuca_serve_jobs_completed_total",
                &self.jobs_completed_total,
                "jobs finished with a complete report",
            ),
            (
                "lnuca_serve_jobs_degraded_total",
                &self.jobs_degraded_total,
                "jobs finished with failure rows in the report",
            ),
            (
                "lnuca_serve_jobs_failed_total",
                &self.jobs_failed_total,
                "jobs that died without a report",
            ),
            (
                "lnuca_serve_jobs_cancelled_total",
                &self.jobs_cancelled_total,
                "jobs cancelled by their submitter",
            ),
            (
                "lnuca_serve_jobs_shutdown_total",
                &self.jobs_shutdown_total,
                "jobs stopped by the graceful drain",
            ),
            (
                "lnuca_serve_rejected_total",
                &self.rejected_total,
                "submissions rejected by admission control (429)",
            ),
            (
                "lnuca_serve_refused_draining_total",
                &self.refused_draining_total,
                "submissions refused while draining (503)",
            ),
            ("lnuca_serve_cache_hits_total", &self.cache_hits_total, "result-cache hits"),
            (
                "lnuca_serve_cache_misses_total",
                &self.cache_misses_total,
                "result-cache misses",
            ),
            (
                "lnuca_serve_cache_evictions_total",
                &self.cache_evictions_total,
                "result-cache LRU evictions",
            ),
            (
                "lnuca_serve_jobs_evicted_total",
                &self.jobs_evicted_total,
                "finished job records evicted by the job-table bound",
            ),
            (
                "lnuca_serve_simulated_cycles_total",
                &self.simulated_cycles_total,
                "simulated cycles retired by completed jobs",
            ),
            (
                "lnuca_serve_coherence_transactions_total",
                &self.coherence_transactions_total,
                "MSI directory transactions of CMP runs",
            ),
            (
                "lnuca_serve_coherence_invalidations_total",
                &self.coherence_invalidations_total,
                "MSI invalidations sent to private caches",
            ),
            (
                "lnuca_serve_coherence_writebacks_total",
                &self.coherence_writebacks_total,
                "dirty-line writebacks drained by the MSI protocol",
            ),
            (
                "lnuca_serve_coherence_recalls_total",
                &self.coherence_recalls_total,
                "fixed-slot directory capacity recalls",
            ),
        ];
        for (name, value, help) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", value.load(Ordering::Relaxed));
        }
        let gauges: &[(&str, &AtomicU64, &str)] = &[
            (
                "lnuca_serve_queue_depth",
                &self.queue_depth,
                "jobs queued, waiting for a worker",
            ),
            ("lnuca_serve_queue_bound", &self.queue_bound, "configured admission bound"),
            ("lnuca_serve_inflight_jobs", &self.inflight_jobs, "jobs currently running"),
            ("lnuca_serve_draining", &self.draining, "1 while the daemon drains"),
        ];
        for (name, value, help) in gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", value.load(Ordering::Relaxed));
        }
        let _ = writeln!(
            out,
            "# HELP lnuca_serve_worker_kcycles_per_sec last observed throughput per worker"
        );
        let _ = writeln!(out, "# TYPE lnuca_serve_worker_kcycles_per_sec gauge");
        for (i, slot) in self.worker_kcycles_per_sec.iter().enumerate() {
            let rate = f64::from_bits(slot.load(Ordering::Relaxed));
            let _ = writeln!(out, "lnuca_serve_worker_kcycles_per_sec{{worker=\"{i}\"}} {rate:.3}");
        }
        // Derived convenience gauge: hit ratio over all cache lookups so far.
        let hits = self.cache_hits_total.load(Ordering::Relaxed);
        let misses = self.cache_misses_total.load(Ordering::Relaxed);
        let ratio = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "# HELP lnuca_serve_cache_hit_ratio hits / (hits + misses)");
        let _ = writeln!(out, "# TYPE lnuca_serve_cache_hit_ratio gauge");
        let _ = writeln!(out, "lnuca_serve_cache_hit_ratio {ratio:.6}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_exposes_every_series_and_tracks_counters() {
        let metrics = Metrics::new(2, 8);
        Metrics::bump(&metrics.requests_total);
        Metrics::bump(&metrics.requests_total);
        metrics.record_worker_rate(1, 1234.5);
        let text = metrics.render();
        assert!(text.contains("lnuca_serve_requests_total 2"));
        assert!(text.contains("lnuca_serve_queue_bound 8"));
        assert!(text.contains("lnuca_serve_worker_kcycles_per_sec{worker=\"0\"} 0.000"));
        assert!(text.contains("lnuca_serve_worker_kcycles_per_sec{worker=\"1\"} 1234.500"));
        assert!(text.contains("# TYPE lnuca_serve_requests_total counter"));
        assert!(text.contains("# TYPE lnuca_serve_coherence_transactions_total counter"));
        assert!(text.contains("lnuca_serve_jobs_evicted_total 0"));
        assert!(text.contains("lnuca_serve_coherence_invalidations_total 0"));
        assert!(text.contains("lnuca_serve_coherence_writebacks_total 0"));
        assert!(text.contains("lnuca_serve_coherence_recalls_total 0"));
        assert!(text.contains("# TYPE lnuca_serve_queue_depth gauge"));
        assert!(text.contains("lnuca_serve_cache_hit_ratio 0.000000"));
    }
}
