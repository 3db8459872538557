//! Lightweight statistics helpers shared by the simulator crates.
//!
//! The paper reports harmonic-mean IPC (Figs. 4a and 5a), per-level hit
//! distributions (Table III) and average-to-minimum latency ratios. This
//! module provides the small building blocks those reports are computed from:
//! a streaming [`Counter`], a [`RunningMean`], a bounded [`Histogram`], and
//! free functions for harmonic/geometric means.

use std::fmt;

/// A saturating event counter.
///
/// # Example
///
/// ```
/// use lnuca_types::stats::Counter;
///
/// let mut hits = Counter::new();
/// hits.add(3);
/// hits.incr();
/// assert_eq!(hits.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A numerically stable running arithmetic mean.
///
/// # Example
///
/// ```
/// use lnuca_types::stats::RunningMean;
///
/// let mut m = RunningMean::new();
/// for v in [2.0, 4.0, 6.0] {
///     m.push(v);
/// }
/// assert_eq!(m.mean(), 4.0);
/// assert_eq!(m.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    count: u64,
    mean: f64,
}

impl RunningMean {
    /// Creates an empty mean.
    #[must_use]
    pub fn new() -> Self {
        RunningMean {
            count: 0,
            mean: 0.0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.mean += (value - self.mean) / self.count as f64;
    }

    /// Current mean, or 0.0 if no samples have been pushed.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Number of samples pushed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no samples have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// A fixed-width histogram of non-negative integer samples with an overflow
/// bucket.
///
/// Used to record transport latencies and queueing delays.
///
/// # Example
///
/// ```
/// use lnuca_types::stats::Histogram;
///
/// let mut h = Histogram::new(4);
/// h.record(0);
/// h.record(2);
/// h.record(2);
/// h.record(99); // lands in the overflow bucket
/// assert_eq!(h.count(2), 2);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    sum: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with buckets for values `0..width`; larger values
    /// are counted in the overflow bucket (but still contribute to the sum
    /// and mean).
    #[must_use]
    pub fn new(width: usize) -> Self {
        Histogram {
            buckets: vec![0; width],
            overflow: 0,
            sum: 0,
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if (value as usize) < self.buckets.len() {
            self.buckets[value as usize] += 1;
        } else {
            self.overflow += 1;
        }
        self.sum += value;
        self.total += 1;
    }

    /// Number of samples equal to `value` (0 if `value` is beyond the bucket
    /// range).
    #[must_use]
    pub fn count(&self, value: u64) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// Number of samples that exceeded the bucket range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of all recorded samples, or 0.0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value, or `None` if empty. Values in the overflow
    /// bucket are not individually tracked and therefore never returned.
    #[must_use]
    pub fn min_bucketed(&self) -> Option<u64> {
        self.buckets.iter().position(|&c| c > 0).map(|i| i as u64)
    }
}

/// Harmonic mean of a slice of positive values.
///
/// Returns `None` if the slice is empty or contains a non-positive value.
/// This is the aggregation the paper uses for IPC across benchmarks.
///
/// # Example
///
/// ```
/// use lnuca_types::stats::harmonic_mean;
///
/// let hm = harmonic_mean(&[1.0, 2.0, 4.0]).expect("positive inputs");
/// assert!((hm - 12.0 / 7.0).abs() < 1e-12);
/// assert!(harmonic_mean(&[]).is_none());
/// ```
#[must_use]
pub fn harmonic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let inv_sum: f64 = values.iter().map(|v| 1.0 / v).sum();
    Some(values.len() as f64 / inv_sum)
}

/// Geometric mean of a slice of positive values.
///
/// Returns `None` if the slice is empty or contains a non-positive value.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean of a slice, or `None` if it is empty.
#[must_use]
pub fn arithmetic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.value(), 5);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn running_mean_matches_batch_mean() {
        let mut m = RunningMean::new();
        assert!(m.is_empty());
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.push(v);
        }
        assert!((m.mean() - 2.5).abs() < 1e-12);
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn histogram_counts_and_overflows() {
        let mut h = Histogram::new(3);
        for v in [0, 1, 1, 2, 5, 7] {
            h.record(v);
        }
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(10), 0);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
        assert!((h.mean() - 16.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.min_bucketed(), Some(0));
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new(2);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.min_bucketed(), None);
    }

    #[test]
    fn harmonic_mean_known_values() {
        assert!(harmonic_mean(&[2.0, 2.0]).unwrap() - 2.0 < 1e-12);
        assert!(harmonic_mean(&[1.0, 0.0]).is_none());
        assert!(harmonic_mean(&[]).is_none());
    }

    #[test]
    fn geometric_mean_known_values() {
        let gm = geometric_mean(&[1.0, 4.0]).unwrap();
        assert!((gm - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[-1.0]).is_none());
    }

    #[test]
    fn arithmetic_mean_known_values() {
        assert_eq!(arithmetic_mean(&[1.0, 3.0]), Some(2.0));
        assert_eq!(arithmetic_mean(&[]), None);
    }

    proptest! {
        #[test]
        fn harmonic_leq_geometric_leq_arithmetic(values in proptest::collection::vec(0.1f64..100.0, 1..20)) {
            let h = harmonic_mean(&values).unwrap();
            let g = geometric_mean(&values).unwrap();
            let a = arithmetic_mean(&values).unwrap();
            prop_assert!(h <= g + 1e-9);
            prop_assert!(g <= a + 1e-9);
        }

        #[test]
        fn running_mean_is_bounded_by_extremes(values in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
            let mut m = RunningMean::new();
            for &v in &values {
                m.push(v);
            }
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m.mean() >= lo - 1e-6);
            prop_assert!(m.mean() <= hi + 1e-6);
        }

        #[test]
        fn histogram_total_equals_samples(values in proptest::collection::vec(0u64..20, 0..100)) {
            let mut h = Histogram::new(8);
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.total(), values.len() as u64);
            let bucketed: u64 = (0..8).map(|v| h.count(v)).sum();
            prop_assert_eq!(bucketed + h.overflow(), values.len() as u64);
        }
    }
}
