//! Small statistics and naming helpers: medians, the tail-percentile rule,
//! the metric-name grammar and the results digest.

/// Median of `values` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile that `n` samples can report: the one with at
/// least [`TAIL_SAMPLES`] samples beyond it, `100 * (1 - 10 / n)`. `None`
/// below 10 samples. p99 therefore needs 1000 samples.
#[must_use]
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    (n >= TAIL_SAMPLES).then(|| 100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples would lie beyond it.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let highest = highest_reportable_percentile(samples.len())?;
    if p > highest + 1e-9 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Percentile `p` when `samples` can report it, otherwise the largest
/// sample — an upper bound of the true percentile, never an optimistic
/// guess. 0 for no samples.
#[must_use]
pub fn percentile_or_max(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or_else(|| samples.iter().copied().fold(0.0, f64::max))
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn is_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Maps a configuration label onto the metric-name alphabet: every run of
/// characters outside `[A-Za-z0-9.-]` becomes one `_`, and leading or
/// trailing `_` are dropped (`LN2 + DN-4x8` -> `LN2_DN-4x8`).
#[must_use]
pub fn sanitize_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '.' | '-') {
            out.push(c);
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_owned()
}

/// 64-bit FNV-1a, the digest over simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A deterministic generator for the benchmark's own input choices
/// (splitmix64), so the same `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(highest_reportable_percentile(9), None);
        assert_eq!(highest_reportable_percentile(10), Some(0.0));
        assert_eq!(highest_reportable_percentile(100), Some(90.0));
        assert_eq!(highest_reportable_percentile(1000), Some(99.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 99.0), None);
        assert_eq!(percentile(&short, 98.0), Some(980.0));
        let long: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&long, 99.0), Some(990.0));
        assert_eq!(percentile(&long, 50.0), Some(500.0));
        // Exactly ten samples lie beyond the reported p99.
        assert_eq!(long.iter().filter(|&&v| v > 990.0).count(), TAIL_SAMPLES);
    }

    #[test]
    fn an_unreportable_tail_falls_back_to_the_maximum() {
        let short: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile_or_max(&short, 99.0), 50.0);
        assert_eq!(percentile_or_max(&[], 99.0), 0.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        assert!(is_metric_name("hierarchy.self_s.LN3-144KB"));
        assert!(is_metric_name("9lives"));
        assert!(!is_metric_name("_leading"));
        assert!(!is_metric_name("has space"));
        assert!(!is_metric_name("plus+sign"));
        assert!(!is_metric_name(""));
        assert!(!is_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn config_labels_sanitise_into_metric_names() {
        assert_eq!(sanitize_label("LN2 + DN-4x8"), "LN2_DN-4x8");
        assert_eq!(sanitize_label("4x DN-4x8"), "4x_DN-4x8");
        assert_eq!(sanitize_label("L2-256KB"), "L2-256KB");
        assert_eq!(sanitize_label(" (odd) label! "), "odd_label");
        for label in ["LN2 + DN-4x8", "2x L3-8192KB", "LN3-144KB", "a/b\\c"] {
            let name = format!("hierarchy.self_s.{}", sanitize_label(label));
            assert!(is_metric_name(&name), "{name}");
        }
    }

    #[test]
    fn the_digest_is_fnv1a() {
        let mut fnv = Fnv::default();
        fnv.write(b"a");
        assert_eq!(fnv.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn shuffles_are_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        SplitMix::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
