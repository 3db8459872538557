//! The host-speed probe.
//!
//! The study workloads are single-threaded and CPU-bound, and the shared
//! hosts this benchmark runs on slow them by up to 40 % for tens of seconds
//! at a time (contention from other tenants for the core and its caches).
//! A fixed kernel of the same kind of work — a set-associative LRU cache
//! model driven by a pseudo-random address stream — slows with them: over
//! 300 alternations of a probe and a simulation job on the tuning host,
//! their times correlated at 0.80, and their ratio over 3 s windows stayed
//! within ±3 % while the job time itself moved by ±17 %. So the study
//! workloads run a short probe between jobs (or slices of batch stepping)
//! and report host time at the reference speed [`REFERENCE_PROBE_S`].
//!
//! The probe is the benchmark's own code: no change to the simulator moves
//! it, so a faster simulator still reads faster.

use std::time::Instant;

/// Accesses per probe (about 12 ms).
pub const PROBE_STEPS: u64 = 1_000_000;

/// The probe's host seconds at the reference speed. This constant defines
/// the unit the study workloads' host times are reported in; it is close to
/// the probe's median on the tuning host and must never change.
pub const REFERENCE_PROBE_S: f64 = 0.0125;

/// The probe kernel: `steps` accesses to an 8-way LRU cache of 64 K lines
/// over a working set three times its size. Returns the hit count.
#[must_use]
pub fn kernel(steps: u64) -> u64 {
    const SETS: usize = 8192;
    const WAYS: usize = 8;
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut hits = 0u64;
    for _ in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let line = (x >> 33) % (SETS * WAYS * 3) as u64;
        let set = (line % SETS as u64) as usize;
        let tag = line / SETS as u64;
        let ways = &mut tags[set * WAYS..(set + 1) * WAYS];
        match ways.iter().position(|&t| t == tag) {
            Some(i) => {
                hits += 1;
                ways[..=i].rotate_right(1);
            }
            None => {
                ways.rotate_right(1);
                ways[0] = tag;
            }
        }
    }
    hits
}

/// Host seconds of one probe, now.
#[must_use]
pub fn probe_seconds() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(PROBE_STEPS)));
    start.elapsed().as_secs_f64()
}

/// `host_s` measured while the probe took `probe_s`, scaled to the
/// reference speed.
#[must_use]
pub fn at_reference(host_s: f64, probe_s: f64) -> f64 {
    host_s * REFERENCE_PROBE_S / probe_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_hits_about_a_third_of_the_time() {
        let hits = kernel(300_000);
        assert_eq!(hits, kernel(300_000));
        assert!((50_000..150_000).contains(&hits), "{hits}");
    }

    #[test]
    fn a_slow_host_scales_back_to_the_reference() {
        assert!((at_reference(12.0, 2.0 * REFERENCE_PROBE_S) - 6.0).abs() < 1e-12);
        assert!((at_reference(3.0, REFERENCE_PROBE_S) - 3.0).abs() < 1e-12);
    }
}
