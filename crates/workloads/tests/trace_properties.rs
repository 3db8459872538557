//! Property tests for [`TraceGenerator`] across every access-pattern class:
//! determinism, footprint containment, and convergence of the instruction
//! mix to the profile knobs.

use lnuca_workloads::generator::{COLD_BASE, HOT_BASE, STREAM_BASE, TRACE_BLOCK_BYTES, WARM_BASE};
use lnuca_workloads::{AccessPattern, Instr, TraceGenerator, WorkloadProfile};
use proptest::prelude::*;
use std::collections::HashSet;

/// A compact profile (fast to exhaust) with the given pattern and bounded
/// region sizes, stride shortcut disabled so every address is
/// pattern-generated. Returned as a builder so each test can chain its own
/// overrides before building.
fn bounded(pattern: AccessPattern) -> lnuca_workloads::profile::WorkloadProfileBuilder {
    WorkloadProfile::builder(format!("prop.{}", pattern.label()))
        .regions(24, 96, 384)
        .stream_blocks(640)
        .spatial_stride_prob(0.0)
        .pattern(pattern)
        .phase_period(500)
        .stream_stride_blocks(3)
}

fn bounded_profile(pattern: AccessPattern) -> WorkloadProfile {
    bounded(pattern).build().expect("bounded profile is valid")
}

fn every_pattern() -> impl Strategy<Value = AccessPattern> {
    prop_oneof![
        Just(AccessPattern::Regions),
        Just(AccessPattern::PointerChase),
        Just(AccessPattern::Streaming),
        Just(AccessPattern::Gups),
        Just(AccessPattern::PhaseMix),
    ]
}

fn sample(profile: WorkloadProfile, n: usize, seed: u64) -> Vec<Instr> {
    TraceGenerator::new(profile, seed).take(n).collect()
}

proptest! {
    #[test]
    fn same_seed_same_trace_for_every_pattern(
        pattern in every_pattern(),
        seed in any::<u64>(),
        take in 200usize..1500,
    ) {
        let p = bounded_profile(pattern);
        prop_assert_eq!(sample(p.clone(), take, seed), sample(p.clone(), take, seed));
        // And a different seed diverges (the RNG drives every pattern).
        prop_assert_ne!(
            sample(p.clone(), 1500, seed),
            sample(p, 1500, seed.wrapping_add(1))
        );
    }

    #[test]
    fn footprint_stays_within_the_profile_regions(
        pattern in every_pattern(),
        seed in 0u64..1_000,
    ) {
        let p = bounded_profile(pattern);
        let trace = sample(p.clone(), 4_000, seed);
        let blocks: HashSet<u64> = trace
            .iter()
            .filter_map(|i| i.addr)
            .map(|a| a.block_index(TRACE_BLOCK_BYTES))
            .collect();
        // Every touched block lies inside one of the four configured
        // regions — no pattern can escape the declared footprint.
        let spans = [
            (HOT_BASE, p.hot_blocks),
            (WARM_BASE, p.warm_blocks),
            (COLD_BASE, p.cold_blocks),
            (STREAM_BASE, p.stream_blocks),
        ];
        for b in &blocks {
            let addr = b * TRACE_BLOCK_BYTES;
            let contained = spans.iter().any(|&(base, len)| {
                (base..base + len * TRACE_BLOCK_BYTES).contains(&addr)
            });
            prop_assert!(contained, "stray address {addr:#x} under {}", p.pattern.label());
        }
        // Therefore the byte footprint is bounded by the declared total.
        prop_assert!(blocks.len() as u64 * TRACE_BLOCK_BYTES <= p.footprint_bytes());
    }

    #[test]
    fn instruction_mix_converges_to_the_knobs(
        pattern in every_pattern(),
        loads in 0.15f64..0.35,
        stores in 0.05f64..0.15,
        branches in 0.05f64..0.20,
        seed in 0u64..1_000,
    ) {
        let p = bounded(pattern)
            .mix(loads, stores, branches, 0.05)
            .build()
            .expect("mix ranges are valid");
        let n = 30_000;
        let trace = sample(p, n, seed);
        let frac = |pred: fn(&Instr) -> bool| {
            trace.iter().filter(|i| pred(i)).count() as f64 / n as f64
        };
        let observed_loads = frac(|i| i.kind.is_load());
        let observed_stores = frac(|i| i.kind.is_store());
        let observed_branches = frac(|i| i.kind.is_branch());
        prop_assert!((observed_loads - loads).abs() < 0.02, "loads {observed_loads} vs {loads}");
        prop_assert!((observed_stores - stores).abs() < 0.02, "stores {observed_stores} vs {stores}");
        prop_assert!(
            (observed_branches - branches).abs() < 0.02,
            "branches {observed_branches} vs {branches}"
        );
    }
}

#[test]
fn pointer_chase_visits_every_cold_block_exactly_once_per_lap() {
    // The chase is a full-period permutation over the cold region: within
    // the first `cold_blocks` chase steps, no block repeats; after exactly
    // `cold_blocks` steps the walk has covered the whole region.
    let p = bounded(AccessPattern::PointerChase)
        .region_probs(0.0, 0.33, 0.09) // hot_prob 0 => pure chase
        .mix(1.0, 0.0, 0.0, 0.0)
        .build()
        .expect("pure-chase profile is valid");
    let lap = p.cold_blocks as usize;
    let trace = sample(p, lap, 11);
    let blocks: Vec<u64> = trace
        .iter()
        .filter_map(|i| i.addr)
        .map(|a| a.block_index(TRACE_BLOCK_BYTES))
        .collect();
    assert_eq!(blocks.len(), lap);
    let distinct: HashSet<u64> = blocks.iter().copied().collect();
    assert_eq!(distinct.len(), lap, "one lap covers every cold block exactly once");
}

#[test]
fn streaming_strides_by_the_configured_stride() {
    let p = bounded(AccessPattern::Streaming)
        .region_probs(0.0, 0.33, 0.09)
        .mix(1.0, 0.0, 0.0, 0.0)
        .stream_stride_blocks(5)
        .build()
        .expect("pure-stream profile is valid");
    let stream_blocks = p.stream_blocks;
    let trace = sample(p, 100, 3);
    let blocks: Vec<u64> = trace
        .iter()
        .filter_map(|i| i.addr)
        .map(|a| a.block_index(TRACE_BLOCK_BYTES) - STREAM_BASE / TRACE_BLOCK_BYTES)
        .collect();
    for pair in blocks.windows(2) {
        assert_eq!((pair[0] + 5) % stream_blocks, pair[1], "walker advances by exactly the stride");
    }
}

#[test]
fn phase_mix_reaches_regions_the_stationary_phases_alone_would_not() {
    // One rotation (4 × phase_period instructions) must touch both the
    // streaming region (Streaming phase) and the cold region (PointerChase
    // phase) even with hot-heavy region knobs.
    let p = bounded(AccessPattern::PhaseMix)
        .region_probs(0.9, 0.05, 0.05)
        .build()
        .expect("hot-heavy phase-mix profile is valid");
    let trace = sample(p.clone(), 4 * p.phase_period as usize, 5);
    let touched = |base: u64| {
        trace
            .iter()
            .filter_map(|i| i.addr)
            .any(|a| (base..base + 0x1000_0000).contains(&a.0))
    };
    assert!(touched(STREAM_BASE), "streaming phase ran");
    assert!(touched(COLD_BASE), "pointer-chase phase ran");
}
