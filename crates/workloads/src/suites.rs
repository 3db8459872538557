//! The INT-like and FP-like benchmark suites used by every experiment.
//!
//! The paper runs all SPEC CPU2006 benchmarks except 483.xalancbmk. Since the
//! SPEC sources cannot be redistributed, each synthetic profile below stands
//! in for a *behaviour class* observed in that suite rather than for a
//! specific program: pointer-chasing codes with huge working sets, branchy
//! compression loops, streaming array kernels, stencil codes with mid-size
//! reuse, and so on. What matters for the experiments is the distribution of
//! working-set sizes around the capacities of the caches under study
//! (32 KB L1, 40–216 KB of L-NUCA tiles, 256 KB L2, 8 MB L3), the memory-op
//! density and the branch behaviour — those are the quantities the profiles
//! control.

use crate::profile::{AccessPattern, Suite, WorkloadProfile, WorkloadProfileBuilder};
use lnuca_types::UnknownNameError;

/// Convenience constructor used by the suite tables below; the suite tables
/// chain further builder calls for pattern-specific knobs.
#[allow(clippy::too_many_arguments)]
fn profile(
    name: &str,
    suite: Suite,
    loads: f64,
    stores: f64,
    branches: f64,
    fp: f64,
    hot: u64,
    warm: u64,
    cold: u64,
    probs: (f64, f64, f64),
    stride: f64,
    dep: f64,
    bias: f64,
) -> WorkloadProfileBuilder {
    WorkloadProfile::builder(name)
        .suite(suite)
        .mix(loads, stores, branches, fp)
        .regions(hot, warm, cold)
        .stream_blocks(6_000_000)
        .region_probs(probs.0, probs.1, probs.2)
        .spatial_stride_prob(stride)
        .mean_dep_distance(dep)
        .branch_bias(bias)
        .static_branches(4_096)
}

/// Finishes a suite-table builder; every shipped profile is valid by
/// construction, so a failure here is a bug in the table itself.
fn built(builder: WorkloadProfileBuilder) -> WorkloadProfile {
    builder.build().expect("shipped suite profiles are valid")
}

/// The eleven INT-like synthetic benchmarks.
///
/// Integer codes are modelled with higher branch density, lower branch
/// predictability, smaller FP content and working sets concentrated in the
/// hot and warm regions. `int.pointer_chase` has the lowest hot share and,
/// with `int.event_sim`, the largest cold region: 12 000 blocks of 32 B,
/// about 375 KiB. That overflows the L2 and every fabric but sits far
/// inside the 8 MB L3, so unlike 429.mcf it fetches from DRAM no more often
/// than the FP-like profiles do.
#[must_use]
pub fn spec_int_like() -> Vec<WorkloadProfile> {
    use Suite::Integer as I;
    let table = vec![
        // name                      ld    st    br    fp   hot   warm    cold      (hot,  warm,  cold)    stride dep  bias
        profile(
            "int.compress",
            I,
            0.26,
            0.12,
            0.16,
            0.02,
            640,
            2_400,
            8_000,
            (0.755, 0.225, 0.016),
            0.40,
            5.0,
            0.90,
        ),
        profile(
            "int.pointer_chase",
            I,
            0.31,
            0.08,
            0.17,
            0.00,
            256,
            3_200,
            12_000,
            (0.725, 0.250, 0.020),
            0.10,
            3.5,
            0.88,
        ),
        profile(
            "int.compiler",
            I,
            0.25,
            0.13,
            0.20,
            0.01,
            768,
            2_600,
            10_000,
            (0.755, 0.225, 0.016),
            0.30,
            5.5,
            0.91,
        ),
        profile(
            "int.game_tree",
            I,
            0.24,
            0.09,
            0.21,
            0.02,
            512,
            2_000,
            6_000,
            (0.770, 0.213, 0.013),
            0.25,
            4.5,
            0.87,
        ),
        profile(
            "int.sequence_match",
            I,
            0.28,
            0.10,
            0.14,
            0.03,
            896,
            2_200,
            6_000,
            (0.775, 0.210, 0.011),
            0.45,
            6.5,
            0.94,
        ),
        profile(
            "int.chess_search",
            I,
            0.23,
            0.09,
            0.20,
            0.01,
            512,
            1_900,
            7_000,
            (0.780, 0.205, 0.012),
            0.22,
            4.0,
            0.88,
        ),
        profile(
            "int.quantum_stream",
            I,
            0.27,
            0.07,
            0.15,
            0.04,
            384,
            1_800,
            5_000,
            (0.770, 0.215, 0.011),
            0.45,
            8.0,
            0.97,
        ),
        profile(
            "int.video_decode",
            I,
            0.29,
            0.12,
            0.13,
            0.06,
            768,
            2_700,
            9_000,
            (0.750, 0.230, 0.016),
            0.45,
            6.0,
            0.93,
        ),
        profile(
            "int.event_sim",
            I,
            0.26,
            0.11,
            0.18,
            0.01,
            640,
            3_000,
            12_000,
            (0.735, 0.243, 0.018),
            0.28,
            5.0,
            0.90,
        ),
        profile(
            "int.path_search",
            I,
            0.27,
            0.08,
            0.19,
            0.01,
            512,
            2_800,
            10_000,
            (0.745, 0.235, 0.016),
            0.26,
            4.5,
            0.89,
        ),
        profile(
            "int.interpreter",
            I,
            0.25,
            0.12,
            0.21,
            0.01,
            704,
            2_100,
            7_000,
            (0.765, 0.217, 0.014),
            0.30,
            5.0,
            0.90,
        ),
    ];
    table.into_iter().map(built).collect()
}

/// The eleven FP-like synthetic benchmarks.
///
/// Floating-point codes are modelled with fewer, highly predictable branches,
/// higher FP-op density, strong spatial locality and larger warm/cold working
/// sets (stencils, dense linear algebra, streaming physics kernels), so a
/// larger share of their reuse lands beyond the first L-NUCA level — which is
/// exactly the Table III contrast between the Int. and FP. columns.
#[must_use]
pub fn spec_fp_like() -> Vec<WorkloadProfile> {
    use Suite::FloatingPoint as F;
    let table = vec![
        // name                     ld    st    br    fp   hot   warm    cold      (hot,  warm,  cold)    stride dep  bias
        profile(
            "fp.wave_solver",
            F,
            0.33,
            0.11,
            0.06,
            0.70,
            512,
            3_600,
            14_000,
            (0.675, 0.303, 0.018),
            0.45,
            9.0,
            0.985,
        ),
        profile(
            "fp.quantum_chem",
            F,
            0.30,
            0.12,
            0.08,
            0.65,
            768,
            3_000,
            10_000,
            (0.700, 0.280, 0.015),
            0.45,
            8.0,
            0.97,
        ),
        profile(
            "fp.lattice_qcd",
            F,
            0.34,
            0.10,
            0.05,
            0.75,
            384,
            4_400,
            16_000,
            (0.660, 0.317, 0.019),
            0.45,
            10.0,
            0.99,
        ),
        profile(
            "fp.hydro_stencil",
            F,
            0.32,
            0.13,
            0.07,
            0.68,
            640,
            4_000,
            14_000,
            (0.670, 0.310, 0.017),
            0.45,
            9.0,
            0.985,
        ),
        profile(
            "fp.molecular_dyn",
            F,
            0.29,
            0.10,
            0.09,
            0.66,
            896,
            2_800,
            9_000,
            (0.710, 0.270, 0.014),
            0.40,
            8.5,
            0.97,
        ),
        profile(
            "fp.relativity",
            F,
            0.33,
            0.12,
            0.05,
            0.72,
            512,
            4_200,
            15_000,
            (0.665, 0.313, 0.018),
            0.45,
            9.5,
            0.99,
        ),
        profile(
            "fp.fluid_lbm",
            F,
            0.30,
            0.14,
            0.04,
            0.70,
            448,
            3_400,
            12_000,
            (0.680, 0.297, 0.017),
            0.45,
            11.0,
            0.995,
        ),
        profile(
            "fp.weather",
            F,
            0.31,
            0.12,
            0.08,
            0.67,
            704,
            3_700,
            12_000,
            (0.680, 0.297, 0.017),
            0.45,
            8.5,
            0.98,
        ),
        profile(
            "fp.speech_hmm",
            F,
            0.32,
            0.09,
            0.10,
            0.60,
            832,
            2_600,
            8_000,
            (0.710, 0.273, 0.012),
            0.42,
            7.5,
            0.96,
        ),
        profile(
            "fp.linear_solver",
            F,
            0.31,
            0.11,
            0.07,
            0.69,
            640,
            3_900,
            14_000,
            (0.670, 0.310, 0.017),
            0.45,
            9.0,
            0.985,
        ),
        profile(
            "fp.ray_trace",
            F,
            0.28,
            0.09,
            0.12,
            0.62,
            960,
            2_400,
            7_000,
            (0.725, 0.257, 0.012),
            0.38,
            7.0,
            0.95,
        ),
    ];
    table.into_iter().map(built).collect()
}

/// The seven adversarial access-pattern benchmarks (ISSUE 4 expansion
/// plus the ISSUE 10 sharing classes).
///
/// Each profile exercises one [`AccessPattern`] class the stationary region
/// model cannot produce: a pointer chase whose working set overflows the
/// fabric (as in the cache-aware-programming literature), a strided
/// streaming kernel, a GUPS-like uniform-random-update table larger than
/// the L3, a phase-switching mix that cycles through all of them, and the
/// three CMP sharing classes (producer-consumer, migratory, false
/// sharing) that concentrate directory-coherence traffic. They are not
/// part of the paper's 22-benchmark reproduction ([`all`]); sweeps that
/// want them use [`extended`] or name them explicitly.
#[must_use]
pub fn adversarial() -> Vec<WorkloadProfile> {
    use Suite::{FloatingPoint as F, Integer as I};
    vec![
        // 24 576 cold blocks = 768 KB of chain: far beyond every L-NUCA
        // configuration and the 256 KB L2, comfortably inside the L3.
        built(
            profile(
                "adv.pointer_chase",
                I,
                0.32,
                0.06,
                0.15,
                0.00,
                256,
                1_024,
                24_576,
                (0.25, 0.0, 0.0),
                0.05,
                2.0,
                0.86,
            )
            .pattern(AccessPattern::PointerChase),
        ),
        // Stride of 3 blocks: never two consecutive accesses in one block,
        // so the walker defeats the spatial-stride shortcut the region
        // model relies on.
        built(
            profile(
                "adv.stream",
                F,
                0.35,
                0.10,
                0.05,
                0.60,
                512,
                1_024,
                4_096,
                (0.15, 0.0, 0.0),
                0.0,
                12.0,
                0.995,
            )
            .pattern(AccessPattern::Streaming)
            .stream_stride_blocks(3),
        ),
        // ~12 MB table (64 + 1 024 + 131 072 + 250 000 blocks of 32 B):
        // larger than the 8 MB L3, so uniform updates stress every level's
        // tag arrays at once.
        built(
            profile(
                "adv.gups",
                I,
                0.30,
                0.15,
                0.10,
                0.00,
                64,
                1_024,
                131_072,
                (0.0, 0.0, 0.0),
                0.0,
                8.0,
                0.90,
            )
            .pattern(AccessPattern::Gups)
            .stream_blocks(250_000),
        ),
        built(
            profile(
                "adv.phase_mix",
                I,
                0.28,
                0.10,
                0.16,
                0.05,
                512,
                2_400,
                16_384,
                (0.60, 0.25, 0.05),
                0.30,
                5.0,
                0.90,
            )
            .pattern(AccessPattern::PhaseMix)
            .phase_period(2_000),
        ),
        // The CMP sharing classes (ISSUE 10). On a single core each
        // degenerates to a benign private pattern, so they are safe in
        // every existing single-core matrix; on N cores they concentrate
        // coherence traffic by construction. 2 048 shared blocks = 64 KB
        // of hand-off buffer, cut into per-core windows.
        built(
            profile(
                "sh.prodcons",
                I,
                0.30,
                0.20,
                0.12,
                0.00,
                384,
                1_024,
                4_096,
                (0.30, 0.0, 0.0),
                0.20,
                5.0,
                0.92,
            )
            .pattern(AccessPattern::ProducerConsumer)
            .shared_blocks(2_048),
        ),
        // A 256-block (8 KB) migratory set whose home rotates every
        // 1 500 instructions: every hop is an ownership transfer.
        built(
            profile(
                "sh.migratory",
                I,
                0.30,
                0.18,
                0.14,
                0.00,
                384,
                1_024,
                4_096,
                (0.25, 0.0, 0.0),
                0.15,
                4.5,
                0.90,
            )
            .pattern(AccessPattern::Migratory)
            .shared_blocks(256)
            .phase_period(1_500),
        ),
        // 32 shared lines (1 KB) hammered word-interleaved by every core:
        // almost no data is shared, almost every line is contended.
        built(
            profile(
                "sh.falseshare",
                I,
                0.28,
                0.22,
                0.12,
                0.00,
                256,
                1_024,
                4_096,
                (0.20, 0.0, 0.0),
                0.10,
                5.0,
                0.92,
            )
            .pattern(AccessPattern::FalseSharing)
            .shared_blocks(32),
        ),
    ]
}

/// Both suites concatenated (INT first), as used by whole-run sweeps.
#[must_use]
pub fn all() -> Vec<WorkloadProfile> {
    let mut v = spec_int_like();
    v.extend(spec_fp_like());
    v
}

/// Every profile the crate ships: the paper's 22 benchmarks ([`all`])
/// followed by the seven [`adversarial`] access-pattern classes.
#[must_use]
pub fn extended() -> Vec<WorkloadProfile> {
    let mut v = all();
    v.extend(adversarial());
    v
}

/// Looks up a profile by name (case-insensitively) in any suite, including
/// the adversarial expansion.
///
/// # Errors
///
/// Returns an [`UnknownNameError`] listing every valid name when `name`
/// matches nothing — so a typo in a bench env knob (`LNUCA_WORKLOADS`) or a
/// scenario file fails loudly instead of silently running the wrong set.
/// The error converts into `ConfigError` via `?` where constructors need
/// it; the scenario loader of `lnuca-sim` reports its unknown-name failures
/// through the same type.
pub fn by_name(name: &str) -> Result<WorkloadProfile, UnknownNameError> {
    let wanted = name.trim();
    // A `.lnt` name is not a suite entry but an ingested binary trace: the
    // profile replays the file at that path (opened when a generator is
    // constructed). This is how scenarios and `LNUCA_WORKLOADS` reference
    // trace-backed workloads.
    if wanted.ends_with(".lnt") {
        return Ok(crate::trace::trace_profile(wanted));
    }
    let profiles = extended();
    match profiles
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(wanted))
    {
        Some(p) => Ok(p.clone()),
        None => Err(UnknownNameError::new(
            "workload",
            wanted,
            profiles.iter().map(|p| p.name.as_str()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn suites_have_eleven_benchmarks_each() {
        assert_eq!(spec_int_like().len(), 11);
        assert_eq!(spec_fp_like().len(), 11);
        assert_eq!(all().len(), 22);
        assert_eq!(adversarial().len(), 7);
        assert_eq!(extended().len(), 29);
    }

    #[test]
    fn every_profile_is_valid() {
        for p in extended() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn names_are_unique_and_suites_consistent() {
        let names: HashSet<String> = extended().into_iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 29);
        assert!(spec_int_like().iter().all(|p| p.suite == Suite::Integer));
        assert!(spec_fp_like()
            .iter()
            .all(|p| p.suite == Suite::FloatingPoint));
        assert!(all().iter().all(|p| p.pattern == AccessPattern::Regions));
    }

    #[test]
    fn adversarial_profiles_cover_every_new_pattern_class() {
        let patterns: Vec<AccessPattern> = adversarial().iter().map(|p| p.pattern).collect();
        assert_eq!(
            patterns,
            vec![
                AccessPattern::PointerChase,
                AccessPattern::Streaming,
                AccessPattern::Gups,
                AccessPattern::PhaseMix,
                AccessPattern::ProducerConsumer,
                AccessPattern::Migratory,
                AccessPattern::FalseSharing,
            ]
        );
    }

    #[test]
    fn fp_profiles_have_larger_warm_working_sets_on_average() {
        let avg = |v: &[WorkloadProfile]| {
            v.iter().map(|p| p.warm_blocks as f64).sum::<f64>() / v.len() as f64
        };
        assert!(avg(&spec_fp_like()) > avg(&spec_int_like()));
    }

    #[test]
    fn fp_profiles_branch_less_and_more_predictably() {
        let int = spec_int_like();
        let fp = spec_fp_like();
        let mean = |v: &[WorkloadProfile], f: fn(&WorkloadProfile) -> f64| {
            v.iter().map(f).sum::<f64>() / v.len() as f64
        };
        assert!(mean(&fp, |p| p.branch_fraction) < mean(&int, |p| p.branch_fraction));
        assert!(mean(&fp, |p| p.branch_bias) > mean(&int, |p| p.branch_bias));
    }

    #[test]
    fn by_name_finds_profiles_case_insensitively() {
        assert!(by_name("int.compress").is_ok());
        assert!(by_name("fp.weather").is_ok());
        assert!(by_name("adv.gups").is_ok());
        // Case and surrounding whitespace do not matter (env knobs).
        assert_eq!(by_name("INT.Compress").unwrap().name, "int.compress");
        assert_eq!(by_name("  Adv.Phase_Mix ").unwrap().name, "adv.phase_mix");
    }

    #[test]
    fn by_name_errors_list_every_valid_name() {
        let err = by_name("does.not.exist").unwrap_err().to_string();
        assert!(err.contains("does.not.exist"), "error names the offender: {err}");
        for p in extended() {
            assert!(err.contains(&p.name), "error must list {}: {err}", p.name);
        }
    }
}
