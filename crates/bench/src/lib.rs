//! Shared plumbing for the experiment binaries and criterion benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! by delegating to the scenario CLI layer ([`cli`]): a built-in scenario
//! (or any `lnuca-scenario/v1` JSON file) resolves to an
//! `ExperimentPlan`, the `LNUCA_*` environment variables layer on top
//! ([`knobs`]; defaults < scenario file < environment), and one
//! `Study::run` produces every table. The `lnuca` binary exposes the whole
//! surface (`lnuca list` / `run` / `validate` / `export` / `check-report`).
//!
//! The environment variables:
//!
//! * `LNUCA_INSTRUCTIONS` — instructions per (configuration, benchmark) pair
//!   (default 100 000; the paper simulates 100 M per SimPoint, which is far
//!   beyond what a laptop-scale reproduction needs for stationary synthetic
//!   traces),
//! * `LNUCA_BENCHMARKS_PER_SUITE` — restrict each suite to its first N
//!   benchmarks (default: all eleven),
//! * `LNUCA_WORKLOADS` — which profiles the matrix runs over: `paper`
//!   (default, the 22 paper benchmarks), `extended` (alias `all`:
//!   everything the crate ships — paper + the four adversarial
//!   access-pattern classes), `adversarial` (only those four), or a
//!   comma-separated list of profile names resolved case-insensitively
//!   (e.g. `int.compress,adv.gups`; unknown names abort with the valid
//!   list),
//! * `LNUCA_LEVELS` — comma-separated L-NUCA level counts (default `2,3,4`;
//!   applies to the two `paper-*` scenarios, which regenerate their
//!   configuration matrix from it — explicit scenarios pin their configs),
//! * `LNUCA_SEED` — base seed for the synthetic traces (default 1),
//! * `LNUCA_THREADS` — worker threads for the experiment matrix (default:
//!   all available hardware threads, unless the scenario pins a nonzero
//!   count; results are identical at any value, only the wall-clock
//!   changes),
//! * `LNUCA_QUICK` — any value but `0`/empty rewrites the run scale to the
//!   quick-smoke values (5 000 instructions, 2 benchmarks per suite,
//!   levels 2–3); the other variables still override individual fields,
//! * `LNUCA_ENGINE` — time-stepping engine: `event` (default; jump idle
//!   time via the `next_event` horizons of DESIGN.md §10) or `cycle`
//!   (single-step every cycle). Results are bit-identical either way
//!   (`tests/event_horizon_determinism.rs`); only throughput changes, and
//!   the chosen engine is recorded in the baseline's `engine` field,
//! * `LNUCA_BATCH` — consecutive jobs a worker claims at a time
//!   (DESIGN.md §13): a batch size of at least 1 (default 1) or `full` for
//!   the whole matrix as one chunk. The worker runs a chunk's jobs one
//!   after another, each supervised and timed on its own, so like
//!   `LNUCA_THREADS` and `LNUCA_ENGINE` this changes only the wall clock;
//!   it is recorded in the baseline's `batch_size` field,
//! * `LNUCA_BENCH_JSON` — where `all_experiments` writes the machine-readable
//!   perf baseline (default `BENCH_baseline.json`, deliberately the path of
//!   the committed trajectory point — rerunning refreshes it; empty or `-`
//!   disables). `headline_summary` honours it too but only when set; the
//!   single-figure binaries never write it.
//!
//! Malformed values are rejected with a one-line warning on stderr naming
//! the variable and the offending value — once per variable per process —
//! then the lower layer (scenario file or default) stays in effect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cli;
pub mod knobs;

pub use knobs::{default_threads, options_from_env};

/// Formats a floating-point value with three significant decimals.
#[must_use]
pub fn f3(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats a percentage with one decimal and a sign.
#[must_use]
pub fn signed_pct(value: f64) -> String {
    format!("{value:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sensible() {
        let opts = options_from_env();
        assert!(opts.instructions >= 1_000);
        assert!(!opts.lnuca_levels.is_empty());
        assert!(opts.threads >= 1);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(signed_pct(6.13), "+6.1%");
        assert_eq!(signed_pct(-5.3), "-5.3%");
    }
}
