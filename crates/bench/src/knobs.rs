//! The `LNUCA_*` environment knobs, with one layered resolution.
//!
//! Every run is configured through three layers, weakest first:
//!
//! 1. **defaults** — [`ExperimentOptions::default`] (or a scenario's
//!    baked-in options),
//! 2. **scenario file** — whatever the loaded `lnuca-scenario/v1` document
//!    pins,
//! 3. **environment** — the `LNUCA_*` variables, applied last by
//!    [`apply_env`] so a CI job or a quick local override always wins.
//!
//! Before this module each binary parsed its own copy of the variables
//! (`env_u64` was pasted per knob); now the parsing, the layering and the
//! warn-once behaviour live in one place. A malformed value (e.g.
//! `LNUCA_INSTRUCTIONS=10k`) warns on stderr **once per variable per
//! process** — not once per binary that happens to re-read it — and the
//! lower layers' value stays in effect.
//!
//! The variables (see the crate docs for the full prose): `LNUCA_QUICK`,
//! `LNUCA_INSTRUCTIONS`, `LNUCA_BENCHMARKS_PER_SUITE`, `LNUCA_SEED`,
//! `LNUCA_LEVELS`, `LNUCA_WORKLOADS`, `LNUCA_THREADS`, `LNUCA_ENGINE`,
//! `LNUCA_BATCH`, `LNUCA_BENCH_JSON`, plus the run-supervision knobs
//! (DESIGN.md §14): `LNUCA_CYCLE_BUDGET`, `LNUCA_RUN_TIMEOUT_MS`,
//! `LNUCA_LIVELOCK_WINDOW` (all three: `0` = off) and `LNUCA_RETRIES`.
//!
//! The serve daemon (DESIGN.md §15) adds three service knobs resolved
//! here with the same warn-once behaviour: `LNUCA_SERVE_ADDR` (bind
//! address), `LNUCA_QUEUE_DEPTH` (admission-control bound) and
//! `LNUCA_SERVE_WORKERS` (persistent worker count). Command-line flags of
//! `lnuca-serve` override them.
//!
//! The design-space autopilot (DESIGN.md §16) adds two sweep knobs:
//! `LNUCA_SWEEP_EPSILON` (the relative dominance margin ε of the pruning
//! stage) and `LNUCA_SWEEP_PROBE` (the probe-stage instruction budget),
//! applied by [`apply_sweep_env`] together with the regular [`apply_env`]
//! layer over the survivor-stage options.

use lnuca_sim::experiments::{ExperimentOptions, WorkloadSelection};
use lnuca_sim::sweep::SweepConfig;
use lnuca_sim::system::Engine;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Variables already warned about (per process), so repeated reads of a
/// malformed knob do not spam stderr.
static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Records that `name` produced a warning; `true` if this is the first time
/// (i.e. the caller should actually print it).
fn first_warning(name: &str) -> bool {
    WARNED
        .lock()
        .expect("no holder panics")
        .insert(name.to_owned())
}

/// Emits a one-line warning for a malformed knob, once per variable.
fn warn_malformed(name: &str, raw: &str, expected: &str) {
    if first_warning(name) {
        eprintln!("warning: ignoring {name}={raw:?}: expected {expected}, using the lower layer");
    }
}

/// `true` if `name` is set to anything but the empty string or `0`.
#[must_use]
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Reads `name` as a `u64`, warning (once) on malformed values.
#[must_use]
pub fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match parse_u64(&raw) {
        Some(v) => Some(v),
        None => {
            warn_malformed(name, &raw, "an unsigned integer");
            None
        }
    }
}

/// The pure core of [`env_u64`].
#[must_use]
pub fn parse_u64(raw: &str) -> Option<u64> {
    raw.trim().parse().ok()
}

/// Parses an `LNUCA_ENGINE` value; `None` for anything unrecognised.
#[must_use]
pub fn parse_engine(raw: &str) -> Option<Engine> {
    Engine::parse(raw)
}

/// Parses an `LNUCA_WORKLOADS` value: a keyword selecting a predefined set,
/// or a comma-separated list of profile names (resolved case-insensitively
/// by `suites::by_name` when the study runs — a typo aborts the run with
/// the full list of valid names rather than silently simulating nothing).
/// `None` when the list degenerates to nothing (only separators).
#[must_use]
pub fn parse_workloads(raw: &str) -> Option<WorkloadSelection> {
    if let Some(keyword) = WorkloadSelection::from_keyword(raw) {
        return Some(keyword);
    }
    let names: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if names.is_empty() {
        None
    } else {
        Some(WorkloadSelection::Named(names))
    }
}

/// Parses an `LNUCA_BENCHMARKS_PER_SUITE` value: a per-suite cap of at
/// least 1. Parsed directly as `usize` — the old path went through `u64`
/// and an `as usize` cast, which silently truncated huge values on 32-bit
/// targets — and `0` is rejected rather than quietly emptying every suite.
#[must_use]
pub fn parse_benchmarks(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Parses an `LNUCA_SWEEP_EPSILON` value: a finite relative dominance
/// margin `>= 0` (`0` = plain Pareto dominance). `None` for negative,
/// non-finite or unparseable values.
#[must_use]
pub fn parse_epsilon(raw: &str) -> Option<f64> {
    raw.trim()
        .parse::<f64>()
        .ok()
        .filter(|e| e.is_finite() && *e >= 0.0)
}

/// Parses an `LNUCA_BATCH` value: a batch size of at least 1, or
/// `full`/`max` for the whole matrix as one chunk (`usize::MAX`, see
/// `ExperimentOptions::batch_size`). `None` for `0` or
/// anything unrecognised.
#[must_use]
pub fn parse_batch(raw: &str) -> Option<usize> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "full" | "max" => Some(usize::MAX),
        trimmed => match trimmed.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => None,
        },
    }
}

/// Parses an `LNUCA_LEVELS` value: comma-separated level counts in 2..=8.
/// `None` when nothing valid remains.
#[must_use]
pub fn parse_levels(raw: &str) -> Option<Vec<u8>> {
    let levels: Vec<u8> = raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&l| (2..=8).contains(&l))
        .collect();
    if levels.is_empty() {
        None
    } else {
        Some(levels)
    }
}

/// The default worker-thread count: one per available hardware thread.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The address `lnuca-serve` binds when neither `--addr` nor
/// `LNUCA_SERVE_ADDR` says otherwise. Loopback on purpose: exposing the
/// daemon beyond the host is a deployment decision, not a default.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7090";

/// The default admission-control bound on queued jobs (`LNUCA_QUEUE_DEPTH`).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// `LNUCA_SERVE_ADDR`, or [`DEFAULT_SERVE_ADDR`] when unset/empty.
#[must_use]
pub fn serve_addr() -> String {
    match std::env::var("LNUCA_SERVE_ADDR") {
        Ok(v) if !v.is_empty() => v,
        _ => DEFAULT_SERVE_ADDR.to_owned(),
    }
}

/// `LNUCA_QUEUE_DEPTH` (clamped to at least 1 — a service with no queue at
/// all could never accept work), or [`DEFAULT_QUEUE_DEPTH`] when unset or
/// malformed.
#[must_use]
pub fn queue_depth() -> usize {
    match env_u64("LNUCA_QUEUE_DEPTH") {
        Some(v) => usize::try_from(v).unwrap_or(usize::MAX).max(1),
        None => DEFAULT_QUEUE_DEPTH,
    }
}

/// `LNUCA_SERVE_WORKERS` (clamped to at least 1), defaulting to the
/// hardware thread count capped at 4 — each job fans its own run matrix
/// over `LNUCA_THREADS`, so stacking many service workers on top mostly
/// buys oversubscription.
#[must_use]
pub fn serve_workers() -> usize {
    match env_u64("LNUCA_SERVE_WORKERS") {
        Some(v) => usize::try_from(v).unwrap_or(usize::MAX).max(1),
        None => default_threads().min(4),
    }
}

/// Applies the environment layer on top of `opts` (which carries the
/// defaults-plus-scenario layers already):
///
/// * `LNUCA_QUICK` first rewrites the run scale to the quick-smoke values
///   (5 000 instructions, 2 benchmarks per suite, levels 2–3), then the
///   individual variables override further,
/// * each `LNUCA_*` variable overrides its field when set and well-formed
///   (malformed values warn once and leave the lower layer in effect),
/// * `threads` resolves last: `LNUCA_THREADS` if set, otherwise a
///   scenario-pinned nonzero value, otherwise every hardware thread
///   (`0` in a scenario means "auto").
pub fn apply_env(opts: &mut ExperimentOptions) {
    if env_flag("LNUCA_QUICK") {
        let quick = ExperimentOptions::quick();
        opts.instructions = quick.instructions;
        opts.benchmarks_per_suite = quick.benchmarks_per_suite;
        opts.lnuca_levels = quick.lnuca_levels;
    }
    if let Some(v) = env_u64("LNUCA_INSTRUCTIONS") {
        opts.instructions = v;
    }
    if let Ok(raw) = std::env::var("LNUCA_BENCHMARKS_PER_SUITE") {
        match parse_benchmarks(&raw) {
            Some(n) => opts.benchmarks_per_suite = Some(n),
            None => warn_malformed(
                "LNUCA_BENCHMARKS_PER_SUITE",
                &raw,
                "a per-suite benchmark count >= 1",
            ),
        }
    }
    if let Some(v) = env_u64("LNUCA_SEED") {
        opts.seed = v;
    }
    if let Ok(raw) = std::env::var("LNUCA_LEVELS") {
        match parse_levels(&raw) {
            Some(levels) => opts.lnuca_levels = levels,
            None => warn_malformed("LNUCA_LEVELS", &raw, "comma-separated level counts in 2..=8"),
        }
    }
    if let Ok(raw) = std::env::var("LNUCA_WORKLOADS") {
        match parse_workloads(&raw) {
            Some(selection) => opts.workloads = selection,
            None => warn_malformed(
                "LNUCA_WORKLOADS",
                &raw,
                "paper, extended, adversarial or a comma-separated name list",
            ),
        }
    }
    if let Ok(raw) = std::env::var("LNUCA_ENGINE") {
        match parse_engine(&raw) {
            Some(engine) => opts.engine = engine,
            None => warn_malformed("LNUCA_ENGINE", &raw, "\"event\" or \"cycle\""),
        }
    }
    if let Ok(raw) = std::env::var("LNUCA_BATCH") {
        match parse_batch(&raw) {
            Some(batch) => opts.batch_size = batch,
            None => warn_malformed("LNUCA_BATCH", &raw, "a batch size >= 1, or \"full\""),
        }
    }
    // Supervision watchdogs (DESIGN.md §14): for the three budget knobs an
    // explicit `0` disables the watchdog (the field's None), so a CI job
    // can switch one off even when a scenario pins it.
    if let Some(v) = env_u64("LNUCA_CYCLE_BUDGET") {
        opts.cycle_budget = (v != 0).then_some(v);
    }
    if let Some(v) = env_u64("LNUCA_RUN_TIMEOUT_MS") {
        opts.run_timeout_ms = (v != 0).then_some(v);
    }
    if let Some(v) = env_u64("LNUCA_LIVELOCK_WINDOW") {
        opts.livelock_window = (v != 0).then_some(v);
    }
    if let Some(v) = env_u64("LNUCA_RETRIES") {
        opts.retries = u32::try_from(v).unwrap_or(u32::MAX);
    }
    opts.threads = match env_u64("LNUCA_THREADS") {
        Some(v) => usize::try_from(v).unwrap_or(usize::MAX).max(1),
        None if opts.threads == 0 => default_threads(),
        None => opts.threads,
    };
}

/// Applies the environment layer on top of a sweep configuration:
/// `LNUCA_SWEEP_EPSILON` and `LNUCA_SWEEP_PROBE` override the grid
/// defaults (malformed values warn once, like every knob), and the
/// survivor-stage options go through [`apply_env`] like any experiment —
/// so e.g. `LNUCA_INSTRUCTIONS` scales the expensive stage of a sweep the
/// same way it scales a plain run.
pub fn apply_sweep_env(sweep: &mut SweepConfig) {
    if let Ok(raw) = std::env::var("LNUCA_SWEEP_EPSILON") {
        match parse_epsilon(&raw) {
            Some(epsilon) => sweep.epsilon = epsilon,
            None => warn_malformed(
                "LNUCA_SWEEP_EPSILON",
                &raw,
                "a finite relative margin >= 0 (e.g. 0.02)",
            ),
        }
    }
    if let Ok(raw) = std::env::var("LNUCA_SWEEP_PROBE") {
        match parse_u64(&raw) {
            Some(v) if v >= 1 => sweep.probe_instructions = v,
            _ => warn_malformed("LNUCA_SWEEP_PROBE", &raw, "a probe instruction budget >= 1"),
        }
    }
    apply_env(&mut sweep.options);
}

/// Builds [`ExperimentOptions`] from the `LNUCA_*` environment variables
/// alone: the full-run defaults (100 000 instructions, auto threads) with
/// the environment layer on top.
#[must_use]
pub fn options_from_env() -> ExperimentOptions {
    let mut opts = ExperimentOptions::builder().instructions(100_000).build();
    opts.threads = 0; // auto unless LNUCA_THREADS (or a scenario) pins it
    apply_env(&mut opts);
    opts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_u64_accepts_integers_and_rejects_junk() {
        assert_eq!(parse_u64(" 250 "), Some(250));
        assert_eq!(parse_u64("10k"), None);
        assert_eq!(parse_u64(""), None);
        assert_eq!(parse_u64("-3"), None);
    }

    #[test]
    fn engine_values_parse_and_junk_is_rejected() {
        assert_eq!(parse_engine("event"), Some(Engine::EventHorizon));
        assert_eq!(parse_engine("Event-Horizon"), Some(Engine::EventHorizon));
        assert_eq!(parse_engine("cycle"), Some(Engine::CycleStep));
        assert_eq!(parse_engine(" naive "), Some(Engine::CycleStep));
        assert_eq!(parse_engine("warp9"), None);
    }

    #[test]
    fn workload_values_parse() {
        assert_eq!(parse_workloads("paper"), Some(WorkloadSelection::Paper));
        assert_eq!(parse_workloads(" Extended "), Some(WorkloadSelection::Extended));
        assert_eq!(parse_workloads("ADV"), Some(WorkloadSelection::Adversarial));
        assert_eq!(
            parse_workloads("int.compress, adv.gups"),
            Some(WorkloadSelection::Named(vec![
                "int.compress".to_owned(),
                "adv.gups".to_owned()
            ]))
        );
        assert_eq!(parse_workloads(" , ,, "), None, "separator soup is rejected, not Named([])");
    }

    #[test]
    fn level_lists_parse_with_range_filtering() {
        assert_eq!(parse_levels("2,3,4"), Some(vec![2, 3, 4]));
        assert_eq!(parse_levels(" 5 "), Some(vec![5]));
        assert_eq!(parse_levels("1,9,zzz"), None, "out-of-range and junk leave nothing");
    }

    #[test]
    fn batch_values_parse() {
        assert_eq!(parse_batch("1"), Some(1));
        assert_eq!(parse_batch(" 8 "), Some(8));
        assert_eq!(parse_batch("full"), Some(usize::MAX));
        assert_eq!(parse_batch("MAX"), Some(usize::MAX));
        assert_eq!(parse_batch("0"), None, "a zero batch is meaningless");
        assert_eq!(parse_batch("-2"), None);
        assert_eq!(parse_batch("wide"), None);
    }

    #[test]
    fn benchmark_counts_parse_without_truncation() {
        assert_eq!(parse_benchmarks("1"), Some(1));
        assert_eq!(parse_benchmarks(" 12 "), Some(12));
        assert_eq!(parse_benchmarks("0"), None, "a zero cap would empty every suite");
        assert_eq!(parse_benchmarks("-1"), None);
        assert_eq!(
            parse_benchmarks("36893488147419103232"), // 2^65: would truncate to 0 via `as usize`
            None,
            "counts beyond usize are rejected, not truncated"
        );
    }

    #[test]
    fn epsilon_values_parse_with_range_checks() {
        assert_eq!(parse_epsilon("0.02"), Some(0.02));
        assert_eq!(parse_epsilon(" 0 "), Some(0.0), "0 means plain Pareto dominance");
        assert_eq!(parse_epsilon("-0.1"), None, "a negative margin is meaningless");
        assert_eq!(parse_epsilon("inf"), None);
        assert_eq!(parse_epsilon("NaN"), None);
        assert_eq!(parse_epsilon("two percent"), None);
    }

    #[test]
    fn sweep_env_layer_keeps_the_grid_defaults_when_unset() {
        if std::env::var("LNUCA_SWEEP_EPSILON").is_ok()
            || std::env::var("LNUCA_SWEEP_PROBE").is_ok()
        {
            return; // the env layer would legitimately move the defaults
        }
        let mut sweep = SweepConfig::miniature();
        let (epsilon, probe) = (sweep.epsilon, sweep.probe_instructions);
        apply_sweep_env(&mut sweep);
        assert_eq!(sweep.epsilon, epsilon);
        assert_eq!(sweep.probe_instructions, probe);
        assert!(sweep.options.threads >= 1, "thread auto-resolution still runs");
    }

    #[test]
    fn malformed_warnings_fire_once_per_variable() {
        // The stderr line itself is not capturable here; the once-per-name
        // bookkeeping is.
        assert!(first_warning("TEST_KNOB_A"), "first sighting warns");
        assert!(!first_warning("TEST_KNOB_A"), "second sighting is silent");
        assert!(first_warning("TEST_KNOB_B"), "independent per variable");
    }

    #[test]
    fn env_layer_resolves_auto_threads() {
        // Without LNUCA_THREADS in the environment, a scenario-pinned value
        // survives and the 0 sentinel resolves to the hardware threads.
        // (CI never sets LNUCA_THREADS for unit tests; guard anyway.)
        if std::env::var("LNUCA_THREADS").is_ok() {
            return;
        }
        let mut pinned = ExperimentOptions::quick();
        pinned.threads = 3;
        apply_env(&mut pinned);
        assert_eq!(pinned.threads, 3, "scenario pin survives an unset env");

        let mut auto = ExperimentOptions::quick();
        auto.threads = 0;
        apply_env(&mut auto);
        assert_eq!(auto.threads, default_threads(), "0 means auto");
    }
}
