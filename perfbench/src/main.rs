//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-lnuca|cmp-dnuca|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds its inputs from `--seed`, measures for about `--seconds`, checks
//! the simulator's outputs, and prints as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md`.

mod metrics;
mod probe;
mod serve;
mod stats;
mod study;
mod traced;

use std::process::ExitCode;

/// The seed the benchmark is tuned and reported on.
pub const BENCHMARK_SEED: u64 = 1;
/// A seed kept out of tuning, to check a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 20_090_420;

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: BENCHMARK_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--daemon") => return serve::daemon_main(),
        Some("--set-up-once") => return study::set_up_once_main(&args[1..]),
        _ => {}
    }
    assert!(
        metrics::tables_are_well_formed(),
        "metric tables break the name grammar"
    );
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper-lnuca|cmp-dnuca|serve-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace),
        other => match study::Kind::parse(other) {
            Some(kind) => study::run(kind, args.seed, args.seconds, args.trace),
            None => Err(format!("unknown workload {other:?}")),
        },
    };
    match outcome {
        Ok(outcome) => {
            eprint!("{}", outcome.metrics.to_text());
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
