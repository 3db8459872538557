//! The `lnuca-serve` daemon binary.
//!
//! ```text
//! lnuca-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!             [--cache-capacity N] [--journal DIR]
//! ```
//!
//! Flags override the `LNUCA_SERVE_ADDR` / `LNUCA_SERVE_WORKERS` /
//! `LNUCA_QUEUE_DEPTH` environment knobs; scenario-level `LNUCA_*` knobs
//! (quick mode, budgets, threads) layer onto every submission exactly as
//! they do for the CLI. `--cache-capacity` bounds both the result cache
//! and the finished job records (least recently used evicted first). The
//! daemon prints one `listening on ADDR` line to stdout once the socket
//! is bound (port 0 works — the line reports the real port, which is how
//! tests and CI discover it), serves until SIGTERM/SIGINT, drains
//! gracefully and exits 0.

use lnuca_serve::{router, signals, ServeConfig, Server};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = lnuca_bench::knobs::serve_addr();
    let mut config = ServeConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            "--addr" => match iter.next() {
                Some(v) => addr = v.clone(),
                None => return usage_error("--addr needs HOST:PORT"),
            },
            "--workers" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1 => config.workers = v,
                _ => return usage_error("--workers needs a positive integer"),
            },
            "--queue-depth" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1 => config.queue_depth = v,
                _ => return usage_error("--queue-depth needs a positive integer"),
            },
            "--cache-capacity" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) if v >= 1 => config.cache_capacity = v,
                _ => return usage_error("--cache-capacity needs a positive integer"),
            },
            "--journal" => match iter.next() {
                Some(v) => config.journal_dir = Some(PathBuf::from(v)),
                None => return usage_error("--journal needs a directory"),
            },
            other => return usage_error(&format!("unknown flag {other:?}")),
        }
    }

    signals::install_drain_handler();
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    let server = Server::start(config.clone());
    // Discovery line: tests and CI bind port 0 and parse the real port
    // from here. Keep the format stable.
    println!("lnuca-serve listening on {bound}");
    eprintln!(
        "workers {} · queue depth {} · cache capacity {} · journal {}",
        config.workers,
        config.queue_depth,
        config.cache_capacity,
        config
            .journal_dir
            .as_ref()
            .map_or("off".to_owned(), |p| p.display().to_string()),
    );
    match router::run_until_drained(&server, listener) {
        Ok(()) => {
            eprintln!("drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("lnuca-serve: {message}");
    print_help();
    ExitCode::FAILURE
}

fn print_help() {
    eprintln!(
        "usage: lnuca-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
         \x20                  [--cache-capacity N] [--journal DIR]\n\
         \n\
         Flags override LNUCA_SERVE_ADDR / LNUCA_SERVE_WORKERS / LNUCA_QUEUE_DEPTH.\n\
         --cache-capacity N (default 64) bounds the result cache and the finished job\n\
         records alike; an evicted job id answers 404, its report stays cached by digest.\n\
         Endpoints: POST /v1/jobs, POST /v1/scenarios/{{name}}, GET /v1/jobs/{{id}},\n\
         DELETE /v1/jobs/{{id}}, GET /metrics, GET /healthz. SIGTERM drains and exits 0."
    );
}
