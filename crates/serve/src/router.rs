//! HTTP endpoint dispatch and the drain-aware accept loop.
//!
//! Routes (all JSON unless noted):
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | `POST` | `/v1/jobs` | submit a scenario **document** (file semantics) |
//! | `POST` | `/v1/scenarios/{name}` | submit a **registry** scenario by name |
//! | `GET` | `/v1/jobs/{id}` | job snapshot (report inline once terminal) |
//! | `DELETE` | `/v1/jobs/{id}` | cancel a job |
//! | `GET` | `/metrics` | Prometheus text exposition |
//! | `GET` | `/healthz` | liveness (`ok` / `draining`) |
//!
//! Submissions accept `?priority=N` (higher first, default 0) and
//! `?wait=SECS` (block until the job is terminal and return the report in
//! the same response — the one-round-trip path CI uses). A cache hit
//! returns `200` with the stored report and an `x-lnuca-cache: hit`
//! header; an accepted job returns `202`; a full queue returns `429` with
//! `Retry-After`; a draining daemon returns `503`.
//!
//! The accept loop **blocks** in `accept`, so a connection is served the
//! moment it arrives. std's blocking `accept` retries `EINTR`, so a
//! SIGTERM cannot interrupt it; instead a waker thread polls the drain
//! flags (the signal flag and [`Server::is_draining`]) and, once either is
//! set, connects to the listener itself. The loop checks the flags after
//! every accept, drops that connection unhandled, runs the server drain
//! ([`Server::begin_drain`] + [`Server::drain_join`]) and returns.

use crate::http;
use crate::service::{JobSnapshot, Server, Source, Submission};
use crate::signals;
use serde::json::Value;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Pause after a failed `accept` (such as EMFILE), so an error cannot spin
/// the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// How often the waker checks the drain flags.
const DRAIN_POLL: Duration = Duration::from_millis(10);
/// Bound on the waker's connect: a full backlog means `accept` is not
/// blocked and will see the flag on its own.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Cap on a `?wait=SECS` long-poll.
const MAX_WAIT: Duration = Duration::from_secs(600);

/// Runs the accept loop until a drain is requested (SIGTERM/SIGINT or
/// [`Server::begin_drain`] from another thread), then drains the server
/// and returns. The caller exits 0 afterwards.
///
/// # Errors
///
/// Only setup can fail (reading the listener's address); per-connection
/// errors are answered or dropped, never fatal.
pub fn run_until_drained(server: &Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    let waker = spawn_waker(server, wake_addr(listener.local_addr()?));
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if drain_flagged(server) {
            // Most likely the waker's own connection: dropped unhandled.
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let server = Arc::clone(server);
                handlers.push(thread::spawn(move || handle_connection(&server, stream)));
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("accept error (continuing): {e}");
                thread::sleep(ACCEPT_BACKOFF);
            }
        }
    }
    eprintln!("drain requested: refusing new work, finishing in-flight jobs");
    server.begin_drain();
    server.drain_join();
    for handle in handlers {
        let _ = handle.join();
    }
    let _ = waker.join();
    Ok(())
}

fn drain_flagged(server: &Server) -> bool {
    signals::drain_requested() || server.is_draining()
}

/// The address the waker connects to: the listener's own, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        match addr {
            SocketAddr::V4(_) => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            SocketAddr::V6(_) => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        }
    }
    addr
}

/// Starts the thread that wakes the blocked `accept` once a drain is
/// flagged. It connects once and exits; the loop drops the connection.
fn spawn_waker(server: &Arc<Server>, addr: SocketAddr) -> JoinHandle<()> {
    let server = Arc::clone(server);
    thread::Builder::new()
        .name("lnuca-serve-waker".to_owned())
        .spawn(move || {
            while !drain_flagged(&server) {
                thread::sleep(DRAIN_POLL);
            }
            let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        })
        .expect("spawn waker thread")
}

/// Serves one connection: read one request, dispatch, write one response.
pub fn handle_connection(server: &Arc<Server>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match http::read_message(&mut stream, false) {
        Ok(r) => r,
        Err(e) => {
            respond_error(&mut stream, 400, &e);
            return;
        }
    };
    crate::Metrics::bump(&server.metrics().requests_total);
    let (path, query) = split_target(&request.target);
    match (request.method.as_str(), path) {
        ("GET", "/metrics") => {
            let body = server.metrics().render();
            let _ = http::write_response(
                &mut stream,
                200,
                http::reason(200),
                "text/plain; version=0.0.4",
                &[],
                body.as_bytes(),
            );
        }
        ("GET", "/healthz") => {
            let status = if server.is_draining() {
                "draining"
            } else {
                "ok"
            };
            let body = object(vec![
                ("status", Value::String(status.to_owned())),
                ("uptime_seconds", Value::UInt(server.uptime().as_secs())),
            ]);
            respond_json(&mut stream, 200, &[], &body);
        }
        ("POST", "/v1/jobs") => {
            let text = request.text();
            let (submission, waited) =
                server.submit(Source::Document(&text), priority_of(query), wait_of(query));
            respond_submission(&mut stream, submission, waited);
        }
        ("POST", _) if path.starts_with("/v1/scenarios/") => {
            let name = &path["/v1/scenarios/".len()..];
            let (submission, waited) =
                server.submit(Source::Name(name), priority_of(query), wait_of(query));
            respond_submission(&mut stream, submission, waited);
        }
        ("GET", _) if path.starts_with("/v1/jobs/") => match parse_id(&path["/v1/jobs/".len()..]) {
            Some(id) => match server.snapshot(id) {
                Some(snapshot) => {
                    let body = snapshot_json(&snapshot, true);
                    respond_json(&mut stream, 200, &[], &body);
                }
                None => respond_error(&mut stream, 404, "no such job"),
            },
            None => respond_error(&mut stream, 400, "job ids are decimal integers"),
        },
        ("DELETE", _) if path.starts_with("/v1/jobs/") => {
            match parse_id(&path["/v1/jobs/".len()..]) {
                Some(id) => match server.cancel(id) {
                    Some(was) => {
                        let body = object(vec![
                            ("id", Value::UInt(id)),
                            ("was", Value::String(was.label().to_owned())),
                        ]);
                        respond_json(&mut stream, 200, &[], &body);
                    }
                    None => respond_error(&mut stream, 404, "no such job"),
                },
                None => respond_error(&mut stream, 400, "job ids are decimal integers"),
            }
        }
        ("GET" | "POST" | "DELETE", _) => respond_error(&mut stream, 404, "no such route"),
        _ => respond_error(&mut stream, 405, "method not allowed"),
    }
}

/// Answers a submission; `waited` is the snapshot of a `?wait=SECS`
/// long-poll on an admitted job.
fn respond_submission(stream: &mut TcpStream, submission: Submission, waited: Option<JobSnapshot>) {
    match submission {
        Submission::CacheHit { digest, report } => {
            let _ = http::write_response(
                stream,
                200,
                http::reason(200),
                "application/json",
                &[
                    ("x-lnuca-cache", "hit"),
                    ("x-lnuca-digest", &format!("{digest:016x}")),
                ],
                report.as_bytes(),
            );
        }
        Submission::Accepted { id, digest } => match waited {
            Some(snapshot) if snapshot.state.is_terminal() => {
                // One-round-trip path: the report body directly when the
                // job produced one, the snapshot if not.
                let digest_hex = format!("{digest:016x}");
                let headers = [
                    ("x-lnuca-cache", "miss"),
                    ("x-lnuca-digest", digest_hex.as_str()),
                    ("x-lnuca-job-state", snapshot.state.label()),
                ];
                match &snapshot.report {
                    Some(report) => {
                        let _ = http::write_response(
                            stream,
                            200,
                            http::reason(200),
                            "application/json",
                            &headers,
                            report.as_bytes(),
                        );
                    }
                    None => {
                        let body = snapshot_json(&snapshot, true);
                        respond_json(stream, 500, &headers, &body);
                    }
                }
            }
            Some(snapshot) => {
                // Timed out still queued/running: point at the poll
                // endpoint instead of failing the submission.
                let body = snapshot_json(&snapshot, false);
                respond_json(stream, 202, &[], &body);
            }
            None => {
                let body = object(vec![
                    ("id", Value::UInt(id)),
                    ("digest", Value::String(format!("{digest:016x}"))),
                    ("state", Value::String("queued".to_owned())),
                    ("poll", Value::String(format!("/v1/jobs/{id}"))),
                ]);
                respond_json(stream, 202, &[], &body);
            }
        },
        Submission::Busy { retry_after_secs } => {
            let body = object(vec![(
                "error",
                Value::String("queue full — admission control refused the job".to_owned()),
            )]);
            // Belt-and-braces: whatever ETA the service computed, the wire
            // never carries `Retry-After: 0` — clients read that as "retry
            // immediately" and hammer a queue that is by definition full.
            let retry = retry_after_secs.max(1).to_string();
            respond_json(stream, 429, &[("retry-after", retry.as_str())], &body);
        }
        Submission::Draining => {
            let body = object(vec![(
                "error",
                Value::String("daemon is draining and admits no new work".to_owned()),
            )]);
            respond_json(stream, 503, &[], &body);
        }
        Submission::Invalid(message) => respond_error(stream, 400, &message),
    }
}

/// Renders a job snapshot. With `include_report`, a terminal job's report
/// document is embedded under `"report"` (parsed, not double-encoded).
fn snapshot_json(snapshot: &JobSnapshot, include_report: bool) -> Value {
    let mut fields = vec![
        ("id", Value::UInt(snapshot.id)),
        ("name", Value::String(snapshot.name.clone())),
        ("digest", Value::String(format!("{:016x}", snapshot.digest))),
        ("state", Value::String(snapshot.state.label().to_owned())),
    ];
    if let Some(error) = &snapshot.error {
        fields.push(("error", Value::String(error.clone())));
    }
    if include_report {
        if let Some(report) = &snapshot.report {
            if let Ok(value) = serde::json::parse(report) {
                fields.push(("report", value));
            }
        }
    }
    object(fields)
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn respond_json(stream: &mut TcpStream, status: u16, extra: &[(&str, &str)], body: &Value) {
    let text = body.to_pretty();
    let _ = http::write_response(
        stream,
        status,
        http::reason(status),
        "application/json",
        extra,
        text.as_bytes(),
    );
}

fn respond_error(stream: &mut TcpStream, status: u16, message: &str) {
    let body = object(vec![("error", Value::String(message.to_owned()))]);
    respond_json(stream, status, &[], &body);
}

fn split_target(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    }
}

fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

fn priority_of(query: &str) -> i64 {
    query_param(query, "priority")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The `?wait=SECS` long-poll, capped at [`MAX_WAIT`].
fn wait_of(query: &str) -> Option<Duration> {
    query_param(query, "wait")
        .and_then(|v| v.parse::<u64>().ok())
        .map(|secs| Duration::from_secs(secs).min(MAX_WAIT))
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_splitting_and_query_parsing() {
        let (path, query) = split_target("/v1/jobs?priority=3&wait=10");
        assert_eq!(path, "/v1/jobs");
        assert_eq!(priority_of(query), 3);
        assert_eq!(wait_of(query), Some(Duration::from_secs(10)));
        assert_eq!(wait_of("wait=86400"), Some(MAX_WAIT));
        let (path, query) = split_target("/metrics");
        assert_eq!(path, "/metrics");
        assert_eq!(priority_of(query), 0);
        assert_eq!(wait_of(query), None);
    }

    #[test]
    fn the_waker_dials_loopback_for_an_unspecified_bind() {
        let v4: SocketAddr = "0.0.0.0:7090".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7090".parse().unwrap());
        let v6: SocketAddr = "[::]:7090".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:7090".parse().unwrap());
        let bound: SocketAddr = "10.1.2.3:80".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }
}
