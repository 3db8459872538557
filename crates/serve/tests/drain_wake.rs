//! An idle daemon drains promptly: the accept loop blocks in `accept`, and
//! nothing but the waker thread connects to wake it. No client ever
//! connects in these tests, so a loop that stayed blocked would hang them.
//!
//! A binary of its own because the signal drain flag is process-global:
//! a flag set here must not drain another test's daemon.

use lnuca_serve::{router, signals, ServeConfig, Server};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a drain of an idle daemon may take.
const PROMPT: Duration = Duration::from_secs(2);

/// Serialises the tests: the signal-flag test would drain the other's
/// daemon too.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Boots a one-worker daemon on `bind` and runs its accept loop on a
/// thread. The receiver yields once the loop has returned.
fn boot(bind: &str) -> (Arc<Server>, mpsc::Receiver<()>) {
    let listener = TcpListener::bind(bind).expect("bind ephemeral");
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_capacity: 4,
        journal_dir: None,
        baseline_path: None,
    });
    let (done, returned) = mpsc::channel();
    let loop_server = Arc::clone(&server);
    std::thread::spawn(move || {
        router::run_until_drained(&loop_server, listener).expect("serve loop");
        let _ = done.send(());
    });
    // Give the loop time to block in `accept`.
    std::thread::sleep(Duration::from_millis(100));
    (server, returned)
}

#[test]
fn begin_drain_from_another_thread_wakes_an_idle_accept_loop() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (server, returned) = boot("127.0.0.1:0");
    assert!(returned.try_recv().is_err(), "the loop serves until a drain");
    server.begin_drain();
    returned
        .recv_timeout(PROMPT)
        .expect("run_until_drained returns within 2 s of begin_drain");
}

#[test]
fn a_signal_drain_wakes_an_idle_accept_loop_on_an_unspecified_address() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Bound to 0.0.0.0: the waker must dial loopback instead.
    let (server, returned) = boot("0.0.0.0:0");
    signals::request_drain();
    let outcome = returned.recv_timeout(PROMPT);
    signals::reset();
    outcome.expect("run_until_drained returns within 2 s of a signal drain");
    assert!(server.is_draining(), "the loop ran the server drain");
}
