//! SIGTERM / SIGINT handling without a libc crate.
//!
//! The workspace builds offline, so there is no `signal-hook` or `libc`
//! dependency. This module hand-declares the two-symbol slice of the C
//! signal API the daemon needs — `signal(2)` with handler constants — and
//! installs an async-signal-safe handler that does exactly one thing: store
//! a relaxed atomic flag. std's blocking `accept` retries `EINTR`, so the
//! signal alone cannot wake the accept loop: the router's waker thread
//! polls the flag and connects to the listener, and the loop then begins
//! the graceful drain.
//!
//! This is the only `unsafe` in the crate, and it is confined here: the
//! handler writes a single `AtomicBool`, which is on the async-signal-safe
//! list, and `signal()` itself is called once at startup before any worker
//! thread exists.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler when SIGTERM or SIGINT arrives.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// `signal(2)`. The return value (the previous handler) is ignored —
    /// the daemon installs its handlers once and never restores.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

extern "C" fn on_terminate(_signum: i32) {
    DRAIN_REQUESTED.store(true, Ordering::Relaxed);
}

/// Installs the drain handler for SIGTERM and SIGINT.
///
/// Call once at daemon startup, before spawning workers. Safe to call from
/// tests too — the handler only sets a flag the test can reset.
pub fn install_drain_handler() {
    unsafe {
        signal(SIGTERM, on_terminate);
        signal(SIGINT, on_terminate);
    }
}

/// Whether a termination signal has arrived since startup (or the last
/// [`reset`]).
#[must_use]
pub fn drain_requested() -> bool {
    DRAIN_REQUESTED.load(Ordering::Relaxed)
}

/// Requests a drain programmatically — the in-process equivalent of
/// delivering SIGTERM, used by tests.
pub fn request_drain() {
    DRAIN_REQUESTED.store(true, Ordering::Relaxed);
}

/// Clears the flag (tests only; the daemon never un-drains).
pub fn reset() {
    DRAIN_REQUESTED.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        reset();
        assert!(!drain_requested());
        request_drain();
        assert!(drain_requested());
        reset();
        assert!(!drain_requested());
    }
}
