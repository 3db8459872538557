//! The daemon binary's flag parsing, driven as a child process.
//!
//! `--baseline` once made the drain write a perf-baseline document. The
//! flag is gone, and it must fail loudly rather than be silently accepted.
//! Flags are parsed before the socket is bound, so the child exits without
//! ever listening.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long the child may take to reject its flags.
const PROMPT: Duration = Duration::from_secs(10);

#[test]
fn the_retired_baseline_flag_is_an_unknown_flag() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lnuca-serve"))
        .args(["--baseline", "x.json", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lnuca-serve");
    let started = Instant::now();
    while child.try_wait().expect("poll lnuca-serve").is_none() {
        if started.elapsed() > PROMPT {
            let _ = child.kill();
            let _ = child.wait();
            panic!("lnuca-serve accepted --baseline and kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child
        .wait_with_output()
        .expect("collect lnuca-serve output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {:?}, stderr: {stderr}", out.status);
    assert!(stderr.contains("unknown flag \"--baseline\""), "stderr: {stderr}");
    assert!(!stdout.contains("listening on"), "the daemon bound: {stdout}");
}
