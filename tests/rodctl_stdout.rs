//! `rodctl`'s stdout contract at the process boundary: a reader that
//! closes early (`rodctl … | head -1`) ends the run quietly with exit 0.

#![cfg(unix)]

use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};

/// The child's stdout is a socket whose other end is closed before the
/// child starts, so its first write fails with `EPIPE`, whatever the
/// timing.
#[test]
fn closed_stdout_exits_zero_without_panicking() {
    let (write_end, read_end) = UnixStream::pair().expect("socket pair");
    drop(read_end);
    let out = Command::new(env!("CARGO_BIN_EXE_rodctl"))
        .args(["generate", "--kind", "tree", "--inputs", "2", "--seed", "1"])
        .stdout(Stdio::from(OwnedFd::from(write_end)))
        .stderr(Stdio::piped())
        .output()
        .expect("rodctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "rodctl panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(stderr.is_empty(), "unexpected stderr:\n{stderr}");
}
