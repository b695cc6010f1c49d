//! End-to-end test of the `figures` binary's argument handling.

use std::process::Command;

/// A figure the harness does not have is a usage message and exit status
/// 2, never a panic.
#[test]
fn unknown_figures_are_usage_errors() {
    for fig in ["0", "11", "bogus"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--fig", fig])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--fig {fig}: {stderr}");
        assert!(stderr.contains("usage: figures") && !stderr.contains("panicked"), "{stderr}");
    }
}
