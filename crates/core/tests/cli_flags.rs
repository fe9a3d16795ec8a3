//! Numeric flags of the `rtl-breaker` binary are checked where they enter:
//! a malformed `--workers=`/`--deadline-ms=` value, or `--workers=0`, is a
//! usage error (usage text, exit 2), never silently dropped or clamped.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtl-breaker"))
        .args(args)
        .output()
        .expect("the CLI binary runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: rtl-breaker"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not start the run");
}

#[test]
fn malformed_or_zero_numeric_flags_are_usage_errors() {
    for args in [
        ["eval", "--workers=four"],
        ["eval", "--workers=-1"],
        ["eval", "--workers="],
        ["eval", "--workers=0"],
        ["eval", "--deadline-ms=soon"],
        ["eval", "--deadline-ms=1.5"],
    ] {
        assert_usage_error(&args);
    }
}

#[test]
fn well_formed_numeric_flags_pass_parsing() {
    // `scan` on a missing file exits 1 without touching the flags' values,
    // so exit 1 (not 2) shows the flags were accepted.
    let out = run(&["scan", "no/such/file.v", "--workers=3", "--deadline-ms=250"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}
