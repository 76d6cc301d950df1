//! `cais-experiments` argument handling: anything it does not know is
//! rejected with a usage message and exit status 2 before a single
//! simulation runs, and `--help` prints the usage and exits 0.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cais-experiments"))
        .args(args)
        .output()
        .expect("spawn cais-experiments")
}

fn assert_rejected(args: &[&str]) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(out.stdout.is_empty(), "{args:?} must not print tables");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: cais-experiments"), "{args:?}: {err}");
}

#[test]
fn unknown_flag_exits_2() {
    assert_rejected(&["--bogus"]);
    assert_rejected(&["fig11", "--smoke", "--bogus"]);
}

#[test]
fn retired_profile_flag_exits_2() {
    assert_rejected(&["--profile"]);
    assert_rejected(&["--profile", "--smoke"]);
}

#[test]
fn unknown_experiment_exits_2() {
    assert_rejected(&["fig99", "--smoke"]);
    assert_rejected(&["fig11", "fig99", "--smoke"]);
}

#[test]
fn malformed_count_exits_2() {
    assert_rejected(&["fig11", "--smoke", "--jobs"]);
    assert_rejected(&["fig11", "--smoke", "--jobs", "0"]);
    assert_rejected(&["fig11", "--smoke", "--timeout-secs=x"]);
    assert_rejected(&["fig11", "--smoke=1"]);
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("usage: cais-experiments"), "{text}");
    assert!(text.contains("fig11") && text.contains("chaos"), "{text}");
}
