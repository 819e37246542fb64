//! Bad flag values are usage errors: each binary prints a message and
//! exits with status 2 before doing any work, and never panics.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn repro_rejects_bad_flag_values() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for flag in ["--reps", "--max-threads", "--seed"] {
        assert_usage_error(repro, &["fig2", flag, "abc"]);
    }
    assert_usage_error(repro, &["fig2", "--reps", "0"]);
}

#[test]
fn differential_rejects_bad_flag_values() {
    let differential = env!("CARGO_BIN_EXE_differential");
    for flag in ["--threads", "--size", "--seed", "--watchdog-secs"] {
        assert_usage_error(differential, &["sweep", flag, "abc"]);
    }
    assert_usage_error(differential, &["sweep", "--threads", "0"]);
    assert_usage_error(differential, &["fault-matrix", "--threads", "0"]);
}

#[test]
fn microbench_rejects_zero_threads() {
    let microbench = env!("CARGO_BIN_EXE_microbench");
    assert_usage_error(microbench, &["--threads", "0"]);
    assert_usage_error(microbench, &["--threads", "abc"]);
}
