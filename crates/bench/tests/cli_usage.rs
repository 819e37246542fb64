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
fn ooc_bench_rejects_bad_flag_values() {
    let ooc = env!("CARGO_BIN_EXE_ooc-bench");
    let g = ["run", "--graph", "/nonexistent/g.bin"];
    let with = |extra: &[&'static str]| [&g[..], extra].concat();
    assert_usage_error(ooc, &["frobnicate"]);
    assert_usage_error(ooc, &["run"]);
    assert_usage_error(ooc, &["gen"]);
    assert_usage_error(ooc, &with(&["--bogus"]));
    assert_usage_error(ooc, &with(&["--threads", "abc"]));
    for flag in ["--threads", "--shard-edges", "--read-ahead", "--shard-mb"] {
        assert_usage_error(ooc, &with(&[flag, "0"]));
    }
    assert_usage_error(ooc, &with(&["--shard-mb", "99999999999999999"]));
    assert_usage_error(ooc, &with(&["--shard-mb", "1", "--shard-edges", "1024"]));
    for frac in ["nan", "inf", "-inf", "-1"] {
        assert_usage_error(ooc, &with(&["--max-rss-frac", frac]));
    }
    assert_usage_error(ooc, &with(&["--rss-baseline-mb", "18446744073709551615"]));
    // A well-formed command that fails while running is exit 1, not 2.
    let out = Command::new(ooc).args(g).output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
