//! Bad flag values are usage errors: `llp-mst-serve` prints a message and
//! exits with status 2 before doing any work, and never panics.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_llp-mst-serve"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    // A real graph file, so that only the thread count can be wrong.
    let graph = std::env::temp_dir().join(format!("llp-cli-usage-{}.bin", std::process::id()));
    let graph = graph.to_str().expect("utf-8 temp path");
    let gen = Command::new(env!("CARGO_BIN_EXE_llp-mst-serve"))
        .args([
            "gen", "--out", graph, "--kind", "er", "--scale", "6", "--ef", "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    assert_usage_error(&["serve", "--graph", graph, "--threads", "0"]);
    std::fs::remove_file(graph).ok();
    // The flags are checked before the address is dialled.
    assert_usage_error(&[
        "loadgen",
        "--addr",
        "127.0.0.1:1",
        "--graph",
        "absent.bin",
        "--threads",
        "0",
    ]);
}

#[test]
fn bad_or_missing_flags_are_usage_errors() {
    assert_usage_error(&["serve", "--graph", "absent.bin", "--threads", "abc"]);
    assert_usage_error(&["serve"]);
    assert_usage_error(&["gen", "--out", "absent.bin", "--kind", "tree"]);
    assert_usage_error(&["loadgen", "--addr", "127.0.0.1:1", "--report", "out.json"]);
    assert_usage_error(&["bench"]);
}
