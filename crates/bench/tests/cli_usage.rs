//! Exit codes of the four command-line tools, which share one flag
//! parser: a bad, missing, unknown or foreign flag is a usage error
//! (status 2, before any work, never a panic); a well-formed command that
//! fails while running exits 1.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn assert_exit(bin: &str, args: &[&str], code: i32) -> String {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    assert_exit(bin, args, 2);
}

#[test]
fn repro_rejects_bad_flag_values() {
    let repro = env!("CARGO_BIN_EXE_repro");
    assert_usage_error(repro, &["ablation", "--seed", "abc"]);
    assert_usage_error(repro, &["ablation", "--scale", "huge"]);
}

#[test]
fn repro_rejects_removed_commands_and_flags() {
    let repro = env!("CARGO_BIN_EXE_repro");
    // `repro` counts and never times: the wall-clock figures, the size
    // sweep, the repetition count and the thread sweep are gone.
    for cmd in ["fig2", "fig3", "fig4", "sizes"] {
        assert_usage_error(repro, &[cmd, "--scale", "small"]);
    }
    assert_usage_error(repro, &["ablation", "--reps", "3"]);
    assert_usage_error(repro, &["ablation", "--max-threads", "8"]);
}

#[test]
fn repro_reports_unwritable_output_and_unreadable_input() {
    let repro = env!("CARGO_BIN_EXE_repro");
    // `--out` is created before any graph is built; a path under a file
    // cannot be.
    let args = ["ablation", "--out", "/dev/null/r", "--scale", "small"];
    let stderr = assert_exit(repro, &args, 1);
    assert!(stderr.contains("/dev/null/r"), "{stderr}");
    let dir = std::env::temp_dir().join(format!("llp-cli-repro-{}", std::process::id()));
    let out = dir.to_str().expect("utf-8 temp path");
    let args = ["ablation", "--out", out, "--dimacs", "/nonexistent/g.gr"];
    let stderr = assert_exit(repro, &args, 1);
    assert!(stderr.contains("/nonexistent/g.gr"), "{stderr}");
    // A graph with no vertices has no root to grow a tree from: a named
    // run failure, not a panic.
    let empty = dir.join("e0.gr");
    std::fs::write(&empty, "p sp 0 0\n").expect("temp dir writable");
    let empty = empty.to_str().expect("utf-8 temp path");
    for cmd in ["ablation", "table1"] {
        let args = [cmd, "--scale", "small", "--out", out, "--dimacs", empty];
        let stderr = assert_exit(repro, &args, 1);
        assert!(stderr.contains(empty), "{stderr}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn differential_rejects_bad_flag_values() {
    let differential = env!("CARGO_BIN_EXE_differential");
    for flag in ["--threads", "--size"] {
        assert_usage_error(differential, &["sweep", flag, "abc"]);
        assert_usage_error(differential, &["fault-matrix", flag, "abc"]);
    }
    for flag in ["--seed", "--watchdog-secs"] {
        assert_usage_error(differential, &["fault-matrix", flag, "abc"]);
    }
    assert_usage_error(differential, &["sweep", "--threads", "0"]);
    assert_usage_error(differential, &["fault-matrix", "--threads", "0"]);

    // Each command takes only its own flags, and the command word is
    // required. The sweep is tiny, so a flag that slipped through would
    // show as a quick exit 0.
    let tiny = ["--families", "er", "--gen-seeds", "1", "--chaos-seeds", "1", "--size", "50"];
    let sweep = |extra: &[&'static str]| [&["sweep"][..], &tiny, extra].concat();
    for foreign in [["--seed", "7"], ["--watchdog-secs", "5"], ["--fault-seeds", "1"]] {
        assert_usage_error(differential, &sweep(&foreign));
    }
    assert_usage_error(differential, &["fault-matrix", "--families", "rmat"]);
    assert_usage_error(differential, &["fault-matrix", "--chaos-seeds", "1"]);
    assert_usage_error(differential, &tiny);
}

#[test]
fn differential_fault_matrix_runs_from_the_default_build() {
    let differential = env!("CARGO_BIN_EXE_differential");
    let args = ["fault-matrix", "--fault-seeds", "1", "--size", "50", "--threads", "2"];
    let out = Command::new(differential).args(args).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("0 wrong answers"), "{stdout}");
}

#[test]
fn ooc_bench_rejects_bad_flag_values() {
    let ooc = env!("CARGO_BIN_EXE_ooc-bench");
    let g = ["run", "--graph", "/nonexistent/g.bin"];
    let with = |extra: &[&'static str]| [&g[..], extra].concat();
    assert_usage_error(ooc, &["frobnicate"]);
    assert_usage_error(ooc, &["run"]);
    assert_usage_error(ooc, &["gen"]);
    assert_usage_error(ooc, &["gen", "--out", "absent.bin", "--kind", "tree"]);
    assert_usage_error(ooc, &with(&["--bogus"]));
    assert_usage_error(ooc, &with(&["--threads", "abc"]));
    for flag in ["--threads", "--shard-edges"] {
        assert_usage_error(ooc, &with(&[flag, "0"]));
    }
    // Removed knobs: the read-ahead depth is fixed at 1, shards are sized
    // in edges only, and every run certifies.
    assert_usage_error(ooc, &with(&["--read-ahead", "1"]));
    assert_usage_error(ooc, &with(&["--shard-mb", "512"]));
    assert_usage_error(ooc, &with(&["--no-certify"]));
    for frac in ["nan", "inf", "-inf", "-1"] {
        assert_usage_error(ooc, &with(&["--max-rss-frac", frac]));
    }
    assert_usage_error(ooc, &with(&["--rss-baseline-mb", "18446744073709551615"]));
    // A well-formed command that fails while running is exit 1, not 2.
    assert_exit(ooc, &g, 1);
}

#[test]
fn serve_rejects_zero_counts() {
    let serve = env!("CARGO_BIN_EXE_llp-mst-serve");
    // A real graph file, so that only the count can be wrong, and an
    // address that cannot be bound, so a count that slipped through
    // would show as a quick exit 1 instead of a server that never exits.
    let graph = std::env::temp_dir().join(format!("llp-cli-usage-{}.bin", std::process::id()));
    let graph = graph.to_str().expect("utf-8 temp path");
    let gen = ["gen", "--out", graph, "--kind", "er", "--scale", "6", "--ef", "2"];
    assert_exit(env!("CARGO_BIN_EXE_ooc-bench"), &gen, 0);
    for flag in ["--threads", "--workers", "--update-threads", "--queue-cap"] {
        let args = ["serve", "--graph", graph, "--addr", "not-an-address", flag, "0"];
        assert_usage_error(serve, &args);
    }
    std::fs::remove_file(graph).ok();
    // The flags are checked before the address is dialled.
    let args = ["loadgen", "--addr", "127.0.0.1:1", "--graph", "absent.bin", "--threads", "0"];
    assert_usage_error(serve, &args);
}

#[test]
fn serve_rejects_bad_or_missing_flags_and_removed_commands() {
    let serve = env!("CARGO_BIN_EXE_llp-mst-serve");
    assert_usage_error(serve, &["serve", "--graph", "absent.bin", "--threads", "abc"]);
    assert_usage_error(serve, &["serve"]);
    assert_usage_error(serve, &["loadgen", "--addr", "127.0.0.1:1", "--report", "out.json"]);
    assert_usage_error(serve, &["loadgen", "--addr", "127.0.0.1:1", "--verify"]);
    assert_usage_error(serve, &["bench"]);
    // Graphs come from `ooc-bench gen`; ingest hardening is unit-tested.
    let out = std::env::temp_dir().join(format!("llp-cli-gen-{}.bin", std::process::id()));
    assert_usage_error(serve, &["gen", "--out", out.to_str().expect("utf-8 temp path")]);
    assert!(!out.exists());
    assert_usage_error(serve, &["fuzz-ingest"]);
}

/// Polls `done` on `server` every 20 ms; kills it and panics with `what`
/// if that yields nothing within a minute.
fn poll<T>(server: &mut Child, what: &str, mut done: impl FnMut(&mut Child) -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(v) = done(server) {
            return v;
        }
        if Instant::now() > deadline {
            server.kill().ok();
            panic!("{what}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn loadgen_against_an_empty_graph_fails_and_still_shuts_the_server_down() {
    let serve = env!("CARGO_BIN_EXE_llp-mst-serve");
    let dir = std::env::temp_dir().join(format!("llp-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir writable");
    let graph = dir.join("empty.bin");
    let writer = llp_graph::io::BinaryFileWriter::create(&graph, 0).expect("create graph file");
    writer.finish().expect("finish graph file");
    let port_file = dir.join("port");
    let mut server = Command::new(serve)
        .args(["serve", "--graph", graph.to_str().expect("utf-8 temp path")])
        .args(["--port-file", port_file.to_str().expect("utf-8 temp path")])
        .stdout(Stdio::null())
        .spawn()
        .expect("server starts");
    let port = poll(&mut server, "the server wrote no port file", |_| {
        let port = std::fs::read_to_string(&port_file).ok()?;
        port.ends_with('\n').then(|| port.trim().to_string())
    });
    let addr = format!("127.0.0.1:{port}");
    let stderr = assert_exit(serve, &["loadgen", "--addr", &addr, "--shutdown"], 1);
    assert!(stderr.contains("empty"), "{stderr}");
    let status = poll(&mut server, "loadgen did not shut the server down", |s| {
        s.try_wait().expect("server status")
    });
    assert_eq!(status.code(), Some(0));
    std::fs::remove_dir_all(dir).ok();
}
