//! `repro` counts and never times: each algorithm runs once on a
//! one-thread pool, where every work counter is exact, so two runs with
//! the same flags print the same tables and write the same reports, byte
//! for byte, and every record is certified.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `repro all --scale small --out <dir>`; returns its stdout.
fn run_repro(dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "small", "--out"])
        .arg(dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The `*.json` reports in `dir`, sorted by file name.
fn reports(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("report dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable report");
            (PathBuf::from(p.file_name().expect("file name")), text)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn repro_all_is_byte_identical_run_to_run_and_certified() {
    let base = std::env::temp_dir().join(format!("llp-repro-det-{}", std::process::id()));
    let (a, b) = (base.join("a"), base.join("b"));
    let (stdout_a, stdout_b) = (run_repro(&a), run_repro(&b));
    assert_eq!(stdout_a, stdout_b, "stdout differs between runs");
    let (reports_a, reports_b) = (reports(&a), reports(&b));
    assert!(!reports_a.is_empty(), "no report written");
    assert_eq!(reports_a, reports_b, "reports differ between runs");

    let mut records = 0;
    for (name, text) in &reports_a {
        assert!(
            text.starts_with("{\"schema\":\"llp-mst-run-report/v2\""),
            "{name:?}"
        );
        for line in text.lines().filter(|l| l.starts_with("{\"algorithm\"")) {
            records += 1;
            assert!(line.contains("\"certified\":true"), "{name:?}: {line}");
            for key in ["median_ms", "threads", "telemetry"] {
                assert!(!line.contains(&format!("\"{key}\"")), "{name:?}: {line}");
            }
        }
    }
    // Five algorithms on each of the two workloads.
    assert_eq!(records, 10);
    std::fs::remove_dir_all(base).ok();
}
