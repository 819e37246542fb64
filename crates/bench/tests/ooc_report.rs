//! The `ooc-bench run --report` file is valid JSON whatever the graph
//! path holds: control characters in the path are written as `\u00XX`
//! escapes, never as raw bytes.

use std::process::Command;

fn succeeds(cmd: &mut Command) {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn report_escapes_control_characters_in_the_graph_path() {
    let ooc = env!("CARGO_BIN_EXE_ooc-bench");
    let dir = std::env::temp_dir().join(format!("ooc-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("a\tb.bin");
    let report = dir.join("r.json");
    succeeds(
        Command::new(ooc)
            .arg("gen")
            .arg("--out")
            .arg(&graph)
            .args(["--kind", "er", "--scale", "6", "--ef", "4"]),
    );
    succeeds(
        Command::new(ooc)
            .args([
                "run",
                "--threads",
                "1",
                "--rss-baseline-mb",
                "4096",
                "--graph",
            ])
            .arg(&graph)
            .arg("--report")
            .arg(&report),
    );
    let json = std::fs::read_to_string(&report).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(json.contains("a\\u0009b.bin\""), "{json}");
    assert!(
        json.bytes().all(|b| b >= 0x20),
        "raw control byte in {json:?}"
    );
}
