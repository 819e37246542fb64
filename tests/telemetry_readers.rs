//! Every telemetry name that production code records has a reader. Each
//! `span("…")` and `record_max("…")` literal in non-test code under
//! `crates/*/src` must appear, quoted, in `benchmark/src` (the
//! benchmark's `--trace 1`) or `examples/` (the `*_phases` tools);
//! a name nothing reads is a hot-path call that measures nothing.
//! `#[cfg(test)]` modules are skipped, like `tests/safety_comments.rs`
//! does, so the telemetry module's own unit tests may record any name.

use std::path::Path;

/// The calls whose first argument names a record.
const RECORDERS: [&str; 2] = ["span(\"", "record_max(\""];

/// 1-based line and name of every non-test `span("…")` / `record_max("…")`
/// call in `src`.
fn recorded_names(src: &str) -> Vec<(usize, String)> {
    let (mut names, mut test_depth) = (Vec::new(), None);
    let lines: Vec<&str> = src.lines().map(str::trim).collect();
    for (i, &line) in lines.iter().enumerate() {
        if line.starts_with("//") {
            continue;
        }
        if let Some(depth) = test_depth.as_mut() {
            *depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
            if *depth <= 0 {
                test_depth = None;
            }
            continue;
        }
        if line == "#[cfg(test)]" && lines.get(i + 1).is_some_and(|l| l.starts_with("mod ")) {
            test_depth = Some(0);
            continue;
        }
        let code = line.split("//").next().unwrap();
        for call in RECORDERS {
            for (at, _) in code.match_indices(call) {
                let before = code[..at].chars().next_back();
                if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    continue; // `foo_span("…")` is another function
                }
                let rest = &code[at + call.len()..];
                let name = rest.split('"').next().unwrap();
                names.push((i + 1, name.to_string()));
            }
        }
    }
    names
}

/// Path and text of every `.rs` file under `dir`.
fn sources(dir: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            files.extend(sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).unwrap();
            files.push((path.display().to_string(), src));
        }
    }
    files
}

#[test]
fn every_recorded_name_has_a_reader() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut readers = sources(&root.join("benchmark/src"));
    readers.extend(sources(&root.join("examples")));
    let crates = std::fs::read_dir(root.join("crates")).unwrap();
    let (mut recorded, mut unread) = (0, Vec::new());
    for (path, src) in crates.flat_map(|c| sources(&c.unwrap().path().join("src"))) {
        for (line, name) in recorded_names(&src) {
            recorded += 1;
            if !readers.iter().any(|(_, r)| r.contains(&format!("\"{name}\""))) {
                unread.push(format!("{path}:{line} {name}"));
            }
        }
    }
    assert!(recorded > 0, "found no telemetry calls: is the scan broken?");
    assert!(unread.is_empty(), "recorded but read nowhere: {unread:?}");
}

#[test]
fn scanner_finds_only_non_test_calls() {
    let src = r#"// telemetry::span("commented-out");
let _s = telemetry::span("kept");
llp_runtime::telemetry::record_max("peak", n); // span("in-comment")
let _t = other_span("not-telemetry");
#[cfg(test)]
mod tests {
    fn t() { let _s = span("test-only"); }
}
fn f() { let _s = span("after-tests"); }"#;
    let names = recorded_names(src);
    let want = [(2, "kept"), (3, "peak"), (9, "after-tests")];
    assert_eq!(names, want.map(|(l, n)| (l, n.to_string())));
}
