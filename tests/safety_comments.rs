//! Every non-test `unsafe {` and `unsafe impl` under `crates/*/src` has a
//! `SAFETY:` comment just above it: in the comment block that ends on the
//! line before its statement. Walking up, earlier lines of the same
//! statement (ending in none of `;`, `{`, `}`) are passed over, so a
//! `let x =` line or a sibling struct field shares the comment above it.
//! `#[cfg(test)]` modules are skipped. The number of such sites may only
//! go down: it is pinned at or below [`NON_TEST_UNSAFE_CEILING`].

use std::path::{Path, PathBuf};

/// Non-test `unsafe {` / `unsafe impl` sites allowed under `crates/*/src`:
/// the thread pool's task erasure (2), the slice-as-atomics views in
/// `atomics.rs` (2) and `ScratchVec`'s `ManuallyDrop::take` (1). Every
/// parallel write is safe code: disjoint `&mut` parts handed out by
/// `llp_runtime::parallel_for_each`. Lower this when a site goes; never
/// raise it to admit a new one that a safe rewrite would avoid.
const NON_TEST_UNSAFE_CEILING: usize = 5;

/// 1-based lines of `src` holding a non-test `unsafe {` or `unsafe impl`,
/// each with whether a `SAFETY:` comment sits just above it.
fn unsafe_sites(src: &str) -> Vec<(usize, bool)> {
    let lines: Vec<&str> = src.lines().map(str::trim).collect();
    let (mut sites, mut test_depth) = (Vec::new(), None);
    for (i, &line) in lines.iter().enumerate() {
        if line.starts_with("//") {
            continue;
        }
        // Brace depth inside a `#[cfg(test)] mod`, from its `mod` line on.
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
        if !code.contains("unsafe {") && !code.contains("unsafe impl") {
            continue;
        }
        let same_statement =
            |l: &&&str| !l.starts_with("//") && !l.is_empty() && !l.ends_with([';', '{', '}']);
        let mut comment_above = lines[..i]
            .iter()
            .rev()
            .skip_while(same_statement)
            .take_while(|l| l.starts_with("//"));
        sites.push((i + 1, comment_above.any(|l| l.contains("SAFETY:"))));
    }
    sites
}

/// 1-based lines of `src` whose `unsafe` lacks a `SAFETY:` comment.
fn missing_safety_comments(src: &str) -> Vec<usize> {
    unsafe_sites(src)
        .into_iter()
        .filter_map(|(line, documented)| (!documented).then_some(line))
        .collect()
}

/// `path:line` and documented-ness of every non-test `unsafe` site under
/// `crates/*/src`.
fn workspace_unsafe_sites() -> Vec<(String, bool)> {
    let crates = std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")).unwrap();
    let mut dirs: Vec<PathBuf> = crates.map(|c| c.unwrap().path().join("src")).collect();
    let mut sites = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                for (line, documented) in unsafe_sites(&src) {
                    sites.push((format!("{}:{line}", path.display()), documented));
                }
            }
        }
    }
    sites
}

#[test]
fn every_non_test_unsafe_has_a_safety_comment() {
    let offenders: Vec<String> = workspace_unsafe_sites()
        .into_iter()
        .filter_map(|(site, documented)| (!documented).then_some(site))
        .collect();
    assert!(
        offenders.is_empty(),
        "no `SAFETY:` comment just above: {offenders:?}"
    );
}

#[test]
fn non_test_unsafe_sites_stay_at_or_below_the_ceiling() {
    let sites: Vec<String> = workspace_unsafe_sites()
        .into_iter()
        .map(|(site, _)| site)
        .collect();
    assert!(
        sites.len() <= NON_TEST_UNSAFE_CEILING,
        "{} non-test `unsafe` sites, ceiling {NON_TEST_UNSAFE_CEILING}: {sites:?}",
        sites.len()
    );
}

#[test]
fn checker_flags_only_undocumented_unsafe() {
    let src = "// SAFETY: `p` is valid.
let x =
    unsafe { *p };
let y = (
    // SAFETY: as above.
    unsafe { *p },
    unsafe { *p.add(1) },
);
unsafe { *p = x };
// SAFETY: one writer per slot.
unsafe impl Sync for P {}
unsafe impl Send for P {}
#[cfg(test)]
mod tests {
    fn t(p: *mut u8) { unsafe { *p = 0 } }
}
fn d(p: *mut u8) { unsafe { *p = 2 } }";
    assert_eq!(missing_safety_comments(src), vec![9, 12, 17]);
}
