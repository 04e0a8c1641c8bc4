//! Source-size guard: no workspace `src` file grows past
//! [`MAX_LINES`] lines before its tests.
//!
//! A file is measured without its column-0 `#[cfg(test)]` items, so unit
//! tests do not count, but whatever follows a test module does. The files still over the bound are
//! listed in [`ALLOWED`], each waiting for its split (ROADMAP item 12),
//! and the list can only shrink: an allowed file that is already under
//! the bound fails the test until it leaves the list.

use std::path::{Path, PathBuf};

mod source_text;

/// Non-test lines one source file may hold.
const MAX_LINES: usize = 1200;

/// Files over [`MAX_LINES`] today, with why each may stay for now.
const ALLOWED: &[(&str, &str)] = &[
    (
        "crates/core/src/engine.rs",
        "2 075 lines: ROADMAP item 12 splits it into engine/{mod, commit, statement, views, recover}",
    ),
    (
        "crates/algebra/src/plan.rs",
        "2 000 lines: ROADMAP item 12 splits it into plan/{estimate, regions, order, fuse_gate}",
    ),
];

/// Lines of `src` outside its column-0 `#[cfg(test)]` items.
fn non_test_lines(src: &str) -> usize {
    source_text::non_test_lines(src).count()
}

#[test]
fn lines_after_the_test_module_count() {
    assert_eq!(non_test_lines(source_text::ITEM_AFTER_TESTS), 4);
}

/// Every `.rs` file under a `src` directory below `dir`.
fn sources(dir: &Path, in_src: bool, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                sources(&path, in_src || name == "src", out);
            }
        } else if in_src && name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_outgrows_the_bound() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(&root.join("src"), true, &mut files);
    sources(&root.join("crates"), false, &mut files);
    assert!(
        files.iter().any(|f| f.ends_with("crates/ivm/src/lib.rs")),
        "the walk reaches the crates"
    );

    let mut problems = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_str().expect("UTF-8 path").replace('\\', "/");
        let lines = non_test_lines(&std::fs::read_to_string(path).expect("readable source"));
        match ALLOWED.iter().find(|(allowed, _)| *allowed == rel) {
            Some(_) if lines <= MAX_LINES => problems.push(format!(
                "{rel}: {lines} lines, within the bound: take it off the allow-list"
            )),
            None if lines > MAX_LINES => problems.push(format!(
                "{rel}: {lines} non-test lines, over the bound of {MAX_LINES}"
            )),
            _ => {}
        }
    }
    for (allowed, _) in ALLOWED {
        if !files.iter().any(|f| f.ends_with(allowed)) {
            problems.push(format!("{allowed}: allowed but gone: take it off the list"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
