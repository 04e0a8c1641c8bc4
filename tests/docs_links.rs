//! Intra-repo link checker for the top-level documentation: every
//! relative markdown link in the checked files must point at a path that
//! exists in the repository. External (`http`/`https`/`mailto`) links
//! and pure `#anchor` links are skipped — this guards against the docs
//! rotting as files move, offline and in CI (the docs job runs this test
//! explicitly). README's table of retired experiments is held to the
//! same standard: each test function it names must exist in the file
//! the cell names.

use std::path::Path;

const CHECKED: &[&str] = &[
    "README.md",
    "ARCHITECTURE.md",
    "ROADMAP.md",
    "CHANGES.md",
    "PAPER.md",
];

/// Extract `](target)` link targets from markdown source. Good enough
/// for the straightforward link syntax these documents use (no nested
/// parentheses in targets).
fn link_targets(md: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = md.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(close) = md[i + 2..].find(')') {
                out.push(md[i + 2..i + 2 + close].to_string());
                i += 2 + close;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut broken = Vec::new();
    for file in CHECKED {
        let path = root.join(file);
        assert!(path.exists(), "checked doc {file} is missing");
        let md = std::fs::read_to_string(&path).unwrap();
        let base = path.parent().unwrap().to_path_buf();
        for target in link_targets(&md) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            // Strip any trailing anchor.
            let no_anchor = target.split('#').next().unwrap_or(&target);
            if no_anchor.is_empty() {
                continue;
            }
            let resolved = if let Some(stripped) = no_anchor.strip_prefix('/') {
                root.join(stripped)
            } else {
                base.join(no_anchor)
            };
            if !resolved.exists() {
                broken.push(format!("{file}: `{target}` → {}", resolved.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken intra-repo links:\n{}",
        broken.join("\n")
    );
}

/// The `(file, fn)` pairs a markdown line names in the form
/// `` `path.rs` (`name`, `name` …) ``: the code spans right after a
/// `.rs` code span and ` (`, separated by `, `. Splitting on backticks
/// puts code spans at the odd indices.
fn named_functions(line: &str) -> Vec<(String, String)> {
    let parts: Vec<&str> = line.split('`').collect();
    let mut out = Vec::new();
    for i in (1..parts.len()).step_by(2) {
        if !parts[i].ends_with(".rs") || parts.get(i + 1) != Some(&" (") {
            continue;
        }
        let mut j = i + 2;
        while let Some(name) = parts.get(j) {
            out.push((parts[i].to_string(), name.to_string()));
            if parts.get(j + 1) != Some(&", ") {
                break;
            }
            j += 2;
        }
    }
    out
}

#[test]
fn retired_experiments_table_names_functions_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let table: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("Where each retired experiment table"))
        .skip(1)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .collect();
    assert!(
        table.len() > 2,
        "README's retired-experiments table is gone"
    );
    let mut named = 0;
    let mut missing = Vec::new();
    for (file, name) in table.iter().flat_map(|l| named_functions(l)) {
        named += 1;
        let source = std::fs::read_to_string(root.join(&file)).unwrap_or_default();
        if !source.contains(&format!("fn {name}(")) {
            missing.push(format!("`{file}` has no `fn {name}`"));
        }
    }
    assert!(named > 0, "the table names no test function");
    assert!(missing.is_empty(), "README: {}", missing.join("; "));
}

#[test]
fn link_extractor_handles_markdown_shapes() {
    let md = "See [a](crates/ivm/src/network.rs) and [b](https://x.y) \
              plus [c](README.md#anchor) and [d](#local).";
    let targets = link_targets(md);
    assert_eq!(
        targets,
        vec![
            "crates/ivm/src/network.rs",
            "https://x.y",
            "README.md#anchor",
            "#local"
        ]
    );
}
