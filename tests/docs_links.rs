//! Intra-repo link checker for the top-level documentation: every
//! relative markdown link in the checked files must point at a path that
//! exists in the repository. External (`http`/`https`/`mailto`) links
//! and pure `#anchor` links are skipped — this guards against the docs
//! rotting as files move, offline and in CI (the docs job runs this test
//! explicitly).

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
