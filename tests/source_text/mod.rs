//! The non-test text of a source file, shared by the guards that read
//! source (`tests/source_layout.rs`, `tests/public_surface.rs`).

/// `src`'s lines without its column-0 `#[cfg(test)]` items. Each such
/// attribute is dropped with the attributes after it and the item it
/// gates: a one-line item up to its `;` or `}`, any other up to its
/// closing column-0 `}`. What follows a test module is read on.
pub fn non_test_lines(src: &str) -> impl Iterator<Item = &str> {
    let mut lines = src.lines();
    std::iter::from_fn(move || loop {
        let line = lines.next()?;
        if !line.starts_with("#[cfg(test)]") {
            return Some(line);
        }
        let first = lines.by_ref().find(|l| !l.starts_with("#["))?.trim_end();
        if !(first.ends_with(';') || first.ends_with('}')) {
            lines.by_ref().find(|l| l.starts_with('}'));
        }
    })
}

/// A source file with an item after its test module: four of its lines
/// are not test lines, `before` and `after` among them.
pub const ITEM_AFTER_TESTS: &str = "\
pub fn before() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}

pub fn after() {}
";
