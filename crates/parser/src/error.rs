//! Parse errors with source positions.

use std::fmt;

/// A lexing or parsing failure, carrying the byte offset into the query
/// text and a human-oriented message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset in the source where the problem was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// Construct an error at `offset`.
    pub(crate) fn new(offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            offset,
            message: message.into(),
        }
    }

    /// Render with a caret pointing into the original source.
    pub fn render(&self, source: &str) -> String {
        let upto = &source[..self.offset.min(source.len())];
        let line_no = upto.matches('\n').count() + 1;
        let line_start = upto.rfind('\n').map_or(0, |i| i + 1);
        let col = self.offset.saturating_sub(line_start) + 1;
        let line = source[line_start..].lines().next().unwrap_or("");
        format!(
            "parse error at line {line_no}, column {col}: {msg}\n  {line}\n  {caret:>col$}",
            msg = self.message,
            caret = "^",
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_column() {
        let src = "MATCH (n)\nRETURN @";
        let err = ParseError::new(17, "unexpected character `@`");
        let rendered = err.render(src);
        assert!(rendered.contains("line 2, column 8"));
        assert!(rendered.contains("RETURN @"));
    }
}
