//! Compact, copyable identifiers for graph elements.
//!
//! Identifiers are plain `u64` newtypes: the store allocates them
//! monotonically and never reuses them within a graph's lifetime, so an id
//! uniquely names an element across the whole update history — a property
//! the IVM layer relies on when retracting tuples that mention deleted
//! elements.

use std::fmt;

/// Identifier of a vertex in a property graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VertexId(pub u64);

/// Identifier of an edge in a property graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EdgeId(pub u64);

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl VertexId {
    /// Raw numeric id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl EdgeId {
    /// Raw numeric id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(VertexId(3).to_string(), "v3");
        assert_eq!(EdgeId(7).to_string(), "e7");
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(VertexId(1) < VertexId(2));
        assert!(EdgeId(10) > EdgeId(9));
    }
}
