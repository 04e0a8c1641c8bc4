//! Atomic path values.
//!
//! Section 4 of the paper proposes keeping *paths* as the only ordered
//! collection in the data model, updated **atomically**: a maintained view
//! never edits a path in place — the old path is retracted and the new one
//! asserted. [`PathValue`] is therefore immutable after construction and
//! shared via `Arc` inside [`crate::value::Value::Path`].

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::fxhash::FxHasher;
use crate::ids::{EdgeId, VertexId};

/// An alternating sequence `v0 -e0-> v1 -e1-> ... -e(n-1)-> vn`.
///
/// Invariant: `vertices.len() == edges.len() + 1` and `vertices` is
/// non-empty. A zero-length path (single vertex, no edges) is legal and is
/// produced by `[:T*0..]` patterns.
///
/// Paths are hashed constantly on the IVM hot path — as components of
/// join keys and multiplicity-map keys — so the
/// content hash is computed once at construction and cached; `Hash` then
/// costs one `u64` write regardless of path length, and `Eq` rejects
/// unequal paths in O(1) via the hash fast path.
#[derive(Clone, Debug)]
pub struct PathValue {
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
    /// Cached content hash (function of `vertices` + `edges` only).
    hash: u64,
}

fn content_hash(vertices: &[VertexId], edges: &[EdgeId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(vertices.len() as u64);
    for v in vertices {
        h.write_u64(v.0);
    }
    for e in edges {
        h.write_u64(e.0);
    }
    h.finish()
}

impl PartialEq for PathValue {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.vertices == other.vertices && self.edges == other.edges
    }
}

impl Eq for PathValue {}

impl Hash for PathValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for PathValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PathValue {
    fn cmp(&self, other: &Self) -> Ordering {
        // Content order only — the cached hash must not influence it.
        self.vertices
            .cmp(&other.vertices)
            .then_with(|| self.edges.cmp(&other.edges))
    }
}

impl PathValue {
    /// A zero-length path anchored at `v`.
    pub fn single(v: VertexId) -> Self {
        let vertices = vec![v];
        let hash = content_hash(&vertices, &[]);
        PathValue {
            vertices,
            edges: Vec::new(),
            hash,
        }
    }

    /// Build from alternating parts; panics if the alternation invariant
    /// is violated (programming error, not data error).
    pub fn new(vertices: Vec<VertexId>, edges: Vec<EdgeId>) -> Self {
        assert!(
            !vertices.is_empty() && vertices.len() == edges.len() + 1,
            "path must alternate v,e,v,...: {} vertices, {} edges",
            vertices.len(),
            edges.len()
        );
        let hash = content_hash(&vertices, &edges);
        PathValue {
            vertices,
            edges,
            hash,
        }
    }

    /// Number of edges (the path *length* in Cypher terms).
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for single-vertex paths.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// First vertex.
    #[inline]
    pub fn source(&self) -> VertexId {
        self.vertices[0]
    }

    /// Last vertex.
    #[inline]
    pub fn target(&self) -> VertexId {
        *self.vertices.last().expect("non-empty by invariant")
    }

    /// All vertices in order.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// All edges in order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Does the path traverse `e`?
    #[inline]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// `self` extended by one hop over `e` to `w`. The result is a new
    /// path; `self` is untouched (atomic-path discipline).
    pub fn extend(&self, e: EdgeId, w: VertexId) -> Self {
        let mut vertices = Vec::with_capacity(self.vertices.len() + 1);
        vertices.extend_from_slice(&self.vertices);
        vertices.push(w);
        let mut edges = Vec::with_capacity(self.edges.len() + 1);
        edges.extend_from_slice(&self.edges);
        edges.push(e);
        let hash = content_hash(&vertices, &edges);
        PathValue {
            vertices,
            edges,
            hash,
        }
    }

    /// Concatenate `self` with `other`; `other` must start where `self`
    /// ends. Returns `None` (rather than panicking) on a seam mismatch so
    /// the transitive-closure operator can treat it as a join miss.
    pub fn concat(&self, other: &PathValue) -> Option<Self> {
        if self.target() != other.source() {
            return None;
        }
        let mut vertices = self.vertices.clone();
        vertices.extend_from_slice(&other.vertices[1..]);
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&other.edges);
        let hash = content_hash(&vertices, &edges);
        Some(PathValue {
            vertices,
            edges,
            hash,
        })
    }
}

impl fmt::Display for PathValue {
    /// Renders like the paper: `[1, 2, 3]` — vertex ids only, "for
    /// conciseness, edges are omitted from paths".
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", v.0)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u64) -> VertexId {
        VertexId(i)
    }
    fn e(i: u64) -> EdgeId {
        EdgeId(i)
    }

    #[test]
    fn single_vertex_path() {
        let p = PathValue::single(v(1));
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.source(), v(1));
        assert_eq!(p.target(), v(1));
        assert_eq!(p.to_string(), "[1]");
    }

    #[test]
    fn extend_builds_alternation() {
        let p = PathValue::single(v(1))
            .extend(e(10), v(2))
            .extend(e(11), v(3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.vertices(), &[v(1), v(2), v(3)]);
        assert_eq!(p.edges(), &[e(10), e(11)]);
        assert_eq!(p.to_string(), "[1, 2, 3]");
    }

    #[test]
    #[should_panic(expected = "alternate")]
    fn new_rejects_bad_alternation() {
        PathValue::new(vec![v(1), v(2)], vec![]);
    }

    #[test]
    fn concat_matches_seam() {
        let a = PathValue::single(v(1)).extend(e(10), v(2));
        let b = PathValue::single(v(2)).extend(e(11), v(3));
        let c = a.concat(&b).unwrap();
        assert_eq!(c.vertices(), &[v(1), v(2), v(3)]);
        assert_eq!(c.edges(), &[e(10), e(11)]);
    }

    #[test]
    fn concat_rejects_seam_mismatch() {
        let a = PathValue::single(v(1)).extend(e(10), v(2));
        let b = PathValue::single(v(9)).extend(e(11), v(3));
        assert!(a.concat(&b).is_none());
    }

    #[test]
    fn cached_hash_consistent_with_eq() {
        use std::hash::BuildHasher;
        let h = |p: &PathValue| crate::fxhash::FxBuildHasher::default().hash_one(p);
        let a = PathValue::single(v(1)).extend(e(10), v(2));
        let b = PathValue::single(v(1)).extend(e(10), v(2));
        let c = PathValue::new(vec![v(1), v(2)], vec![e(10)]);
        let joined = PathValue::single(v(1))
            .concat(&PathValue::single(v(1)).extend(e(10), v(2)))
            .unwrap();
        // Same content through four construction routes → equal + same
        // hash.
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, joined);
        assert_eq!(h(&a), h(&b));
        assert_eq!(h(&a), h(&c));
        assert_eq!(h(&a), h(&joined));
        // Different content → unequal (hash almost surely differs; only
        // equality is contractual).
        let d = PathValue::single(v(1)).extend(e(11), v(2));
        assert_ne!(a, d);
        // Ordering ignores the cached hash: by vertices, then edges.
        assert!(a < PathValue::single(v(1)).extend(e(10), v(3)));
        assert!(a.cmp(&d) == std::cmp::Ordering::Less);
    }

    #[test]
    fn contains_queries() {
        let p = PathValue::single(v(1)).extend(e(7), v(2));
        assert!(p.contains_edge(e(7)));
        assert!(!p.contains_edge(e(8)));
    }
}
