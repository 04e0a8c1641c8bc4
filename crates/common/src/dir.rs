//! Edge traversal direction, shared by pattern ASTs, algebra operators and
//! the adjacency indexes.

use std::fmt;

/// Direction of an edge pattern relative to its left endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// `(a)-[...]->(b)`
    Out,
    /// `(a)<-[...]-(b)`
    In,
    /// `(a)-[...]-(b)` (undirected match: either orientation)
    Both,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Out => "->",
            Direction::In => "<-",
            Direction::Both => "--",
        })
    }
}
