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

impl Direction {
    /// The direction seen from the other endpoint.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
            Direction::Both => Direction::Both,
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_is_involution() {
        for d in [Direction::Out, Direction::In, Direction::Both] {
            assert_eq!(d.reverse().reverse(), d);
        }
    }
}
