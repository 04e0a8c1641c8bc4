//! Parameterised reply trees for the transitive-closure cost profile
//! (`examples/profile_hotpath.rs`): complete trees of configurable depth
//! and fan-out with a `Post` root and `Comm` descendants, all connected
//! by `REPLY` edges.

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

/// A generated reply tree.
pub struct ReplyTree {
    /// The graph.
    pub graph: PropertyGraph,
    /// The root post.
    pub root: VertexId,
    /// Vertices by depth (`levels[0] = [root]`).
    pub levels: Vec<Vec<VertexId>>,
    /// All REPLY edges in creation order.
    pub edges: Vec<EdgeId>,
}

/// Build a complete reply tree of the given `depth` and `fanout`.
/// Every node carries `lang = "en"`, so the running-example query matches
/// every root-to-descendant path.
pub fn reply_tree(depth: usize, fanout: usize) -> ReplyTree {
    let mut g = PropertyGraph::new();
    let lang = || Properties::from_iter([("lang", Value::str("en"))]);
    let (root, _) = g.add_vertex([s("Post")], lang());
    let mut levels = vec![vec![root]];
    let mut edges = Vec::new();
    for _ in 0..depth {
        let mut next = Vec::new();
        for &parent in levels.last().expect("non-empty") {
            for _ in 0..fanout {
                let (c, _) = g.add_vertex([s("Comm")], lang());
                let (e, _) = g.add_edge(parent, c, s("REPLY"), lang()).expect("ok");
                edges.push(e);
                next.push(c);
            }
        }
        levels.push(next);
    }
    ReplyTree {
        graph: g,
        root,
        levels,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_shape() {
        let t = reply_tree(3, 2);
        assert_eq!(t.levels.len(), 4);
        assert_eq!(t.levels[3].len(), 8);
        assert_eq!(t.graph.vertex_count(), 15);
        assert_eq!(t.graph.edge_count(), 14);
    }

    #[test]
    fn degenerate_trees() {
        let t = reply_tree(0, 5);
        assert_eq!(t.graph.vertex_count(), 1);
        let chain = reply_tree(6, 1);
        assert_eq!(chain.graph.vertex_count(), 7);
    }
}
