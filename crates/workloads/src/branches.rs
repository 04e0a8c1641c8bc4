//! Independent branch subgraphs for the parallel-propagation benchmarks
//! and the width stress tier: `B` disjoint reply trees with per-branch
//! labels and edge types, each carrying its own var-length view (see
//! [`branch_query`]). One transaction can dirty many unrelated dataflow
//! regions at once — the widest frontier the parallel pass can hope
//! for.
//!
//! The churn knob is the root's `lang` property: flipping it away from
//! `"en"` retracts every path of that branch (the view's `WHERE` ties
//! root and descendant languages together), flipping it back re-asserts
//! them. Property churn keeps every vertex/edge id stable, so update
//! streams need no id tracking.

use pgq_common::ids::VertexId;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;

/// One independent branch of a [`BranchForest`].
pub struct Branch {
    /// Root vertex (label `P<i>`).
    pub root: VertexId,
    /// Root label (`P<i>`).
    pub post: Symbol,
    /// Descendant label (`C<i>`).
    pub comm: Symbol,
    /// Edge type (`R<i>`).
    pub reply: Symbol,
    /// Paths the branch's view matches while the root `lang` is `"en"`.
    pub paths: usize,
}

/// A forest of independent reply-tree branches.
pub struct BranchForest {
    /// The combined graph.
    pub graph: PropertyGraph,
    /// Branch metadata, in creation order.
    pub branches: Vec<Branch>,
}

/// The maintained view over branch `i`: every root-to-descendant reply
/// path whose endpoints agree on `lang`.
pub fn branch_query(i: usize) -> String {
    format!("MATCH t = (p:P{i})-[:R{i}*]->(c:C{i}) WHERE p.lang = c.lang RETURN p, t")
}

/// Build `branches` complete reply trees of the given `depth` and
/// `fanout`; every vertex starts with `lang = "en"`.
pub fn branch_forest(branches: usize, depth: usize, fanout: usize) -> BranchForest {
    let mut g = PropertyGraph::new();
    let en = || Properties::from_iter([("lang", Value::str("en"))]);
    let mut out = Vec::with_capacity(branches);
    for i in 0..branches {
        let post = Symbol::intern(&format!("P{i}"));
        let comm = Symbol::intern(&format!("C{i}"));
        let reply = Symbol::intern(&format!("R{i}"));
        let (root, _) = g.add_vertex([post], en());
        let mut frontier = vec![root];
        let mut paths = 0usize;
        for _ in 0..depth {
            let mut next = Vec::new();
            for &parent in &frontier {
                for _ in 0..fanout {
                    let (c, _) = g.add_vertex([comm], en());
                    g.add_edge(parent, c, reply, en()).expect("fresh endpoints");
                    paths += 1;
                    next.push(c);
                }
            }
            frontier = next;
        }
        out.push(Branch {
            root,
            post,
            comm,
            reply,
            paths,
        });
    }
    BranchForest {
        graph: g,
        branches: out,
    }
}

/// Flip the root language of **every** branch in one transaction
/// (`"de"` retracts each branch's paths, `"en"` re-asserts them).
pub fn churn_all(forest: &BranchForest, lang: &str) -> Transaction {
    let mut tx = Transaction::new();
    for b in &forest.branches {
        tx.set_vertex_prop(b.root, Symbol::intern("lang"), Value::str(lang));
    }
    tx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_shape() {
        let f = branch_forest(3, 2, 2);
        assert_eq!(f.branches.len(), 3);
        // Per branch: 1 root + 2 + 4 descendants, 6 edges, 6 paths.
        assert_eq!(f.graph.vertex_count(), 3 * 7);
        assert_eq!(f.graph.edge_count(), 3 * 6);
        for b in &f.branches {
            assert_eq!(b.paths, 6);
        }
        // Branch labels are pairwise distinct.
        assert_ne!(f.branches[0].post, f.branches[1].post);
        assert_ne!(f.branches[0].reply, f.branches[2].reply);
    }

    #[test]
    fn churn_transactions() {
        let f = branch_forest(4, 1, 1);
        assert_eq!(churn_all(&f, "de").len(), 4);
    }
}
