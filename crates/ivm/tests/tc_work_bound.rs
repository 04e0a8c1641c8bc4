//! ⋈* work is bounded by the touched neighbourhood, not the graph: the
//! network's `tc_paths_touched` counts every path-trie node the operator
//! creates, drops or reads, so the bound is a work count, not a timing.

use pgq_algebra::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::DataflowNetwork;
use pgq_parser::parse_query;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn lang(l: &str) -> Properties {
    Properties::from_iter([("lang", Value::str(l))])
}

/// Comments per thread, as a chain under the post.
const DEPTH: usize = 3;

/// Register the paper's thread view over `vertices / (DEPTH + 1)`
/// threads of one fixed shape, add one comment at the bottom of the
/// first thread, and return the trie nodes that transaction touched.
fn touched_by_one_comment(vertices: usize) -> u64 {
    let mut g = PropertyGraph::new();
    let mut first_leaf = None;
    for _ in 0..vertices / (DEPTH + 1) {
        let mut last = g.add_vertex([s("Post")], lang("en")).0;
        for _ in 0..DEPTH {
            let c = g.add_vertex([s("Comm")], lang("en")).0;
            g.add_edge(last, c, s("REPLY"), Properties::new()).unwrap();
            last = c;
        }
        first_leaf.get_or_insert(last);
    }
    assert_eq!(g.vertex_count(), vertices);

    let cypher = "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t";
    let compiled = compile_query(&parse_query(cypher).unwrap()).unwrap();
    let mut net = DataflowNetwork::new();
    let sid = net.register("threads", &compiled.fra, &g);
    assert_eq!(net.view(sid).row_count(), vertices / (DEPTH + 1) * DEPTH);

    let mut tx = Transaction::new();
    let c = tx.create_vertex([s("Comm")], lang("en"));
    tx.create_edge(first_leaf.unwrap(), c, s("REPLY"), Properties::new());
    let events = g.apply(&tx).unwrap();
    let before = net.counters().tc_paths_touched;
    net.on_transaction(&g, &events);
    let touched = net.counters().tc_paths_touched - before;
    assert_eq!(
        net.view(sid).row_count(),
        vertices / (DEPTH + 1) * DEPTH + 1
    );
    touched
}

#[test]
fn one_comment_touches_the_same_trie_nodes_at_any_graph_size() {
    let small = touched_by_one_comment(1_000);
    let large = touched_by_one_comment(10_000);
    // One prefix read (the post's path to the parent comment), one node
    // created (that path extended to the new comment).
    assert_eq!(small, 2);
    assert_eq!(large, small);
}
