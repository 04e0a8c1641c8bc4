//! One wedge, indexed once: under the benchmark's three `motif_skew`
//! views a hub-edge toggle must apply each changed wedge tuple to exactly
//! one arrangement — not to one private memory per consuming join — and
//! a view's memory figure must count the shared wedge index once.

use pgq_core::GraphEngine;
use pgq_graph::props::Properties;
use pgq_graph::tx::Transaction;
use pgq_ivm::NodeSummary;
use pgq_workloads::motifs::{generate_skew_motifs, queries, SkewMotifParams};

/// The edge scan and the wedge: the two arranged nodes of the network
/// (`tests/canonical_sharing.rs` pins that structure at full size).
fn arranged(e: &GraphEngine) -> (NodeSummary, NodeSummary) {
    let nodes = e.network().node_summaries();
    let scan = nodes.iter().find(|n| n.label == "⇑(E)").unwrap().clone();
    let wedge = nodes
        .iter()
        .find(|n| n.label != "⇑(E)" && !n.arrangements.is_empty())
        .unwrap()
        .clone();
    (scan, wedge)
}

#[test]
fn a_hub_edge_toggle_updates_each_wedge_tuple_once() {
    // The benchmark's size: the planner's choices (binary join trees, the
    // four-cycle as wedge ⋈ wedge) follow the statistics.
    let seed = generate_skew_motifs(SkewMotifParams::default());
    let hub = seed.nodes[0];
    let mut e = GraphEngine::from_graph(seed.graph);
    for (i, q) in queries::MOTIF_SKEW.iter().enumerate() {
        e.register_view(&format!("m{i}"), q).unwrap();
    }
    let (scan, wedge) = arranged(&e);
    assert_eq!(scan.arrangements.len(), 3);
    let [(_, wedge_before, 3)] = wedge.arrangements[..] else {
        panic!("one wedge index, three readers: {:?}", wedge.arrangements);
    };

    // The triangle view depends on the scan and on the one wedge index;
    // no join above them holds a copy of either.
    let tri = e.view(e.view_by_name("m0").unwrap()).unwrap();
    assert_eq!(
        tri.memory_tuples(),
        tri.distinct_count() + scan.own_tuples + wedge_before,
        "triangle view: results + ⇑(E) and its indexes + the wedge, once"
    );

    // Delete one out-edge of a hub, then put it back.
    let victim = e.graph().out_edges(hub)[0];
    let dst = e.graph().edge(victim).unwrap().dst;
    let mut delete = Transaction::new();
    delete.delete_edge(victim);
    let mut insert = Transaction::new();
    insert.create_edge(hub, dst, pgq_common::Symbol::intern("E"), Properties::new());

    let mut wedge_now = wedge_before;
    for (what, tx) in [("delete", delete), ("re-insert", insert)] {
        let before = e.network().counters().arrangement_updates;
        e.apply(&tx).unwrap();
        let updates = e.network().counters().arrangement_updates - before;
        let (_, wedge) = arranged(&e);
        let wedge_after = wedge.arrangements[0].1;
        let changed = wedge_now.abs_diff(wedge_after);
        assert!(
            changed > 10,
            "{what}: a hub edge moves many wedges ({changed})"
        );
        // One edge tuple into each of ⇑(E)'s three indexes, and every
        // changed wedge tuple into the one wedge index.
        assert_eq!(
            updates,
            3 + changed as u64,
            "{what}: each wedge tuple is indexed exactly once"
        );
        wedge_now = wedge_after;
    }
    assert_eq!(wedge_now, wedge_before, "the toggle nets to zero");
}
