//! The engine's snapshot tick reads no operator state: the network's
//! `bag_enumerations` — every full output bag produced from a node's own
//! memories, by registration or by `DataflowNetwork::dump_states` — does
//! not advance across `GraphEngine::snapshot`, however much the standing
//! views hold.

use std::sync::Arc;

use pgq_algebra::compile_query;
use pgq_common::intern::Symbol;
use pgq_core::GraphEngine;
use pgq_durability::MemDisk;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::DataflowNetwork;
use pgq_parser::parse_query;

const VIEWS: [(&str, &str); 2] = [
    ("two_hop", "MATCH (a)-[:E]->(b)-[:E]->(c) RETURN a, c"),
    (
        "triangle",
        "MATCH (a)-[:E]->(b)-[:E]->(c), (a)-[:E]->(c) RETURN a, b, c",
    ),
];

/// A 30-vertex circulant graph: each vertex has `E` edges 1, 2 and 5
/// steps ahead.
fn circulant() -> Transaction {
    let mut tx = Transaction::new();
    let vs: Vec<_> = (0..30)
        .map(|_| tx.create_vertex([Symbol::intern("N")], Properties::new()))
        .collect();
    for i in 0..vs.len() {
        for step in [1, 2, 5] {
            let e = Symbol::intern("E");
            tx.create_edge(vs[i], vs[(i + step) % vs.len()], e, Properties::new());
        }
    }
    tx
}

#[test]
fn snapshot_tick_enumerates_no_bag() {
    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    engine.apply(&circulant()).unwrap();

    let before = engine.network().counters().bag_enumerations;
    for (name, cypher) in VIEWS {
        engine.register_view(name, cypher).unwrap();
    }
    // The counter is live: registration enumerated the new nodes' bags
    // (each registration also logged its catalog record in this window;
    // it writes no image).
    let registered = engine.network().counters().bag_enumerations;
    assert!(registered > before);

    let written = engine.durability_health().unwrap().snapshots_written;
    engine.snapshot().unwrap();
    assert_eq!(
        engine.durability_health().unwrap().snapshots_written,
        written + 1
    );
    assert_eq!(engine.network().counters().bag_enumerations, registered);
}

/// The guard above is live: a snapshot that read operator state through
/// `dump_states` would advance the counter, once per live node whose bag
/// maintenance does not already keep.
#[test]
fn dump_states_counts_its_enumerations() {
    let mut g = PropertyGraph::new();
    g.apply(&circulant()).unwrap();
    let mut net = DataflowNetwork::new();
    for (name, cypher) in VIEWS {
        let compiled = compile_query(&parse_query(cypher).unwrap()).unwrap();
        net.register(name, &compiled.fra, &g);
    }
    let registered = net.counters().bag_enumerations;
    let states = net.dump_states();
    assert!(!states.is_empty());
    let dumped = net.counters().bag_enumerations - registered;
    assert!(
        (1..=net.node_count() as u64).contains(&dumped),
        "{dumped} enumerations for {} nodes",
        net.node_count()
    );
}
