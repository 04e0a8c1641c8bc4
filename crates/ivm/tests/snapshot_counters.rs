//! The engine's snapshot tick reads no operator state: with the
//! `ivm-stats` feature on, `bag_enumerations` — every full output bag
//! produced from a node's own memories — does not advance across
//! `GraphEngine::snapshot`, however much the standing views hold.
//!
//! Run with `cargo test -p pgq_ivm --features ivm-stats`.
#![cfg(feature = "ivm-stats")]

use std::sync::Arc;

use pgq_common::intern::Symbol;
use pgq_core::GraphEngine;
use pgq_durability::MemDisk;
use pgq_graph::props::Properties;
use pgq_graph::tx::Transaction;
use pgq_ivm::stats::counters;

/// The counters are process-globals, so this file is its own test
/// binary with one test.
#[test]
fn snapshot_tick_enumerates_no_bag() {
    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
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
    engine.apply(&tx).unwrap();

    counters::reset();
    engine
        .register_view("two_hop", "MATCH (a)-[:E]->(b)-[:E]->(c) RETURN a, c")
        .unwrap();
    engine
        .register_view(
            "triangle",
            "MATCH (a)-[:E]->(b)-[:E]->(c), (a)-[:E]->(c) RETURN a, b, c",
        )
        .unwrap();
    // The counter is live: registration enumerated the new nodes' bags
    // (its own snapshots, one per view, are inside this window too).
    let registered = counters::snapshot().bag_enumerations;
    assert!(registered > 0);

    let written = engine.durability_health().unwrap().snapshots_written;
    engine.snapshot().unwrap();
    assert_eq!(
        engine.durability_health().unwrap().snapshots_written,
        written + 1
    );
    assert_eq!(counters::snapshot().bag_enumerations, registered);
}
