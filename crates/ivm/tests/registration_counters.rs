//! Registration is one pass: with the `ivm-stats` feature on,
//! `bag_enumerations` counts every full output bag produced from a
//! node's own state (a memory enumeration, or the by-product of a linear
//! load), so the single-pass claim is a work count, not a timing.
//!
//! Run with `cargo test -p pgq_ivm --features ivm-stats`.
#![cfg(feature = "ivm-stats")]

use pgq_algebra::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::stats::counters;
use pgq_ivm::{DataflowNetwork, NodeSummary};
use pgq_parser::parse_query;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let mut tx = Transaction::new();
    let langs = ["en", "de", "nl"];
    let prop = |k: &str, i: usize| {
        let mut p = Properties::new();
        p.set(s(k), Value::str(langs[i % langs.len()]));
        p
    };
    let persons: Vec<_> = (0..40)
        .map(|i| tx.create_vertex([s("Person")], prop("country", i)))
        .collect();
    for i in 0..persons.len() {
        for step in [1, 3, 7] {
            let j = (i + step) % persons.len();
            tx.create_edge(persons[i], persons[j], s("KNOWS"), Properties::new());
        }
    }
    let posts: Vec<_> = (0..30)
        .map(|i| tx.create_vertex([s("Post")], prop("lang", i)))
        .collect();
    for (i, &p) in posts.iter().enumerate() {
        let c = tx.create_vertex([s("Comm")], prop("lang", i + 1));
        tx.create_edge(p, c, s("REPLY"), Properties::new());
    }
    g.apply(&tx).unwrap();
    g
}

fn stateless(n: &NodeSummary) -> bool {
    ["σ", "π", "ω"].contains(&n.label.as_str())
}

/// Register `cypher`, returning the summaries of the nodes it added and
/// the number of bags it enumerated.
fn register(
    net: &mut DataflowNetwork,
    g: &PropertyGraph,
    name: &str,
    cypher: &str,
) -> (Vec<NodeSummary>, u64) {
    let compiled = compile_query(&parse_query(cypher).unwrap()).unwrap();
    let before: Vec<_> = net.node_summaries().iter().map(|n| n.id).collect();
    counters::reset();
    let sid = net.register(name, &compiled.fra, g);
    let enumerated = counters::snapshot().bag_enumerations;
    assert!(net.view(sid).row_count() > 0, "{name} should not be empty");
    let added = net
        .node_summaries()
        .into_iter()
        .filter(|n| !before.contains(&n.id))
        .collect();
    (added, enumerated)
}

/// The counters are process-globals, so all assertions live in one test
/// (and this file is its own test binary).
#[test]
fn registration_produces_each_bag_at_most_once() {
    let g = graph();
    let mut net = DataflowNetwork::new();

    // Cold: every new stateful node's bag is produced at most once, and
    // the stateless σ/π above them cost no enumeration of their own.
    let (added, enumerated) = register(
        &mut net,
        &g,
        "cold",
        "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) \
         WHERE a.country = c.country RETURN a, c",
    );
    let stateful = added.iter().filter(|n| !stateless(n)).count() as u64;
    assert!(stateful >= 3, "two scans and a join at least: {added:?}");
    assert!(added.iter().any(stateless), "σ/π expected: {added:?}");
    assert!(
        (1..=stateful).contains(&enumerated),
        "{enumerated} enumerations for {stateful} new stateful nodes"
    );

    // Fully shared (alpha-renamed): no new node, and the sink copies its
    // sibling's results — nothing is enumerated at all.
    let (added, enumerated) = register(
        &mut net,
        &g,
        "shared",
        "MATCH (x:Person)-[:KNOWS]->(y:Person)-[:KNOWS]->(z:Person) \
         WHERE x.country = z.country RETURN x, z",
    );
    assert!(added.is_empty(), "{added:?}");
    assert_eq!(enumerated, 0);

    // A WHERE family: the second member adds only stateless nodes. The
    // shared join below them is enumerated once, for the sink — not
    // once per new σ/π on the way up.
    register(
        &mut net,
        &g,
        "en",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'en' RETURN p, c",
    );
    let (added, enumerated) = register(
        &mut net,
        &g,
        "de",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'de' OR c.lang = 'nl' RETURN p, c",
    );
    assert!(
        !added.is_empty() && added.iter().all(stateless),
        "{added:?}"
    );
    assert_eq!(enumerated, 1, "the shared prefix, once");

    // A pre-existing node that feeds a join is copied from that join's
    // memory, never enumerated: only the new nodes count.
    let (added, enumerated) = register(
        &mut net,
        &g,
        "one_hop",
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.country = b.country RETURN a, b",
    );
    let stateful = added.iter().filter(|n| !stateless(n)).count() as u64;
    assert!(
        enumerated <= stateful,
        "{enumerated} enumerations for {stateful} new stateful nodes: {added:?}"
    );
}
