//! Registration is one pass: the network's `bag_enumerations` counts
//! every full output bag produced from a node's own state (a memory
//! enumeration, or the by-product of a linear load), so the single-pass
//! claim is a work count, not a timing. The rows a registration
//! enumerates from a join count into `join_tuples_emitted`.

use pgq_algebra::compile_query;
use pgq_algebra::expr::ScalarExpr;
use pgq_algebra::fra::Fra;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::{DataflowNetwork, NodeSummary, RegisterOptions};
use pgq_parser::ast::BinOp;
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
    n.label.starts_with(['σ', 'π', 'ω'])
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
    let enumerations = net.counters().bag_enumerations;
    let sid = net.register(name, &compiled.fra, g);
    let enumerated = net.counters().bag_enumerations - enumerations;
    assert!(net.view(sid).row_count() > 0, "{name} should not be empty");
    let added = net
        .node_summaries()
        .into_iter()
        .filter(|n| !before.contains(&n.id))
        .collect();
    (added, enumerated)
}

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
    // The © that pushes `country` folds into its edge scan: two ⇑, one
    // ⋈, and no © or second ⋈ joining it back in.
    let labels: Vec<&str> = added.iter().map(|n| n.label.as_str()).collect();
    assert!(!labels.iter().any(|l| l.starts_with('©')), "{labels:?}");
    assert_eq!(
        labels.iter().filter(|l| **l == "⋈").count(),
        1,
        "{labels:?}"
    );
    assert_eq!(stateful, 3, "two scans and a join: {labels:?}");
    assert!(added.iter().any(stateless), "σ/π expected: {added:?}");
    assert!(
        (1..=stateful).contains(&enumerated),
        "{enumerated} enumerations for {stateful} new stateful nodes"
    );

    // Fully shared (alpha-renamed): no new node, and the sink reads the
    // result bag its root already keeps — nothing is enumerated at all.
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

    // Three new σ over one new two-hop join, each arranged for a join
    // above them: the first arrangement streams the join's rows through
    // its σ, the second finds them enumerated once already and memoises
    // them, the third reads the memo.
    let two_hop = || Fra::HashJoin {
        left: Box::new(knows("a", "b")),
        right: Box::new(knows("b2", "c")),
        left_keys: vec![2],
        right_keys: vec![0],
        value_keys: vec![],
    };
    let filtered = |op: BinOp, l: usize, r: usize| Fra::Filter {
        input: Box::new(two_hop()),
        predicate: ScalarExpr::Binary(
            op,
            Box::new(ScalarExpr::Col(l)),
            Box::new(ScalarExpr::Col(r)),
        ),
    };
    let pair = Fra::HashJoin {
        left: Box::new(filtered(BinOp::Neq, 0, 4)),
        right: Box::new(filtered(BinOp::Neq, 0, 2)),
        left_keys: vec![2],
        right_keys: vec![2],
        value_keys: vec![],
    };
    let plan = Fra::HashJoin {
        left: Box::new(pair),
        right: Box::new(filtered(BinOp::Neq, 1, 3)),
        left_keys: vec![2],
        right_keys: vec![2],
        value_keys: vec![],
    };
    let mut net = DataflowNetwork::new();
    let literal = RegisterOptions {
        plan: false,
        ..RegisterOptions::default()
    };
    let sid = net.register_with("thrice", &plan, &g, literal);
    // One edge scan (both hops are the same ⇑), the two-hop join twice
    // (streamed, then memoised), the inner join once for the outer
    // one's arrangement and the outer join once for the sink.
    assert_eq!(net.counters().bag_enumerations, 5);
    assert_eq!(
        net.view(sid).results(),
        pgq_eval::evaluate_consolidated(&plan, &g)
    );
    assert!(net.view(sid).row_count() > 0);
}

/// `⇑[(src:Person)-[:KNOWS]->(dst:Person)]`.
fn knows(src: &str, dst: &str) -> Fra {
    Fra::ScanEdges {
        src: src.into(),
        edge: format!("{src}{dst}"),
        dst: dst.into(),
        types: vec![s("KNOWS")],
        src_labels: vec![s("Person")],
        dst_labels: vec![s("Person")],
        src_props: vec![],
        edge_props: vec![],
        dst_props: vec![],
        dir: pgq_common::dir::Direction::Out,
    }
}

/// Seeding a cold view from a join's arrangements is join work: its
/// rows count into `join_tuples_emitted` as maintenance's do. A view
/// that shares the root reads the root's result bag and adds none, and
/// a state dump enumerates the join again without counting it.
#[test]
fn registration_counts_the_join_rows_it_seeds() {
    let g = graph();
    let mut net = DataflowNetwork::new();
    let join_rows = |net: &DataflowNetwork| net.counters().join_tuples_emitted;
    let compile = |cypher: &str| compile_query(&parse_query(cypher).unwrap()).unwrap().fra;

    let sid = net.register(
        "cold",
        &compile(
            "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) \
             WHERE a.country = c.country RETURN a, c",
        ),
        &g,
    );
    // The ⋈ keys on `b` and on the country value, so every row it emits
    // is a result row: c = a + 6 without wrapping round the 40-person
    // ring (34 rows), or a + 4 or a + 10 wrapping (2 × 4 + 2 × 10).
    let seeded = join_rows(&net);
    assert_eq!(seeded, net.view(sid).row_count() as u64);
    assert_eq!(seeded, 62);

    net.register(
        "twin",
        &compile(
            "MATCH (x:Person)-[:KNOWS]->(y:Person)-[:KNOWS]->(z:Person) \
             WHERE x.country = z.country RETURN x, z",
        ),
        &g,
    );
    assert_eq!(join_rows(&net), seeded, "a shared root seeds nothing");

    net.dump_states();
    assert_eq!(join_rows(&net), seeded, "a dump is not join work");
}
