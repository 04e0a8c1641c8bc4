//! Network-level integration tests: hand-built FRA plans, each registered
//! alone on a `DataflowNetwork`, checking multi-operator interactions that unit
//! tests of individual operators cannot see (delta ordering between
//! siblings, consolidation across a transaction, memory accounting).

use pgq_algebra::expr::{AggCall, AggFunc, ScalarExpr};
use pgq_algebra::fra::{Fra, PropPush};
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::DataflowNetwork;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn scan(var: &str, label: &str) -> Fra {
    Fra::ScanVertices {
        var: var.into(),
        labels: vec![s(label)],
        props: vec![],
    }
}

#[test]
fn join_over_two_scans_via_edges() {
    // ©(a:A) ⋈[a] ⇑[(a)-[:R]->(b)] — the canonical two-node Rete beta.
    let edges = Fra::ScanEdges {
        src: "a".into(),
        edge: "e".into(),
        dst: "b".into(),
        types: vec![s("R")],
        src_labels: vec![],
        dst_labels: vec![],
        src_props: vec![],
        edge_props: vec![],
        dst_props: vec![],
        dir: pgq_common::dir::Direction::Out,
    };
    let plan = Fra::HashJoin {
        left: Box::new(scan("a", "A")),
        right: Box::new(edges),
        left_keys: vec![0],
        right_keys: vec![0],
        value_keys: vec![],
    };

    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    let view = net.register("j", &plan, &g);
    assert_eq!(net.view(view).row_count(), 0);

    // Edge arrives in the SAME transaction as its endpoints.
    let mut tx = Transaction::new();
    let a = tx.create_vertex([s("A")], Properties::new());
    let b = tx.create_vertex([s("B")], Properties::new());
    tx.create_edge(a, b, s("R"), Properties::new());
    let events = g.apply(&tx).unwrap();
    net.on_transaction(&g, &events);
    let delta = net.last_delta(view).clone();
    assert_eq!(delta.consolidate().len(), 1);
    assert_eq!(net.view(view).row_count(), 1);

    // Removing the A label kills the join result without touching edges.
    let ids: Vec<_> = g.vertex_ids().collect();
    let va = *ids.iter().min().unwrap();
    let ev = g.remove_label(va, s("A")).unwrap().unwrap();
    net.on_transaction(&g, &[ev]);
    assert_eq!(net.view(view).row_count(), 0);
}

#[test]
fn aggregate_over_join_consolidates_per_transaction() {
    // count(*) over ©(a:A): a transaction adding 3 and removing 1 must
    // produce exactly one -old/+new pair at the aggregate.
    let plan = Fra::Aggregate {
        input: Box::new(scan("a", "A")),
        group: vec![],
        aggs: vec![(
            AggCall {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            },
            "n".into(),
        )],
    };
    let mut g = PropertyGraph::new();
    let (v0, _) = g.add_vertex([s("A")], Properties::new());
    let mut net = DataflowNetwork::new();
    let view = net.register("agg", &plan, &g);
    assert_eq!(net.view(view).rows(), vec![Tuple::new(vec![Value::Int(1)])]);

    let mut tx = Transaction::new();
    tx.create_vertex([s("A")], Properties::new());
    tx.create_vertex([s("A")], Properties::new());
    tx.create_vertex([s("A")], Properties::new());
    tx.delete_vertex(v0, true);
    let events = g.apply(&tx).unwrap();
    net.on_transaction(&g, &events);
    let delta = net.last_delta(view).clone().consolidate();
    // Exactly two entries: -⟨1⟩ and +⟨3⟩.
    assert_eq!(delta.len(), 2);
    assert_eq!(net.view(view).rows(), vec![Tuple::new(vec![Value::Int(3)])]);
}

#[test]
fn distinct_over_projection() {
    // δ π[lang] ©(p:Post{lang}) — language list maintenance.
    let plan = Fra::Distinct {
        input: Box::new(Fra::Project {
            input: Box::new(Fra::ScanVertices {
                var: "p".into(),
                labels: vec![s("Post")],
                props: vec![PropPush {
                    prop: s("lang"),
                    col: "p.lang".into(),
                }],
            }),
            items: vec![(ScalarExpr::Col(1), "lang".into())],
        }),
    };
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    let view = net.register("langs", &plan, &g);
    for lang in ["en", "en", "de"] {
        let mut tx = Transaction::new();
        tx.create_vertex(
            [s("Post")],
            Properties::from_iter([("lang", Value::str(lang))]),
        );
        let events = g.apply(&tx).unwrap();
        net.on_transaction(&g, &events);
    }
    assert_eq!(net.view(view).row_count(), 2);

    // Retag the only 'de' post: 'de' leaves, nothing else changes.
    let de = g
        .vertex_ids()
        .find(|&v| g.vertex_prop(v, s("lang")) == Value::str("de"))
        .unwrap();
    let ev = g.set_vertex_prop(de, s("lang"), Value::str("en")).unwrap();
    net.on_transaction(&g, &[ev]);
    let delta = net.last_delta(view).clone().consolidate();
    assert_eq!(delta.len(), 1);
    assert_eq!(net.view(view).row_count(), 1);
}

#[test]
fn memory_accounting_tracks_graph_size() {
    let plan = scan("a", "A");
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    let view = net.register("m", &plan, &g);
    for _ in 0..10 {
        let mut tx = Transaction::new();
        tx.create_vertex([s("A")], Properties::new());
        let events = g.apply(&tx).unwrap();
        net.on_transaction(&g, &events);
    }
    // The result bag (10); the scan keeps no copy.
    assert_eq!(net.view(view).memory_tuples(), 10);
    assert_eq!(net.view(view).maintenance_count(), 10);
}

#[test]
fn unit_plan_emits_single_row_once() {
    let plan = Fra::Project {
        input: Box::new(Fra::Unit),
        items: vec![(ScalarExpr::lit(42), "x".into())],
    };
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    let view = net.register("u", &plan, &g);
    assert_eq!(
        net.view(view).rows(),
        vec![Tuple::new(vec![Value::Int(42)])]
    );
    // Unrelated updates leave it alone.
    let mut tx = Transaction::new();
    tx.create_vertex([s("A")], Properties::new());
    let events = g.apply(&tx).unwrap();
    net.on_transaction(&g, &events);
    let delta = net.last_delta(view).clone();
    assert!(delta.consolidate().is_empty());
    assert_eq!(net.view(view).row_count(), 1);
}
