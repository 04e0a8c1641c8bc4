//! `apply_batch` is one maintenance pass: the batch costs, shows and
//! notifies exactly what the single transaction holding all its
//! operations would, however much its members overlap.

use std::sync::{Arc, Mutex};

use pgq_algebra::pipeline::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_core::{GraphEngine, ViewDelta};
use pgq_graph::delta::ChangeEvent;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::{Transaction, TxOp};
use pgq_parser::parse_query;

const VIEWS: &[&str] = &[
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang AS lang, count(*) AS n",
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) RETURN p, t",
    "MATCH (p:Post)-[:REPLY]->(c:Comm)-[:REPLY]->(d:Comm) WHERE p.lang = d.lang RETURN p, d",
];

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

fn lang(l: &str) -> Properties {
    Properties::from_iter([("lang", Value::str(l))])
}

/// Four posts with three replies each, the first of which has a reply
/// of its own; every view registered.
fn engine() -> GraphEngine {
    let mut g = PropertyGraph::new();
    for i in 0..4 {
        let (p, _) = g.add_vertex([sym("Post")], lang(["en", "de"][i % 2]));
        for j in 0..3 {
            let (c, _) = g.add_vertex([sym("Comm")], lang(["en", "de", "fr"][j]));
            g.add_edge(p, c, sym("REPLY"), Properties::new()).unwrap();
            if j == 0 {
                let (d, _) = g.add_vertex([sym("Comm")], lang("fr"));
                g.add_edge(c, d, sym("REPLY"), Properties::new()).unwrap();
            }
        }
    }
    let mut e = GraphEngine::from_graph(g);
    for (i, q) in VIEWS.iter().enumerate() {
        e.register_view(&format!("v{i}"), q).unwrap();
    }
    e
}

fn subscribe_all(e: &mut GraphEngine) -> Arc<Mutex<Vec<ViewDelta>>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let ids: Vec<_> = e.views().map(|(id, _)| id).collect();
    for id in ids {
        let log = Arc::clone(&log);
        e.subscribe(id, move |d| log.lock().unwrap().push(d.clone()))
            .unwrap();
    }
    log
}

fn results(e: &GraphEngine) -> Vec<Vec<(Tuple, i64)>> {
    e.views().map(|(_, v)| v.results()).collect()
}

fn assert_recomputes(e: &GraphEngine) {
    for (q, got) in VIEWS.iter().zip(results(e)) {
        let plan = compile_query(&parse_query(q).unwrap()).unwrap();
        assert_eq!(
            got,
            pgq_eval::evaluate_consolidated(&plan.fra, e.graph()),
            "{q}"
        );
    }
}

/// The one transaction holding every member's operations, in order
/// (members here create nothing, so no `NodeRef::New` needs shifting).
fn merged(txs: &[Transaction]) -> Transaction {
    let ops: Vec<TxOp> = txs.iter().flat_map(|t| t.ops().to_vec()).collect();
    assert!(!ops.iter().any(|op| matches!(op, TxOp::CreateVertex { .. })));
    Transaction::from_ops(ops)
}

fn posts(e: &GraphEngine) -> Vec<pgq_common::ids::VertexId> {
    let mut v = e.graph().vertices_with_label(sym("Post")).to_vec();
    v.sort_unstable();
    v
}

#[test]
fn an_overlapping_batch_costs_what_its_merged_transaction_costs() {
    let template = engine();
    let ps = posts(&template);
    // Sixteen members over four posts: every member meets the others in
    // the same scans and the same join.
    let txs: Vec<Transaction> = (0..16)
        .map(|i| {
            let mut tx = Transaction::new();
            tx.set_vertex_prop(
                ps[i % 4],
                sym("lang"),
                Value::str(["fr", "en", "de"][i % 3]),
            );
            tx
        })
        .collect();

    let (mut batched, mut one, mut sequential) =
        (template.clone(), template.clone(), template.clone());
    let logs = [&mut batched, &mut one, &mut sequential].map(subscribe_all);
    assert_eq!(batched.apply_batch(&txs).unwrap().transactions, 16);
    one.apply(&merged(&txs)).unwrap();
    for tx in &txs {
        sequential.apply(tx).unwrap();
    }

    assert_recomputes(&batched);
    assert_eq!(results(&batched), results(&sequential));
    assert_eq!(
        batched.network().counters(),
        one.network().counters(),
        "a batch does the work of one transaction"
    );
    assert_eq!(
        batched.network().node_summaries(),
        one.network().node_summaries()
    );
    let [b, o, s] = logs.map(|l| std::mem::take(&mut *l.lock().unwrap()));
    assert_eq!(b, o, "a batch notifies as one transaction");
    assert!(
        b.len() <= VIEWS.len(),
        "at most one callback per view: {b:?}"
    );
    assert!(s.len() > b.len(), "sequential notifies per member");
    let (bc, sc) = (
        batched.network().counters(),
        sequential.network().counters(),
    );
    let base = template.network().counters();
    assert!(
        bc.join_tuples_emitted - base.join_tuples_emitted
            < sc.join_tuples_emitted - base.join_tuples_emitted,
        "members touching the same posts pay for them once: {bc:?} vs {sc:?}"
    );
}

#[test]
fn members_that_cancel_cost_nothing_and_notify_nobody() {
    let mut e = engine();
    let log = subscribe_all(&mut e);
    let before = (results(&e), e.network().counters());
    let post = posts(&e)[0];
    let txs: Vec<Transaction> = (0..16)
        .map(|i| {
            let mut tx = Transaction::new();
            tx.set_vertex_prop(post, sym("lang"), Value::str(["de", "en"][i % 2]));
            tx
        })
        .collect();
    e.apply_batch(&txs).unwrap();
    assert_eq!((results(&e), e.network().counters()), before);
    assert!(log.lock().unwrap().is_empty(), "no view changed");
}

#[test]
fn lifecycles_spanning_members_are_maintained_in_one_pass() {
    let mut e = engine();
    let log = subscribe_all(&mut e);
    let before = results(&e);
    let ps = posts(&e);
    let mut txs = Vec::new();

    // 1: a reply and a reply to it (their ids read off a copy).
    let mut tx = Transaction::new();
    let c = tx.create_vertex([sym("Comm")], lang("en"));
    let d = tx.create_vertex([sym("Comm")], lang("de"));
    tx.create_edge(ps[0], c, sym("REPLY"), Properties::new());
    tx.create_edge(c, d, sym("REPLY"), Properties::new());
    let mut shadow = e.graph().clone();
    let created: Vec<_> = shadow
        .apply(&tx)
        .unwrap()
        .iter()
        .filter_map(|ev| match ev {
            ChangeEvent::VertexAdded { id } => Some(*id),
            _ => None,
        })
        .collect();
    let (c, d) = (created[0], created[1]);
    let edge = shadow.out_edges(ps[0]).iter().copied().max().unwrap();
    txs.push(tx);
    // 2: the reply changes language and loses its label, then regains it.
    let mut tx = Transaction::new();
    tx.set_vertex_prop(c, sym("lang"), Value::str("fr"));
    tx.remove_label(c, sym("Comm"));
    txs.push(tx);
    let mut tx = Transaction::new();
    tx.add_label(c, sym("Comm"));
    txs.push(tx);
    // 3: the post's edge to it goes; the second reply goes whole.
    let mut tx = Transaction::new();
    tx.delete_edge(edge);
    tx.delete_vertex(d, true);
    txs.push(tx);
    // 4: the orphaned reply goes too: nothing the batch made is left.
    let mut tx = Transaction::new();
    tx.delete_vertex(c, true);
    txs.push(tx);

    e.apply_batch(&txs).unwrap();
    assert_recomputes(&e);
    assert_eq!(
        results(&e),
        before,
        "the batch left the views as it found them"
    );
    assert!(log.lock().unwrap().is_empty(), "no view changed");
}

#[test]
fn a_failing_member_leaves_the_members_before_it_in_one_pass() {
    let mut e = engine();
    let log = subscribe_all(&mut e);
    let ps = posts(&e);
    let mut txs = Vec::new();
    for l in ["fr", "de"] {
        let mut tx = Transaction::new();
        tx.set_vertex_prop(ps[0], sym("lang"), Value::str(l));
        txs.push(tx);
    }
    let mut bad = Transaction::new();
    bad.set_vertex_prop(ps[1], sym("lang"), Value::str("fr"));
    bad.delete_vertex(pgq_common::ids::VertexId(1 << 40), true);
    txs.push(bad);
    let mut after = Transaction::new();
    after.set_vertex_prop(ps[2], sym("lang"), Value::str("fr"));
    txs.push(after);

    let mut one = engine();
    let one_log = subscribe_all(&mut one);
    one.apply(&merged(&txs[..2])).unwrap();
    assert!(e.apply_batch(&txs).is_err());
    assert_recomputes(&e);
    assert_eq!(results(&e), results(&one));
    assert_eq!(
        *log.lock().unwrap(),
        *one_log.lock().unwrap(),
        "the members before the failure notify as one transaction"
    );
    let lang_of = |v| e.graph().vertex(v).unwrap().props.get(sym("lang")).cloned();
    assert_eq!(
        lang_of(ps[1]),
        Some(Value::str("de")),
        "the failed member rolled back"
    );
    assert_eq!(
        lang_of(ps[2]),
        Some(Value::str("en")),
        "members after it never ran"
    );
}

/// Per node, the events routed to it and the events its scans read, both
/// since the node was created.
fn event_counts(e: &GraphEngine) -> Vec<(String, u64, u64)> {
    e.network()
        .node_summaries()
        .into_iter()
        .map(|n| (n.label, n.delivered_events, n.events_read))
        .collect()
}

/// A scan reads only the events routed to it. Sixteen independent ⋈*
/// views and a batch whose sixteen members each add one hop to a
/// different one: the pass runs sixteen ⋈* nodes, and they read sixteen
/// events between them, not sixteen each. An overlapping batch reads, at
/// every node, no more than it was delivered.
#[test]
fn a_batch_reads_only_the_events_routed_to_each_scan() {
    const BRANCHES: usize = 16;
    let mut g = PropertyGraph::new();
    let mut tips = Vec::new();
    for i in 0..BRANCHES {
        let (p, _) = g.add_vertex([sym(&format!("P{i}"))], Properties::new());
        let (c, _) = g.add_vertex([sym(&format!("C{i}"))], Properties::new());
        let (d, _) = g.add_vertex([sym(&format!("C{i}"))], Properties::new());
        g.add_edge(p, c, sym(&format!("R{i}")), Properties::new())
            .unwrap();
        tips.push((c, d));
    }
    let mut e = GraphEngine::from_graph(g);
    for i in 0..BRANCHES {
        let q = format!("MATCH t = (p:P{i})-[:R{i}*]->(c:C{i}) RETURN p, t");
        e.register_view(&format!("b{i}"), &q).unwrap();
    }
    let txs: Vec<Transaction> = tips
        .iter()
        .enumerate()
        .map(|(i, &(c, d))| {
            let mut tx = Transaction::new();
            tx.create_edge(c, d, sym(&format!("R{i}")), Properties::new());
            tx
        })
        .collect();
    let before = event_counts(&e);
    e.apply_batch(&txs).unwrap();
    let after = event_counts(&e);
    let read: Vec<u64> = before
        .iter()
        .zip(&after)
        .filter(|(_, (label, ..))| label.starts_with("⋈*"))
        .map(|((_, _, r0), (_, _, r1))| r1 - r0)
        .collect();
    assert_eq!(read, vec![1; BRANCHES], "one routed event per ⋈* node");
    let total = |c: &[(String, u64, u64)]| c.iter().map(|n| n.2).sum::<u64>();
    assert_eq!(total(&after) - total(&before), BRANCHES as u64);
    for (i, (_, v)) in e.views().enumerate() {
        assert_eq!(
            v.results().len(),
            2,
            "view b{i}: the old path and the new one"
        );
    }

    let mut e = engine();
    let ps = posts(&e);
    let txs: Vec<Transaction> = (0..16)
        .map(|i| {
            let mut tx = Transaction::new();
            tx.set_vertex_prop(ps[i % 4], sym("lang"), Value::str(["fr", "en"][i % 2]));
            tx
        })
        .collect();
    let before = event_counts(&e);
    e.apply_batch(&txs).unwrap();
    for ((label, d0, r0), (_, d1, r1)) in before.iter().zip(&event_counts(&e)) {
        assert!(
            r1 - r0 <= d1 - d0,
            "{label} read {} events, {} were delivered",
            r1 - r0,
            d1 - d0
        );
    }
    let total = |c: &[(String, u64, u64)]| c.iter().map(|n| n.2).sum::<u64>();
    assert!(
        total(&event_counts(&e)) > total(&before),
        "the batch read events"
    );
    assert_recomputes(&e);
}
