//! The paper's *atomic path* model, exercised on its hardest cases:
//! named paths spanning mixed single-hop and variable-length segments
//! (internally: PathStart → PathExtend → PathConcat), maintained
//! incrementally and checked against recompute.

use pgq_core::GraphEngine;
use pgq_eval::evaluate_consolidated;

fn engine_with_chain() -> GraphEngine {
    let mut e = GraphEngine::new();
    // X -a-> M -b-> M -b-> M (a: single hop R; b: var-length S chain)
    e.execute_script(
        "CREATE (:X {id: 0})-[:R]->(:M {id: 1});\
         MATCH (m:M {id: 1}) CREATE (m)-[:S]->(:M {id: 2});\
         MATCH (m:M {id: 2}) CREATE (m)-[:S]->(:M {id: 3});",
    )
    .unwrap();
    e
}

#[test]
fn mixed_single_and_varlength_named_path() {
    let mut e = engine_with_chain();
    let view = e
        .register_view(
            "t",
            "MATCH t = (a:X)-[:R]->(b:M)-[:S*]->(c:M) RETURN t, length(t)",
        )
        .unwrap();
    let rows = e.view_results(view).unwrap();
    // Paths: X→1→2 (len 2) and X→1→2→3 (len 3).
    assert_eq!(rows.len(), 2);
    let mut lens: Vec<i64> = rows.iter().map(|r| r.get(1).as_int().unwrap()).collect();
    lens.sort_unstable();
    assert_eq!(lens, vec![2, 3]);
    // Every path starts at the X vertex.
    for r in &rows {
        let p = r.get(0).as_path().unwrap();
        assert_eq!(p.len() as i64, r.get(1).as_int().unwrap());
        assert_eq!(p.vertices().len(), p.edges().len() + 1);
    }
}

#[test]
fn zero_length_varlength_segment_in_named_path() {
    let mut e = engine_with_chain();
    let view = e
        .register_view("t0", "MATCH t = (a:X)-[:R]->(b:M)-[:S*0..]->(c:M) RETURN t")
        .unwrap();
    // Zero-hop: X→1 itself; plus the two longer ones.
    assert_eq!(e.view_results(view).unwrap().len(), 3);
}

#[test]
fn path_updates_maintain_mixed_paths() {
    let mut e = engine_with_chain();
    let view = e
        .register_view("t", "MATCH t = (a:X)-[:R]->(b:M)-[:S*]->(c:M) RETURN t")
        .unwrap();
    assert_eq!(e.view_results(view).unwrap().len(), 2);

    // Extend the S-chain: one more path appears.
    e.execute("MATCH (m:M {id: 3}) CREATE (m)-[:S]->(:M {id: 4})")
        .unwrap();
    assert_eq!(e.view_results(view).unwrap().len(), 3);

    // Cut the single-hop R edge: every path dies atomically.
    e.execute("MATCH (:X)-[r:R]->() DELETE r").unwrap();
    assert_eq!(e.view_results(view).unwrap().len(), 0);

    // Differential check after the churn.
    let compiled = e.view_compiled(view).unwrap();
    assert_eq!(
        e.view(view).unwrap().results(),
        evaluate_consolidated(&compiled.fra, e.graph())
    );
}

#[test]
fn two_varlength_segments_in_one_named_path() {
    let mut e = GraphEngine::new();
    e.execute_script(
        "CREATE (:X {id: 0})-[:S]->(:M {id: 1});\
         MATCH (m:M {id: 1}) CREATE (m)-[:T]->(:N {id: 2});\
         MATCH (n:N {id: 2}) CREATE (n)-[:T]->(:N {id: 3});",
    )
    .unwrap();
    let view = e
        .register_view(
            "tt",
            "MATCH t = (a:X)-[:S*]->(b:M)-[:T*]->(c:N) RETURN t, length(t)",
        )
        .unwrap();
    let rows = e.view_results(view).unwrap();
    // S-paths: X→1; T-paths from 1: 1→2, 1→2→3 ⇒ two combined paths.
    assert_eq!(rows.len(), 2);
    let compiled = e.view_compiled(view).unwrap();
    assert_eq!(
        e.view(view).unwrap().results(),
        evaluate_consolidated(&compiled.fra, e.graph())
    );
}

#[test]
fn named_path_of_single_node() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:X {id: 7})").unwrap();
    let r = e.query("MATCH t = (a:X) RETURN t, length(t)").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(1).as_int(), Some(0));
    let p = r.rows[0].get(0).as_path().unwrap();
    assert!(p.is_empty());
}

#[test]
fn relationships_list_alias_on_varlength() {
    let e = engine_with_chain();
    let r = e
        .query("MATCH (b:M {id: 1})-[es:S*]->(c:M) RETURN size(es), c.id")
        .unwrap();
    // 1→2 (1 edge) and 1→2→3 (2 edges).
    let mut pairs: Vec<(i64, i64)> = r
        .rows
        .iter()
        .map(|row| (row.get(0).as_int().unwrap(), row.get(1).as_int().unwrap()))
        .collect();
    pairs.sort_unstable();
    assert_eq!(pairs, vec![(1, 2), (2, 3)]);
}

/// An undirected ⋈* over a self-loop, parallel edges and a two-cycle:
/// the push evaluator (`pgq_eval::enumerate_paths`) and the reference,
/// which walks paths by its own code, give one bag. A self-loop is in
/// both of its vertex's adjacency lists and is one hop, so a walk that
/// took it from both would read every path through it twice.
#[test]
fn undirected_varlength_paths_agree_with_the_reference() {
    use pgq_algebra::pipeline::compile_query;
    use pgq_common::intern::Symbol;
    use pgq_common::value::Value;
    use pgq_graph::props::Properties;
    use pgq_graph::store::PropertyGraph;
    use pgq_parser::parse_query;

    let mut g = PropertyGraph::new();
    let vs: Vec<_> = (0..4)
        .map(|id| {
            let props = Properties::from_iter([("id", Value::Int(id))]);
            g.add_vertex([Symbol::intern("N")], props).0
        })
        .collect();
    for (a, b) in [(0, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 3), (3, 3)] {
        g.add_edge(vs[a], vs[b], Symbol::intern("R"), Properties::new())
            .unwrap();
    }
    let sorted = |mut bag: pgq_eval::Bag| {
        bag.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        bag
    };
    for q in [
        "MATCH p = (a:N {id: 0})-[:R*1..4]-(b:N) RETURN p",
        "MATCH (a:N)-[:R*0..2]-(b) RETURN a, b",
        "MATCH (a:N {id: 3})-[:R*1..1]-(b) RETURN b",
        "MATCH (a:N)<-[:R*1..3]-(b:N) RETURN a, b",
    ] {
        let fra = compile_query(&parse_query(q).unwrap()).unwrap().fra;
        let push = sorted(pgq_eval::evaluate(&fra, &g));
        let reference = sorted(pgq_eval_reference::Evaluator::new(&g).run(&fra));
        assert!(!push.is_empty(), "{q}");
        assert_eq!(push, reference, "{q}");
    }
    // From 3: the edge to 2 and the self-loop, each once.
    let fra = compile_query(&parse_query("MATCH (a:N {id: 3})-[:R*1..1]-(b) RETURN b").unwrap())
        .unwrap()
        .fra;
    assert_eq!(pgq_eval::evaluate(&fra, &g).len(), 2);
}
