//! End-to-end engine tests: openCypher updates, views, one-shot queries,
//! EXPLAIN, and error paths.

use pgq::prelude::*;
use pgq_core::GraphEngine;

#[test]
fn create_and_query_roundtrip() {
    let mut e = GraphEngine::new();
    let r = e
        .execute("CREATE (:Post {lang: 'en'})-[:REPLY]->(:Comm {lang: 'en'})")
        .unwrap();
    assert_eq!(r.stats.nodes_created, 2);
    assert_eq!(r.stats.relationships_created, 1);

    let res = e
        .query("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        .unwrap();
    assert_eq!(res.rows.len(), 1);
}

#[test]
fn match_create_binds_existing_nodes() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:Post {lang: 'en', k: 1})").unwrap();
    e.execute("CREATE (:Post {lang: 'de', k: 2})").unwrap();
    // One new comment per matched post.
    let r = e
        .execute("MATCH (p:Post) CREATE (p)-[:REPLY]->(:Comm {lang: 'xx'})")
        .unwrap();
    assert_eq!(r.stats.nodes_created, 2);
    assert_eq!(r.stats.relationships_created, 2);
    assert_eq!(e.graph().vertex_count(), 4);
}

#[test]
fn set_with_expression_over_match() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:Post {len: 10})").unwrap();
    e.execute("MATCH (p:Post) SET p.len = p.len + 5").unwrap();
    let res = e.query("MATCH (p:Post) RETURN p.len").unwrap();
    assert_eq!(res.rows[0].get(0), &Value::Int(15));
}

#[test]
fn delete_and_detach_delete() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:Post {lang: 'en'})-[:REPLY]->(:Comm)")
        .unwrap();
    // Plain DELETE of a connected vertex fails and rolls back.
    assert!(e.execute("MATCH (p:Post) DELETE p").is_err());
    assert_eq!(e.graph().vertex_count(), 2);
    let r = e.execute("MATCH (p:Post) DETACH DELETE p").unwrap();
    assert_eq!(r.stats.nodes_deleted, 1);
    assert_eq!(e.graph().vertex_count(), 1);
    assert_eq!(e.graph().edge_count(), 0);
}

#[test]
fn remove_property_and_labels() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:Post:Hot {lang: 'en'})").unwrap();
    e.execute("MATCH (p:Post) REMOVE p.lang, p:Hot").unwrap();
    let res = e.query("MATCH (p:Post) RETURN p.lang").unwrap();
    assert_eq!(res.rows[0].get(0), &Value::Null);
    let res = e.query("MATCH (p:Hot) RETURN p").unwrap();
    assert!(res.rows.is_empty());
}

#[test]
fn views_are_maintained_through_execute() {
    let mut e = GraphEngine::new();
    let view = e
        .register_view("en-posts", "MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        .unwrap();
    assert_eq!(e.view_results(view).unwrap().len(), 0);
    e.execute("CREATE (:Post {lang: 'en'})").unwrap();
    e.execute("CREATE (:Post {lang: 'de'})").unwrap();
    assert_eq!(e.view_results(view).unwrap().len(), 1);
    e.execute("MATCH (p:Post) SET p.lang = 'en'").unwrap();
    assert_eq!(e.view_results(view).unwrap().len(), 2);
}

#[test]
fn aggregate_view_maintains_counts() {
    let mut e = GraphEngine::new();
    let view = e
        .register_view(
            "by-lang",
            "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
        )
        .unwrap();
    e.execute("CREATE (:Post {lang: 'en'})").unwrap();
    e.execute("CREATE (:Post {lang: 'en'})").unwrap();
    e.execute("CREATE (:Post {lang: 'de'})").unwrap();
    let rows = e.view_results(view).unwrap();
    assert_eq!(rows.len(), 2);
    let en = rows
        .iter()
        .find(|r| r.get(0) == &Value::str("en"))
        .expect("en group");
    assert_eq!(en.get(1), &Value::Int(2));
}

#[test]
fn order_by_works_one_shot_but_not_as_view() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:Post {len: 3})").unwrap();
    e.execute("CREATE (:Post {len: 1})").unwrap();
    e.execute("CREATE (:Post {len: 2})").unwrap();
    // One-shot with ORDER BY ... LIMIT: fine via the baseline.
    let res = e
        .query("MATCH (p:Post) RETURN p.len AS len ORDER BY len DESC LIMIT 2")
        .unwrap();
    let lens: Vec<_> = res.rows.iter().map(|r| r.get(0).clone()).collect();
    assert_eq!(lens, vec![Value::Int(3), Value::Int(2)]);
    // As a view: rejected with NotMaintainable (the paper's trade-off).
    let err = e
        .register_view(
            "topk",
            "MATCH (p:Post) RETURN p.len AS len ORDER BY len LIMIT 2",
        )
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Algebra(pgq_algebra::AlgebraError::NotMaintainable(_))
    ));
}

#[test]
fn duplicate_view_names_rejected() {
    let mut e = GraphEngine::new();
    e.register_view("v", "MATCH (p:Post) RETURN p").unwrap();
    assert!(matches!(
        e.register_view("v", "MATCH (p:Post) RETURN p"),
        Err(EngineError::DuplicateView(_))
    ));
}

#[test]
fn drop_view_stops_maintenance() {
    let mut e = GraphEngine::new();
    let v = e.register_view("v", "MATCH (p:Post) RETURN p").unwrap();
    e.drop_view(v).unwrap();
    assert!(e.view_results(v).is_err());
    // Updates still work with no views registered.
    e.execute("CREATE (:Post)").unwrap();
}

#[test]
fn explain_renders_three_stages() {
    let e = GraphEngine::new();
    let text = e
        .explain("MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t")
        .unwrap();
    assert!(text.contains("Stage 1: GRA"));
    assert!(text.contains("Stage 2: NRA"));
    assert!(text.contains("Stage 3: FRA"));
    assert!(text.contains("incrementally maintainable"));
}

/// A string literal holding an escaped newline renders escaped, so the
/// one-shot plan keeps one line per operator and its seek mark on the σ.
/// The operator lines of each EXPLAIN stage, by its `== ` header: all
/// its non-empty lines, but in stage 4 only those with an estimate.
fn stage_ops(text: &str) -> Vec<(&str, Vec<&str>)> {
    text.split("== ")
        .skip(1)
        .filter(|s| !s.starts_with("Maintainability"))
        .map(|s| {
            let mut lines = s.lines().filter(|l| !l.is_empty());
            let header = lines.next().unwrap_or_default();
            let ops = lines
                .filter(|l| !header.starts_with("Stage 4") || l.ends_with(" rows"))
                .collect();
            (header, ops)
        })
        .collect()
}

#[test]
fn explain_escapes_a_newline_in_a_string_literal() {
    let e = GraphEngine::new();
    // Operator lines in stages 1 to 4 and the one-shot plan.
    let cases = [
        (
            "MATCH (p:Person {id: 1}) WHERE p.name = 'a\\nb' RETURN p",
            [1, 1, 3, 3, 3],
        ),
        ("RETURN 'a\\nb'", [1, 1, 2, 2, 2]),
    ];
    for (query, want) in cases {
        let text = e.explain(query).unwrap();
        let stages = stage_ops(&text);
        assert_eq!(stages.len(), want.len(), "{text}");
        for ((header, ops), n) in stages.iter().zip(want) {
            assert_eq!(ops.len(), n, "one line per operator in {header}:\n{text}");
            assert!(
                ops.iter().any(|l| l.contains(r"'a\nb'")),
                "{header} writes the literal escaped:\n{text}"
            );
        }
    }
    let text = e.explain(cases[0].0).unwrap();
    let one_shot = text
        .split("== One-shot execution")
        .nth(1)
        .expect("EXPLAIN ends with the one-shot plan");
    let ops: Vec<&str> = one_shot.lines().skip(1).filter(|l| !l.is_empty()).collect();
    assert_eq!(ops.len(), 3, "π, σ and ©, one line each:{one_shot}");
    let filter = ops[1].trim_start();
    assert!(filter.starts_with("σ["), "{one_shot}");
    assert!(filter.contains(r"'a\nb'"), "{one_shot}");
    assert!(filter.contains("← seek Person.id"), "{one_shot}");
}

/// An integer and an equal float are two values to γ, as they are to
/// `RETURN DISTINCT`: a view, `query` and `execute` of the same
/// aggregates read the same row, whichever value arrives first.
#[test]
fn a_view_and_a_read_agree_on_an_integer_and_an_equal_float() {
    use pgq_common::tuple::Tuple;
    const AGGS: &str = "MATCH (p:P) RETURN count(DISTINCT p.x) AS n, collect(p.x) AS xs, \
                        min(p.x) AS lo, max(p.x) AS hi";
    let (one, one_f) = (Value::Int(1), Value::float(1.0));
    let reads = |e: &mut GraphEngine| {
        let id = e.view_by_name("v").unwrap();
        let view: Vec<Tuple> = e
            .view(id)
            .unwrap()
            .results()
            .into_iter()
            .map(|(t, m)| {
                assert_eq!(m, 1);
                t
            })
            .collect();
        vec![
            view,
            e.query(AGGS).unwrap().rows,
            e.execute(AGGS).unwrap().rows,
        ]
    };
    for xs in [["1", "1.0", "1"], ["1.0", "1", "1"]] {
        let mut e = GraphEngine::new();
        e.register_view("v", AGGS).unwrap();
        for (id, x) in xs.iter().enumerate() {
            e.execute(&format!("CREATE (:P {{id: {id}, x: {x}}})"))
                .unwrap();
        }
        let all = Tuple::new(vec![
            Value::Int(2),
            Value::list(vec![one.clone(), one.clone(), one_f.clone()]),
            one.clone(),
            one_f.clone(),
        ]);
        assert_eq!(reads(&mut e), vec![vec![all]; 3], "created {xs:?}");
        let distinct = e.query("MATCH (p:P) RETURN DISTINCT p.x").unwrap().rows;
        assert_eq!(distinct.len(), 2);

        let float = xs.iter().position(|x| *x == "1.0").unwrap();
        e.execute(&format!("MATCH (p:P) WHERE p.id <> {float} DELETE p"))
            .unwrap();
        let left = Tuple::new(vec![
            Value::Int(1),
            Value::list(vec![one_f.clone()]),
            one_f.clone(),
            one_f.clone(),
        ]);
        assert_eq!(reads(&mut e), vec![vec![left]; 3], "created {xs:?}");
    }
}

/// Rows `total_cmp` ties — `1` and `1.0` — read the integer first, in a
/// view, `query` and `execute` alike, in whichever order they were
/// created: the read order depends on the rows alone.
#[test]
fn tied_rows_read_in_one_order_whatever_their_history() {
    use pgq_common::tuple::Tuple;
    const Q: &str = "MATCH (p:P) RETURN p.x AS x";
    let want: Vec<Tuple> = (0..40)
        .flat_map(|i| [Value::Int(i), Value::float(i as f64)])
        .map(|v| Tuple::new(vec![v]))
        .collect();
    let ints = (0..40).map(|i| i.to_string());
    let forward: Vec<String> = ints.clone().chain(ints.map(|i| format!("{i}.0"))).collect();
    let backward: Vec<String> = forward.iter().rev().cloned().collect();
    for xs in [forward, backward] {
        let mut e = GraphEngine::new();
        let id = e.register_view("v", Q).unwrap();
        for x in &xs {
            e.execute(&format!("CREATE (:P {{x: {x}}})")).unwrap();
        }
        let first = &xs[0];
        assert_eq!(e.view(id).unwrap().rows(), want, "created from {first}");
        assert_eq!(e.query(Q).unwrap().rows, want, "created from {first}");
        assert_eq!(e.execute(Q).unwrap().rows, want, "created from {first}");
    }
}

/// An integer past 2⁵³ is not equal to the float it rounds to: a view
/// and `query` of `x = 9007199254740992.0` both pass 2⁵³ and drop
/// 2⁵³ + 1, where the property index (keyed by a rounded `prop_key`)
/// holds both as candidates and the σ above the seek decides.
#[test]
fn an_integer_past_2_53_equals_no_float_it_rounds_to() {
    use pgq_common::tuple::Tuple;
    const Q: &str = "MATCH (p:P) WHERE p.x = 9007199254740992.0 RETURN p.x AS x";
    let mut e = GraphEngine::new();
    let id = e.register_view("v", Q).unwrap();
    e.execute("CREATE (:P {x: 9007199254740993})").unwrap();
    e.execute("CREATE (:P {x: 9007199254740992})").unwrap();
    let want = vec![Tuple::new(vec![Value::Int(1 << 53)])];
    assert_eq!(e.view(id).unwrap().rows(), want);
    assert_eq!(e.query(Q).unwrap().rows, want);
    assert_eq!(e.execute(Q).unwrap().rows, want, "through the seek");
}

#[test]
fn parse_errors_carry_position() {
    let mut e = GraphEngine::new();
    let err = e.execute("MATCH (p:Post RETURN p").unwrap_err();
    assert!(matches!(err, EngineError::Parse(_)));
}

#[test]
fn unsupported_constructs_are_reported() {
    let e = GraphEngine::new();
    assert!(matches!(
        e.query("MATCH (a) OPTIONAL MATCH (a)-[:R]->(b) RETURN a, b"),
        Err(EngineError::Algebra(
            pgq_algebra::AlgebraError::Unsupported(_)
        ))
    ));
    assert!(matches!(
        e.query("MATCH (a) WHERE a.x = $x RETURN a"),
        Err(EngineError::Algebra(
            pgq_algebra::AlgebraError::Unsupported(_)
        ))
    ));
}

#[test]
fn failed_update_rolls_back_and_views_unaffected() {
    let mut e = GraphEngine::new();
    let view = e.register_view("v", "MATCH (p:Post) RETURN p").unwrap();
    e.execute("CREATE (:Post)-[:REPLY]->(:Comm)").unwrap();
    assert_eq!(e.view_results(view).unwrap().len(), 1);
    // DELETE without DETACH fails mid-transaction; nothing must change.
    assert!(e.execute("MATCH (p:Post) DELETE p").is_err());
    assert_eq!(e.view_results(view).unwrap().len(), 1);
    assert_eq!(e.graph().vertex_count(), 2);
}

#[test]
fn multiple_views_maintained_together() {
    let mut e = GraphEngine::new();
    let v1 = e.register_view("posts", "MATCH (p:Post) RETURN p").unwrap();
    let v2 = e
        .register_view("pairs", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        .unwrap();
    let v3 = e
        .register_view("count", "MATCH (c:Comm) RETURN count(*) AS n")
        .unwrap();
    e.execute("CREATE (:Post {lang:'en'})-[:REPLY]->(:Comm)")
        .unwrap();
    assert_eq!(e.view_results(v1).unwrap().len(), 1);
    assert_eq!(e.view_results(v2).unwrap().len(), 1);
    assert_eq!(e.view_results(v3).unwrap()[0].get(0), &Value::Int(1));
    assert_eq!(e.views().count(), 3);
}

#[test]
fn view_by_name_lookup() {
    let mut e = GraphEngine::new();
    let v = e.register_view("named", "MATCH (p:Post) RETURN p").unwrap();
    assert_eq!(e.view_by_name("named"), Some(v));
    assert_eq!(e.view_by_name("other"), None);
    assert_eq!(e.view_query(v).unwrap(), "MATCH (p:Post) RETURN p");
}

#[test]
fn unwind_literal_list() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:Post)").unwrap();
    let res = e
        .query("MATCH (p:Post) UNWIND [1, 2, 3] AS x RETURN x")
        .unwrap();
    assert_eq!(res.rows.len(), 3);
}

#[test]
fn engine_shares_nodes_across_identical_views() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:Post {lang:'en'})-[:REPLY]->(:Comm {lang:'en'})")
        .unwrap();
    let v1 = e
        .register_view("t1", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        .unwrap();
    let nodes_single = e.network_node_count();
    let v2 = e
        .register_view("t2", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        .unwrap();
    let v3 = e
        .register_view("t3", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        .unwrap();
    assert_eq!(
        e.network_node_count(),
        nodes_single,
        "identical views must share one operator chain"
    );

    // All three views stay correct under maintenance through the shared
    // chain.
    e.execute("CREATE (:Post {lang:'de'})-[:REPLY]->(:Comm {lang:'de'})")
        .unwrap();
    for v in [v1, v2, v3] {
        assert_eq!(e.view_results(v).unwrap().len(), 2);
    }
    assert_eq!(e.view(v1).unwrap().results(), e.view(v2).unwrap().results());

    // Lifecycle: dropping all but one keeps the chain; dropping the
    // last referencing view releases it.
    e.drop_view(v1).unwrap();
    e.drop_view(v2).unwrap();
    assert_eq!(e.network_node_count(), nodes_single);
    assert_eq!(e.view_results(v3).unwrap().len(), 2);
    e.drop_view(v3).unwrap();
    assert_eq!(e.network_node_count(), 0);

    // Re-registering after a full teardown rebuilds from the graph.
    let v4 = e
        .register_view("t4", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        .unwrap();
    assert_eq!(e.view_results(v4).unwrap().len(), 2);
    assert_eq!(e.network_node_count(), nodes_single);
}

#[test]
fn dropped_view_does_not_disturb_overlapping_survivor() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:Post {lang:'en'})-[:REPLY]->(:Comm {lang:'en'})")
        .unwrap();
    // Same MATCH prefix, different RETURN: the π differs, everything
    // below is shared.
    let keep = e
        .register_view("keep", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p")
        .unwrap();
    let drop = e
        .register_view("drop", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN c")
        .unwrap();
    let with_both = e.network_node_count();
    e.drop_view(drop).unwrap();
    assert!(e.network_node_count() < with_both, "drop's π is released");
    // The survivor keeps maintaining correctly.
    e.execute("CREATE (:Post {lang:'fr'})-[:REPLY]->(:Comm {lang:'fr'})")
        .unwrap();
    assert_eq!(e.view_results(keep).unwrap().len(), 2);
}
