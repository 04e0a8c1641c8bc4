//! Direct tests of the baseline evaluator against hand-computed answers
//! (the evaluator is the differential oracle elsewhere, so it gets its
//! own ground-truth suite here).

use pgq_algebra::pipeline::compile_query;
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_eval::{evaluate_consolidated, evaluate_query};
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_parser::parse_query;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn compile(q: &str) -> pgq_algebra::CompiledQuery {
    compile_query(&parse_query(q).unwrap()).unwrap()
}

/// Posts with langs and lens, chained comments.
fn fixture() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let posts = [("en", 10), ("en", 20), ("de", 30)];
    for (lang, len) in posts {
        g.add_vertex(
            [s("Post")],
            Properties::from_iter([("lang", Value::str(lang)), ("len", Value::Int(len))]),
        );
    }
    g
}

#[test]
fn scan_with_filter() {
    let g = fixture();
    let cq = compile("MATCH (p:Post) WHERE p.lang = 'en' RETURN p.len");
    let got = evaluate_consolidated(&cq.fra, &g);
    assert_eq!(got.len(), 2);
    let lens: Vec<i64> = got
        .iter()
        .map(|(t, _)| t.get(0).as_int().unwrap())
        .collect();
    assert_eq!(lens, vec![10, 20]);
}

#[test]
fn order_by_asc_desc_skip_limit() {
    let g = fixture();
    let cq = compile("MATCH (p:Post) RETURN p.len AS len ORDER BY len DESC");
    let rows = evaluate_query(&cq, &g);
    let lens: Vec<i64> = rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
    assert_eq!(lens, vec![30, 20, 10]);

    let cq = compile("MATCH (p:Post) RETURN p.len AS len ORDER BY len SKIP 1 LIMIT 1");
    let rows = evaluate_query(&cq, &g);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0), &Value::Int(20));
}

#[test]
fn skip_beyond_end_is_empty() {
    let g = fixture();
    let cq = compile("MATCH (p:Post) RETURN p.len AS len ORDER BY len SKIP 99");
    assert!(evaluate_query(&cq, &g).is_empty());
}

#[test]
fn order_by_nulls_last() {
    let mut g = fixture();
    g.add_vertex([s("Post")], Properties::new()); // no len
    let cq = compile("MATCH (p:Post) RETURN p.len AS len ORDER BY len");
    let rows = evaluate_query(&cq, &g);
    assert_eq!(rows.last().unwrap().get(0), &Value::Null);
}

#[test]
fn aggregates_one_shot() {
    let g = fixture();
    let cq = compile("MATCH (p:Post) RETURN p.lang AS l, count(*) AS c, sum(p.len) AS s");
    let mut got = evaluate_consolidated(&cq.fra, &g);
    got.sort_by(|a, b| a.0.get(0).total_cmp(b.0.get(0)));
    assert_eq!(got.len(), 2);
    let de = &got[0].0;
    assert_eq!(de.get(0), &Value::str("de"));
    assert_eq!(de.get(1), &Value::Int(1));
    assert_eq!(de.get(2), &Value::Int(30));
    let en = &got[1].0;
    assert_eq!(en.get(1), &Value::Int(2));
    assert_eq!(en.get(2), &Value::Int(30));
}

#[test]
fn global_aggregate_on_empty_graph() {
    let g = PropertyGraph::new();
    let cq = compile("MATCH (p:Post) RETURN count(*) AS c");
    let got = evaluate_consolidated(&cq.fra, &g);
    assert_eq!(got, vec![(Tuple::new(vec![Value::Int(0)]), 1)]);
}

#[test]
fn varlength_bag_multiplicity() {
    // Diamond graph: 1→2→4, 1→3→4 ⇒ two 2-hop paths, b.x = 4 twice.
    let mut g = PropertyGraph::new();
    let ids: Vec<_> = (1..=4)
        .map(|x| {
            g.add_vertex([s("D")], Properties::from_iter([("x", Value::Int(x))]))
                .0
        })
        .collect();
    for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        g.add_edge(ids[a], ids[b], s("R"), Properties::new())
            .unwrap();
    }
    let cq = compile("MATCH (a:D {x: 1})-[:R*2]->(b) RETURN b.x");
    let got = evaluate_consolidated(&cq.fra, &g);
    assert_eq!(got, vec![(Tuple::new(vec![Value::Int(4)]), 2)]);
}

#[test]
fn undirected_single_hop() {
    let mut g = PropertyGraph::new();
    let a = g
        .add_vertex([s("N")], Properties::from_iter([("x", Value::Int(1))]))
        .0;
    let b = g
        .add_vertex([s("N")], Properties::from_iter([("x", Value::Int(2))]))
        .0;
    g.add_edge(a, b, s("R"), Properties::new()).unwrap();
    let cq = compile("MATCH (p:N)-[:R]-(q:N) RETURN p.x, q.x");
    let got = evaluate_consolidated(&cq.fra, &g);
    assert_eq!(got.len(), 2, "both orientations");
}

#[test]
fn unwind_projection_chain() {
    let g = fixture();
    let cq = compile("MATCH (p:Post {lang: 'de'}) UNWIND [1, 2, 3] AS x RETURN p.len + x");
    let mut got: Vec<i64> = evaluate_consolidated(&cq.fra, &g)
        .into_iter()
        .map(|(t, _)| t.get(0).as_int().unwrap())
        .collect();
    got.sort_unstable();
    assert_eq!(got, vec![31, 32, 33]);
}

// ---- bound-first joins: expanding reads what building would, or less ----

/// Twelve vertices (every third `M`, the rest `N`), each with a
/// self-loop, two parallel `R` edges to its successor and an `S` edge
/// five ahead, indexed on `N.id`.
fn loops_and_parallels() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let v: Vec<_> = (0..12)
        .map(|i| {
            let label = if i % 3 == 0 { "M" } else { "N" };
            let props = Properties::from_iter([("id", Value::Int(i))]);
            g.add_vertex([s(label)], props).0
        })
        .collect();
    for i in 0..12 {
        for (d, ty) in [(0, "R"), (1, "R"), (1, "R"), (5, "S")] {
            g.add_edge(v[i], v[(i + d) % 12], s(ty), Properties::new())
                .unwrap();
        }
    }
    g.ensure_prop_index(s("N"), s("id"));
    g
}

/// `q` planned the way the one-shot path plans it over `g`: filters on
/// their scans, binary joins ordered by `g`'s extents.
fn planned(q: &str, g: &PropertyGraph) -> pgq_algebra::Fra {
    use pgq_algebra::plan::{plan_with, PlanOptions, PlanStats, WcojMode};
    let catalog = g.catalog();
    let mut stats = PlanStats {
        vertices: g.vertex_count() as u64,
        edges: g.edge_count() as u64,
        ..PlanStats::default()
    };
    for l in g.labels() {
        let n = g.vertices_with_label(l).len() as u64;
        stats.label_counts.insert(l, n);
    }
    for t in g.edge_types() {
        let n = g.edges_with_type(t).len() as u64;
        stats.type_counts.insert(t, n);
        let (src, dst) = (catalog.distinct_sources(t), catalog.distinct_targets(t));
        stats.type_distinct_src.insert(t, src as u64);
        stats.type_distinct_dst.insert(t, dst as u64);
    }
    for k in catalog.vertex_prop_keys() {
        let n = catalog.vertex_prop_distinct(k) as u64;
        stats.vertex_prop_distinct.insert(k, n);
    }
    let options = PlanOptions {
        wcoj: WcojMode::Disabled,
    };
    plan_with(&compile(q).fra, &stats, &options).fra
}

/// Every way a ⋈'s right input is read from its key vertices — out, in
/// and undirected hops over self-loops and parallel edges, several types,
/// a © on the right — gives the reference's bag and reads fewer rows.
#[test]
fn expanded_joins_equal_the_reference() {
    let g = loops_and_parallels();
    for q in [
        "MATCH (a:N {id: 1})-[:R]->(b)-[:R]->(c) RETURN a, b, c",
        "MATCH (a:N {id: 1})<-[:R]-(b)<-[:R|S]-(c) RETURN a, b, c",
        "MATCH (a:N {id: 1})-[:R]-(b)-[:S]-(c) RETURN a, b, c",
        "MATCH (a:N {id: 1})-[:S]->(b:M) RETURN a, b",
        "MATCH (a:N {id: 1})-[:R]->(b), (b)-[:R]->(c:M) RETURN count(*) AS n",
    ] {
        let fra = planned(q, &g);
        expands_like_the_reference(q, &fra, &g);
    }
}

/// `fra` reads fewer rows than the reference and gives its bag.
fn expands_like_the_reference(q: &str, fra: &pgq_algebra::Fra, g: &PropertyGraph) {
    use pgq_eval::{explain, Evaluator};
    let plan = explain(fra, g);
    assert!(plan.contains("← expand"), "{q}: no join can expand\n{plan}");
    let mut push = Evaluator::new(g);
    let mut reference = pgq_eval_reference::Evaluator::new(g);
    let (mut got, mut want) = (push.run(fra), reference.run(fra));
    assert!(!want.is_empty(), "{q}: the fixture matches nothing");
    got.sort_by(|a, b| a.0.total_cmp(&b.0));
    want.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!(got, want, "{q}\n{plan}");
    assert!(
        push.rows_scanned < reference.rows_scanned,
        "{q}: read {} rows, the reference {}\n{plan}",
        push.rows_scanned,
        reference.rows_scanned
    );
}

/// A ⋉ and a ▷ of a keyed anchor against an `S` hop, read out, in and
/// undirected, under a σ (`c.id <> 4`), give the reference's bag and read
/// fewer rows.
#[test]
fn expanded_semijoins_equal_the_reference() {
    use pgq_algebra::expr::ScalarExpr;
    use pgq_algebra::fra::{Fra, PropPush};
    use pgq_common::dir::Direction;
    use pgq_parser::ast::BinOp;
    let g = loops_and_parallels();
    let eq = |col, v: i64| {
        ScalarExpr::Binary(
            BinOp::Eq,
            Box::new(ScalarExpr::Col(col)),
            Box::new(ScalarExpr::Lit(Value::Int(v))),
        )
    };
    let anchor = |id| Fra::Filter {
        input: Box::new(Fra::ScanVertices {
            var: "a".into(),
            labels: vec![s("N")],
            props: vec![PropPush {
                prop: s("id"),
                col: "a.id".into(),
            }],
        }),
        predicate: eq(1, id),
    };
    let hop = |dir| Fra::ScanEdges {
        src: "b".into(),
        edge: "e".into(),
        dst: "c".into(),
        types: vec![s("S")],
        src_labels: vec![],
        dst_labels: vec![s("N")],
        src_props: vec![],
        edge_props: vec![],
        dst_props: vec![PropPush {
            prop: s("id"),
            col: "c.id".into(),
        }],
        dir,
    };
    for (id, dir, key, anti) in [
        (2, Direction::Out, 0, false),
        (1, Direction::Out, 0, true),
        (2, Direction::In, 2, false),
        (4, Direction::Out, 2, true),
        (2, Direction::Both, 0, false),
        (4, Direction::Both, 2, true),
    ] {
        let q = format!("{id} {dir:?} key {key} anti {anti}");
        let semi = Fra::SemiJoin {
            left: Box::new(anchor(id)),
            right: Box::new(Fra::Filter {
                input: Box::new(hop(dir)),
                predicate: ScalarExpr::Binary(
                    BinOp::Neq,
                    Box::new(ScalarExpr::Col(3)),
                    Box::new(ScalarExpr::Lit(Value::Int(4))),
                ),
            }),
            left_keys: vec![0],
            right_keys: vec![key],
            anti,
        };
        expands_like_the_reference(&q, &semi, &g);
    }
}

/// EXPLAIN marks a join whose right input is a keyed scan, and no join
/// whose right input is another join.
#[test]
fn explain_marks_the_joins_that_can_expand() {
    use pgq_algebra::Fra;
    let g = loops_and_parallels();
    let two_hop = compile("MATCH (a:N)-[:R]->(b)<-[:S]-(c) RETURN a").fra;
    let text = pgq_eval::explain(&two_hop, &g);
    assert!(text.contains("⋈[a]    ← expand out R\n"), "{text}");
    assert!(text.contains("⋈[b]    ← expand in S\n"), "{text}");
    // The same joins, bushy: `(a) ⋈ ((a)-[:R]->(b) ⋈ (b)<-[:S]-(c))`.
    let Fra::Project { input, .. } = two_hop else {
        panic!("RETURN projects")
    };
    let Fra::Filter { input, .. } = *input else {
        panic!("the two edges differ")
    };
    let Fra::HashJoin {
        left: ab,
        right: bc,
        ..
    } = *input
    else {
        panic!("the second hop is a join")
    };
    let Fra::HashJoin {
        left: a, right: ab, ..
    } = *ab
    else {
        panic!("the first hop is a join")
    };
    let hops = Fra::HashJoin {
        left: ab,
        right: bc,
        left_keys: vec![2],
        right_keys: vec![0],
        value_keys: vec![],
    };
    let bushy = Fra::HashJoin {
        left: a,
        right: Box::new(hops),
        left_keys: vec![0],
        right_keys: vec![0],
        value_keys: vec![],
    };
    let text = pgq_eval::explain(&bushy, &g);
    let marks: Vec<&str> = text.lines().filter(|l| l.contains('←')).collect();
    assert_eq!(marks.len(), 1, "{text}");
    assert!(marks[0].trim_start().starts_with("⋈[b]"), "{text}");
    assert!(marks[0].ends_with("← expand in S"), "{text}");
    assert_eq!(
        pgq_eval::evaluate_consolidated(&bushy, &g),
        pgq_eval_reference::evaluate_consolidated(&bushy, &g)
    );
}

// ---- narrowing: a seek returns what the scan returns ------------------

mod narrowing {
    use super::s;
    use pgq_algebra::expr::ScalarExpr;
    use pgq_algebra::fra::{Fra, PropPush};
    use pgq_common::ids::VertexId;
    use pgq_common::value::Value;
    use pgq_eval::{evaluate_consolidated, explain, wanted_indexes, Evaluator};
    use pgq_graph::props::Properties;
    use pgq_graph::store::PropertyGraph;
    use pgq_parser::ast::BinOp;

    /// Eight `N` vertices keyed `id = 0..8`.
    fn keyed() -> (PropertyGraph, Vec<VertexId>) {
        let mut g = PropertyGraph::new();
        let v: Vec<_> = (0..8)
            .map(|i| {
                g.add_vertex([s("N")], Properties::from_iter([("id", Value::Int(i))]))
                    .0
            })
            .collect();
        (g, v)
    }

    fn scan_n() -> Fra {
        Fra::ScanVertices {
            var: "a".into(),
            labels: vec![s("N")],
            props: vec![PropPush {
                prop: s("id"),
                col: "a.id".into(),
            }],
        }
    }

    fn id_is(v: Value) -> ScalarExpr {
        ScalarExpr::Binary(
            BinOp::Eq,
            Box::new(ScalarExpr::Col(1)),
            Box::new(ScalarExpr::Lit(v)),
        )
    }

    #[test]
    fn seek_is_a_superset_under_cypher_equality() {
        let (mut g, v) = keyed();
        g.set_vertex_prop(v[2], s("id"), Value::float(1.0)).unwrap();
        g.set_vertex_prop(v[3], s("id"), Value::str("1")).unwrap();
        let plan = |lit: Value| Fra::Filter {
            input: Box::new(scan_n()),
            predicate: id_is(lit),
        };
        assert_eq!(
            wanted_indexes(&plan(Value::Int(1))),
            vec![(s("N"), s("id"))]
        );
        let lits = [
            Value::Int(1),
            Value::float(1.0),
            Value::str("1"),
            Value::Null,
            Value::Int(99),
            Value::list(vec![Value::Int(1)]),
        ];
        let before: Vec<_> = lits
            .iter()
            .map(|l| evaluate_consolidated(&plan(l.clone()), &g))
            .collect();
        assert!(explain(&plan(Value::Int(1)), &g).contains("index built on first execute"));
        assert!(g.ensure_prop_index(s("N"), s("id")));
        assert!(!g.ensure_prop_index(s("N"), s("id")), "built once");
        assert!(explain(&plan(Value::Int(1)), &g).contains("← seek N.id\n"));
        for (lit, want) in lits.iter().zip(before) {
            let mut e = Evaluator::new(&g);
            let got = e.run(&plan(lit.clone()));
            assert_eq!(got.len(), want.len(), "{lit}");
            assert_eq!(evaluate_consolidated(&plan(lit.clone()), &g), want, "{lit}");
            match lit {
                // `7` and `7.0` meet in one bucket; the string does not.
                Value::Int(1) | Value::Float(_) => assert_eq!((e.rows_scanned, got.len()), (2, 2)),
                Value::Str(_) => assert_eq!((e.rows_scanned, got.len()), (1, 1)),
                Value::List(_) => assert_eq!(e.rows_scanned, 8, "lists fall back to the scan"),
                _ => assert_eq!((e.rows_scanned, got.len()), (0, 0)),
            }
        }
    }
}
