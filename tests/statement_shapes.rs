//! `GraphEngine::execute` keeps what the front end derived per statement
//! *shape* (the text with its literals lifted out) and only binds the
//! literals of the next statement of that shape. These tests hold the
//! bound-from-cache path to the path that runs the front end:
//!
//! * a seeded statement stream on one engine (hits) against a twin that
//!   executes the same statements under fresh variable names (identifiers
//!   are part of the shape, so the twin always misses): results, work
//!   counts, graph and standing views equal after every statement;
//! * seeded byte- and token-mutation of those statements: a mutant either
//!   executes like it does on an engine that has never seen a statement,
//!   or fails with exactly `parse_query`'s error on the same text;
//! * exact hit / miss / re-plan / eviction counts, `execute_with`, and
//!   the `CREATE` property expressions that used to index an empty row.

use pgq::prelude::*;
use pgq_common::tuple::Tuple;
use pgq_core::ExecutionResult;
use pgq_graph::store::{EdgeData, VertexData};
use pgq_parser::lexer::lex;
use pgq_parser::parse_query;
use pgq_parser::token::Tok;

// ---- harness ------------------------------------------------------------

mod mutation;

use mutation::{mutate, Rng};

const VIEWS: [&str; 5] = [
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
    "MATCH (a:Person)-[:CREATED]->(p:Post) RETURN a, p",
    "MATCH (p:Person) WHERE p.score > 90 RETURN p",
    "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.score > b.score RETURN a, b",
    "MATCH (c:Comm) RETURN c.lang AS lang, count(*) AS comms",
];

const LANGS: [&str; 4] = ["en", "de", "fr", "hu"];

fn with_views(mut e: GraphEngine) -> (GraphEngine, Vec<ViewId>) {
    let ids = VIEWS
        .iter()
        .enumerate()
        .map(|(i, q)| e.register_view(&format!("v{i}"), q).unwrap())
        .collect();
    (e, ids)
}

type Dump = (Vec<(u64, VertexData)>, Vec<(u64, EdgeData)>, (u64, u64));

fn dump(e: &GraphEngine) -> Dump {
    let g = e.graph();
    let mut vs: Vec<_> = g.vertices().map(|(id, d)| (id.raw(), d.clone())).collect();
    let mut es: Vec<_> = g.edges().map(|(id, d)| (id.raw(), d.clone())).collect();
    vs.sort_by_key(|(id, _)| *id);
    es.sort_by_key(|(id, _)| *id);
    (vs, es, g.id_watermarks())
}

fn view_rows(e: &GraphEngine, ids: &[ViewId]) -> Vec<Vec<Tuple>> {
    ids.iter()
        .map(|&id| {
            let mut rows = e.view_results(id).unwrap();
            rows.sort_by(Tuple::total_cmp);
            rows
        })
        .collect()
}

/// A small seeded social graph.
fn seed_graph(e: &mut GraphEngine, persons: usize) {
    for i in 0..persons {
        e.execute(&format!(
            "CREATE (:Person {{id: {i}, country: '{}', score: {}}})",
            LANGS[i % 4],
            (i * 37) % 100
        ))
        .unwrap();
    }
    for i in 0..persons {
        for d in [1, 5] {
            let j = (i + d) % persons;
            e.execute(&format!(
                "MATCH (a:Person {{id: {i}}}), (b:Person {{id: {j}}}) CREATE (a)-[:KNOWS {{w: {}}}]->(b)",
                d % 2
            ))
            .unwrap();
        }
    }
    for k in 0..persons / 2 {
        e.execute(&format!(
            "MATCH (p:Person {{id: {k}}}) CREATE (p)-[:CREATED]->(:Post {{id: {k}, lang: '{}', len: {}}})",
            LANGS[k % 4],
            10 + k * 7
        ))
        .unwrap();
        e.execute(&format!(
            "CREATE (:Comm {{id: {k}, lang: '{}', len: {}}})",
            LANGS[(k + 1) % 4],
            5 + k
        ))
        .unwrap();
    }
}

/// The stream's model of which keys exist (roughly: a key that is gone
/// is a statement that touches nothing, on both engines alike).
struct Model {
    rng: Rng,
    persons: usize,
    posts: usize,
    comms: usize,
}

/// How many statement kinds [`Model::statement`] knows.
const KINDS: usize = 30;

impl Model {
    /// Statement `kind` with fresh literals. `#` marks where a variable
    /// name ends: the engine under test gets it removed, the twin gets a
    /// per-statement suffix there.
    fn statement(&mut self, kind: usize) -> String {
        let r = &mut self.rng;
        let person = r.below(self.persons);
        let other = r.below(self.persons);
        let post = r.below(self.posts);
        let comm = r.below(self.comms);
        let lang = *r.pick(&LANGS);
        let n = r.below(400) as i64;
        match kind {
            // The eight `cypher_session` shapes.
            0 => format!("MATCH (p#:Person {{id: {person}}}) SET p#.score = {}", n % 100),
            1 => format!("MATCH (m#:Post {{id: {post}}}) SET m#.lang = '{lang}'"),
            2 => {
                self.posts += 1;
                format!(
                    "MATCH (p#:Person {{id: {person}}}) CREATE (p#)-[:CREATED]->(:Post {{id: {}, lang: '{lang}', len: {n}}})",
                    self.posts - 1
                )
            }
            3 => format!("MATCH (c#:Comm {{id: {comm}}}) DETACH DELETE c#"),
            4 => {
                self.comms += 1;
                format!("CREATE (c#:Comm {{id: {}, lang: '{lang}', len: {n}}})", self.comms - 1)
            }
            5 => {
                self.persons += 1;
                format!(
                    "CREATE (p#:Person {{id: {}, country: '{lang}', score: {}}})",
                    self.persons - 1,
                    n % 100
                )
            }
            6 => format!(
                "MATCH (a#:Person {{id: {person}}})-[:KNOWS]->(b#:Person)-[:KNOWS]->(c#:Person) RETURN count(*) AS reach"
            ),
            7 => format!(
                "MATCH (p#:Post) WHERE p#.len > {n} RETURN p#.lang AS lang, count(*) AS posts"
            ),
            // Negative, float and quoted-string literals.
            8 => format!("CREATE (p#:Person {{id: -{n}, score: -{}}})", n % 7),
            9 => format!("MATCH (p#:Person {{id: -{n}}}) SET p#.score = -{}.5", n % 9),
            10 => format!(
                "MATCH (p#:Person) WHERE p#.score > {}.25 RETURN count(*) AS n",
                n % 100
            ),
            11 => format!(
                "MATCH (m#:Post {{id: {post}}}) SET m#.title = 'it\\'s \"{lang}\" {n}', m#.sub = \"a 'b' {n}\""
            ),
            // Lists.
            12 => format!(
                "MATCH (p#:Post) WHERE p#.lang IN ['{lang}', 'xx', 'en'] RETURN count(*) AS n"
            ),
            13 => format!(
                "MATCH (p#:Person) WHERE p#.id IN [{person}, {other}, -1] RETURN p#.id AS id"
            ),
            14 => format!("UNWIND [{n}, 2, 3] AS x# RETURN x# * {} AS y", n % 5),
            // Int and Float spell one key.
            15 => format!("MATCH (p#:Person {{id: {person}.0}}) SET p#.score = {}", n % 100),
            // (A seeded person: it has edges, so kind 28 cannot delete it.)
            16 => format!(
                "MATCH (p#:Person) WHERE p#.id = {}.0 RETURN p#.id AS id",
                person % 12
            ),
            // Keys that are expressions: folded after binding, still sought.
            17 => format!("MATCH (p#:Person {{id: {person} + {}}}) SET p#.score = 1", n % 3),
            18 => format!("MATCH (p#:Person {{id: -{n}}}) RETURN p#.score AS s"),
            // What the grammar needs literally stays in the shape.
            19 => format!(
                "MATCH (a#:Person {{id: {person}}})-[:KNOWS*1..{}]->(b#:Person) RETURN count(*) AS n",
                1 + n % 2
            ),
            20 => format!(
                "MATCH (p#:Post) WHERE p#.len > {n} RETURN p#.id AS id ORDER BY id SKIP {} LIMIT {}",
                n % 2,
                1 + n % 3
            ),
            // Literals that name a result column.
            21 => format!("MATCH (p#:Post {{id: {post}}}) RETURN p#.len > {n}, {n}, '{lang}'"),
            // Two patterns, both sought.
            22 => format!(
                "MATCH (a#:Person {{id: {person}}}), (b#:Person {{id: {other}}}) CREATE (a#)-[:KNOWS {{w: {}}}]->(b#)",
                n % 2
            ),
            // A literal the compiler needs in place: planned from the
            // exact tokens.
            23 => format!(
                "MATCH (a#:Person {{id: {person}}})-[:KNOWS*1..2 {{w: {}}}]->(b#:Person) RETURN count(*) AS n",
                n % 2
            ),
            // Labels, REMOVE, values over matched properties.
            24 => format!("MATCH (p#:Person {{id: {person}}}) SET p#:Vip, p#.rank = p#.score + {n}"),
            25 => format!("MATCH (p#:Person {{id: {person}}}) REMOVE p#.rank, p#:Vip"),
            // Errors are the same errors.
            26 => format!("MATCH (p#:Person {{id: {person}}}) SET q.score = {n}"),
            27 => format!("MATCH (p#:Person {{id: {person}}}) RETURN p#.score AS s LIMIT {n} + 1"),
            28 => format!("MATCH (p#:Person {{id: {person}}}) DELETE p#"),
            // A constant that does not evaluate is null.
            _ => format!("MATCH (m#:Post {{id: {post}}}) SET m#.len = {n} + 'x'"),
        }
    }
}

/// Execute one generated statement on both engines and compare all of
/// their observable state.
struct Pair {
    hit: GraphEngine,
    twin: GraphEngine,
    views: Vec<ViewId>,
    executed: usize,
}

impl Pair {
    fn new(persons: usize) -> Pair {
        let (mut hit, views) = with_views(GraphEngine::new());
        seed_graph(&mut hit, persons);
        // Same graph and views, and a shape cache that never saw a
        // statement.
        let (twin, _) = with_views(GraphEngine::from_graph(hit.graph().clone()));
        Pair {
            hit,
            twin,
            views,
            executed: 0,
        }
    }

    fn step(&mut self, template: &str) -> Result<ExecutionResult, EngineError> {
        self.executed += 1;
        let suffix = format!("_{}", self.executed);
        let a = self.hit.execute(&template.replace('#', ""));
        let b = self.twin.execute(&template.replace('#', &suffix));
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                let renamed: Vec<String> =
                    y.columns.iter().map(|c| c.replace(&suffix, "")).collect();
                assert_eq!(x.columns, renamed, "{template}");
                assert_eq!(x.rows, y.rows, "{template}");
                assert_eq!(x.stats, y.stats, "{template}");
                assert_eq!(x.rows_scanned, y.rows_scanned, "{template}");
            }
            (Err(x), Err(y)) => {
                assert_eq!(
                    x.to_string(),
                    y.to_string().replace(&suffix, ""),
                    "{template}"
                )
            }
            _ => panic!("{template}: {a:?} vs {b:?}"),
        }
        assert_eq!(dump(&self.hit), dump(&self.twin), "{template}");
        assert_eq!(
            view_rows(&self.hit, &self.views),
            view_rows(&self.twin, &self.views),
            "{template}"
        );
        a
    }
}

// ---- the differential stream -------------------------------------------------

#[test]
fn bound_statements_equal_freshly_planned_ones() {
    for seed in [7u64, 20_260_926] {
        let mut pair = Pair::new(24);
        let mut model = Model {
            rng: Rng(seed),
            persons: 24,
            posts: 12,
            comms: 12,
        };
        let size_at_start = pair.hit.graph().vertex_count() + pair.hit.graph().edge_count();
        for i in 0..1_200 {
            // Every kind early (so each shape is hit many times), then a
            // mix that grows the graph past twice its size.
            let kind = if i < KINDS { i } else { model.rng.below(KINDS) };
            let template = model.statement(kind);
            let result = pair.step(&template);
            match kind {
                // Sought, not scanned — on a miss and on a hit alike.
                0 | 9 | 15 | 17 | 18 => {
                    assert!(result.unwrap().rows_scanned <= 1, "{template}")
                }
                16 => {
                    let r = result.unwrap();
                    assert!(r.rows_scanned <= 1, "{template}");
                    assert_eq!(r.rows.len(), 1, "5.0 finds id 5: {template}");
                }
                21 => {
                    let cols = result.unwrap().columns;
                    assert!(cols[0].starts_with("(p.len > ") && !cols[0].contains('$'));
                    assert!(cols[1].parse::<i64>().is_ok(), "{cols:?}");
                    assert!(
                        LANGS.iter().any(|l| cols[2] == format!("'{l}'")),
                        "{cols:?}"
                    );
                }
                27 => assert!(result.is_err(), "{template}"),
                // Errors raised per matched row: an unbound SET target,
                // a DELETE of a person that has edges.
                26 | 28 => {}
                _ => {
                    result.unwrap();
                }
            }
        }
        let size = pair.hit.graph().vertex_count() + pair.hit.graph().edge_count();
        assert!(size > 2 * size_at_start, "the stream drifts past 2×");
        let (entries, hits, misses, replans) = pair.hit.statement_shapes();
        assert!(replans > 0, "a drift past 2× re-plans");
        // Kinds 19–21 and 23 keep literals in their shapes (one entry per
        // spelling); every other kind is one entry however often it ran.
        assert!(hits > 1_000 && entries < 150, "{entries} {hits} {misses}");
        assert_eq!(pair.twin.statement_shapes().1, 0, "the twin never hits");

        // More shapes than the cache holds: the oldest go, the results
        // stay right, and a dropped shape is planned again.
        let cap = GraphEngine::SHAPE_CAPACITY;
        for i in 0..cap + 20 {
            pair.step(&format!(
                "MATCH (p#:Person {{id: {}}}) SET p#.k{i} = {i}",
                i % 24
            ))
            .unwrap();
        }
        let (entries, _, misses, _) = pair.hit.statement_shapes();
        assert_eq!(entries, cap);
        pair.step("MATCH (p#:Person {id: 3}) SET p#.k0 = 1")
            .unwrap();
        pair.step("MATCH (p#:Person {id: 4}) SET p#.k0 = 2")
            .unwrap();
        let after = pair.hit.statement_shapes();
        assert_eq!(
            (after.0, after.2),
            (cap, misses + 1),
            "evicted, re-planned once, hit once"
        );
    }
}

// ---- mutation fuzz ---------------------------------------------------------------

#[test]
fn mutants_execute_like_on_a_fresh_engine_or_fail_like_the_parser() {
    let mut mutants = 0usize;
    let (mut ok, mut parse_errors, mut other_errors) = (0usize, 0usize, 0usize);
    for seed in [11u64, 4_242] {
        let mut rng = Rng(seed);
        let mut model = Model {
            rng: Rng(seed ^ 0x9e37_79b9),
            persons: 12,
            posts: 6,
            comms: 6,
        };
        let (mut engine, views) = with_views(GraphEngine::new());
        seed_graph(&mut engine, 12);
        let seeded = engine.clone();
        // Tokens of every shape, for replacement.
        let pool: Vec<Tok> = (0..KINDS)
            .flat_map(|k| lex(&model.statement(k).replace('#', "")).unwrap())
            .map(|s| s.tok)
            .filter(|t| *t != Tok::Eof)
            .collect();
        for i in 0..5_200 {
            if i % 400 == 399 {
                // Keep the graph small.
                let shapes = engine.statement_shapes();
                engine = seeded.clone();
                assert!(shapes.1 > 0, "mutants of one shape hit");
            }
            let base = model.statement(i % KINDS).replace('#', "");
            let text = if i % 8 == 0 {
                base
            } else {
                mutate(&mut rng, &base, &pool)
            };
            mutants += 1;
            let before = dump(&engine);
            // EXPLAIN answers or fails typed, and changes nothing.
            let explained = engine.explain(&text);
            assert_eq!(dump(&engine), before, "{text}");
            match parse_query(&text) {
                Err(e) => {
                    assert_eq!(explained, Err(EngineError::Parse(e.clone())), "{text}");
                    // Offset and message of the original text, nothing run.
                    assert_eq!(engine.execute(&text), Err(EngineError::Parse(e)), "{text}");
                    assert_eq!(dump(&engine), before, "{text}");
                    parse_errors += 1;
                }
                Ok(_) => {
                    // An engine that has never seen a statement misses.
                    let (mut fresh, _) =
                        with_views(GraphEngine::from_graph(engine.graph().clone()));
                    let (a, b) = (engine.execute(&text), fresh.execute(&text));
                    assert_eq!(a, b, "{text}");
                    assert_eq!(dump(&engine), dump(&fresh), "{text}");
                    assert_eq!(
                        view_rows(&engine, &views),
                        view_rows(&fresh, &views),
                        "{text}"
                    );
                    match a {
                        Ok(_) => ok += 1,
                        Err(_) => other_errors += 1,
                    }
                }
            }
        }
    }
    assert!(mutants >= 10_000);
    // The mutation operators reach all three outcomes in bulk.
    assert!(
        ok > 1_000 && parse_errors > 1_000 && other_errors > 100,
        "{ok} {parse_errors} {other_errors}"
    );
}

// ---- exact counts, parameters, the CREATE panic -----------------------------------

#[test]
fn a_repeated_keyed_stream_misses_once_per_shape() {
    let mut e = GraphEngine::new();
    seed_graph(&mut e, 40);
    let seeded = e.statement_shapes();
    assert_eq!((seeded.0, seeded.2), (4, 4), "four loader shapes");
    let n = 300;
    for i in 0..n {
        let k = (i * 7) % 40;
        let r = match i % 3 {
            0 => e.execute(&format!("MATCH (p:Person {{id: {k}}}) SET p.score = {i}")),
            1 => e.execute(&format!(
                "MATCH (m:Post {{id: {}}}) SET m.lang = 'l{i}'",
                k / 2
            )),
            _ => e.execute(&format!("MATCH (p:Person {{id: {k}}}) RETURN p.score AS s")),
        }
        .unwrap();
        assert_eq!(r.rows_scanned, 1, "hit and miss alike");
    }
    let (entries, hits, misses, replans) = e.statement_shapes();
    // (The loader doubled the graph under its own KNOWS statement.)
    assert_eq!(
        (entries, misses, replans),
        (7, 7, seeded.3),
        "SETs do not grow the graph"
    );
    assert_eq!(
        hits,
        seeded.1 + n - 3,
        "one miss per distinct shape, hits the rest"
    );
    // Whitespace, comments and keyword case are not the shape.
    e.execute("match (p:Person {id: 1})  /* c */ set p.score = 2")
        .unwrap();
    assert_eq!(e.statement_shapes().2, misses);
    // A clone carries the cache; a graph wrapped anew starts empty.
    let mut copy = e.clone();
    copy.execute("MATCH (p:Person {id: 2}) SET p.score = 3")
        .unwrap();
    assert_eq!(
        copy.statement_shapes(),
        (entries, hits + 2, misses, replans)
    );
    assert_eq!(
        GraphEngine::from_graph(e.graph().clone()).statement_shapes(),
        (0, 0, 0, 0)
    );
}

/// Nothing of the cache is persisted: a recovered engine plans its first
/// statement of every shape again, against the recovered graph.
#[test]
fn recovery_starts_with_no_shapes() {
    let disk = pgq_durability::MemDisk::new();
    let open = || GraphEngine::open_durable_with(std::sync::Arc::new(disk.vfs())).unwrap();
    let mut e = open();
    for i in 0..20 {
        e.execute(&format!("CREATE (:Person {{id: {i}, score: 0}})"))
            .unwrap();
    }
    e.execute("MATCH (p:Person {id: 7}) SET p.score = 1")
        .unwrap();
    assert_eq!(e.statement_shapes(), (2, 19, 2, 0));
    drop(e);
    let mut e = open();
    assert_eq!(e.graph().vertex_count(), 20);
    assert_eq!(e.statement_shapes(), (0, 0, 0, 0));
    let r = e
        .execute("MATCH (p:Person {id: 7}) SET p.score = 2")
        .unwrap();
    assert_eq!(r.stats.properties_set, 1);
    assert_eq!(e.statement_shapes(), (1, 0, 1, 0));
}

#[test]
fn execute_with_binds_named_parameters_through_the_same_slots() {
    let mut e = GraphEngine::new();
    for id in 0..5i64 {
        let r = e
            .execute_with(
                "CREATE (:Person {id: $id, score: $id * 10, tag: 'x'})",
                &[("id", Value::Int(id))],
            )
            .unwrap();
        assert_eq!(r.stats.nodes_created, 1);
    }
    assert_eq!(e.statement_shapes(), (1, 4, 1, 0));
    // A parameter and a lifted literal in one statement; the key seeks.
    let r = e
        .execute_with(
            "MATCH (p:Person {id: $k}) WHERE p.score >= 30 SET p.tag = $tag",
            &[("tag", Value::str("y")), ("k", Value::Int(3))],
        )
        .unwrap();
    assert_eq!(r.stats.properties_set, 1);
    assert_eq!(r.rows_scanned, 1);
    let rows = e
        .execute_with(
            "MATCH (p:Person) WHERE p.tag = $t RETURN p.id AS id, p.score AS s",
            &[("t", Value::str("y"))],
        )
        .unwrap()
        .rows;
    assert_eq!(rows, vec![Tuple::new(vec![Value::Int(3), Value::Int(30)])]);
    // A list is a value like any other.
    let rows = e
        .execute_with(
            "MATCH (p:Person) WHERE p.id IN $ids RETURN count(*) AS n",
            &[(
                "ids",
                Value::list(vec![Value::Int(1), Value::Int(4), Value::Int(9)]),
            )],
        )
        .unwrap()
        .rows;
    assert_eq!(rows[0].get(0), &Value::Int(2));

    // Missing and unused parameters are typed errors, and `execute`
    // says where parameters go.
    let missing = e.execute("MATCH (p:Person {id: $k}) RETURN p").unwrap_err();
    assert!(
        matches!(&missing, EngineError::Parameter(m) if m.contains("$k") && m.contains("execute_with"))
    );
    let missing = e
        .execute_with(
            "MATCH (p:Person {id: $k}) SET p.tag = $t",
            &[("k", Value::Int(1))],
        )
        .unwrap_err();
    assert!(matches!(&missing, EngineError::Parameter(m) if m.contains("$t")));
    let unused = e
        .execute_with("MATCH (p:Person {id: 1}) RETURN p", &[("k", Value::Int(1))])
        .unwrap_err();
    assert!(matches!(&unused, EngineError::Parameter(m) if m.contains("$k")));
    // Views and scripts take none.
    assert!(e
        .register_view("v", "MATCH (p:Person {id: $k}) RETURN p")
        .is_err());
    assert!(e.query("MATCH (p:Person {id: $k}) RETURN p").is_err());
    assert!(e
        .execute_script("MATCH (p:Person {id: $k}) RETURN p")
        .is_err());
    // Where the compiler needs a literal, a parameter is an error, not
    // a panic.
    for text in [
        "MATCH (p:Person) RETURN p.id AS id LIMIT $k",
        "MATCH (a:Person)-[:KNOWS* {w: $k}]->(b) RETURN b",
        "MATCH (p:Person) WHERE exists((p)-[:KNOWS]->({id: $k})) RETURN p",
    ] {
        assert!(
            e.execute_with(text, &[("k", Value::Int(1))]).is_err(),
            "{text}"
        );
    }
}

/// `CREATE` property values that are not plain literals used to be
/// numbered as columns of a bindings row that, without a reading clause,
/// does not exist (`index out of bounds: the len is 0 but the index is 0`).
#[test]
fn create_evaluates_constant_property_expressions_in_place() {
    let mut e = GraphEngine::new();
    let r = e.execute("CREATE (:P {k: -1})").unwrap();
    assert_eq!(r.stats.nodes_created, 1);
    let r = e.execute("CREATE (:P {k: 1 + 1})").unwrap();
    assert_eq!(r.stats.nodes_created, 1);
    let r = e
        .execute("CREATE (a:P {k: 1})-[:R {w: -2}]->(b:P {k: 2})")
        .unwrap();
    assert_eq!(
        (r.stats.nodes_created, r.stats.relationships_created),
        (2, 1)
    );
    // The same through a script (no shape cache, same interpreter).
    e.execute_script("CREATE (:P {k: -7}); CREATE (:P {k: 3 * -1})")
        .unwrap();
    let ks = e
        .query("MATCH (p:P) RETURN p.k AS k ORDER BY k")
        .unwrap()
        .rows;
    let ks: Vec<i64> = ks.iter().map(|t| t.get(0).as_int().unwrap()).collect();
    assert_eq!(ks, vec![-7, -3, -1, 1, 2, 2]);
    let w = e
        .query("MATCH (:P)-[r:R]->(:P) RETURN r.w AS w")
        .unwrap()
        .rows;
    assert_eq!(w[0].get(0), &Value::Int(-2));

    // The loader loop that found it: negative keys.
    for i in 1..=50 {
        e.execute(&format!("CREATE (:N {{id: -{i}, half: {i} / 2}})"))
            .unwrap();
    }
    let r = e
        .execute("MATCH (n:N {id: -17}) RETURN n.half AS h")
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(8));
    assert_eq!(r.rows_scanned, 1);

    // A value that reads a variable needs a reading clause to bind it:
    // a typed error without one, projected with one.
    let err = e
        .execute("CREATE (a:P {k: 1})-[:R]->(b:P {k: a.k})")
        .unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
    e.execute("MATCH (a:P {k: -7}) CREATE (a)-[:R]->(:Q {k: a.k - 1})")
        .unwrap();
    let q = e.query("MATCH (q:Q) RETURN q.k AS k").unwrap().rows;
    assert_eq!(q[0].get(0), &Value::Int(-8));
}
