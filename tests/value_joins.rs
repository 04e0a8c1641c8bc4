//! Value joins: a `WHERE x.p = y.q` between two pattern parts keys the
//! join that brings them together (`Fra::HashJoin`'s value keys), and
//! the σ above it still decides.
//!
//! The oracle: the view as registered (planned, value-keyed), its
//! syntactic-order twin on a network (`tests/twins`: the σ over the
//! product, as written), the push
//! evaluator and the materialising reference — each on the plan as
//! written, as planned and in canonical form — and a one-shot `query`
//! hold one bag after every step of a script that sets the joined
//! property to an integer, the equal float, another float, NaN, −0.0,
//! strings, a list and `null` (the values `program_props` checks the
//! comparisons on), and adds and removes people and edges.
//!
//! The work bound: the pure value join is no longer a product. Loaded in
//! one transaction, its ⋈ emits at most its input and result, at n and at
//! 10 n people, where a product emits n²; a one-shot read scans no more.
//! And a value-keyed join the one-shot evaluator expands from its key
//! vertices checks the value key on every row it reads.

use pgq::prelude::*;
use pgq_algebra::canon::canonicalize;
use pgq_algebra::fra::Fra;
use pgq_algebra::pipeline::compile_query;
use pgq_algebra::plan::plan;
use pgq_common::fxhash::FxHashMap;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_graph::props::Properties;
use pgq_parser::parse_query;

mod twins;
use twins::{unplanned, Twins};

/// `view_churn`'s cold two-hop: the ⋈ on `b` also keys on the countries.
const COLD: &str = "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) \
                    WHERE a.country = c.country RETURN a, c";
/// The pure value join: no shared variable, a product until keyed.
const PURE: &str = "MATCH (a:Person), (b:Person) WHERE a.country = b.country RETURN a, b";
/// Three hops, three factors: `a` and `d` meet only once all three are
/// joined, so the value key lands on the second join.
const THREE: &str =
    "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:KNOWS]->(d:Person) \
                     WHERE a.country = d.country RETURN a, d";

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

/// What the joined property is set to: an integer beside the equal
/// float, another float, NaN, −0.0 beside 0 and 0.0, strings, a boolean,
/// a list and `null` (the property removed).
fn awkward() -> Vec<Value> {
    vec![
        Value::Int(1),
        Value::float(1.0),
        Value::float(1.5),
        Value::float(f64::NAN),
        Value::float(-0.0),
        Value::Int(0),
        Value::float(0.0),
        Value::str("1"),
        Value::str("a"),
        Value::Bool(true),
        Value::list(vec![Value::Int(1)]),
        Value::Null,
    ]
}

/// Deterministic xorshift.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state >> 11
}

/// A bag as `(tuple, multiplicity)` sorted by [`Tuple::total_cmp`].
fn bag(rows: impl IntoIterator<Item = (Tuple, i64)>) -> Vec<(Tuple, i64)> {
    let mut counts: FxHashMap<Tuple, i64> = FxHashMap::default();
    for (t, m) in rows {
        *counts.entry(t).or_insert(0) += m;
    }
    let mut out: Vec<(Tuple, i64)> = counts.into_iter().filter(|(_, m)| *m != 0).collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Joins in `fra` that carry value keys, and whether one of them has a
/// join below it.
fn value_keyed(fra: &Fra) -> (usize, bool) {
    let below = |f: &Fra| matches!(strip(f), Fra::HashJoin { .. });
    fn strip(mut f: &Fra) -> &Fra {
        while let Fra::Filter { input, .. } | Fra::Project { input, .. } = f {
            f = input;
        }
        f
    }
    match fra {
        Fra::HashJoin {
            left,
            right,
            value_keys,
            ..
        } => {
            let (l, r) = (value_keyed(left), value_keyed(right));
            let mine = !value_keys.is_empty();
            (
                l.0 + r.0 + usize::from(mine),
                l.1 || r.1 || (mine && (below(left) || below(right))),
            )
        }
        Fra::Filter { input, .. } | Fra::Project { input, .. } => value_keyed(input),
        _ => (0, false),
    }
}

/// Twelve people, each knowing the next three, with the first six
/// awkward countries: `1`, `1.0`, `1.5`, NaN, −0.0 and `0` in turn, so
/// that `1 = 1.0` and `−0.0 = 0` meet two hops apart.
fn start() -> (GraphEngine, Vec<VertexId>) {
    let values = awkward();
    let mut g = PropertyGraph::new();
    let people: Vec<VertexId> = (0..12)
        .map(|i| {
            let props = Properties::from_iter([("country", values[i % 6].clone())]);
            g.add_vertex([s("Person")], props).0
        })
        .collect();
    for i in 0..12 {
        for k in 1..=3 {
            g.add_edge(
                people[i],
                people[(i + k) % 12],
                s("KNOWS"),
                Properties::new(),
            )
            .unwrap();
        }
    }
    (GraphEngine::from_graph(g), people)
}

#[test]
fn value_joins_agree_with_their_unkeyed_twin_and_both_evaluators_after_every_step() {
    for (qi, q) in [COLD, PURE, THREE].into_iter().enumerate() {
        let (mut engine, mut people) = start();
        let written = compile_query(&parse_query(q).unwrap()).unwrap().fra;
        let keyed = engine.register_view("keyed", q).unwrap();
        let mut twin = Twins::new(engine.graph().clone());
        twin.register("twin", q, unplanned());

        // The plan the view runs keys on value, where this query says.
        let planned = plan(&written, &pgq_ivm::plan_stats(engine.graph())).fra;
        let canonical = canonicalize(&planned).with_restored_order();
        let (keys, on_second) = value_keyed(&canonical);
        assert_eq!(keys, 1, "{q}:\n{}", canonical.explain());
        assert_eq!(on_second, q == THREE, "{q}:\n{}", canonical.explain());

        let values = awkward();
        let mut rng = 0x2545_F491_4F6C_DD1D ^ qi as u64;
        let mut edges: Vec<EdgeId> = engine.graph().edge_ids().collect();
        let mut seen = 0;
        for step in 0..40 {
            let mut tx = Transaction::new();
            let pick = |rng: &mut u64, n: usize| next(rng) as usize % n;
            match next(&mut rng) % 5 {
                0 | 1 => {
                    let p = people[pick(&mut rng, people.len())];
                    let v = values[pick(&mut rng, values.len())].clone();
                    tx.set_vertex_prop(p, s("country"), v);
                }
                2 => {
                    let (a, b) = (pick(&mut rng, people.len()), pick(&mut rng, people.len()));
                    tx.create_edge(people[a], people[b], s("KNOWS"), Properties::new());
                }
                3 if !edges.is_empty() => {
                    tx.delete_edge(edges.swap_remove(pick(&mut rng, edges.len())));
                }
                _ if people.len() > 4 && step % 2 == 0 => {
                    let p = people.swap_remove(pick(&mut rng, people.len()));
                    tx.delete_vertex(p, true);
                }
                _ => {
                    let v = values[pick(&mut rng, values.len())].clone();
                    let new =
                        tx.create_vertex([s("Person")], Properties::from_iter([("country", v)]));
                    tx.create_edge(people[0], new, s("KNOWS"), Properties::new());
                }
            }
            engine.apply(&tx).unwrap();
            twin.apply(&tx);
            let g = engine.graph();
            people = g.vertex_ids().collect();
            people.sort();
            edges = g.edge_ids().collect();
            edges.sort();

            let want = bag(pgq_eval_reference::evaluate_consolidated(&written, g));
            let planned = plan(&written, &pgq_ivm::plan_stats(g)).fra;
            let canonical = canonicalize(&planned).with_restored_order();
            let mut got = vec![
                ("keyed view", bag(engine.view(keyed).unwrap().results())),
                ("unkeyed twin", bag(twin.results("twin"))),
                (
                    "one-shot query",
                    bag(engine.query(q).unwrap().rows.into_iter().map(|t| (t, 1))),
                ),
            ];
            for (name, fra) in [
                ("written", &written),
                ("planned", &planned),
                ("canonical", &canonical),
            ] {
                got.push((name, bag(pgq_eval::evaluate_consolidated(fra, g))));
                got.push((name, bag(pgq_eval_reference::evaluate_consolidated(fra, g))));
            }
            for (name, bag) in got {
                assert_eq!(bag, want, "{q}: {name} after step {step}");
            }
            seen += want.len();
        }
        assert!(seen > 200, "{q}: the script keeps rows ({seen})");
    }
}

/// `n` people, two to a country, as a graph of its own or as the
/// transaction that creates them.
fn people(n: usize) -> Transaction {
    let mut tx = Transaction::new();
    for i in 0..n {
        let country = Value::Int((i / 2) as i64);
        tx.create_vertex([s("Person")], Properties::from_iter([("country", country)]));
    }
    tx
}

/// `(join rows emitted, result rows, rows a one-shot read scanned)` for
/// the pure value join over `n` people.
fn pure_join_work(n: usize) -> (u64, u64, u64) {
    let mut engine = GraphEngine::new();
    let view = engine.register_view("pure", PURE).unwrap();
    let before = engine.network().counters().join_tuples_emitted;
    engine.apply(&people(n)).unwrap();
    let emitted = engine.network().counters().join_tuples_emitted - before;
    let result = engine.view(view).unwrap().row_count() as u64;
    let read = engine.query(PURE).unwrap();
    assert_eq!(read.rows.len() as u64, result);
    (emitted, result, read.rows_scanned)
}

#[test]
fn value_join_work_bound() {
    for n in [200, 2_000] {
        let (emitted, result, scanned) = pure_join_work(n);
        let inputs = n as u64;
        // Two to a country: each person meets itself and its partner.
        assert_eq!(result, 2 * inputs);
        assert!(
            emitted <= inputs + result,
            "{emitted} join rows for {inputs} people and {result} results"
        );
        assert!(
            scanned <= inputs + result,
            "{scanned} rows scanned for {inputs} people and {result} results"
        );
    }
}

/// A value-keyed join the one-shot evaluator expands — reads its right
/// side from the adjacency of the vertices its left side binds
/// (`expand.rs`) — still files and probes every row it reads under the
/// value key: on a ring of 1 000 people whose countries cycle through
/// `1`, `1.0`, `"1"` and `null`, the keyed one-hop equals the reference
/// from every kind of anchor and reads only the anchor and its 4 edges.
#[test]
fn an_expanded_value_join_checks_its_value_key_on_every_row() {
    let countries = [
        Value::Int(1),
        Value::float(1.0),
        Value::str("1"),
        Value::Null,
    ];
    let mut g = PropertyGraph::new();
    let people: Vec<VertexId> = (0..1_000)
        .map(|i| {
            let props = Properties::from_iter([
                ("id", Value::Int(i as i64)),
                ("country", countries[i % 4].clone()),
            ]);
            g.add_vertex([s("Person")], props).0
        })
        .collect();
    for i in 0..people.len() {
        for k in 1..=4 {
            g.add_edge(
                people[i],
                people[(i + k) % people.len()],
                s("KNOWS"),
                Properties::new(),
            )
            .unwrap();
        }
    }
    let mut engine = GraphEngine::from_graph(g);
    let hop = |k: usize| {
        format!("MATCH (a:Person {{id: {k}}})-[:KNOWS]->(b:Person) WHERE a.country = b.country RETURN b")
    };
    let explain = engine.explain(&hop(0)).unwrap();
    let one_shot = explain
        .split("== One-shot")
        .nth(1)
        .expect("a one-shot plan");
    assert!(
        one_shot
            .lines()
            .any(|l| l.contains("by value") && l.contains("← expand")),
        "{one_shot}"
    );
    for k in 0..8 {
        let q = hop(k);
        // `execute` builds the `Person.id` index the anchor seeks.
        let read = engine.execute(&q).unwrap();
        let written = compile_query(&parse_query(&q).unwrap()).unwrap().fra;
        let want = bag(pgq_eval_reference::evaluate_consolidated(
            &written,
            engine.graph(),
        ));
        assert_eq!(bag(read.rows.into_iter().map(|t| (t, 1))), want, "{q}");
        // The next four people hold each country once: `1` meets `1`
        // and `1.0`, `1.0` the same two, `"1"` only `"1"`, `null` none.
        assert_eq!(want.len(), [2, 2, 1, 0][k % 4], "{q}");
        assert!(
            read.rows_scanned <= 1 + 4,
            "{q}: {} rows",
            read.rows_scanned
        );
    }
}
