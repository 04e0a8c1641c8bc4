//! Keyed one-shot statements do work bounded by what they touch, not by
//! the graph (Berkholz/Keppeler/Schweikardt: on degree-bounded data the
//! cost of an update is independent of the database size).
//!
//! `ExecutionResult::rows_scanned` counts the vertices and edges the
//! statement's reading part materialised — a work count, not a timing.
//! Growing |V| tenfold must leave it *identical* for every keyed
//! statement shape. The keyed two-hop read seeks its anchor and each join
//! expands from the vertices bound so far, so it reads its anchor, the
//! anchor's 4 `KNOWS` edges and their targets' 16: 1 + 4 + 16 rows.

use pgq::prelude::*;
use pgq_common::intern::Symbol;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;

const DEGREE: usize = 4;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

/// `n` persons keyed `id = 0..n`, person `i` knowing `i+1 .. i+4`
/// (mod `n`): out- and in-degree exactly [`DEGREE`] everywhere.
fn ring(n: usize) -> GraphEngine {
    let mut g = PropertyGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let props = Properties::from_iter([
                ("id", Value::Int(i as i64)),
                ("score", Value::Int((i % 100) as i64)),
            ]);
            g.add_vertex([s("Person")], props).0
        })
        .collect();
    for i in 0..n {
        for d in 1..=DEGREE {
            g.add_edge(ids[i], ids[(i + d) % n], s("KNOWS"), Properties::new())
                .unwrap();
        }
    }
    GraphEngine::from_graph(g)
}

const TWO_HOP: &str =
    "MATCH (a:Person {id: 17})-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) RETURN count(*) AS reach";

/// Run the four keyed shapes on a ring of `n`, checking their effects,
/// then each again with other literals: the second execution finds its
/// shape's plan (`statement_shapes()` counts no further miss) and must do
/// the same work. Returns each statement's `rows_scanned` (SET,
/// CREATE-under, two-hop read, DETACH DELETE), first and second round.
fn scanned(n: usize) -> [[u64; 4]; 2] {
    let mut e = ring(n);
    let mut rounds = [[0; 4]; 2];
    for (round, (k_set, k_under, k_read, k_delete)) in [(5, 9, 17, 23), (105, 109, 117, 123)]
        .into_iter()
        .enumerate()
    {
        let set = e
            .execute(&format!(
                "MATCH (p:Person {{id: {k_set}}}) SET p.score = 1000"
            ))
            .unwrap();
        assert_eq!(set.stats.properties_set, 1);
        let hit = e
            .query(&format!(
                "MATCH (p:Person) WHERE p.score = 1000 AND p.id >= {k_set} RETURN p.id"
            ))
            .unwrap();
        assert_eq!(hit.rows.len(), 1);
        assert_eq!(hit.rows[0].get(0), &Value::Int(k_set));

        let under = e
            .execute(&format!(
                "MATCH (p:Person {{id: {k_under}}}) CREATE (p)-[:CREATED]->(:Post {{id: {round}, lang: 'en'}})"
            ))
            .unwrap();
        assert_eq!(
            (under.stats.nodes_created, under.stats.relationships_created),
            (1, 1)
        );

        let read = e
            .execute(&TWO_HOP.replace("17", &k_read.to_string()))
            .unwrap();
        assert_eq!(
            read.rows[0].get(0),
            &Value::Int((DEGREE * DEGREE) as i64),
            "every two-hop walk from the anchor uses two distinct edges"
        );

        let delete = e
            .execute(&format!(
                "MATCH (p:Person {{id: {k_delete}}}) DETACH DELETE p"
            ))
            .unwrap();
        assert_eq!(delete.stats.nodes_deleted, 1);

        // Four shapes, planned once each: the second round only binds.
        assert_eq!(e.statement_shapes(), (4, 4 * round as u64, 4, 0));
        rounds[round] = [
            set.rows_scanned,
            under.rows_scanned,
            read.rows_scanned,
            delete.rows_scanned,
        ];
    }
    assert_eq!(e.graph().vertex_count(), n); // −2 persons, +2 posts
    assert_eq!(e.graph().edge_count(), n * DEGREE - 4 * DEGREE + 2);
    rounds
}

#[test]
fn keyed_updates_scan_the_same_rows_at_1k_and_10k_vertices() {
    let small = scanned(1_000);
    let large = scanned(10_000);
    for (n, rounds) in [(1_000u64, small), (10_000, large)] {
        for [set, under, read, delete] in rounds {
            assert_eq!((set, under, delete), (1, 1, 1), "one sought vertex each");
            // The anchor is sought; each hop expands from the vertices
            // the hop before it bound.
            let d = DEGREE as u64;
            assert_eq!(
                read,
                1 + d + d * d,
                "|V| = {n}: the two-hop read scanned {read} rows, not its anchor and its two hops"
            );
        }
    }
}

/// EXPLAIN's one-shot section shows where the two-hop narrows: the seek
/// on its anchor and an expansion at each hop.
#[test]
fn explain_marks_the_seek_and_both_expansions() {
    let text = ring(100).explain(TWO_HOP).unwrap();
    let one_shot = text
        .split("== One-shot execution")
        .nth(1)
        .expect("EXPLAIN ends with the one-shot plan");
    assert_eq!(
        one_shot.matches("← seek Person.id").count(),
        1,
        "{one_shot}"
    );
    assert_eq!(
        one_shot.matches("← expand out KNOWS\n").count(),
        2,
        "{one_shot}"
    );
}

/// `query(&self)` cannot build an index; it seeks one `execute` built and
/// scans the label otherwise — same answer either way.
#[test]
fn query_probes_existing_indexes_and_scans_without_them() {
    let mut e = ring(1_000);
    let cold = e.query(TWO_HOP).unwrap();
    assert!(e.property_indexes().is_empty(), "query() builds nothing");
    let built = e.execute(TWO_HOP).unwrap();
    let warm = e.query(TWO_HOP).unwrap();
    assert_eq!(cold.rows, built.rows);
    assert_eq!(cold.rows, warm.rows);
    assert!(cold.rows_scanned >= 1_000, "no index: the label is scanned");
    assert_eq!(warm.rows_scanned, built.rows_scanned);
    assert_eq!(
        e.property_indexes(),
        vec![("Person".into(), "id".into(), 1_000)]
    );
}
