//! Keyed statements from text: what an import script and an application
//! write, and what they cost.
//!
//! Loads a small social graph the way every loader does — one
//! `CREATE` per person, one two-pattern keyed `MATCH … CREATE` per
//! friendship — then runs a keyed `SET` and a keyed two-hop read,
//! printing `rows_scanned` (the vertices and edges the statement's
//! reading part materialised) for each. The first keyed statement builds
//! the `Person.id` property index; from then on a keyed pattern seeks
//! it, so a keyed update reads the same rows however many persons are
//! loaded. The example asserts that, so the quadratic loader cannot come
//! back unnoticed. The two-hop read seeks its anchor too; its joins
//! still read the `KNOWS` extent.
//!
//! The statements differ only in their literals, so the engine runs its
//! front end (parse, compile, plan) once per statement *shape* and binds
//! the literals of every later one: `statement_shapes()` must report the
//! loader's statements as hits, or this example fails. `execute_with`
//! is the same mechanism under the caller's own parameter names.
//!
//! Run with `cargo run --example keyed_updates`.

use pgq::prelude::*;

const DEGREE: usize = 4;

/// Load `persons` persons and their friendships; returns the largest
/// `rows_scanned` any friendship statement reported.
fn load(engine: &mut GraphEngine, persons: usize) -> u64 {
    for i in 0..persons {
        engine
            .execute(&format!("CREATE (:Person {{id: {i}, score: {}}})", i % 100))
            .unwrap();
    }
    let mut worst = 0;
    for i in 0..persons {
        for d in 1..=DEGREE {
            let j = (i + d * 7) % persons;
            let r = engine
                .execute(&format!(
                    "MATCH (a:Person {{id: {i}}}), (b:Person {{id: {j}}}) CREATE (a)-[:KNOWS]->(b)"
                ))
                .unwrap();
            assert_eq!(r.stats.relationships_created, 1);
            worst = worst.max(r.rows_scanned);
        }
    }
    // Two shapes: planned once each, re-planned as the graph outgrew
    // twice the size they were planned for, bound every other time.
    let (shapes, hits, misses, replans) = engine.statement_shapes();
    assert_eq!((shapes, misses), (2, 2), "one front-end run per shape");
    assert_eq!(hits + misses + replans, (persons * (1 + DEGREE)) as u64);
    assert!(
        replans <= 4,
        "{replans} re-plans for a graph that grew fivefold"
    );
    worst
}

fn main() {
    let mut per_size = Vec::new();
    for persons in [300, 1_200] {
        let mut engine = GraphEngine::new();
        let view = engine
            .register_view(
                "friends_of_high_scorers",
                "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.score > 90 RETURN a, b",
            )
            .unwrap();
        let load_worst = load(&mut engine, persons);
        println!(
            "{persons} persons, {} KNOWS edges loaded by keyed MATCH … CREATE: at most {load_worst} rows scanned per statement",
            engine.graph().edge_count()
        );

        let set = engine
            .execute("MATCH (p:Person {id: 17}) SET p.score = 99")
            .unwrap();
        println!("  keyed SET          rows_scanned = {}", set.rows_scanned);
        // The same statement with the literals named by the caller.
        let named = engine
            .execute_with(
                "MATCH (p:Person {id: $id}) SET p.score = $score",
                &[("id", Value::Int(18)), ("score", Value::Int(99))],
            )
            .unwrap();
        assert_eq!(named.stats, set.stats);
        assert_eq!(named.rows_scanned, set.rows_scanned);
        let read = engine
            .execute(
                "MATCH (a:Person {id: 17})-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) \
                 RETURN count(*) AS reach",
            )
            .unwrap();
        println!(
            "  two-hop read       rows_scanned = {}  (reach = {})",
            read.rows_scanned,
            read.rows[0].get(0)
        );
        // The standing view followed every statement, the SET included.
        println!(
            "  view rows          {}",
            engine.view_results(view).unwrap().len()
        );
        for (label, key, entries) in engine.property_indexes() {
            println!("  index {label}.{key}: {entries} entries");
        }
        let (shapes, hits, misses, replans) = engine.statement_shapes();
        println!(
            "  statement shapes   {shapes} kept: {hits} hits, {misses} misses, {replans} re-plans"
        );
        let knows = engine.graph().edge_count() as u64;
        assert!(read.rows_scanned <= 1 + 2 * knows);
        per_size.push((load_worst, set.rows_scanned));
    }

    println!("\nEXPLAIN of the two-hop read:\n");
    let mut engine = GraphEngine::new();
    load(&mut engine, 50);
    println!(
        "{}",
        engine
            .explain(
                "MATCH (a:Person {id: 17})-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) \
                 RETURN count(*) AS reach"
            )
            .unwrap()
    );

    assert_eq!(
        per_size[0], per_size[1],
        "rows scanned per keyed update grew with the graph"
    );
    assert_eq!(per_size[1], (2, 1));
    println!("work per keyed update is independent of graph size ✓");
}
