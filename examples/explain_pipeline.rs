//! Tour of the compilation pipeline: prints GRA / NRA / FRA (and the
//! maintainability verdict) for a spectrum of queries — including the
//! ones the paper's fragment rejects, to show *why*.
//!
//! Run with `cargo run --example explain_pipeline`.

use pgq_core::GraphEngine;

fn main() {
    let engine = GraphEngine::new();
    let queries = [
        // The paper's running example.
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
        // Plain join with property filter.
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.country = b.country RETURN a, b",
        // Pure value join: no shared variable, so the equality keys the ⋈.
        "MATCH (a:Person), (b:Person) WHERE a.country = b.country RETURN a, b",
        // Aggregation extension.
        "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
        // Path unwinding.
        "MATCH t = (p:Post)-[:REPLY*1..3]->(c:Comm) UNWIND nodes(t) AS n RETURN DISTINCT n",
        // WITH extension (HAVING pattern).
        "MATCH (p:Post) WITH p.lang AS lang, count(*) AS n WHERE n > 3 RETURN lang, n",
        // Negation extension (incremental antijoin).
        "MATCH (sw:Switch) WHERE NOT exists((sw)-[:monitoredBy]->(:Sensor)) RETURN sw",
        // Outside the maintainable fragment: top-k.
        "MATCH (p:Post) RETURN p.len AS len ORDER BY len DESC LIMIT 3",
    ];
    for q in queries {
        println!("{}", "=".repeat(72));
        println!("QUERY: {q}\n");
        match engine.explain(q) {
            Ok(text) => println!("{text}"),
            Err(e) => println!("rejected: {e}\n"),
        }
    }
}
