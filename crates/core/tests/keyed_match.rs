//! A multi-pattern keyed MATCH touches O(1) rows.
//!
//! `MATCH (a:L {k: x}), (b:L {k: y}) CREATE (a)-[:T]->(b)` is what every
//! import script writes. It used to evaluate the |L|² cross product and
//! filter afterwards; planned, each pattern is its own `σ[k = literal]©`
//! answered by the property index, so the reading part materialises one
//! vertex per pattern whatever |L| is.

use pgq_core::GraphEngine;

fn engine_with(n: usize) -> GraphEngine {
    let mut e = GraphEngine::new();
    for i in 0..n {
        e.execute(&format!("CREATE (:L {{k: {i}, pad: 'x'}})"))
            .unwrap();
    }
    e
}

#[test]
fn two_pattern_keyed_create_reads_one_row_per_pattern() {
    for n in [200, 2_000] {
        let mut e = engine_with(n);
        let r = e
            .execute(&format!(
                "MATCH (a:L {{k: 3}}), (b:L {{k: {}}}) CREATE (a)-[:T]->(b)",
                n - 1
            ))
            .unwrap();
        assert_eq!(r.stats.relationships_created, 1, "|L| = {n}");
        assert_eq!(e.graph().edge_count(), 1);
        assert_eq!(r.rows_scanned, 2, "|L| = {n}: one vertex per pattern");
        assert_eq!(e.property_indexes(), vec![("L".into(), "k".into(), n)]);
    }
}

#[test]
fn absent_key_binds_nothing_and_creates_nothing() {
    for n in [200, 2_000] {
        let mut e = engine_with(n);
        for stmt in [
            format!("MATCH (a:L {{k: 3}}), (b:L {{k: {n}}}) CREATE (a)-[:T]->(b)"),
            format!("MATCH (a:L {{k: {n}}}), (b:L {{k: 3}}) CREATE (a)-[:T]->(b)"),
        ] {
            let r = e.execute(&stmt).unwrap();
            assert_eq!(r.stats.relationships_created, 0, "{stmt}");
            assert_eq!(e.graph().edge_count(), 0, "{stmt}");
            assert!(r.rows_scanned <= 1, "{stmt}: scanned {}", r.rows_scanned);
        }
    }
}

#[test]
fn a_shared_key_value_creates_one_edge_per_pair() {
    let mut e = engine_with(50);
    e.execute("CREATE (:L {k: 3, pad: 'twin'})").unwrap();
    let r = e
        .execute("MATCH (a:L {k: 3}), (b:L {k: 4}) CREATE (a)-[:T]->(b)")
        .unwrap();
    assert_eq!(r.stats.relationships_created, 2);
}
