//! Nothing reachable from view text panics: seeded byte- and
//! token-mutants of the benchmark's view texts and the differential
//! oracle's go through `register_view` on a populated engine with
//! standing views. Each mutant either fails with a typed error, leaving
//! the network as it was, or registers a view equal to a from-scratch
//! evaluation of its compiled plan — and dropping it returns the
//! network's node count and the tuples its nodes hold to the baseline.
//!
//! The graph is a forest plus three `LIKES` edges, so a mutant that
//! loses a relationship type or a direction still enumerates few
//! edge-distinct paths.

mod mutation;

use mutation::{mutate, Rng};
use pgq_core::GraphEngine;
use pgq_parser::lexer::lex;
use pgq_parser::token::Tok;

/// The benchmark's view texts: social (and its WHERE family), motif,
/// `view_churn`'s cold and shared, `cypher_session`'s, a `fanout_batch`
/// thread view and overlap family member.
const BENCHMARK_VIEWS: &[&str] = &[
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
    "MATCH (a:Person)-[:CREATED]->(p:Post) MATCH (a)-[:KNOWS]->(b:Person) MATCH (b)-[:LIKES]->(p) RETURN a, b, p",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang AS lang, count(*) AS replies",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang <> 'en' AND c.lang = 'de' RETURN p, c",
    "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(a) RETURN a, b, c",
    "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(d:N)-[:E]->(a) RETURN a, b, c, d",
    "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N) RETURN count(*) AS wedges",
    "MATCH (a7:Person)-[:KNOWS]->(b7:Person)-[:KNOWS]->(c7:Person) WHERE a7.country = c7.country RETURN a7, c7",
    "MATCH (x4:Post)-[:REPLY]->(y4:Comm) WHERE x4.lang = 'de' OR y4.lang = 'fr' RETURN x4, y4",
    "MATCH (a:Person)-[:CREATED]->(p:Post) RETURN a, p",
    "MATCH (p:Person) WHERE p.score > 90 RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN DISTINCT p.lang AS lang",
];

/// The differential oracle's view texts.
const ORACLE_VIEWS: &[&str] = &[
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p, p.lang",
    "MATCH (a)-[:REPLY*1..3]->(b:Comm) RETURN a, b",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN n",
    "MATCH (a:Comm)<-[:REPLY]-(b) RETURN a, b",
    "MATCH (a)-[:REPLY]-(b:Comm) RETURN a, b",
    "MATCH (p:Post) WHERE NOT exists((p)-[:REPLY]->(:Comm)) RETURN p",
    "MATCH (p:Post) WHERE exists((p)-[:REPLY]->(:Comm {lang: 'en'})) RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c) RETURN p, c.lang",
    "MATCH (b:Person) MATCH (a:Person)-[:KNOWS]->(b) WHERE a.country = b.country RETURN a, b",
    "MATCH (a:Person)-[:KNOWS]-(b:Person) WHERE a.country <> b.country RETURN a, b",
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.country AS country, count(*) AS n",
];

/// The standing views every mutant registers beside.
const STANDING: &[&str] = &[
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'en' RETURN p, c",
    "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.country = b.country RETURN a, b",
];

/// Ten persons in a `KNOWS` tree, a post per person (`CREATED`), reply
/// chains, three `LIKES`, and two `N` vertices with an `E` edge.
fn engine() -> GraphEngine {
    let mut e = GraphEngine::new();
    let langs = ["en", "de", "fr"];
    let mut script = Vec::new();
    for i in 0..10 {
        script.push(format!(
            "CREATE (:Person {{id: {i}, country: '{}', score: {}}})",
            langs[i % 3],
            (i * 37) % 100
        ));
    }
    for i in 1..10 {
        script.push(format!(
            "MATCH (a:Person {{id: {}}}), (b:Person {{id: {i}}}) CREATE (a)-[:KNOWS]->(b)",
            (i - 1) / 2
        ));
    }
    for k in 0..6 {
        script.push(format!(
            "MATCH (a:Person {{id: {k}}}) CREATE (a)-[:CREATED]->(p:Post {{lang: '{}'}})\
             -[:REPLY]->(:Comm {{lang: '{}'}})-[:REPLY]->(:Comm {{lang: '{}'}})",
            langs[k % 3],
            langs[(k + 1) % 3],
            langs[k % 2]
        ));
    }
    for (a, k) in [(7, 1), (8, 2), (9, 1)] {
        script.push(format!(
            "MATCH (a:Person {{id: {a}}}), (b:Person {{id: {k}}})-[:CREATED]->(p:Post) \
             CREATE (a)-[:LIKES]->(p)"
        ));
    }
    script.push("CREATE (:N)-[:E]->(:N)".into());
    for s in &script {
        e.execute(s).unwrap();
    }
    for (i, q) in STANDING.iter().enumerate() {
        e.register_view(&format!("standing{i}"), q).unwrap();
    }
    e
}

/// What a registration may leave behind: live operator nodes and the
/// tuples they hold.
fn footprint(e: &GraphEngine) -> (usize, usize) {
    let held = e
        .network()
        .node_summaries()
        .iter()
        .map(|n| n.own_tuples)
        .sum();
    (e.network_node_count(), held)
}

#[test]
fn view_text_mutants_register_correctly_or_fail_typed() {
    let corpus: Vec<&str> = BENCHMARK_VIEWS
        .iter()
        .chain(ORACLE_VIEWS)
        .copied()
        .collect();
    let pool: Vec<Tok> = corpus
        .iter()
        .flat_map(|q| lex(q).unwrap())
        .map(|s| s.tok)
        .filter(|t| *t != Tok::Eof)
        .collect();
    let mut e = engine();
    let baseline = footprint(&e);
    let (mut registered, mut refused) = (0usize, 0usize);
    for seed in [3u64, 1_009] {
        let mut rng = Rng(seed);
        for i in 0..2_600 {
            let base = corpus[i % corpus.len()];
            let text = if i % 10 == 0 {
                base.to_string()
            } else {
                mutate(&mut rng, base, &pool)
            };
            match e.register_view("mutant", &text) {
                Err(_) => {
                    assert_eq!(
                        footprint(&e),
                        baseline,
                        "a refused {text:?} left state behind"
                    );
                    refused += 1;
                }
                Ok(id) => {
                    let fra = e.view_compiled(id).unwrap().fra.clone();
                    assert_eq!(
                        e.view(id).unwrap().results(),
                        pgq_eval::evaluate_consolidated(&fra, e.graph()),
                        "{text:?}"
                    );
                    e.drop_view(id).unwrap();
                    assert_eq!(
                        footprint(&e),
                        baseline,
                        "dropping {text:?} left state behind"
                    );
                    registered += 1;
                }
            }
        }
    }
    assert!(registered + refused >= 5_000);
    // The mutation operators reach both outcomes in bulk.
    assert!(registered > 500 && refused > 500, "{registered} {refused}");
    for (i, _) in STANDING.iter().enumerate() {
        let id = e.view_by_name(&format!("standing{i}")).unwrap();
        let fra = e.view_compiled(id).unwrap().fra.clone();
        assert_eq!(
            e.view(id).unwrap().results(),
            pgq_eval::evaluate_consolidated(&fra, e.graph())
        );
    }
}
