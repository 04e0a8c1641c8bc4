//! Filter placement must be semantics-preserving: for every query in
//! the battery, the plan `register_view` runs — conjuncts folded,
//! carried through π / δ / ω and applied by the planner at the earliest
//! point that binds their columns — computes the same bag as the plan
//! as written and as a from-scratch `pgq_eval` recompute, both once and
//! after every step of a stream of updates. Two cases pin what the
//! planned order buys, in state tuples: a filter pushed below ⋈*, and a
//! join order that keeps the hub fan-out out of the join memories. The
//! plan as written runs as a syntactic-order twin on a network
//! (`tests/twins`), driven with the engine's transactions.

use pgq_algebra::pipeline::compile_query;
use pgq_algebra::plan::plan;
use pgq_core::GraphEngine;
use pgq_parser::parse_query;
use pgq_workloads::hub::{generate_hub, queries as hq, HubParams};
use pgq_workloads::social::{generate_social, SocialParams};

const QUERIES: &[&str] = &[
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
    "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.country = 'en' AND b.country = 'de' RETURN a, b",
    "MATCH (a:Person)-[:CREATED]->(p:Post) WHERE p.lang = 'en' AND a.country = p.lang RETURN a, p",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = 'en' AND p.lang = c.lang RETURN p, t",
    "MATCH (p:Post) WHERE p.len > 100 RETURN p.lang AS l, count(*) AS n",
    "MATCH (p:Post) WHERE 1 + 1 = 2 AND p.len >= 0 RETURN DISTINCT p.lang",
    "MATCH t = (p:Post)-[:REPLY*1..2]->(c:Comm) UNWIND nodes(t) AS n RETURN n",
];

/// The selective thread query: its source-side conjunct is written above
/// the π the compiler emits for every named path.
const SELECTIVE_THREADS: &str =
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = 'en' RETURN p, t";

mod twins;
use twins::{unplanned, Twins};

/// `q`'s syntactic-order twin, as `name` on a network over `g`.
fn unplanned_twin(g: &pgq_graph::store::PropertyGraph, name: &str, q: &str) -> Twins {
    let mut twins = Twins::new(g.clone());
    twins.register(name, q, unplanned());
    twins
}

#[test]
fn planned_equals_unplanned_from_scratch() {
    let net = generate_social(SocialParams::scale(0.1, 9));
    let stats = pgq_ivm::plan_stats(&net.graph);
    for q in QUERIES {
        let written = compile_query(&parse_query(q).unwrap()).unwrap().fra;
        let planned = plan(&written, &stats).fra;
        assert_eq!(written.schema(), planned.schema(), "{q}");
        assert_eq!(
            pgq_eval::evaluate_consolidated(&written, &net.graph),
            pgq_eval::evaluate_consolidated(&planned, &net.graph),
            "{q}\nwritten:\n{}\nplanned:\n{}",
            written.explain(),
            planned.explain()
        );
    }
}

#[test]
fn planned_views_maintain_identically() {
    let mut net = generate_social(SocialParams::scale(0.1, 9));
    let stream = net.update_stream(60, (4, 2, 3, 1));
    for q in QUERIES {
        let written = compile_query(&parse_query(q).unwrap()).unwrap().fra;
        let mut engine = GraphEngine::from_graph(net.graph.clone());
        let planned = engine.register_view("planned", q).unwrap();
        let mut twin = unplanned_twin(&net.graph, "unplanned", q);
        for (t, tx) in stream.iter().enumerate() {
            engine.apply(tx).unwrap();
            twin.apply(tx);
            let want = pgq_eval::evaluate_consolidated(&written, engine.graph());
            for (which, got) in [
                ("planned", engine.view(planned).unwrap().results()),
                ("unplanned", twin.results("unplanned")),
            ] {
                assert_eq!(
                    got, want,
                    "{q}: {which} view diverged from recompute after tx {t}"
                );
            }
        }
    }
}

#[test]
fn pushed_filter_shrinks_varlength_state() {
    // With `p.lang = 'en'` below the ⋈*, only English posts anchor
    // paths; as written, every post does and the σ drops the rest
    // afterwards.
    let net = generate_social(SocialParams::scale(0.25, 9));
    let mut engine = GraphEngine::from_graph(net.graph.clone());
    let planned = engine.register_view("planned", SELECTIVE_THREADS).unwrap();
    let twin = unplanned_twin(&net.graph, "unplanned", SELECTIVE_THREADS);

    let varlength = |net: &pgq_ivm::DataflowNetwork| -> String {
        let nodes = net.node_summaries();
        let label = nodes.iter().map(|n| &n.label).find(|l| l.starts_with("⋈*"));
        label.expect("the view has a ⋈* node").clone()
    };
    let (pl, un) = (varlength(engine.network()), varlength(twin.network()));
    assert!(pl.starts_with("⋈* [43 anchors, 258 paths,"), "{pl}");
    assert!(un.starts_with("⋈* [150 anchors, 900 paths,"), "{un}");
    let unplanned = twin.network().view_named("unplanned").unwrap();
    let (mp, mu) = (
        engine.view(planned).unwrap().memory_tuples(),
        unplanned.memory_tuples(),
    );
    assert_eq!((mp, mu), (1_502, 2_358));
    assert_eq!(engine.view(planned).unwrap().results(), unplanned.results());

    // EXPLAIN's cost-based plan shows the σ under the expansion.
    let explain = engine.explain(SELECTIVE_THREADS).unwrap();
    let stage4 = explain
        .split("== Stage 4")
        .nth(1)
        .and_then(|s| s.split("\n== ").next())
        .expect("EXPLAIN has a cost-based plan section");
    let depth_of = |glyph: &str| {
        let line = stage4.lines().find(|l| l.trim_start().starts_with(glyph));
        let line = line.unwrap_or_else(|| panic!("no {glyph} line in:\n{stage4}"));
        line.len() - line.trim_start().len()
    };
    assert!(depth_of("σ") > depth_of("⋈*"), "{stage4}");
}

/// On the skewed hub workload both queries are written with the hub
/// fan-out joined first; the planner's order holds less join state than
/// the written one, at registration and after hub churn.
#[test]
fn planned_order_holds_less_state_on_hub_skew() {
    let mut net = generate_hub(HubParams::quick());
    let stream = net.update_stream(40);
    for q in [hq::RARE_TOPIC_FANS, hq::RARE_CAT_FANS] {
        let mut engine = GraphEngine::from_graph(net.graph.clone());
        let planned = engine.register_view("planned", q).unwrap();
        let mut twin = unplanned_twin(&net.graph, "unplanned", q);
        let tuples = |engine: &GraphEngine, twin: &Twins| {
            let unplanned = twin.network().view_named("unplanned").unwrap();
            (
                engine.view(planned).unwrap().memory_tuples(),
                unplanned.memory_tuples(),
            )
        };
        let (p, u) = tuples(&engine, &twin);
        assert!(p < u, "{q}: planned {p} vs unplanned {u} tuples");
        for tx in &stream {
            engine.apply(tx).unwrap();
            twin.apply(tx);
        }
        let (p, u) = tuples(&engine, &twin);
        assert!(
            p < u,
            "{q}: after churn, planned {p} vs unplanned {u} tuples"
        );
        assert_eq!(
            engine.view(planned).unwrap().results(),
            twin.results("unplanned")
        );
    }
}
