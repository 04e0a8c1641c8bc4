//! Differential testing: after ANY sequence of updates, an incrementally
//! maintained view must equal a from-scratch evaluation of the same FRA
//! plan. This is the central correctness property of the whole system —
//! the IVM engine and the baseline evaluator act as mutual oracles. The
//! baseline is itself held to a reference: every from-scratch evaluation
//! here runs both the push evaluator (`pgq_eval`) and the materialising
//! one it replaced (`pgq_eval_reference`) and requires the same bag.

use std::sync::{Arc, Mutex};

use pgq_algebra::pipeline::compile_query;
use pgq_algebra::plan::WcojMode;
use pgq_common::fxhash::FxHashMap;
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_core::ViewDelta;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::{Counters, DataflowNetwork, Delta, NodeSummary, RegisterOptions, SinkId};
use pgq_parser::parse_query;
use proptest::prelude::*;

mod twins;
use twins::{binary, forced, unplanned, Twins};

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

const QUERIES: &[&str] = &[
    "MATCH (p:Post) RETURN p",
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p, p.lang",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
    "MATCH (a)-[:REPLY*1..3]->(b:Comm) RETURN a, b",
    "MATCH (p:Post) RETURN DISTINCT p.lang",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN n",
    "MATCH (a:Comm)<-[:REPLY]-(b) RETURN a, b",
    "MATCH (a)-[:REPLY]-(b:Comm) RETURN a, b",
    "MATCH (p:Post) WHERE NOT exists((p)-[:REPLY]->(:Comm)) RETURN p",
    "MATCH (p:Post) WHERE exists((p)-[:REPLY]->(:Comm {lang: 'en'})) RETURN p",
    // Property pushed from a *label-free* endpoint: routing must deliver
    // prop events for any vertex that can be `c` (regression guard for
    // the per-side endpoint-interest routing).
    "MATCH (p:Post)-[:REPLY]->(c) RETURN p, c.lang",
    // A two-label ©: the `Post` extent holds the vertices the script's
    // `ToggleLabel` has not given `Comm`, which the scan must still drop.
    TWO_LABELS,
    // Every aggregate, with and without `DISTINCT`, over `lang`, ids and
    // the numeric `x`, whose `1` / `1.0` and `0` / `-0.0` are two values
    // each: the views maintain them under deletes and retags.
    ALL_AGGREGATES_BY_LANG,
    ALL_AGGREGATES,
    // The raw `x` column, whose `1` / `1.0` and `0` / `-0.0` rows
    // `total_cmp` ties: a read puts the integer first, whatever order the
    // bag was built in. (Beside `lang` no two rows would tie: a step
    // sets `x` from `lang`.)
    "MATCH (c:Comm) RETURN c.x AS x",
    // An undirected ⋈*: a `REPLY` self-loop (`AddReply` from a vertex to
    // itself) is one hop either way round, read once.
    "MATCH (a:Post)-[:REPLY*1..3]-(b) RETURN a, b",
    // A ⋈* from zero hops, over `REPLY` cycles (`AddReply` closes them):
    // every post is a zero-length path to itself, whatever its edges.
    "MATCH t = (a:Post)-[:REPLY*0..]->(b) RETURN a, b, t",
    // The one query here the planner changes: it carries the σ below the
    // ⋈*, so the planned and the syntactic twin run different networks.
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = 'en' RETURN p, t",
];

/// Every aggregate without `DISTINCT` but `count`, grouped.
const ALL_AGGREGATES_BY_LANG: &str =
    "MATCH (p:Post)-[:REPLY]->(c) RETURN p.lang AS lang, sum(id(c)) AS s, avg(id(c)) AS a, \
     min(id(c)) AS lo, max(c.lang) AS hi, collect(c.lang) AS langs, count(DISTINCT c.lang) AS n, \
     sum(c.x) AS sx, min(c.x) AS lx, max(c.x) AS hx, collect(c.x) AS xs, count(DISTINCT c.x) AS nx";

/// `sum`, `avg` and `collect` with `DISTINCT`, the rest without, in one
/// global group.
const ALL_AGGREGATES: &str =
    "MATCH (c:Comm) RETURN sum(DISTINCT id(c) % 3) AS s, avg(DISTINCT id(c) * 0.5) AS a, \
     min(c.lang) AS lo, max(id(c)) AS hi, collect(DISTINCT c.lang) AS langs, count(c.lang) AS n, \
     avg(c.x) AS ax, sum(DISTINCT c.x) AS sx, collect(DISTINCT c.x) AS xs, count(DISTINCT c.x) AS nx";

/// A two-label © under a σ and a γ.
const TWO_LABELS: &str =
    "MATCH (p:Post:Comm) WHERE p.lang <> 'en' RETURN p.lang AS lang, count(*) AS n";

/// Alpha-renamed twins of [`QUERIES`] (same index order). The multi-view
/// oracle registers both lists on ONE engine: canonicalisation collapses
/// each twin onto its original's operator chain, and the collapse must
/// be observationally invisible — every twin equals a from-scratch
/// evaluation of its own compiled plan.
const RENAMED_QUERIES: &[&str] = &[
    "MATCH (q:Post) RETURN q",
    "MATCH (q:Post) WHERE q.lang = 'en' RETURN q, q.lang",
    "MATCH (q:Post)-[:REPLY]->(d:Comm) RETURN q, d",
    "MATCH (q:Post)-[:REPLY]->(d:Comm) WHERE q.lang = d.lang RETURN q, d",
    "MATCH u = (q:Post)-[:REPLY*]->(d:Comm) WHERE q.lang = d.lang RETURN q, u",
    "MATCH (x)-[:REPLY*1..3]->(y:Comm) RETURN x, y",
    "MATCH (q:Post) RETURN DISTINCT q.lang",
    "MATCH (q:Post) RETURN q.lang AS language, count(*) AS total",
    "MATCH u = (q:Post)-[:REPLY*]->(d:Comm) UNWIND nodes(u) AS m RETURN m",
    "MATCH (x:Comm)<-[:REPLY]-(y) RETURN x, y",
    "MATCH (x)-[:REPLY]-(y:Comm) RETURN x, y",
    "MATCH (q:Post) WHERE NOT exists((q)-[:REPLY]->(:Comm)) RETURN q",
    "MATCH (q:Post) WHERE exists((q)-[:REPLY]->(:Comm {lang: 'en'})) RETURN q",
    "MATCH (q:Post)-[:REPLY]->(d) RETURN q, d.lang",
    "MATCH (q:Post:Comm) WHERE q.lang <> 'en' RETURN q.lang AS language, count(*) AS total",
    "MATCH (q:Post)-[:REPLY]->(d) RETURN q.lang AS language, sum(id(d)) AS total, \
     avg(id(d)) AS mean, min(id(d)) AS least, max(d.lang) AS most, collect(d.lang) AS all, \
     count(DISTINCT d.lang) AS kinds, sum(d.x) AS xtotal, min(d.x) AS xleast, \
     max(d.x) AS xmost, collect(d.x) AS xall, count(DISTINCT d.x) AS xkinds",
    "MATCH (d:Comm) RETURN sum(DISTINCT id(d) % 3) AS total, avg(DISTINCT id(d) * 0.5) AS mean, \
     min(d.lang) AS least, max(id(d)) AS most, collect(DISTINCT d.lang) AS all, \
     count(d.lang) AS kinds, avg(d.x) AS xmean, sum(DISTINCT d.x) AS xtotal, \
     collect(DISTINCT d.x) AS xall, count(DISTINCT d.x) AS xkinds",
    "MATCH (d:Comm) RETURN d.x AS y",
    "MATCH (x:Post)-[:REPLY*1..3]-(y) RETURN x, y",
    "MATCH u = (x:Post)-[:REPLY*0..]->(y) RETURN x, y, u",
    "MATCH u = (q:Post)-[:REPLY*]->(d:Comm) WHERE q.lang = 'en' RETURN q, u",
];

/// Log every view's subscriber callbacks, in delivery order.
fn subscribe_all(e: &mut pgq_core::GraphEngine) -> Arc<Mutex<Vec<ViewDelta>>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let ids: Vec<_> = e.views().map(|(id, _)| id).collect();
    for id in ids {
        let log = Arc::clone(&log);
        e.subscribe(id, move |d| log.lock().unwrap().push(d.clone()))
            .unwrap();
    }
    log
}

/// What the last transaction showed the outside, drained from `log`:
/// the callbacks, the changed sinks, every node's summary and the work
/// counters.
fn observe(
    e: &pgq_core::GraphEngine,
    log: &Mutex<Vec<ViewDelta>>,
) -> (Vec<ViewDelta>, Vec<SinkId>, Vec<NodeSummary>, Counters) {
    (
        std::mem::take(&mut *log.lock().unwrap()),
        e.network().changed_sinks().to_vec(),
        e.network().node_summaries(),
        e.network().counters(),
    )
}

/// What the last pass showed of a network: every changed sink's delta,
/// in `changed_sinks()` order, every node's summary and the counters.
fn observe_network(net: &DataflowNetwork) -> (Vec<(SinkId, Delta)>, Vec<NodeSummary>, Counters) {
    (
        net.changed_sinks()
            .iter()
            .map(|&sid| (sid, net.last_delta(sid).clone()))
            .collect(),
        net.node_summaries(),
        net.counters(),
    )
}

/// Triangles over the oracle's `REPLY` edges: a cyclic view, so the
/// width oracle runs a ⨝ⁿ node and its intersection counters too.
const REPLY_TRIANGLES: &str =
    "MATCH (a)-[:REPLY]->(b)-[:REPLY]->(c), (c)-[:REPLY]->(a) RETURN a, b, c";

/// Transitive `REPLY` triangles: cyclic too, but not the ⨝ⁿ node
/// [`REPLY_TRIANGLES`] builds, so the two can run different backends.
const REPLY_TRANSITIVE: &str =
    "MATCH (a)-[:REPLY]->(b)-[:REPLY]->(c), (a)-[:REPLY]->(c) RETURN a, b, c";

/// One random update step, chosen against the current shadow graph.
#[derive(Clone, Debug)]
enum Step {
    AddPost { lang: usize },
    AddComment { parent: usize, lang: usize },
    AddReply { from: usize, to: usize },
    DeleteVertex { pick: usize },
    DeleteEdge { pick: usize },
    Retag { pick: usize, lang: usize },
    ToggleLabel { pick: usize },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..5usize).prop_map(|lang| Step::AddPost { lang }),
        (any::<usize>(), 0..5usize).prop_map(|(parent, lang)| Step::AddComment { parent, lang }),
        (any::<usize>(), any::<usize>()).prop_map(|(from, to)| Step::AddReply { from, to }),
        any::<usize>().prop_map(|pick| Step::DeleteVertex { pick }),
        any::<usize>().prop_map(|pick| Step::DeleteEdge { pick }),
        (any::<usize>(), 0..5usize).prop_map(|(pick, lang)| Step::Retag { pick, lang }),
        any::<usize>().prop_map(|pick| Step::ToggleLabel { pick }),
    ]
}

const LANGS: &[&str] = &["en", "de", "fr", "hu", "nl"];

/// The numeric `x` a step gives a vertex with `LANGS[lang]`: `1` and
/// `1.0`, `0` and `-0.0` are equal under `=` but two values to `==`,
/// `DISTINCT` and grouping.
fn x_of(lang: usize) -> Value {
    match lang {
        0 => Value::Int(1),
        1 => Value::float(1.0),
        2 => Value::Int(0),
        3 => Value::float(-0.0),
        _ => Value::Int(2),
    }
}

/// The properties a step gives a vertex: its `lang` and its `x`.
fn lang_props(lang: usize) -> Properties {
    Properties::from_iter([("lang", Value::str(LANGS[lang])), ("x", x_of(lang))])
}

fn apply_step(g: &mut PropertyGraph, step: &Step) -> Vec<pgq_graph::delta::ChangeEvent> {
    let tx = step_transaction(g, step);
    g.apply(&tx).expect("generated step applies")
}

/// Render one random step into a transaction against the current graph
/// state (shared by the single-view and multi-view oracles).
fn step_transaction(g: &PropertyGraph, step: &Step) -> Transaction {
    let vertices: Vec<_> = {
        let mut v: Vec<_> = g.vertex_ids().collect();
        v.sort_unstable();
        v
    };
    let edges: Vec<_> = {
        let mut e: Vec<_> = g.edge_ids().collect();
        e.sort_unstable();
        e
    };
    let mut tx = Transaction::new();
    match step {
        Step::AddPost { lang } => {
            tx.create_vertex([s("Post")], lang_props(*lang));
        }
        Step::AddComment { parent, lang } if !vertices.is_empty() => {
            let p = vertices[parent % vertices.len()];
            let c = tx.create_vertex([s("Comm")], lang_props(*lang));
            tx.create_edge(p, c, s("REPLY"), Properties::new());
        }
        Step::AddReply { from, to } if !vertices.is_empty() => {
            let a = vertices[from % vertices.len()];
            let b = vertices[to % vertices.len()];
            tx.create_edge(a, b, s("REPLY"), Properties::new());
        }
        Step::DeleteVertex { pick } if !vertices.is_empty() => {
            tx.delete_vertex(vertices[pick % vertices.len()], true);
        }
        Step::DeleteEdge { pick } if !edges.is_empty() => {
            tx.delete_edge(edges[pick % edges.len()]);
        }
        Step::Retag { pick, lang } if !vertices.is_empty() => {
            let v = vertices[pick % vertices.len()];
            tx.set_vertex_prop(v, s("lang"), Value::str(LANGS[*lang]));
            tx.set_vertex_prop(v, s("x"), x_of(*lang));
        }
        Step::ToggleLabel { pick } if !vertices.is_empty() => {
            let v = vertices[pick % vertices.len()];
            let has = g.vertex(v).map(|d| d.has_label(s("Comm"))).unwrap_or(false);
            if has {
                tx.remove_label(v, s("Comm"));
            } else {
                tx.add_label(v, s("Comm"));
            }
        }
        _ => {}
    }
    tx
}

/// A from-scratch evaluation: the push evaluator, held on every call to
/// the materialising reference it replaced.
fn eval_consolidated(fra: &pgq_algebra::Fra, g: &PropertyGraph) -> Vec<(Tuple, i64)> {
    let got = pgq_eval::evaluate_consolidated(fra, g);
    assert_eq!(
        got,
        pgq_eval_reference::evaluate_consolidated(fra, g),
        "push evaluator differs from the reference on\n{}",
        fra.explain()
    );
    got
}

fn seed_graph() -> PropertyGraph {
    let (g, _) = pgq_workloads::paper_example_graph();
    g
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn view_equals_recompute_after_random_updates(
        steps in proptest::collection::vec(step_strategy(), 1..25),
        query_ix in 0..QUERIES.len(),
    ) {
        let query = QUERIES[query_ix];
        let compiled = compile_query(&parse_query(query).unwrap()).unwrap();
        let mut g = seed_graph();
        prop_assert!(compiled.is_maintainable());
        let mut net = DataflowNetwork::new();
        let view = net.register("diff", &compiled.fra, &g);

        // Initial state must agree.
        prop_assert_eq!(net.view(view).results(), eval_consolidated(&compiled.fra, &g));

        for step in &steps {
            let events = apply_step(&mut g, step);
            net.on_transaction(&g, &events);
            let got = net.view(view).results();
            let want = eval_consolidated(&compiled.fra, &g);
            prop_assert_eq!(
                got, want,
                "divergence after {:?} on query {}", step, query
            );
        }
    }

    /// Planner twins: every oracle query registered TWICE on one network
    /// — once as the engine registers it (the cost-based planner), once
    /// with the planner disabled (the syntactic order) — so the two
    /// plans share whatever nodes they have in common. After every
    /// random update both twins must equal a from-scratch evaluation:
    /// join reordering must be observationally invisible.
    #[test]
    fn planned_and_unplanned_twins_agree(
        steps in proptest::collection::vec(step_strategy(), 1..15),
    ) {
        let mut twins = Twins::new(seed_graph());
        let mut compiled_plans = Vec::new();
        for (i, query) in QUERIES.iter().enumerate() {
            let compiled = compile_query(&parse_query(query).unwrap()).unwrap();
            twins.register(&format!("pl{i}"), query, RegisterOptions::default());
            twins.register(&format!("un{i}"), query, unplanned());
            compiled_plans.push(compiled);
        }
        for step in &steps {
            let tx = step_transaction(twins.graph(), step);
            twins.apply(&tx);
            for (i, compiled) in compiled_plans.iter().enumerate() {
                let want = eval_consolidated(&compiled.fra, twins.graph());
                for prefix in ["pl", "un"] {
                    prop_assert_eq!(
                        twins.results(&format!("{prefix}{i}")),
                        want.clone(),
                        "{} twin diverged after {:?} on query {}", prefix, step, QUERIES[i]
                    );
                }
            }
        }
    }

    /// The width oracle: every oracle query on ONE engine, and the
    /// reference twins — a triangle fused into ⨝ⁿ on the sorted backend,
    /// a transitive triangle on the hash one, the triangle's binary tree
    /// and the syntactic order of the query the planner changes — on ONE
    /// network, the same random update script replayed on both at
    /// propagation widths 1, 2, 4 and 8. The 1-thread engine and network
    /// are checked against from-scratch recomputation, and after every
    /// transaction every wider one must show exactly what its 1-thread
    /// run shows, element for element: the engine's view results,
    /// subscriber callbacks in order (sink order, tuple order inside each
    /// delta), `changed_sinks()`, `node_summaries()` and `counters()`;
    /// the network's results, its changed sinks' deltas and the same
    /// three — the pass's determinism contract.
    #[test]
    fn parallel_widths_agree_with_serial_and_recompute(
        steps in proptest::collection::vec(step_strategy(), 1..10),
    ) {
        const WIDTHS: &[usize] = &[1, 2, 4, 8];
        let mut template = pgq_core::GraphEngine::from_graph(seed_graph());
        let mut compiled_plans = Vec::new();
        for (i, query) in QUERIES.iter().enumerate() {
            let compiled = compile_query(&parse_query(query).unwrap()).unwrap();
            template.register_view(&format!("v{i}"), query).unwrap();
            compiled_plans.push((format!("v{i}"), *query, compiled));
        }
        let mut twin_template = Twins::new(seed_graph());
        let reference_twins = [
            ("ws", REPLY_TRIANGLES, forced(true)),
            ("wh", REPLY_TRANSITIVE, forced(false)),
            ("bi", REPLY_TRIANGLES, binary()),
            ("un", QUERIES[QUERIES.len() - 1], unplanned()),
        ];
        let mut twin_plans = Vec::new();
        for (name, query, options) in reference_twins {
            twin_template.register(name, query, options);
            twin_plans.push((name, query, compile_query(&parse_query(query).unwrap()).unwrap()));
        }
        let labels: Vec<_> = twin_template
            .network()
            .node_summaries()
            .into_iter()
            .map(|n| n.label)
            .collect();
        for backend in [", sorted]", ", hash]"] {
            prop_assert!(
                labels.iter().any(|l| l.starts_with("⨝ⁿ") && l.ends_with(backend)),
                "no ⨝ⁿ{}: {:?}", backend, labels
            );
        }
        let mut engines: Vec<_> = WIDTHS
            .iter()
            .map(|&w| {
                let mut e = template.clone();
                e.set_threads(w);
                e
            })
            .collect();
        let mut nets: Vec<_> =
            WIDTHS.iter().map(|&w| twin_template.clone().with_threads(w)).collect();
        let logs: Vec<_> = engines.iter_mut().map(subscribe_all).collect();
        for step in &steps {
            let tx = step_transaction(engines[0].graph(), step);
            for e in &mut engines {
                e.apply(&tx).expect("generated step applies");
            }
            for net in &mut nets {
                net.apply(&tx);
            }
            let serial = observe(&engines[0], &logs[0]);
            for ((e, log), &w) in engines.iter().zip(&logs).zip(WIDTHS).skip(1) {
                prop_assert_eq!(
                    observe(e, log),
                    serial.clone(),
                    "width {} showed different callbacks, changed sinks, node summaries \
                     or counters than serial after {:?}",
                    w, step
                );
            }
            let serial_net = observe_network(nets[0].network());
            for (net, &w) in nets.iter().zip(WIDTHS).skip(1) {
                prop_assert_eq!(
                    observe_network(net.network()),
                    serial_net.clone(),
                    "twin network at width {} showed different deltas, changed sinks, \
                     node summaries or counters than serial after {:?}",
                    w, step
                );
            }
            for (name, query, compiled) in &compiled_plans {
                let id = engines[0].view_by_name(name).unwrap();
                let serial = engines[0].view(id).unwrap().results();
                prop_assert_eq!(
                    serial.clone(),
                    eval_consolidated(&compiled.fra, engines[0].graph()),
                    "serial engine diverged from recompute after {:?} on query {}",
                    step, query
                );
                for (e, &w) in engines.iter().zip(WIDTHS).skip(1) {
                    let id = e.view_by_name(name).unwrap();
                    prop_assert_eq!(
                        e.view(id).unwrap().results(),
                        serial.clone(),
                        "width {} diverged from serial after {:?} on query {}",
                        w, step, query
                    );
                }
            }
            for (name, query, compiled) in &twin_plans {
                let serial = nets[0].results(name);
                prop_assert_eq!(
                    serial.clone(),
                    eval_consolidated(&compiled.fra, nets[0].graph()),
                    "serial {} twin diverged from recompute after {:?} on query {}",
                    name, step, query
                );
                for (net, &w) in nets.iter().zip(WIDTHS).skip(1) {
                    prop_assert_eq!(
                        net.results(name),
                        serial.clone(),
                        "{} twin at width {} diverged from serial after {:?} on query {}",
                        name, w, step, query
                    );
                }
            }
        }
    }

    /// The batching oracle: the same transaction sequence applied one
    /// by one on one engine and through `apply_batch` — one pass over
    /// every member's events — on another must leave every view
    /// identical (and agreeing with recompute).
    #[test]
    fn apply_batch_matches_sequential_apply(
        steps in proptest::collection::vec(step_strategy(), 1..12),
    ) {
        let mut sequential = pgq_core::GraphEngine::from_graph(seed_graph());
        let mut compiled_plans = Vec::new();
        for (i, query) in QUERIES.iter().enumerate() {
            let compiled = compile_query(&parse_query(query).unwrap()).unwrap();
            sequential.register_view(&format!("v{i}"), query).unwrap();
            compiled_plans.push(compiled);
        }
        let mut batched = sequential.clone();
        // Render each step against the evolving graph (both engines see
        // identical states at every transaction boundary).
        let mut shadow = sequential.graph().clone();
        let mut txs = Vec::new();
        for step in &steps {
            let tx = step_transaction(&shadow, step);
            shadow.apply(&tx).expect("generated step applies");
            txs.push(tx);
        }
        for tx in &txs {
            sequential.apply(tx).expect("sequential apply");
        }
        let summary = batched.apply_batch(&txs).expect("batched apply");
        prop_assert_eq!(summary.transactions, txs.len());
        for (i, compiled) in compiled_plans.iter().enumerate() {
            let name = format!("v{i}");
            let id = batched.view_by_name(&name).unwrap();
            let got = batched.view(id).unwrap().results();
            let sid = sequential.view_by_name(&name).unwrap();
            prop_assert_eq!(
                got.clone(),
                sequential.view(sid).unwrap().results(),
                "batched engine diverged from sequential on query {}", QUERIES[i]
            );
            prop_assert_eq!(
                got,
                eval_consolidated(&compiled.fra, batched.graph()),
                "batched engine diverged from recompute on query {}", QUERIES[i]
            );
        }
    }

    /// The multi-view variant: ALL oracle queries — plus an
    /// alpha-renamed twin of each — registered on ONE engine, served by
    /// the shared dataflow network (canonicalised hash-consed subplans,
    /// targeted routing, pooled deltas). Each twin collapses onto its
    /// original's nodes (zero new operators), and after every random
    /// update every view must equal a from-scratch evaluation — node
    /// sharing must be observationally invisible.
    #[test]
    fn multi_view_shared_network_equals_recompute(
        steps in proptest::collection::vec(step_strategy(), 1..15),
    ) {
        let mut engine = pgq_core::GraphEngine::from_graph(seed_graph());
        let mut compiled_plans = Vec::new();
        for (i, query) in QUERIES.iter().enumerate() {
            let compiled = compile_query(&parse_query(query).unwrap()).unwrap();
            engine.register_view(&format!("v{i}"), query).unwrap();
            compiled_plans.push(compiled);
        }
        // Renamed duplicates: canonicalisation must cons every one of
        // them onto the already-registered chains.
        let nodes_before_twins = engine.network_node_count();
        for (i, query) in RENAMED_QUERIES.iter().enumerate() {
            let compiled = compile_query(&parse_query(query).unwrap()).unwrap();
            engine.register_view(&format!("v{}", QUERIES.len() + i), query).unwrap();
            compiled_plans.push(compiled);
        }
        prop_assert_eq!(
            engine.network_node_count(),
            nodes_before_twins,
            "alpha-renamed twins must add zero operator nodes"
        );
        let all_queries: Vec<&str> = QUERIES.iter().chain(RENAMED_QUERIES).copied().collect();
        // Initial state must agree for every view.
        for (i, compiled) in compiled_plans.iter().enumerate() {
            let id = engine.view_by_name(&format!("v{i}")).unwrap();
            prop_assert_eq!(
                engine.view(id).unwrap().results(),
                eval_consolidated(&compiled.fra, engine.graph()),
                "initial divergence on query {}", all_queries[i]
            );
        }
        for step in &steps {
            let tx = step_transaction(engine.graph(), step);
            engine.apply(&tx).expect("generated step applies");
            for (i, compiled) in compiled_plans.iter().enumerate() {
                let id = engine.view_by_name(&format!("v{i}")).unwrap();
                prop_assert_eq!(
                    engine.view(id).unwrap().results(),
                    eval_consolidated(&compiled.fra, engine.graph()),
                    "multi-view divergence after {:?} on query {}", step, all_queries[i]
                );
            }
        }
    }
}

/// Deletion-heavy script through the borrowed-key join path: build a
/// dense Post→Comm reply fan-out, then tear most of it down edge by edge
/// and vertex by vertex, checking the maintained view against recompute
/// after every transaction. Exercises join-memory removals (bucket
/// drains, swap-removes) far harder than the random walk above.
#[test]
fn deletion_heavy_script_keeps_view_and_recompute_agreeing() {
    let queries = [
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
        "MATCH (p:Post) WHERE NOT exists((p)-[:REPLY]->(:Comm)) RETURN p",
    ];
    for query in queries {
        let compiled = compile_query(&parse_query(query).unwrap()).unwrap();
        let mut g = PropertyGraph::new();

        // 6 posts × 12 comments with shared languages → heavy key fan-out.
        for i in 0..6 {
            let mut tx = Transaction::new();
            tx.create_vertex(
                [s("Post")],
                Properties::from_iter([("lang", Value::str(LANGS[i % 3]))]),
            );
            g.apply(&tx).expect("post applies");
        }
        let posts: Vec<_> = {
            let mut v = g.vertices_with_label(s("Post")).to_vec();
            v.sort_unstable();
            v
        };
        for i in 0..12 {
            let mut tx = Transaction::new();
            let c = tx.create_vertex(
                [s("Comm")],
                Properties::from_iter([("lang", Value::str(LANGS[i % 3]))]),
            );
            for &p in &posts {
                tx.create_edge(p, c, s("REPLY"), Properties::new());
            }
            g.apply(&tx).expect("comment applies");
        }
        let comms: Vec<_> = {
            let mut v = g.vertices_with_label(s("Comm")).to_vec();
            v.sort_unstable();
            v
        };
        let edges: Vec<_> = {
            let mut e: Vec<_> = g.edge_ids().collect();
            e.sort_unstable();
            e
        };

        assert!(compiled.is_maintainable());
        let mut net = DataflowNetwork::new();
        let view = net.register("del", &compiled.fra, &g);
        assert_eq!(
            net.view(view).results(),
            eval_consolidated(&compiled.fra, &g)
        );

        // Phase 1: delete two thirds of the edges one at a time.
        for (i, &e) in edges.iter().enumerate() {
            if i % 3 == 0 {
                continue;
            }
            let mut tx = Transaction::new();
            tx.delete_edge(e);
            let events = g.apply(&tx).expect("edge deletion applies");
            net.on_transaction(&g, &events);
            assert_eq!(
                net.view(view).results(),
                eval_consolidated(&compiled.fra, &g),
                "divergence deleting edge {i} under {query}"
            );
        }

        // Phase 2: delete every comment vertex (detaching remaining
        // edges), then half the posts.
        for &c in &comms {
            let mut tx = Transaction::new();
            tx.delete_vertex(c, true);
            let events = g.apply(&tx).expect("comment deletion applies");
            net.on_transaction(&g, &events);
            assert_eq!(
                net.view(view).results(),
                eval_consolidated(&compiled.fra, &g)
            );
        }
        for &p in posts.iter().step_by(2) {
            let mut tx = Transaction::new();
            tx.delete_vertex(p, true);
            let events = g.apply(&tx).expect("post deletion applies");
            net.on_transaction(&g, &events);
            assert_eq!(
                net.view(view).results(),
                eval_consolidated(&compiled.fra, &g)
            );
        }
        assert!(g.edge_count() == 0, "all edges should be gone");
    }
}

/// Skewed-workload planner oracle: on the hub fan-out graph the
/// cost-based planner provably reorders the join tree (the bench shows
/// a 10–100× gap), so this script drives both orders side by side
/// through hub churn and checks each against recompute after every
/// transaction: the planned view on an engine, its syntactic-order twin
/// on a network.
#[test]
fn planner_reordered_views_stay_correct_under_hub_churn() {
    use pgq_workloads::hub::{generate_hub, queries as hq, HubParams};

    let mut net = generate_hub(HubParams::quick());
    let stream = net.update_stream(40);
    let mut engine = pgq_core::GraphEngine::from_graph(net.graph.clone());
    let mut twins = Twins::new(net.graph.clone());
    let queries = [hq::RARE_TOPIC_FANS, hq::RARE_CAT_FANS];
    let mut compiled = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        engine.register_view(&format!("pl{i}"), q).unwrap();
        twins.register(&format!("un{i}"), q, unplanned());
        compiled.push(compile_query(&parse_query(q).unwrap()).unwrap());
    }
    for (t, tx) in stream.iter().enumerate() {
        engine.apply(tx).expect("stream tx applies");
        twins.apply(tx);
        for (i, c) in compiled.iter().enumerate() {
            let want = eval_consolidated(&c.fra, engine.graph());
            let planned = engine.view_by_name(&format!("pl{i}")).unwrap();
            for (prefix, got) in [
                ("pl", engine.view(planned).unwrap().results()),
                ("un", twins.results(&format!("un{i}"))),
            ] {
                assert_eq!(
                    got, want,
                    "{prefix} twin diverged at tx {t} on {}",
                    queries[i]
                );
            }
        }
    }
}

/// One random step on the motif graph (edges only, plus fresh vertices):
/// the update language of the wcoj differential oracle. `CloseWedge`
/// deliberately completes triangles so the cyclic views keep changing.
#[derive(Clone, Debug)]
enum MotifStep {
    AddNode,
    AddEdge { from: usize, to: usize },
    CloseWedge { pick: usize },
    DeleteEdge { pick: usize },
}

fn motif_step_strategy() -> impl Strategy<Value = MotifStep> {
    prop_oneof![
        Just(MotifStep::AddNode),
        (any::<usize>(), any::<usize>()).prop_map(|(from, to)| MotifStep::AddEdge { from, to }),
        any::<usize>().prop_map(|pick| MotifStep::CloseWedge { pick }),
        any::<usize>().prop_map(|pick| MotifStep::DeleteEdge { pick }),
    ]
}

fn motif_step_transaction(g: &PropertyGraph, step: &MotifStep) -> Transaction {
    let vertices: Vec<_> = {
        let mut v: Vec<_> = g.vertex_ids().collect();
        v.sort_unstable();
        v
    };
    let edges: Vec<_> = {
        let mut e: Vec<_> = g.edge_ids().collect();
        e.sort_unstable();
        e
    };
    let mut tx = Transaction::new();
    match step {
        MotifStep::AddNode => {
            tx.create_vertex([s("N")], Properties::new());
        }
        MotifStep::AddEdge { from, to } if !vertices.is_empty() => {
            let a = vertices[from % vertices.len()];
            let b = vertices[to % vertices.len()];
            tx.create_edge(a, b, s("E"), Properties::new());
        }
        MotifStep::CloseWedge { pick } if !edges.is_empty() => {
            // Close a → b → c into a directed triangle with c → a.
            let e1 = edges[pick % edges.len()];
            let d1 = g.edge(e1).expect("listed edge exists");
            if let Some(&e2) = g.out_edges(d1.dst).first() {
                let c = g.edge(e2).expect("listed edge exists").dst;
                tx.create_edge(c, d1.src, s("E"), Properties::new());
            }
        }
        MotifStep::DeleteEdge { pick } if !edges.is_empty() => {
            tx.delete_edge(edges[pick % edges.len()]);
        }
        _ => {}
    }
    tx
}

/// Cyclic queries for the wcoj oracle: triangles, an alpha-renamed
/// triangle twin, and the four-cycle.
const MOTIF_QUERIES: &[&str] = &[
    pgq_workloads::motifs::queries::TRIANGLES,
    pgq_workloads::motifs::queries::TRIANGLES_RENAMED,
    pgq_workloads::motifs::queries::FOUR_CYCLES,
];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// The wcoj-vs-binary differential: every cyclic motif query
    /// registered THREE ways — as the engine registers it (fused ⨝ⁿ
    /// where the cost gate says so) on an engine, and on a network its
    /// binary join tree (`binary()`) and syntactic order (`unplanned()`)
    /// — then the engine and the network cloned at propagation width 4.
    /// After every random update (including edge deletions, which drive
    /// the n-ary retraction rule) all six variants of each query must
    /// equal a from-scratch evaluation.
    #[test]
    fn wcoj_and_binary_twins_agree_across_widths(
        steps in proptest::collection::vec(motif_step_strategy(), 1..18),
    ) {
        use pgq_workloads::motifs::{generate_motifs, MotifParams};
        let seed = generate_motifs(MotifParams {
            nodes: 12,
            edges: 30,
            tri_bias: 0.4,
            seed: 11,
        });
        let mut serial = pgq_core::GraphEngine::from_graph(seed.graph.clone());
        let mut twins = Twins::new(seed.graph);
        let mut compiled_plans = Vec::new();
        for (i, query) in MOTIF_QUERIES.iter().enumerate() {
            serial.register_view(&format!("wc{i}"), query).unwrap();
            twins.register(&format!("bi{i}"), query, binary());
            twins.register(&format!("un{i}"), query, unplanned());
            compiled_plans.push(compile_query(&parse_query(query).unwrap()).unwrap());
        }
        let mut wide = serial.clone();
        wide.set_threads(4);
        let mut wide_twins = twins.clone().with_threads(4);
        for step in &steps {
            let tx = motif_step_transaction(serial.graph(), step);
            serial.apply(&tx).expect("generated step applies");
            wide.apply(&tx).expect("generated step applies");
            twins.apply(&tx);
            wide_twins.apply(&tx);
            for (i, compiled) in compiled_plans.iter().enumerate() {
                let want = eval_consolidated(&compiled.fra, serial.graph());
                for (engine, net, width) in [(&serial, &twins, 1usize), (&wide, &wide_twins, 4)] {
                    let id = engine.view_by_name(&format!("wc{i}")).unwrap();
                    for (prefix, got) in [
                        ("wc", engine.view(id).unwrap().results()),
                        ("bi", net.results(&format!("bi{i}"))),
                        ("un", net.results(&format!("un{i}"))),
                    ] {
                        prop_assert_eq!(
                            got,
                            want.clone(),
                            "{} twin at width {} diverged after {:?} on query {}",
                            prefix, width, step, MOTIF_QUERIES[i]
                        );
                    }
                }
            }
        }
    }
}

/// Deterministic motif-churn oracle: the shared generator's seeded
/// churn script (inserts with wedge-closing bias plus deletions) driven
/// through every cyclic query as an engine registers it and, on a
/// network, its binary and unplanned twins, with an `apply_batch` engine
/// and network replaying the whole script in one call. The alpha-renamed
/// triangle twin must hash-cons onto the original's ⨝ⁿ node (zero new
/// operators).
#[test]
fn wcoj_views_stay_correct_under_motif_churn() {
    use pgq_workloads::motifs::{generate_motifs, MotifParams};

    let mut net = generate_motifs(MotifParams::quick());
    let script = net.churn(60, 0.3);
    let mut engine = pgq_core::GraphEngine::from_graph(net.graph.clone());
    let mut twins = Twins::new(net.graph.clone());
    let mut compiled = Vec::new();
    for (i, q) in MOTIF_QUERIES.iter().enumerate() {
        engine.register_view(&format!("wc{i}"), q).unwrap();
        twins.register(&format!("bi{i}"), q, binary());
        twins.register(&format!("un{i}"), q, unplanned());
        compiled.push(compile_query(&parse_query(q).unwrap()).unwrap());
    }
    // The renamed twin shares the triangle's fused node: re-registering
    // it under a fresh name must add zero operator nodes.
    let nodes_before = engine.network_node_count();
    engine
        .register_view(
            "tri_twin",
            pgq_workloads::motifs::queries::TRIANGLES_RENAMED,
        )
        .unwrap();
    assert_eq!(
        engine.network_node_count(),
        nodes_before,
        "alpha-renamed triangle twin must hash-cons onto the fused node"
    );
    let (mut batched, mut batched_twins) = (engine.clone(), twins.clone());
    let results = |engine: &pgq_core::GraphEngine, twins: &Twins, i: usize| {
        let id = engine.view_by_name(&format!("wc{i}")).unwrap();
        [
            ("wc", engine.view(id).unwrap().results()),
            ("bi", twins.results(&format!("bi{i}"))),
            ("un", twins.results(&format!("un{i}"))),
        ]
    };
    for (t, tx) in script.iter().enumerate() {
        engine.apply(tx).expect("churn tx applies");
        twins.apply(tx);
        if t % 5 != 0 && t + 1 != script.len() {
            continue;
        }
        for (i, c) in compiled.iter().enumerate() {
            let want = eval_consolidated(&c.fra, engine.graph());
            for (prefix, got) in results(&engine, &twins, i) {
                assert_eq!(
                    got, want,
                    "{prefix} twin diverged at tx {t} on {}",
                    MOTIF_QUERIES[i]
                );
            }
        }
    }
    // Whole script through apply_batch: identical consolidated output.
    batched.apply_batch(&script).expect("batched churn applies");
    batched_twins.apply_batch(&script);
    for (i, query) in MOTIF_QUERIES.iter().enumerate() {
        let (one_by_one, batched) = (
            results(&engine, &twins, i),
            results(&batched, &batched_twins, i),
        );
        for ((prefix, a), (_, b)) in one_by_one.into_iter().zip(batched) {
            assert_eq!(a, b, "apply_batch diverged on {prefix}{i} ({query})");
        }
    }
}

/// Label churn on the endpoints the canonicaliser moved a label onto.
/// The benchmark's three `motif_skew` views lose every `©(N)` to the
/// edge scan's endpoint labels (the closing edge `(c)-[:E]->(a)` gains
/// its target label that way), so `N` coming and going — on a hub, where
/// thousands of wedges hang, and on the vertex a triangle closes at —
/// must reach the views through the scan alone. Planned registrations on
/// an engine, binary and syntactic ones on a network, each serial and at
/// width 4, against a from-scratch
/// evaluation of the *uncanonicalised* compiled plan after every step,
/// with edge churn in between so label and edge deltas meet in the joins.
#[test]
fn motif_views_follow_label_churn_on_hubs_and_closing_vertices() {
    use pgq_workloads::motifs::{generate_skew_motifs, queries, SkewMotifParams};

    let mut seed = generate_skew_motifs(SkewMotifParams {
        vertices: 80,
        edges: 260,
        hub_edges: 16,
        seed: 3,
    });
    let hub = seed.nodes[0];
    let script = seed.churn(24, 0.4);
    let mut serial = pgq_core::GraphEngine::from_graph(seed.graph.clone());
    let mut twins = Twins::new(seed.graph.clone());
    let mut compiled = Vec::new();
    for (i, q) in queries::MOTIF_SKEW.iter().enumerate() {
        serial.register_view(&format!("pl{i}"), q).unwrap();
        twins.register(&format!("bi{i}"), q, binary());
        twins.register(&format!("un{i}"), q, unplanned());
        compiled.push(compile_query(&parse_query(q).unwrap()).unwrap());
    }
    let mut wide = serial.clone();
    wide.set_threads(4);
    let mut wide_twins = twins.clone().with_threads(4);
    type Width<'a> = (&'a pgq_core::GraphEngine, &'a Twins);
    let check = |serial: Width, wide: Width, what: &str| {
        for (i, c) in compiled.iter().enumerate() {
            let want = eval_consolidated(&c.fra, serial.0.graph());
            for ((engine, net), width) in [(serial, 1usize), (wide, 4)] {
                let id = engine.view_by_name(&format!("pl{i}")).unwrap();
                for (prefix, got) in [
                    ("pl", engine.view(id).unwrap().results()),
                    ("bi", net.results(&format!("bi{i}"))),
                    ("un", net.results(&format!("un{i}"))),
                ] {
                    assert_eq!(
                        got, want,
                        "{prefix}{i} at width {width} diverged after {what}"
                    );
                }
            }
        }
    };
    check((&serial, &twins), (&wide, &wide_twins), "registration");
    let triangles = serial.view_by_name("pl0").unwrap();
    assert!(
        !serial.view_results(triangles).unwrap().is_empty(),
        "the seed graph has triangles to break"
    );
    for (t, tx) in script.iter().enumerate() {
        // Where the current first triangle closes: column `a`, the
        // target of its closing edge.
        let closing = match serial.view_results(triangles).unwrap().first() {
            Some(row) => match row.get(0) {
                pgq_common::value::Value::Node(v) => *v,
                other => panic!("triangle column holds {other:?}"),
            },
            None => hub,
        };
        for (who, v) in [("hub", hub), ("closing vertex", closing)] {
            for remove in [true, false] {
                let mut relabel = Transaction::new();
                if remove {
                    relabel.remove_label(v, s("N"));
                } else {
                    relabel.add_label(v, s("N"));
                }
                serial.apply(&relabel).expect("relabel applies");
                wide.apply(&relabel).expect("relabel applies");
                twins.apply(&relabel);
                wide_twins.apply(&relabel);
                let verb = if remove { "removing" } else { "restoring" };
                check(
                    (&serial, &twins),
                    (&wide, &wide_twins),
                    &format!("{verb} N on the {who} at step {t}"),
                );
            }
        }
        serial.apply(tx).expect("churn tx applies");
        wide.apply(tx).expect("churn tx applies");
        twins.apply(tx);
        wide_twins.apply(tx);
        check(
            (&serial, &twins),
            (&wide, &wide_twins),
            &format!("edge churn step {t}"),
        );
    }
}

/// Hub-skewed wcoj oracle: the two-hub galloping workload (segregated
/// id ranges, hub-degree intersections, deletion-heavy churn centred on
/// the bridge edge) driven through every reference twin on one network
/// — forced ⨝ⁿ on the sorted-run backend, forced ⨝ⁿ on the hash-trie
/// backend, binary join tree, and unplanned — each compared
/// against a from-scratch evaluation at every checkpoint. (This is
/// where the hash-trie backend meets hub skew; left to the catalog, the
/// low-skew motif graphs above run hash tries and this one sorted
/// runs.) The hub degree is scaled down from
/// the certified 10k so the binary twin's Θ(Σ deg²) wedge state stays
/// test-sized; the sorted/hash cursor machinery it exercises is
/// degree-independent.
#[test]
fn wcoj_hub_views_stay_correct_under_deletion_heavy_churn() {
    use pgq_workloads::motifs::{generate_hub_motifs, HubMotifParams};

    let mut net = generate_hub_motifs(HubMotifParams {
        spokes: 150,
        closers: 6,
        seed: 11,
    });
    let script = net.churn(60);
    let mut twins = Twins::new(net.graph.clone());
    let hub_queries = [
        pgq_workloads::motifs::queries::TRIANGLES,
        pgq_workloads::motifs::queries::FOUR_CYCLES,
    ];
    let mut compiled = Vec::new();
    for (i, q) in hub_queries.iter().enumerate() {
        twins.register(&format!("ws{i}"), q, forced(true));
        twins.register(&format!("wh{i}"), q, forced(false));
        twins.register(&format!("bi{i}"), q, binary());
        twins.register(&format!("un{i}"), q, unplanned());
        compiled.push(compile_query(&parse_query(q).unwrap()).unwrap());
    }
    for (t, tx) in script.iter().enumerate() {
        twins.apply(tx);
        if t % 10 != 0 && t + 1 != script.len() {
            continue;
        }
        for (i, c) in compiled.iter().enumerate() {
            let want = eval_consolidated(&c.fra, twins.graph());
            for prefix in ["ws", "wh", "bi", "un"] {
                assert_eq!(
                    twins.results(&format!("{prefix}{i}")),
                    want,
                    "{prefix} twin diverged at tx {t} on {}",
                    hub_queries[i]
                );
            }
        }
    }
}

#[test]
fn multiplicities_match_for_fanout_joins() {
    // Bag semantics: two parallel REPLY edges double the row.
    let mut g = PropertyGraph::new();
    let (a, _) = g.add_vertex(
        [s("Post")],
        Properties::from_iter([("lang", Value::str("en"))]),
    );
    let (b, _) = g.add_vertex(
        [s("Comm")],
        Properties::from_iter([("lang", Value::str("en"))]),
    );
    g.add_edge(a, b, s("REPLY"), Properties::new()).unwrap();
    g.add_edge(a, b, s("REPLY"), Properties::new()).unwrap();

    let compiled =
        compile_query(&parse_query("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c").unwrap())
            .unwrap();
    assert!(compiled.is_maintainable());
    let mut net = DataflowNetwork::new();
    let view = net.register("m", &compiled.fra, &g);
    let mut counts: FxHashMap<Tuple, i64> = FxHashMap::default();
    for (t, m) in net.view(view).results() {
        *counts.entry(t).or_insert(0) += m;
    }
    assert_eq!(counts.len(), 1);
    assert_eq!(*counts.values().next().unwrap(), 2);
    assert_eq!(
        net.view(view).results(),
        eval_consolidated(&compiled.fra, &g)
    );
}

// ---- recovery oracle -------------------------------------------------------
//
// Durability must be observationally invisible: after ANY random script,
// an engine recovered from its WAL + snapshot must hold exactly the
// views a never-crashed engine holds, and both must equal a
// from-scratch evaluation over the recovered graph. The crash here is a
// logical one (the engine is dropped without a final snapshot, so the
// WAL tail carries the recent transactions); byte-level torn-write
// crashes are swept separately by `tests/durability_crash.rs`.

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    #[test]
    fn recovered_engine_equals_survivor_and_recompute(
        steps in proptest::collection::vec(step_strategy(), 1..25),
        snapshot_every in 0u64..6,
    ) {
        use pgq_core::GraphEngine;
        use pgq_durability::MemDisk;
        use std::sync::Arc;

        let disk = MemDisk::new();
        let mut durable = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
        durable.set_snapshot_every(snapshot_every);
        let mut survivor = GraphEngine::new();

        // A spread of view flavors: join, var-length path, aggregate,
        // negation — registered identically on both engines.
        let flavors: &[usize] = &[2, 4, 7, 11];
        let mut compiled = Vec::new();
        for &qi in flavors {
            let q = QUERIES[qi];
            compiled.push((format!("v{qi}"), compile_query(&parse_query(q).unwrap()).unwrap()));
            durable.register_view(&format!("v{qi}"), q).unwrap();
            survivor.register_view(&format!("v{qi}"), q).unwrap();
        }
        // Fixed prelude so the random tail has something to mutate,
        // then the random script — every transaction through both
        // engines.
        let prelude = [
            Step::AddPost { lang: 0 },
            Step::AddPost { lang: 1 },
            Step::AddComment { parent: 0, lang: 0 },
            Step::AddComment { parent: 1, lang: 1 },
            Step::AddReply { from: 0, to: 3 },
        ];
        for step in prelude.iter().chain(&steps) {
            let tx = step_transaction(durable.graph(), step);
            durable.apply(&tx).unwrap();
            survivor.apply(&tx).unwrap();
        }

        // "Crash": drop the durable engine with no goodbye snapshot;
        // recover from the bytes on disk.
        drop(durable);
        let recovered = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();

        for (name, plan) in &compiled {
            let rid = recovered.view_by_name(name).expect("view survives recovery");
            let sid = survivor.view_by_name(name).unwrap();
            let got = recovered.view(rid).unwrap().results();
            prop_assert_eq!(
                &got,
                &survivor.view(sid).unwrap().results(),
                "recovered view {} diverged from the never-crashed engine", name
            );
            prop_assert_eq!(
                &got,
                &eval_consolidated(&plan.fra, recovered.graph()),
                "recovered view {} diverged from recompute", name
            );
        }
        // Equal rows are not enough: the recovered network must run the
        // operators the never-crashed one runs.
        let labels = |e: &GraphEngine| {
            let mut labels: Vec<String> =
                e.network().node_summaries().into_iter().map(|n| n.label).collect();
            labels.sort();
            labels
        };
        prop_assert_eq!(
            labels(&recovered),
            labels(&survivor),
            "the recovered network runs different operators"
        );
        // Continued operation after recovery: one more transaction must
        // maintain, not corrupt.
        let mut recovered = recovered;
        let tx = step_transaction(recovered.graph(), &Step::AddPost { lang: 2 });
        recovered.apply(&tx).unwrap();
        let tx2 = step_transaction(survivor.graph(), &Step::AddPost { lang: 2 });
        survivor.apply(&tx2).unwrap();
        for (name, plan) in &compiled {
            let rid = recovered.view_by_name(name).unwrap();
            prop_assert_eq!(
                recovered.view(rid).unwrap().results(),
                eval_consolidated(&plan.fra, recovered.graph()),
                "post-recovery maintenance diverged on {}", name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Narrowing ≡ scanning
// ---------------------------------------------------------------------------
//
// The one-shot path plans a statement and seeks property indexes. All
// of that must be observationally invisible: `engine.query(text)` on a graph whose indexes were built
// *before* the script — so every mutator, a label add/remove, a
// property set-to-null, a vertex delete and a commit that faulted and
// was rolled back have all maintained them — equals a from-scratch
// evaluation of the *unplanned* FRA on a twin graph that never had an
// index. Afterwards every index equals one rebuilt from scratch.

/// Keyed statements over the oracle's graph: `7` against a stored `7.0`
/// and back, `null`, a string key, a label-less pattern (no index:
/// scan), `id` indexed under two labels, a seek under a join in every
/// direction, a cross product of two seeks, a var-length expansion.
const KEYED_QUERIES: &[&str] = &[
    "MATCH (p:Post {id: 7}) RETURN p, p.id",
    "MATCH (p:Post {id: 7.0}) RETURN p, p.id",
    "MATCH (p:Post {id: null}) RETURN p",
    "MATCH (p:Post {id: '7'}) RETURN p",
    "MATCH (n {id: 7}) RETURN n",
    "MATCH (c:Comm {id: 7}) RETURN c, c.lang",
    "MATCH (p:Post) WHERE p.id = 8 AND p.lang = 'en' RETURN p",
    "MATCH (p:Post {lang: 'en'})-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (c:Comm {id: 7})<-[:REPLY]-(p) RETURN p, c",
    "MATCH (a:Comm {id: 8})-[:REPLY]-(b) RETURN a, b",
    "MATCH (a:Post {id: 7})-[:REPLY]->(b)-[:REPLY]->(c:Comm) RETURN count(*) AS reach",
    "MATCH (a:Post {id: 7}), (b:Comm {id: 7}) RETURN a, b",
    "MATCH (p:Post {id: 7})-[:REPLY*1..2]->(c) RETURN c",
    "MATCH (p:Post {id: 7}) WHERE NOT exists((p)-[:REPLY]->(:Comm)) RETURN p",
];

/// The oracle's steps plus a key write, so `id` values move between
/// `7`, `7.0`, `'7'`, `8` and absent while the indexes stand.
#[derive(Clone, Debug)]
enum KeyedStep {
    Base(Step),
    SetId { pick: usize, value: usize },
}

fn keyed_step_strategy() -> impl Strategy<Value = KeyedStep> {
    prop_oneof![
        step_strategy().prop_map(KeyedStep::Base),
        (any::<usize>(), 0..5usize).prop_map(|(pick, value)| KeyedStep::SetId { pick, value }),
    ]
}

fn keyed_step_transaction(g: &PropertyGraph, step: &KeyedStep) -> Transaction {
    match step {
        KeyedStep::Base(step) => step_transaction(g, step),
        KeyedStep::SetId { pick, value } => {
            let mut vertices: Vec<_> = g.vertex_ids().collect();
            vertices.sort_unstable();
            let mut tx = Transaction::new();
            if !vertices.is_empty() {
                let value = [
                    Value::Int(7),
                    Value::float(7.0),
                    Value::str("7"),
                    Value::Int(8),
                    Value::Null,
                ][*value]
                    .clone();
                tx.set_vertex_prop(vertices[pick % vertices.len()], s("id"), value);
            }
            tx
        }
    }
}

/// A consolidated bag as the sorted row list `GraphEngine::query` returns.
fn expanded(bag: Vec<(Tuple, i64)>) -> Vec<Tuple> {
    bag.into_iter()
        .flat_map(|(t, m)| std::iter::repeat_n(t, m.max(0) as usize))
        .collect()
}

/// A property index recomputed from the vertices, in `prop_index_dump` form.
fn rebuilt_index(
    g: &PropertyGraph,
    label: Symbol,
    key: Symbol,
) -> Vec<(Value, Vec<pgq_common::ids::VertexId>)> {
    let mut by_key: Vec<(Value, Vec<_>)> = Vec::new();
    for (id, data) in g.vertices() {
        if !data.has_label(label) {
            continue;
        }
        let Some(k) = data.props.get(key).and_then(pgq_graph::index::prop_key) else {
            continue;
        };
        match by_key.iter_mut().find(|(have, _)| *have == k) {
            Some((_, ids)) => ids.push(id),
            None => by_key.push((k, vec![id])),
        }
    }
    for (_, ids) in &mut by_key {
        ids.sort_unstable();
    }
    by_key.sort_by(|a, b| a.0.total_cmp(&b.0));
    by_key
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    #[test]
    fn narrowed_one_shot_equals_unplanned_scan(
        steps in proptest::collection::vec(keyed_step_strategy(), 1..25),
        fault_pick in any::<usize>(),
    ) {
        use pgq_core::GraphEngine;
        use pgq_durability::{Fault, MemDisk};
        use std::sync::Arc;

        // A durable engine whose disk fails one commit of the random
        // script (one disk operation per commit at this cadence): that
        // commit is refused and rolled back through the same mutators
        // that maintain the indexes.
        let opening_ops = {
            let probe = MemDisk::new();
            drop(GraphEngine::open_durable_with(Arc::new(probe.vfs())).unwrap());
            probe.ops_attempted()
        };
        let disk = MemDisk::new();
        const PRELUDE: u64 = 7;
        let fault_at = opening_ops + PRELUDE + (fault_pick % steps.len()) as u64;
        let vfs = disk.vfs_with_fault(fault_at, Fault::Eio);
        let mut engine = GraphEngine::open_durable_with(Arc::new(vfs)).unwrap();
        engine.set_snapshot_every(0);
        // The twin: same committed transactions, never an index.
        let mut plain = PropertyGraph::new();

        let corpus: Vec<(&str, pgq_algebra::Fra)> = QUERIES
            .iter()
            .chain(KEYED_QUERIES)
            .map(|q| (*q, compile_query(&parse_query(q).unwrap()).unwrap().fra))
            .collect();

        let prelude = [
            Step::AddPost { lang: 0 },
            Step::AddPost { lang: 1 },
            Step::AddComment { parent: 0, lang: 0 },
            Step::AddComment { parent: 1, lang: 1 },
            Step::AddReply { from: 0, to: 3 },
        ]
        .map(KeyedStep::Base)
        .into_iter()
        .chain([
            KeyedStep::SetId { pick: 0, value: 1 }, // a stored 7.0
            KeyedStep::SetId { pick: 2, value: 0 }, // 7 under the other label
        ]);
        let mut faulted = 0;
        let mut first = true;
        for step in prelude.chain(steps.iter().cloned()) {
            let tx = keyed_step_transaction(engine.graph(), &step);
            match engine.apply(&tx) {
                Ok(_) => {
                    plain.apply(&tx).expect("the twin applies what the engine committed");
                }
                Err(e) => {
                    faulted += 1;
                    prop_assert!(
                        matches!(e, pgq_core::EngineError::Durability(_)),
                        "only the injected fault may refuse a step: {:?}", e
                    );
                }
            }
            if first {
                // Build the indexes now, from a non-empty extent, so the
                // rest of the script runs against standing indexes.
                for (q, _) in &corpus {
                    engine.execute(q).unwrap();
                }
                let built = engine.property_indexes();
                for want in [("Post", "id"), ("Comm", "id"), ("Post", "lang")] {
                    prop_assert!(
                        built.iter().any(|(l, k, _)| (l.as_str(), k.as_str()) == want),
                        "index {:?} not built: {:?}", want, built
                    );
                }
                first = false;
            }
            for (q, fra) in &corpus {
                prop_assert_eq!(
                    engine.query(q).unwrap().rows,
                    expanded(eval_consolidated(fra, &plain)),
                    "narrowed evaluation diverged after {:?} on {}", step, q
                );
            }
        }
        prop_assert_eq!(faulted, 1, "the injected fault must land inside the script");
        for (label, key, _) in engine.graph().prop_indexes() {
            prop_assert_eq!(
                engine.graph().prop_index_dump(label, key),
                rebuilt_index(engine.graph(), label, key),
                "index {}.{} drifted from a rebuild", label, key
            );
        }
    }
}

// ---- property-carrying © folded into ⇑ ------------------------------------
//
// Canonicalisation folds `©(v:L {k}) ⋈[v] P` into the ⇑ endpoint of `P`
// that binds `v`: `L` joins its labels, `k` its pushed properties. The
// fold must be observationally invisible under every change that reaches
// the endpoint — a SET or REMOVE of the pushed property, `L` coming and
// going, DETACH DELETE — so each view is held, after every step, to a
// from-scratch evaluation of its *uncanonicalised* compiled plan, at
// propagation widths 1 and 4, planned and in the syntactic order.

/// Cypher views whose ©s push properties — on the source, on the target
/// and on both ends (a second `MATCH` makes a © bind first; written
/// order joins it through a cross product, so only the planned
/// registration folds), in a `Both`-direction pattern, on a self-loop
/// (joined on two keys: never folded), the © the planner joins last
/// (`view_churn`'s cold view), under γ, and with a one-sided `WHERE`
/// (the planner puts it on the ©, which then stays) — and whether the
/// `[planned, syntactic]` registrations must have folded every ©.
const FOLD_QUERIES: &[(&str, [bool; 2])] = &[
    (
        "MATCH (a:Person)-[:KNOWS]->(b) WHERE a.country = 'x' OR b.country = 'y' RETURN a, b",
        [true, true],
    ),
    (
        "MATCH (b:Person) MATCH (a)-[:KNOWS]->(b) WHERE b.country = 'y' OR a.country = 'x' RETURN a, b",
        [true, false],
    ),
    (
        "MATCH (b:Person) MATCH (a:Person)-[:KNOWS]->(b) WHERE a.country = b.country RETURN a, b",
        [true, false],
    ),
    (
        "MATCH (a:Person)-[:KNOWS]-(b:Person) WHERE a.country <> b.country RETURN a, b",
        [true, true],
    ),
    ("MATCH (a:Person)-[:KNOWS]->(a) WHERE a.country = 'x' RETURN a", [false, false]),
    (
        "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE a.country = c.country RETURN a, c",
        [true, true],
    ),
    ("MATCH (a:Person)-[:KNOWS]->(b) RETURN a.country AS country, count(*) AS n", [true, true]),
    ("MATCH (a:Person)-[:KNOWS]->(b) WHERE a.country = 'x' RETURN a, b", [false, true]),
];

/// Hand-built plans: `⇑ ⋈[b] ©(b:Person {country})` on the scan's target
/// in written order, and `⇑[(a:Person {country})-[:KNOWS]->(b)] ⋈[a]
/// ©(a:Person {country})` with views over it — a property both the ©
/// and the ⇑ push is one scan column read twice, under a π, a further ⋈
/// and an ω.
fn hand_built_fold_plans() -> Vec<(String, pgq_algebra::Fra)> {
    use pgq_algebra::expr::ScalarExpr;
    use pgq_algebra::fra::{Fra, PropPush};
    let country = |col: &str| PropPush {
        prop: s("country"),
        col: col.into(),
    };
    let knows = |src: &str, dst: &str, src_props: Vec<PropPush>| Fra::ScanEdges {
        src: src.into(),
        edge: format!("{src}{dst}"),
        dst: dst.into(),
        types: vec![s("KNOWS")],
        src_labels: vec![s("Person")],
        dst_labels: vec![],
        src_props,
        edge_props: vec![],
        dst_props: vec![],
        dir: pgq_common::dir::Direction::Out,
    };
    // Columns: a, ab, b, a.country (⇑), a.country (©).
    let doubled = || Fra::HashJoin {
        left: Box::new(knows("a", "b", vec![country("a.c1")])),
        right: Box::new(Fra::ScanVertices {
            var: "a".into(),
            labels: vec![s("Person")],
            props: vec![country("a.c2")],
        }),
        left_keys: vec![0],
        right_keys: vec![0],
        value_keys: vec![],
    };
    // Columns: a, ab, b, a.c1, a.c2, bc, c.
    let two_hop = Fra::HashJoin {
        left: Box::new(doubled()),
        right: Box::new(knows("b", "c", vec![])),
        left_keys: vec![2],
        right_keys: vec![0],
        value_keys: vec![],
    };
    let item = |c: usize, n: &str| (ScalarExpr::Col(c), n.to_string());
    // Columns: a, ab, b, b.country.
    let on_target = Fra::HashJoin {
        left: Box::new(knows("a", "b", vec![])),
        right: Box::new(Fra::ScanVertices {
            var: "b".into(),
            labels: vec![s("Person")],
            props: vec![country("b.country")],
        }),
        left_keys: vec![2],
        right_keys: vec![0],
        value_keys: vec![],
    };
    vec![
        ("target".into(), on_target),
        ("twice".into(), doubled()),
        (
            "twice_hop".into(),
            Fra::Project {
                input: Box::new(two_hop),
                items: vec![item(6, "c"), item(4, "k2"), item(0, "a"), item(3, "k1")],
            },
        ),
        (
            "twice_unwound".into(),
            Fra::Unwind {
                input: Box::new(doubled()),
                expr: ScalarExpr::List(vec![ScalarExpr::Col(4), ScalarExpr::Col(3)]),
                alias: "k".into(),
            },
        ),
    ]
}

#[test]
fn folded_property_scans_follow_property_label_and_delete_churn() {
    use pgq_common::pool::WorkerPool;
    use pgq_ivm::DataflowNetwork;

    let mut views: Vec<(String, pgq_algebra::Fra)> = FOLD_QUERIES
        .iter()
        .enumerate()
        .map(|(i, (q, _))| {
            let fra = compile_query(&parse_query(q).unwrap()).unwrap().fra;
            (format!("q{i}"), fra)
        })
        .collect();
    let cypher_views = views.len();
    views.extend(hand_built_fold_plans());
    let countries = ["x", "y", "z"];
    let person = |tx: &mut Transaction, i: usize| {
        tx.create_vertex(
            [s("Person")],
            Properties::from_iter([("country", Value::str(countries[i % 3]))]),
        )
    };

    for seed in [5u64, 17, 29] {
        let mut rng = 0x2545_F491_4F6C_DD1Du64 ^ seed;
        let mut next = |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n.max(1) as u64) as usize
        };
        let mut g = PropertyGraph::new();
        let mut tx = Transaction::new();
        let ps: Vec<_> = (0..12).map(|i| person(&mut tx, i)).collect();
        for i in 0..ps.len() {
            for step in [1, 2, 5] {
                tx.create_edge(
                    ps[i],
                    ps[(i + step) % ps.len()],
                    s("KNOWS"),
                    Properties::new(),
                );
            }
        }
        tx.create_edge(ps[3], ps[3], s("KNOWS"), Properties::new());
        g.apply(&tx).unwrap();

        // Width 1 and 4, each with every view planned and unplanned.
        let pool = WorkerPool::new(4);
        let mut nets = [DataflowNetwork::new(), DataflowNetwork::new()];
        for net in &mut nets {
            for (name, fra) in &views {
                net.register(format!("{name}_pl"), fra, &g);
                net.register_with(format!("{name}_un"), fra, &g, unplanned());
            }
        }
        // Every © the rule covers is folded away; the hand-built plans'
        // in both orders.
        let expected = FOLD_QUERIES.iter().map(|(q, folds)| (*q, *folds)).chain(
            views[cypher_views..]
                .iter()
                .map(|(n, _)| (n.as_str(), [true, true])),
        );
        for ((what, [planned, syntactic]), (_, fra)) in expected.zip(&views) {
            for (options, folds) in [
                (RegisterOptions::default(), planned),
                (unplanned(), syntactic),
            ] {
                let mut alone = DataflowNetwork::new();
                alone.register_with("alone", fra, &g, options);
                let kept = alone
                    .node_summaries()
                    .iter()
                    .any(|n| n.label.starts_with('©'));
                assert_eq!(!kept, folds, "{what} (planned: {})", options.plan);
            }
        }

        let check = |nets: &[DataflowNetwork; 2], g: &PropertyGraph, what: &str| {
            for (name, fra) in &views {
                let want = eval_consolidated(fra, g);
                for (net, width) in nets.iter().zip([1, 4]) {
                    for suffix in ["pl", "un"] {
                        let view = net.view_named(&format!("{name}_{suffix}")).unwrap();
                        assert_eq!(
                            view.results(),
                            want,
                            "seed {seed}: {name}_{suffix} at width {width} after {what}"
                        );
                    }
                }
            }
        };
        check(&nets, &g, "registration");
        for step in 0..90 {
            let mut ids: Vec<_> = g.vertex_ids().collect();
            ids.sort_unstable();
            let mut edges: Vec<_> = g.edge_ids().collect();
            edges.sort_unstable();
            let pick = |n: usize, next: &mut dyn FnMut(usize) -> usize| ids[next(n)];
            let mut tx = Transaction::new();
            let what = match (next(8), ids.is_empty()) {
                (_, true) | (0, _) => {
                    let v = person(&mut tx, next(3));
                    if !ids.is_empty() {
                        tx.create_edge(
                            v,
                            pick(ids.len(), &mut next),
                            s("KNOWS"),
                            Properties::new(),
                        );
                    }
                    "a new person"
                }
                (1, _) => {
                    let (a, b) = (pick(ids.len(), &mut next), pick(ids.len(), &mut next));
                    // Now and then the same vertex: a self-loop.
                    let b = if next(4) == 0 { a } else { b };
                    tx.create_edge(a, b, s("KNOWS"), Properties::new());
                    "a new edge"
                }
                (2, _) if !edges.is_empty() => {
                    tx.delete_edge(edges[next(edges.len())]);
                    "an edge delete"
                }
                (3, _) => {
                    let c = countries[next(3)];
                    tx.set_vertex_prop(pick(ids.len(), &mut next), s("country"), Value::str(c));
                    "SET country"
                }
                (4, _) => {
                    tx.set_vertex_prop(pick(ids.len(), &mut next), s("country"), Value::Null);
                    "REMOVE country"
                }
                (5, _) | (2, _) => {
                    let v = pick(ids.len(), &mut next);
                    if g.vertex(v).is_some_and(|d| d.has_label(s("Person"))) {
                        tx.remove_label(v, s("Person"));
                        "label removed"
                    } else {
                        tx.add_label(v, s("Person"));
                        "label added"
                    }
                }
                _ => {
                    tx.delete_vertex(pick(ids.len(), &mut next), true);
                    "DETACH DELETE"
                }
            };
            let events = g.apply(&tx).unwrap();
            nets[0].on_transaction(&g, &events);
            nets[1].on_transaction_with(&g, &events, Some(&pool));
            check(&nets, &g, &format!("step {step} ({what})"));
        }
    }
}

// ---- push evaluator ≡ materialising reference -------------------------------
//
// `pgq_eval` pushes rows from each scan to the first operator that holds
// rows; `pgq_eval_reference` builds a bag per operator. The two must
// give the same bag — rows in the same order — for every plan: as
// written, as the one-shot planner orders it (binary joins), and with
// every cyclic region fused into a ⨝ⁿ. The push evaluator scans no more
// rows than the reference, and exactly as many wherever the plan has no
// ⋉ or ⨝ⁿ (those build their right sides lazily, so an empty left skips
// them; the reference scans them anyway) and no join that can expand
// (that one reads its right side from its left side's key vertices when
// that reads less). Bags are compared in order, sorted only where a join
// may have expanded, since a left row's matches then come in adjacency
// order.

/// Reads beyond the view oracle's: the `REPLY` motifs and a directed
/// 3-path count (every aggregate is in [`QUERIES`]).
const ONE_SHOT_QUERIES: &[&str] = &[
    REPLY_TRIANGLES,
    REPLY_TRANSITIVE,
    "MATCH (a)-[:REPLY]->(b)-[:REPLY]->(c)-[:REPLY]->(d)-[:REPLY]->(a) RETURN a, b, c, d",
    "MATCH (a)-[:REPLY]->(b)-[:REPLY]->(c)-[:REPLY]->(d) RETURN count(*) AS paths",
    "MATCH (a)-[:REPLY]->(b) RETURN DISTINCT a.lang AS lang",
];

/// Reads whose `ORDER BY` / `SKIP` / `LIMIT` only `run_rows` applies.
const ORDERED_QUERIES: &[&str] = &[
    "MATCH (p:Post)-[:REPLY]->(c) RETURN p.lang AS lang, c ORDER BY lang DESC SKIP 1 LIMIT 3",
    "MATCH (c:Comm) RETURN c.lang AS lang, count(*) AS n ORDER BY n DESC, lang LIMIT 2",
    // Sort keys that tie an integer with an equal float (`1` / `1.0`,
    // `0` / `-0.0`): the result order decides between those rows.
    "MATCH (c:Comm) RETURN c.x AS x ORDER BY x DESC SKIP 1",
];

/// Does `fra` hold a ⋉ or a ⨝ⁿ, whose right sides the push evaluator
/// may skip?
fn builds_lazily(fra: &pgq_algebra::Fra) -> bool {
    fra.explain().lines().any(|l| {
        let op = l.trim_start();
        op.starts_with('⋉') || op.starts_with('▷') || op.starts_with('⨝')
    })
}

/// Does `fra` hold a join that can read its right side from its left
/// side's key vertices over `g` (EXPLAIN's `← expand` mark)?
fn can_expand(fra: &pgq_algebra::Fra, g: &PropertyGraph) -> bool {
    pgq_eval::explain(fra, g).contains("← expand")
}

/// May the push evaluator, having read `push` rows of `fra` where the
/// reference read `reference`, have expanded a join? An expansion reads
/// fewer rows than building, and without a ⋉ or ⨝ⁿ nothing else reads
/// fewer than the reference; so where such a plan reads as many rows,
/// no join expanded and its bag must come in the reference's order.
fn may_have_expanded(fra: &pgq_algebra::Fra, g: &PropertyGraph, push: u64, reference: u64) -> bool {
    can_expand(fra, g) && (builds_lazily(fra) || push < reference)
}

/// `bag` in `Tuple::total_cmp` order.
fn sorted(mut bag: pgq_eval::Bag) -> pgq_eval::Bag {
    bag.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    bag
}

/// The push evaluator and the reference agree on `query` over `g`.
fn push_equals_reference(query: &str, g: &PropertyGraph) -> Result<(), TestCaseError> {
    use pgq_algebra::plan::{plan_with, PlanOptions};
    let cq = compile_query(&parse_query(query).unwrap()).unwrap();
    let stats = pgq_ivm::plan_stats(g);
    let planned = [WcojMode::Disabled, WcojMode::Forced]
        .map(|wcoj| plan_with(&cq.fra, &stats, &PlanOptions { wcoj }).fra);
    for fra in std::iter::once(&cq.fra).chain(&planned) {
        let mut push = pgq_eval::Evaluator::new(g);
        let mut reference = pgq_eval_reference::Evaluator::new(g);
        let (got, want) = (push.run(fra), reference.run(fra));
        let (got, want) = if may_have_expanded(fra, g, push.rows_scanned, reference.rows_scanned) {
            (sorted(got), sorted(want))
        } else {
            (got, want)
        };
        prop_assert_eq!(got, want, "bags differ on {}:\n{}", query, fra.explain());
        if builds_lazily(fra) || can_expand(fra, g) {
            prop_assert!(push.rows_scanned <= reference.rows_scanned);
        } else {
            prop_assert_eq!(push.rows_scanned, reference.rows_scanned, "{}", query);
        }
        prop_assert_eq!(
            pgq_eval::evaluate_consolidated(fra, g),
            pgq_eval_reference::evaluate_consolidated(fra, g)
        );
    }
    let mut push = pgq_eval::Evaluator::new(g);
    let mut reference = pgq_eval_reference::Evaluator::new(g);
    prop_assert_eq!(push.run_query(&cq), reference.run_query(&cq), "{}", query);
    if builds_lazily(&cq.fra) || can_expand(&cq.fra, g) {
        prop_assert!(push.rows_scanned <= reference.rows_scanned);
    } else {
        prop_assert_eq!(push.rows_scanned, reference.rows_scanned);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// After every step of a random script on the oracle's graph, and of
    /// one on a motif graph, every oracle query agrees.
    #[test]
    fn push_evaluator_equals_reference_after_every_step(
        steps in proptest::collection::vec(step_strategy(), 1..20),
        motif_steps in proptest::collection::vec(motif_step_strategy(), 1..12),
    ) {
        use pgq_workloads::motifs::{generate_motifs, queries, MotifParams};
        let oracle: Vec<&str> = QUERIES
            .iter()
            .chain(RENAMED_QUERIES)
            .chain(ONE_SHOT_QUERIES)
            .chain(ORDERED_QUERIES)
            .copied()
            .collect();
        let mut g = seed_graph();
        for step in &steps {
            apply_step(&mut g, step);
            for query in &oracle {
                push_equals_reference(query, &g)?;
            }
        }
        let motifs = [
            queries::TRIANGLES,
            queries::FOUR_CYCLES,
            queries::WEDGE_COUNT,
            "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(d:N) RETURN count(*) AS paths",
        ];
        let mut g = generate_motifs(MotifParams {
            nodes: 12,
            edges: 30,
            tri_bias: 0.4,
            seed: 11,
        })
        .graph;
        for step in &motif_steps {
            let tx = motif_step_transaction(&g, step);
            g.apply(&tx).expect("generated step applies");
            for query in motifs {
                push_equals_reference(query, &g)?;
            }
        }
    }
}

/// `n` persons keyed `id = 0..n`, person `i` knowing `i+1 .. i+4`
/// (mod `n`): the graph of `tests/oneshot_work_bound.rs`.
fn keyed_ring(n: usize) -> pgq_core::GraphEngine {
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
        for d in 1..=4 {
            g.add_edge(ids[i], ids[(i + d) % n], s("KNOWS"), Properties::new())
                .unwrap();
        }
    }
    pgq_core::GraphEngine::from_graph(g)
}

/// The keyed two-hop read of `tests/oneshot_work_bound.rs`.
const TWO_HOP: &str = "MATCH (a:Person {id: 17})-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) \
                       RETURN count(*) AS reach";

/// `query`'s one-shot plan over `g`: planned with binary joins.
fn one_shot_plan(query: &str, g: &PropertyGraph) -> pgq_algebra::Fra {
    use pgq_algebra::plan::{plan_with, PlanOptions};
    let cq = compile_query(&parse_query(query).unwrap()).unwrap();
    let options = PlanOptions {
        wcoj: WcojMode::Disabled,
    };
    plan_with(&cq.fra, &pgq_ivm::plan_stats(g), &options).fra
}

/// The keyed statements of `tests/oneshot_work_bound.rs` (their reading
/// parts, and the two-hop read from an anchor that exists and from one
/// that does not) give the reference's rows and scan what it scans, row
/// for row — or, where a join expands from its anchor, no more — and
/// `execute` reports that count.
#[test]
fn keyed_reads_scan_what_the_reference_scans() {
    let mut e = keyed_ring(500);
    let statements = [
        "MATCH (p:Person {id: 5}) RETURN p",
        "MATCH (p:Person {id: 9}) RETURN p",
        "MATCH (p:Person {id: 23}) RETURN p",
        "MATCH (p:Person) WHERE p.score = 5 AND p.id >= 5 RETURN p.id",
        TWO_HOP,
        &TWO_HOP.replace("17", "-1"),
        "MATCH (a:Person {id: -1})-[:KNOWS]->(b:Person) RETURN a, b",
    ];
    for query in statements {
        let executed = e.execute(query).unwrap();
        let g = e.graph();
        let fra = one_shot_plan(query, g);
        let mut push = pgq_eval::Evaluator::new(g);
        let mut reference = pgq_eval_reference::Evaluator::new(g);
        let (got, want) = (push.run(&fra), reference.run(&fra));
        if may_have_expanded(&fra, g, push.rows_scanned, reference.rows_scanned) {
            assert_eq!(sorted(got), sorted(want), "{query}");
        } else {
            assert_eq!(got, want, "{query}");
        }
        if can_expand(&fra, g) {
            assert!(push.rows_scanned <= reference.rows_scanned, "{query}");
        } else {
            assert_eq!(push.rows_scanned, reference.rows_scanned, "{query}");
        }
        assert_eq!(executed.rows_scanned, push.rows_scanned, "{query}");
    }
    let two_hop = e.execute(TWO_HOP).unwrap();
    assert_eq!(
        two_hop.rows_scanned,
        1 + 4 + 16,
        "the anchor and its two hops"
    );
    assert!(
        !e.property_indexes().is_empty(),
        "the keyed statements seek"
    );
}

/// Without a key, the two-hop's first join meets every `KNOWS` edge
/// before it could have expanded for less, so both joins build and read
/// exactly what the reference reads: the rule falls back to building.
/// Undirected, expanding every `Person` would read each edge from both
/// ends — twice the extent — so there the fall-back is what keeps the
/// count equal.
#[test]
fn unkeyed_two_hop_builds_and_scans_what_the_reference_scans() {
    let e = keyed_ring(500);
    let g = e.graph();
    for unkeyed in [
        "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) RETURN count(*) AS walks",
        "MATCH (a:Person)-[:KNOWS]-(b:Person)-[:KNOWS]-(c:Person) RETURN count(*) AS walks",
    ] {
        let fra = one_shot_plan(unkeyed, g);
        assert!(can_expand(&fra, g), "{}", pgq_eval::explain(&fra, g));
        let mut push = pgq_eval::Evaluator::new(g);
        let mut reference = pgq_eval_reference::Evaluator::new(g);
        assert_eq!(push.run(&fra), reference.run(&fra), "{unkeyed}");
        assert_eq!(push.rows_scanned, reference.rows_scanned, "{unkeyed}");
        assert_eq!(e.query(unkeyed).unwrap().rows_scanned, push.rows_scanned);
    }
}

/// Two-label scans with a σ and a γ, registered over extents that hold
/// vertices without the other label, while a script adds and removes
/// their second label. A © that tests only the labels its extent does
/// not guarantee must still drop those vertices. At registration and
/// after every step the push evaluator equals the reference (bag, order,
/// `rows_scanned`) and both maintained views.
#[test]
fn two_label_scans_follow_churn_of_their_second_label() {
    let queries = [
        TWO_LABELS,
        "MATCH (c:Comm:Post) WHERE c.lang <> 'hu' RETURN c.lang AS lang, count(*) AS n",
    ];
    let (post, comm) = (s("Post"), s("Comm"));
    let mut e = pgq_core::GraphEngine::from_graph(seed_graph());
    let mut tx = Transaction::new();
    for (i, lang) in LANGS.iter().enumerate() {
        let lang = Properties::from_iter([("lang", Value::str(lang))]);
        let labels = match i % 3 {
            0 => vec![post, comm],
            1 => vec![post],
            _ => vec![comm],
        };
        tx.create_vertex(labels, lang);
    }
    e.apply(&tx).unwrap();
    let views = queries.map(|q| e.register_view(q, q).unwrap());
    let plans = queries.map(|q| compile_query(&parse_query(q).unwrap()).unwrap().fra);
    // Checks at which the `Post` extent held vertices with and without `Comm`.
    let mut mixed = 0;
    for step in 0..=30usize {
        let g = e.graph();
        let with_comm = |v: &pgq_common::ids::VertexId| g.vertex(*v).unwrap().has_label(comm);
        let extent = g.vertices_with_label(post);
        if extent.iter().any(with_comm) && !extent.iter().all(with_comm) {
            mixed += 1;
        }
        for ((query, fra), view) in queries.iter().zip(&plans).zip(views) {
            push_equals_reference(query, g).unwrap();
            assert_eq!(
                e.view(view).unwrap().results(),
                eval_consolidated(fra, g),
                "{query} before step {step}"
            );
        }
        if step == 30 {
            break;
        }
        let mut ids: Vec<_> = g.vertex_ids().collect();
        ids.sort_unstable();
        let v = ids[step * 7 % ids.len()];
        let data = g.vertex(v).unwrap();
        let mut tx = Transaction::new();
        match step % 5 {
            // Give or take the label the other one's extent does not hold.
            0..=2 => {
                let second = if data.has_label(post) { comm } else { post };
                if data.has_label(second) {
                    tx.remove_label(v, second);
                } else {
                    tx.add_label(v, second);
                }
            }
            3 => {
                let labels: &[Symbol] = if step % 2 == 0 {
                    &[post, comm]
                } else {
                    &[post]
                };
                let lang = Value::str(LANGS[step % LANGS.len()]);
                tx.create_vertex(
                    labels.iter().copied(),
                    Properties::from_iter([("lang", lang)]),
                );
            }
            _ => {
                tx.set_vertex_prop(v, s("lang"), Value::str(LANGS[step % LANGS.len()]));
            }
        }
        e.apply(&tx).unwrap();
    }
    assert!(
        mixed >= 25,
        "the Post extent mixed both kinds at only {mixed} checks"
    );
}

/// An integer `sum` is exact in both evaluators and in the maintained
/// view: one outside `i64` reads `null`, `avg` divides the exact sum, and
/// the view's accumulator is reversible — after `MAX`, `+1` and `-1` it
/// reads `MAX` again. After every step the view equals both evaluators.
#[test]
fn integer_sums_are_exact_in_every_evaluator_and_the_view() {
    use pgq_common::value::Value as V;
    const SUMS: &str =
        "MATCH (n:N) RETURN sum(n.x) AS s, avg(n.x) AS a, sum(DISTINCT n.x) AS ds, count(*) AS c";
    let mut e = pgq_core::GraphEngine::new();
    let view = e.register_view("sums", SUMS).unwrap();
    let cq = compile_query(&parse_query(SUMS).unwrap()).unwrap();
    let max = i64::MAX;
    let read = |e: &pgq_core::GraphEngine| {
        let rows = e.query(SUMS).unwrap().rows;
        assert_eq!(rows, pgq_eval_reference::evaluate_query(&cq, e.graph()));
        assert_eq!(
            e.view(view).unwrap().results(),
            eval_consolidated(&cq.fra, e.graph())
        );
        rows[0].values().to_vec()
    };
    e.execute(&format!("CREATE (:N {{x: {max}}})")).unwrap();
    let big = V::float(max as f64);
    assert_eq!(read(&e), [V::Int(max), big.clone(), V::Int(max), V::Int(1)]);
    e.execute("CREATE (:N {x: 1})").unwrap();
    let over = V::float((max as f64 + 1.0) / 2.0);
    assert_eq!(read(&e), [V::Null, over, V::Null, V::Int(2)]);
    e.execute("MATCH (n:N {x: 1}) DELETE n").unwrap();
    assert_eq!(read(&e), [V::Int(max), big, V::Int(max), V::Int(1)]);
    e.execute(&format!("CREATE (:N {{x: {max}}})")).unwrap();
    assert_eq!(
        read(&e),
        [V::Null, V::float(max as f64), V::Int(max), V::Int(2)]
    );
    e.execute(&format!("CREATE (:N {{x: -{max}}}), (:N {{x: -{max}}})"))
        .unwrap();
    assert_eq!(read(&e), [V::Int(0), V::float(0.0), V::Int(0), V::Int(4)]);
}
