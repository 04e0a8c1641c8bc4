//! Registration state audit: a view attached to a *populated* graph must
//! end up with exactly the operator state it would have had, had it been
//! registered on the empty graph and watched the same graph arrive as
//! transactions.
//!
//! Three networks per seeded script, over the bare layers:
//!
//! * **early** — views registered on the empty graph, every transaction
//!   propagated (state built by delta maintenance alone);
//! * **late** — the same views registered after the script, onto the
//!   populated graph (state built by the one-pass loader): cold roots,
//!   shared roots (a query registered twice) and partial shares (the
//!   `WHERE` family over one join) all occur in the pool;
//! * **warm** — registered through `register_with_restore` from the late
//!   network's dump with a random subset of bags removed, so every mix of
//!   snapshot hit and miss goes through the same loader.
//!
//! Node for node they must agree — equal `dump_states`, equal
//! `memory_tuples_of`, equal results ≡ `pgq_eval` — and still agree after
//! a further churn script: a memory loaded wrong only shows on later
//! deltas. Run unplanned (the syntactic plan does not depend on when it
//! was made) and planned with ⨝ⁿ fusion forced, where the early network
//! registers the plans the late one chose, so that loader is compared
//! node for node too.

mod durability_script;

use std::collections::BTreeMap;

use durability_script::{random_tx, XorShift};
use pgq_algebra::compile_query;
use pgq_algebra::fra::Fra;
use pgq_algebra::plan::WcojMode;
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::{DataflowNetwork, RegisterOptions, RestoreStates, SinkId};
use pgq_parser::parse_query;

/// The pool of `tests/snapshot_tick.rs`: every operator-state shape.
const POOL: &[&str] = &[
    "MATCH (p:Post) RETURN p",
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p, p.lang",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang = 'de' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang = 'fr' OR p.lang = 'en' RETURN c",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
    "MATCH (a)-[:REPLY*1..3]->(b:Comm) RETURN a, b",
    "MATCH (p:Post) RETURN DISTINCT p.lang",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN n",
    "MATCH (a:Comm)<-[:REPLY]-(b) RETURN a, b",
    "MATCH (a)-[:REPLY]-(b:Comm) RETURN a, b",
    "MATCH (p:Post) WHERE NOT exists((p)-[:REPLY]->(:Comm)) RETURN p",
    "MATCH (p:Post) WHERE exists((p)-[:REPLY]->(:Comm {lang: 'en'})) RETURN p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm)-[:REPLY]->(d:Comm) RETURN p, d",
    "MATCH (a)-[:REPLY]->(b)-[:REPLY]->(c), (a)-[:REPLY]->(c) RETURN a, b, c",
];

const SEEDS: u64 = 12;
const BUILD_STEPS: usize = 120;
const CHURN_STEPS: usize = 100;

fn sorted(bag: &[(Tuple, i64)]) -> Vec<(Tuple, i64)> {
    let mut v = bag.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    v
}

/// Adds, deletes, relabels, plus the cross edges (reply chains, the
/// occasional cycle) that tree-shaped adds never make.
fn next_tx(rng: &mut XorShift, g: &PropertyGraph) -> Transaction {
    if rng.below(5) == 0 && g.vertex_count() >= 2 {
        let mut ids: Vec<_> = g.vertex_ids().collect();
        ids.sort_unstable();
        let mut tx = Transaction::new();
        tx.create_edge(
            ids[rng.below(ids.len())],
            ids[rng.below(ids.len())],
            Symbol::intern("REPLY"),
            Properties::new(),
        );
        tx
    } else {
        random_tx(rng, g)
    }
}

/// A network and the sinks of the views registered on it, in order.
struct Audited {
    net: DataflowNetwork,
    sinks: Vec<SinkId>,
}

impl Audited {
    fn register(
        views: &[(String, Fra)],
        g: &PropertyGraph,
        options: RegisterOptions,
        states: Option<&RestoreStates>,
    ) -> Audited {
        let mut net = DataflowNetwork::new();
        let sinks = views
            .iter()
            .map(|(name, fra)| match states {
                Some(s) => net.register_with_restore(name.as_str(), fra, g, options, s),
                None => net.register_with(name.as_str(), fra, g, options),
            })
            .collect();
        Audited { net, sinks }
    }

    /// Every node's dumped bag, by `(fingerprint, check)`.
    fn dump(&mut self) -> BTreeMap<(u64, u64), Vec<(Tuple, i64)>> {
        self.net
            .dump_states()
            .iter()
            .map(|(fp, check, bag)| ((fp, check), sorted(bag)))
            .collect()
    }
}

/// Node for node: results agree with each other and with recomputation,
/// and so do every node's bag and every view's memory size.
fn assert_same(
    a: &mut Audited,
    b: &mut Audited,
    views: &[(String, Fra)],
    g: &PropertyGraph,
    what: &str,
) {
    for (i, (name, fra)) in views.iter().enumerate() {
        let (ra, rb) = (a.net.view(a.sinks[i]), b.net.view(b.sinks[i]));
        assert_eq!(ra.results(), rb.results(), "{what}: results of {name}");
        assert_eq!(
            sorted(&ra.results()),
            sorted(&pgq_eval::evaluate_consolidated(fra, g)),
            "{what}: {name} differs from recompute"
        );
        assert_eq!(
            ra.memory_tuples(),
            rb.memory_tuples(),
            "{what}: memory of {name}"
        );
    }
    assert_eq!(a.net.node_count(), b.net.node_count(), "{what}: nodes");
    let (da, db) = (a.dump(), b.dump());
    assert_eq!(da.len(), a.net.node_count(), "{what}: one bag per node");
    assert_eq!(da, db, "{what}: dumped bags");
}

/// Every node's dumped bag equals the recompute of its sub-plan.
fn audit_against_recompute(a: &mut Audited, g: &PropertyGraph, what: &str) -> usize {
    let states = a.net.dump_states();
    let mut audited = 0;
    for (fp, plan, _) in a.net.node_plans() {
        let bag = states
            .lookup(fp, plan.snapshot_check().0)
            .unwrap_or_else(|| panic!("{what}: no entry for\n{plan:#?}"));
        assert_eq!(
            sorted(bag),
            sorted(&pgq_eval::evaluate_consolidated(plan, g)),
            "{what}: bag differs from recompute of\n{plan:#?}"
        );
        audited += 1;
    }
    audited
}

/// `options` are the late registration's. The early network must run the
/// *same plan* to be comparable node for node: an unplanned plan does not
/// depend on when it was made, a planned one follows the statistics at
/// registration time — so for planned runs the early network registers,
/// unplanned, the canonical root plans the late network chose.
fn run(seed: u64, options: RegisterOptions) -> usize {
    let mut rng = XorShift::new(0x0A0D_1700 + seed);
    // A random subset of the pool; a quarter of the picks are registered
    // twice, so the second registration finds its root already feeding a
    // view.
    let mut views: Vec<(String, Fra)> = Vec::new();
    for (q, text) in POOL.iter().enumerate() {
        if rng.below(3) == 0 {
            continue;
        }
        let fra = compile_query(&parse_query(text).unwrap()).unwrap().fra;
        views.push((format!("v{q}"), fra.clone()));
        if rng.below(4) == 0 {
            views.push((format!("v{q}_again"), fra));
        }
    }

    let mut g = PropertyGraph::new();
    let mut script: Vec<Transaction> = Vec::new();
    for _ in 0..BUILD_STEPS {
        let tx = next_tx(&mut rng, &g);
        g.apply(&tx).unwrap();
        script.push(tx);
    }

    let mut late = Audited::register(&views, &g, options, None);
    let full = late.net.dump_states();
    let mut partial = RestoreStates::new();
    for (fp, check, bag) in full.iter() {
        if rng.below(2) == 0 {
            partial.insert(fp, check, bag.to_vec());
        }
    }
    let mut warm = Audited::register(&views, &g, options, Some(&partial));

    let unplanned = RegisterOptions {
        plan: false,
        ..options
    };
    let early_views: Vec<(String, Fra)> = if options.plan {
        let roots: Vec<(Fra, Vec<SinkId>)> = late
            .net
            .node_plans()
            .map(|(_, plan, sinks)| (plan.clone(), sinks.to_vec()))
            .collect();
        views
            .iter()
            .zip(&late.sinks)
            .map(|((name, _), sid)| {
                let (plan, _) = roots.iter().find(|(_, s)| s.contains(sid)).unwrap();
                (name.clone(), plan.clone())
            })
            .collect()
    } else {
        views.clone()
    };
    let mut early_g = PropertyGraph::new();
    let mut early = Audited::register(&early_views, &early_g, unplanned, None);
    for tx in &script {
        let events = early_g.apply(tx).unwrap();
        early.net.on_transaction(&early_g, &events);
    }

    let what = |stage: &str, pair: &str| format!("seed {seed}, {stage}, {pair}");
    let mut audited = 0;
    for stage in ["after registration", "after churn"] {
        assert_same(
            &mut early,
            &mut late,
            &views,
            &g,
            &what(stage, "early vs late"),
        );
        assert_same(
            &mut late,
            &mut warm,
            &views,
            &g,
            &what(stage, "late vs warm"),
        );
        audited += audit_against_recompute(&mut late, &g, &what(stage, "late"));
        if stage == "after registration" {
            for _ in 0..CHURN_STEPS {
                let tx = next_tx(&mut rng, &g);
                let events = early_g.apply(&tx).unwrap();
                early.net.on_transaction(&early_g, &events);
                let events = g.apply(&tx).unwrap();
                for a in [&mut late, &mut warm] {
                    a.net.on_transaction(&g, &events);
                }
            }
        }
    }
    audited
}

#[test]
fn late_registration_equals_early_registration_node_for_node() {
    let unplanned = RegisterOptions {
        plan: false,
        ..RegisterOptions::default()
    };
    let audited: usize = (0..SEEDS).map(|seed| run(seed, unplanned)).sum();
    assert!(audited > 200, "only {audited} node bags audited");
}

#[test]
fn planned_late_registration_equals_early_registration_of_the_same_plan() {
    let forced = RegisterOptions {
        wcoj: WcojMode::Forced,
        ..RegisterOptions::default()
    };
    let audited: usize = (0..SEEDS).map(|seed| run(seed, forced)).sum();
    assert!(audited > 200, "only {audited} node bags audited");
}
