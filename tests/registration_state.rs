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
//! Node for node they must agree — equal `dump_states_with`, equal
//! arrangements (key set, readers, contents), equal `memory_tuples_of`,
//! equal results ≡ `pgq_eval` — and still agree after a further churn
//! script: a memory loaded wrong only shows on later deltas. During that
//! churn every arrangement is also held, after every step, to the
//! recompute of its producer's sub-plan. Run unplanned (the syntactic plan does not depend on when it
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

type Bag = Vec<(Tuple, i64)>;

fn sorted(bag: &[(Tuple, i64)]) -> Bag {
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

    /// Every arrangement as `(producer fingerprint, key columns, readers,
    /// contents)`, sorted.
    fn arrangements(&self) -> Vec<(u64, Vec<usize>, usize, Bag)> {
        let mut all: Vec<_> = self
            .net
            .arrangement_bags()
            .map(|(plan, keys, readers, bag)| {
                (plan.fingerprint().0, keys.to_vec(), readers, sorted(&bag))
            })
            .collect();
        all.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        all
    }

    /// Every node's dumped bag over `g`, by `(fingerprint, check)`.
    fn dump(&mut self, g: &PropertyGraph) -> BTreeMap<(u64, u64), Vec<(Tuple, i64)>> {
        self.net
            .dump_states_with(g)
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
    let (da, db) = (a.dump(g), b.dump(g));
    assert_eq!(da.len(), a.net.node_count(), "{what}: one bag per node");
    assert_eq!(da, db, "{what}: dumped bags");
    assert_eq!(a.arrangements(), b.arrangements(), "{what}: arrangements");
}

/// Every arrangement holds exactly the recompute of its producer's
/// sub-plan, whatever its key set.
fn audit_arrangements(net: &DataflowNetwork, g: &PropertyGraph, what: &str) -> usize {
    let mut audited = 0;
    for (plan, keys, readers, bag) in net.arrangement_bags() {
        assert!(readers > 0, "{what}: a free arrangement is listed");
        assert_eq!(
            sorted(&bag),
            sorted(&pgq_eval::evaluate_consolidated(plan, g)),
            "{what}: arrangement {keys:?} differs from recompute of\n{plan:#?}"
        );
        audited += 1;
    }
    audited
}

/// Every view root's result bag, read through each view on it, holds
/// exactly the recompute of the root's sub-plan.
fn audit_root_bags(net: &DataflowNetwork, g: &PropertyGraph, what: &str) -> usize {
    let mut audited = 0;
    for (_, plan, sinks) in net.node_plans() {
        if sinks.is_empty() {
            continue;
        }
        let want = sorted(&pgq_eval::evaluate_consolidated(plan, g));
        for &sid in sinks {
            let view = net.view(sid);
            assert_eq!(
                sorted(&view.results()),
                want,
                "{what}: {} differs from the recompute of its root\n{plan:#?}",
                view.name()
            );
        }
        audited += 1;
    }
    audited
}

/// Every node's dumped bag equals the recompute of its sub-plan, and so
/// do every arrangement and every view root's result bag.
fn audit_against_recompute(a: &mut Audited, g: &PropertyGraph, what: &str) -> usize {
    let states = a.net.dump_states_with(g);
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
    audited + audit_arrangements(&a.net, g, what) + audit_root_bags(&a.net, g, what)
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
    let full = late.net.dump_states_with(&g);
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
                audit_arrangements(&late.net, &g, &what("during churn", "late"));
                audit_root_bags(&late.net, &g, &what("during churn", "late"));
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

/// An arrangement lives exactly as long as it has a reader, and holds
/// nothing a net-zero script does not take back: registering a second
/// reader of an existing key set adds no index, a reader of a new key set
/// adds one, dropping the last reader of a key set frees it, and after a
/// script that creates and then deletes a subgraph the network holds what
/// it held before.
#[test]
fn arrangements_follow_their_readers_and_return_to_baseline() {
    let compile = |q: &str| compile_query(&parse_query(q).unwrap()).unwrap().fra;
    let held = |net: &DataflowNetwork| -> usize {
        net.node_summaries().iter().map(|n| n.own_tuples).sum()
    };
    let indexes = |net: &DataflowNetwork| -> Vec<(String, Vec<usize>, usize)> {
        let mut v: Vec<_> = net
            .node_summaries()
            .into_iter()
            .flat_map(|n| {
                n.arrangements
                    .into_iter()
                    .map(move |(keys, _, readers)| (n.label.clone(), keys, readers))
            })
            .collect();
        v.sort();
        v
    };
    let edge = || "⇑(REPLY)".to_string();

    let mut rng = XorShift::new(0x0A0D_1800);
    let mut g = PropertyGraph::new();
    for _ in 0..BUILD_STEPS {
        let tx = next_tx(&mut rng, &g);
        g.apply(&tx).unwrap();
    }
    let unplanned = RegisterOptions {
        plan: false,
        ..RegisterOptions::default()
    };
    let mut net = DataflowNetwork::new();
    // (a)-[]->(b)-[]->(c): the edge scan read on its target and on its
    // source.
    let two_hop = compile("MATCH (a)-[:REPLY]->(b)-[:REPLY]->(c) RETURN a, c");
    let v0 = net.register_with("two_hop", &two_hop, &g, unplanned);
    let one_view = indexes(&net);
    assert_eq!(one_view, vec![(edge(), vec![0], 1), (edge(), vec![2], 1)]);
    let baseline = held(&net);

    // The same join under a filter: a new sink, no new reader.
    let filtered = compile("MATCH (a)-[:REPLY]->(b)-[:REPLY]->(c) WHERE a <> c RETURN a, c");
    let v1 = net.register_with("filtered", &filtered, &g, unplanned);
    assert_eq!(indexes(&net), one_view, "a shared join adds no reader");

    // A closing edge reads the scan on both endpoints, and the two-hop
    // join's output on its two ends: two new indexes.
    let triangle = compile("MATCH (a)-[:REPLY]->(b)-[:REPLY]->(c), (c)-[:REPLY]->(a) RETURN a");
    let v2 = net.register_with("triangle", &triangle, &g, unplanned);
    let with_triangle = indexes(&net);
    assert_eq!(with_triangle.len(), 4, "{with_triangle:?}");
    assert!(with_triangle.contains(&(edge(), vec![0, 2], 1)));
    assert!(held(&net) > baseline);
    audit_arrangements(&net, &g, "three views");

    // Dropping the last reader of a key set frees the index.
    net.drop_sink(v2);
    assert_eq!(indexes(&net), one_view, "the triangle's indexes are gone");
    net.drop_sink(v1);
    assert_eq!(held(&net), baseline, "back to one view's state");

    // A script that nets to zero: grow a reply chain, then delete it.
    let mut grow = Transaction::new();
    let reply = Symbol::intern("REPLY");
    let fresh: Vec<_> = (0..6)
        .map(|_| grow.create_vertex([Symbol::intern("Comm")], Properties::new()))
        .collect();
    for pair in fresh.windows(2) {
        grow.create_edge(pair[0], pair[1], reply, Properties::new());
    }
    let events = g.apply(&grow).unwrap();
    net.on_transaction(&g, &events);
    assert!(held(&net) > baseline, "the chain is indexed");
    let mut shrink = Transaction::new();
    for ev in &events {
        if let pgq_graph::delta::ChangeEvent::VertexAdded { id } = ev {
            shrink.delete_vertex(*id, true);
        }
    }
    let events = g.apply(&shrink).unwrap();
    net.on_transaction(&g, &events);
    assert_eq!(
        held(&net),
        baseline,
        "a net-zero script leaves nothing behind"
    );
    assert_eq!(indexes(&net), one_view);
    net.drop_sink(v0);
    assert_eq!(net.node_count(), 0);
}

/// Two views on every root — the pool registered twice onto a populated
/// graph — read one result bag, which stays the recompute of the root's
/// plan through churn, through dropping either view of each pair (the
/// first for some roots, the second for others), through more churn
/// with one view left, and is gone with the last.
#[test]
fn two_views_per_root_keep_one_exact_bag_through_churn_and_drops() {
    for seed in 0..4 {
        let mut rng = XorShift::new(0x0A0D_1900 + seed);
        let mut g = PropertyGraph::new();
        for _ in 0..BUILD_STEPS {
            let tx = next_tx(&mut rng, &g);
            g.apply(&tx).unwrap();
        }
        let mut net = DataflowNetwork::new();
        let pairs: Vec<[SinkId; 2]> = POOL
            .iter()
            .enumerate()
            .map(|(q, text)| {
                let fra = compile_query(&parse_query(text).unwrap()).unwrap().fra;
                let first = net.register(format!("v{q}"), &fra, &g);
                let nodes = net.node_count();
                let second = net.register(format!("v{q}_twin"), &fra, &g);
                assert_eq!(net.node_count(), nodes, "seed {seed}: {text} twice");
                [first, second]
            })
            .collect();
        let what = |stage: &str| format!("seed {seed}, {stage}");
        let mut churn = |net: &mut DataflowNetwork, g: &mut PropertyGraph, stage: &str| {
            for _ in 0..CHURN_STEPS / 2 {
                let tx = next_tx(&mut rng, g);
                let events = g.apply(&tx).unwrap();
                net.on_transaction(g, &events);
                audit_root_bags(net, g, &what(stage));
            }
        };
        let roots = audit_root_bags(&net, &g, &what("after registration"));
        assert!(roots > POOL.len() / 2, "seed {seed}: only {roots} roots");
        churn(&mut net, &mut g, "two views per root");
        for (q, pair) in pairs.iter().enumerate() {
            net.drop_sink(pair[q % 2]);
        }
        audit_root_bags(&net, &g, &what("after the first drops"));
        churn(&mut net, &mut g, "one view per root");
        for (q, pair) in pairs.iter().enumerate() {
            net.drop_sink(pair[1 - q % 2]);
        }
        assert_eq!(net.node_count(), 0, "seed {seed}: the last drops free all");
    }
}
