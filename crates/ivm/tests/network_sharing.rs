//! Shared-network behaviour: hash-consed node sharing across views,
//! refcounted teardown on drop, re-share on re-register, and targeted
//! event routing (a transaction touching only label `A` delivers zero
//! events to scans over label `B`).

use pgq_algebra::fra::{Fra, PropPush};
use pgq_common::intern::Symbol;
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;
use pgq_ivm::DataflowNetwork;

fn s(x: &str) -> Symbol {
    Symbol::intern(x)
}

fn scan(var: &str, label: &str) -> Fra {
    Fra::ScanVertices {
        var: var.into(),
        labels: vec![s(label)],
        props: vec![],
        carry_map: false,
    }
}

/// `©(var:label +map)`: carrying the property map keeps the scan a
/// relation of its own (a © that only filters labels or pushes
/// properties, joined to an edge scan, is folded into the scan's
/// endpoint by canonicalisation).
fn keyed_scan(var: &str, label: &str) -> Fra {
    Fra::ScanVertices {
        var: var.into(),
        labels: vec![s(label)],
        props: vec![],
        carry_map: true,
    }
}

/// The paper-example shape: ⇑[(a)-[:R]->(b)] ⋈ ©(a:A +map) (already in
/// canonical operand order, so no tail π restores the columns).
fn join_plan() -> Fra {
    edge_join("a", "e", "b")
}

fn edge_join(src: &str, edge: &str, dst: &str) -> Fra {
    Fra::HashJoin {
        left: Box::new(Fra::ScanEdges {
            src: src.into(),
            edge: edge.into(),
            dst: dst.into(),
            types: vec![s("R")],
            src_labels: vec![],
            dst_labels: vec![],
            src_props: vec![],
            edge_props: vec![],
            dst_props: vec![],
            dir: pgq_common::dir::Direction::Out,
            carry_maps: (false, false, false),
        }),
        right: Box::new(keyed_scan(src, "A")),
        left_keys: vec![0],
        right_keys: vec![0],
    }
}

#[test]
fn identical_views_share_one_operator_chain() {
    let g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    let plan = join_plan();
    net.register("v0", &plan, &g);
    let nodes_after_first = net.node_count();
    assert_eq!(nodes_after_first, 3, "scan + scan + join");
    for i in 1..8 {
        net.register(format!("v{i}"), &plan, &g);
    }
    assert_eq!(
        net.node_count(),
        nodes_after_first,
        "8 identical views must share one chain, not instantiate 8"
    );
    assert_eq!(net.sink_count(), 8);
    // The root join reports all 8 sinks as consumers.
    let summaries = net.node_summaries();
    let join = summaries.iter().find(|n| n.label == "⋈").unwrap();
    assert_eq!(join.consumers, 8);
}

#[test]
fn overlapping_views_share_the_common_prefix() {
    let g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    net.register("base", &join_plan(), &g);
    let base_nodes = net.node_count();
    // A distinct view over the same join: only the δ node is new.
    let distinct = Fra::Distinct {
        input: Box::new(join_plan()),
    };
    net.register("d", &distinct, &g);
    assert_eq!(net.node_count(), base_nodes + 1, "only δ is new");
}

#[test]
fn shared_chain_maintains_all_views() {
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    let plan = join_plan();
    let a = net.register("v0", &plan, &g);
    let b = net.register("v1", &plan, &g);

    let mut tx = Transaction::new();
    let va = tx.create_vertex([s("A")], Properties::new());
    let vb = tx.create_vertex([s("B")], Properties::new());
    tx.create_edge(va, vb, s("R"), Properties::new());
    let events = g.apply(&tx).unwrap();
    net.on_transaction(&g, &events);

    assert!(net.sink_changed(a) && net.sink_changed(b));
    assert_eq!(net.view(a).row_count(), 1);
    assert_eq!(net.view(b).row_count(), 1);
    assert_eq!(net.view(a).results(), net.view(b).results());
}

/// A view counts the maintenance rounds since *its own* registration
/// — empty rounds and rounds that leave it unchanged included.
#[test]
fn maintenance_count_starts_at_registration() {
    fn round(g: &mut PropertyGraph, net: &mut DataflowNetwork, label: &str) {
        let mut tx = Transaction::new();
        tx.create_vertex([s(label)], Properties::new());
        let events = g.apply(&tx).unwrap();
        net.on_transaction(g, &events);
    }
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    let first = net.register("first", &scan("a", "A"), &g);
    round(&mut g, &mut net, "A");
    round(&mut g, &mut net, "B");
    net.on_transaction(&g, &[]);
    assert_eq!(net.view(first).maintenance_count(), 3);

    let second = net.register("second", &scan("b", "B"), &g);
    assert_eq!(net.view(second).maintenance_count(), 0);
    round(&mut g, &mut net, "A");
    round(&mut g, &mut net, "B");
    assert_eq!(net.view(first).maintenance_count(), 5);
    assert_eq!(net.view(second).maintenance_count(), 2);
    assert_eq!(net.view(second).row_count(), 2);
}

#[test]
fn drop_releases_nodes_only_when_last_view_is_gone() {
    let g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    let plan = join_plan();
    let v0 = net.register("v0", &plan, &g);
    let v1 = net.register("v1", &plan, &g);
    // A third view sharing only the vertex scan.
    let filtered = Fra::Distinct {
        input: Box::new(keyed_scan("a", "A")),
    };
    let v2 = net.register("v2", &filtered, &g);
    assert_eq!(net.node_count(), 4, "2 scans + join + δ");

    // Dropping one of the two identical views frees nothing.
    net.drop_sink(v0);
    assert_eq!(net.node_count(), 4, "v1 still references the chain");

    // Dropping the second frees the join and edge scan, but NOT the
    // vertex scan (v2 still reads it).
    net.drop_sink(v1);
    assert_eq!(net.node_count(), 2, "©(A) + δ survive for v2");

    net.drop_sink(v2);
    assert_eq!(net.node_count(), 0, "last view gone, network empty");
}

#[test]
fn reregistering_an_identical_query_reshares() {
    let mut g = PropertyGraph::new();
    let mut tx = Transaction::new();
    let va = tx.create_vertex([s("A")], Properties::new());
    let vb = tx.create_vertex([s("B")], Properties::new());
    tx.create_edge(va, vb, s("R"), Properties::new());
    g.apply(&tx).unwrap();

    let mut net = DataflowNetwork::new();
    let plan = join_plan();
    let keeper = net.register("keeper", &plan, &g);
    let victim = net.register("victim", &plan, &g);
    assert_eq!(net.node_count(), 3);
    net.drop_sink(victim);
    assert_eq!(net.node_count(), 3);

    // Re-register: must re-share (node count unchanged) and come up
    // with the populated state immediately.
    let again = net.register("again", &plan, &g);
    assert_eq!(net.node_count(), 3, "re-registration re-shares");
    assert_eq!(net.view(again).row_count(), 1);
    assert_eq!(net.view(again).results(), net.view(keeper).results());
}

#[test]
fn events_route_only_to_scans_that_can_match() {
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    net.register("as", &scan("a", "A"), &g);
    net.register("bs", &scan("b", "B"), &g);

    // A transaction touching only label A.
    let mut tx = Transaction::new();
    tx.create_vertex([s("A")], Properties::new());
    let events = g.apply(&tx).unwrap();
    net.on_transaction(&g, &events);

    let summaries = net.node_summaries();
    let a_scan = summaries.iter().find(|n| n.label == "©(A)").unwrap();
    let b_scan = summaries.iter().find(|n| n.label == "©(B)").unwrap();
    assert_eq!(a_scan.delivered_events, 1, "A scan sees the A event");
    assert_eq!(
        b_scan.delivered_events, 0,
        "a transaction touching only label A must deliver zero events to scans over label B"
    );
}

#[test]
fn prop_events_route_by_key_interest() {
    let mut g = PropertyGraph::new();
    let (v, _) = g.add_vertex([s("A")], Properties::new());

    let mut net = DataflowNetwork::new();
    // One scan pushes `lang`, the other pushes nothing.
    let with_prop = Fra::ScanVertices {
        var: "a".into(),
        labels: vec![s("A")],
        props: vec![PropPush {
            prop: s("lang"),
            col: "a.lang".into(),
        }],
        carry_map: false,
    };
    net.register("plain", &scan("a", "A"), &g);
    net.register("lang", &with_prop, &g);

    let ev = g
        .set_vertex_prop(v, s("lang"), pgq_common::value::Value::str("en"))
        .unwrap();
    net.on_transaction(&g, &[ev]);

    let summaries = net.node_summaries();
    let plain = summaries
        .iter()
        .find(|n| n.label == "©(A)" && n.delivered_events == 0);
    let lang = summaries.iter().find(|n| n.delivered_events == 1);
    assert!(
        plain.is_some(),
        "the prop-insensitive scan must not see the prop event: {summaries:?}"
    );
    assert!(
        lang.is_some(),
        "the lang-pushing scan must see the prop event: {summaries:?}"
    );
    assert_eq!(net.view_named("lang").unwrap().row_count(), 1);
}

#[test]
fn edge_events_route_by_type() {
    let mut g = PropertyGraph::new();
    let edge_scan = |ty: &str| Fra::ScanEdges {
        src: "a".into(),
        edge: "e".into(),
        dst: "b".into(),
        types: vec![s(ty)],
        src_labels: vec![],
        dst_labels: vec![],
        src_props: vec![],
        edge_props: vec![],
        dst_props: vec![],
        dir: pgq_common::dir::Direction::Out,
        carry_maps: (false, false, false),
    };
    let mut net = DataflowNetwork::new();
    net.register("knows", &edge_scan("KNOWS"), &g);
    net.register("likes", &edge_scan("LIKES"), &g);

    let mut tx = Transaction::new();
    let a = tx.create_vertex([s("P")], Properties::new());
    let b = tx.create_vertex([s("P")], Properties::new());
    tx.create_edge(a, b, s("KNOWS"), Properties::new());
    let events = g.apply(&tx).unwrap();
    net.on_transaction(&g, &events);

    let summaries = net.node_summaries();
    let knows = summaries.iter().find(|n| n.label == "⇑(KNOWS)").unwrap();
    let likes = summaries.iter().find(|n| n.label == "⇑(LIKES)").unwrap();
    assert!(knows.delivered_events > 0);
    assert_eq!(
        likes.delivered_events, 0,
        "KNOWS-only transaction must not reach the LIKES scan"
    );
    assert_eq!(net.view_named("knows").unwrap().row_count(), 1);
    assert_eq!(net.view_named("likes").unwrap().row_count(), 0);
}

/// Tentpole property: an alpha-renamed duplicate of a registered plan
/// adds ZERO new operator nodes — canonicalisation renames both to the
/// same positional form before consing.
#[test]
fn alpha_renamed_duplicate_adds_zero_nodes() {
    let g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    net.register("orig", &join_plan(), &g);
    let nodes = net.node_count();

    // The same shape with every variable renamed.
    let renamed = edge_join("x", "r", "y");
    let v = net.register("renamed", &renamed, &g);
    assert_eq!(
        net.node_count(),
        nodes,
        "alpha-renamed duplicate must instantiate zero new nodes"
    );
    assert_eq!(net.sink_count(), 2);
    // The collapsed view still answers with its own schema names.
    assert_eq!(
        net.view(v).columns(),
        ["x", "r", "y", "x.__map"],
        "sink reports the renamed view's own columns"
    );
}

/// Latent-waste regression (pre-canonicalisation): registering the same
/// query twice under different variable names built two scan chains and
/// delivered every event twice. The collapsed form must deliver each
/// event exactly once.
#[test]
fn renamed_duplicate_delivers_each_event_once() {
    let mut g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    net.register("as", &scan("a", "A"), &g);
    net.register("ps", &scan("p", "A"), &g);
    assert_eq!(net.node_count(), 1, "one shared scan node");

    let mut tx = Transaction::new();
    tx.create_vertex([s("A")], Properties::new());
    let events = g.apply(&tx).unwrap();
    net.on_transaction(&g, &events);

    let summaries = net.node_summaries();
    assert_eq!(summaries.len(), 1);
    assert_eq!(
        summaries[0].delivered_events, 1,
        "the collapsed scan sees the event once, not once per view"
    );
    assert_eq!(net.view_named("as").unwrap().row_count(), 1);
    assert_eq!(net.view_named("ps").unwrap().row_count(), 1);
}

/// A family of views differing only in a top-level σ predicate keeps one
/// shared stateful prefix; each member pays a private stateless σ.
#[test]
fn where_family_shares_the_stateful_prefix() {
    use pgq_algebra::expr::ScalarExpr;
    use pgq_common::value::Value;
    use pgq_parser::ast::BinOp;

    let g = PropertyGraph::new();
    let mut net = DataflowNetwork::new();
    let base = Fra::ScanVertices {
        var: "p".into(),
        labels: vec![s("Post")],
        props: vec![PropPush {
            prop: s("lang"),
            col: "p.lang".into(),
        }],
        carry_map: false,
    };
    net.register("all", &base, &g);
    let prefix_nodes = net.node_count();

    for (i, lang) in ["en", "de", "fr", "hu"].iter().enumerate() {
        let filtered = Fra::Filter {
            input: Box::new(base.clone()),
            predicate: ScalarExpr::Binary(
                BinOp::Eq,
                Box::new(ScalarExpr::Col(1)),
                Box::new(ScalarExpr::Lit(Value::str(*lang))),
            ),
        };
        net.register(format!("f{i}"), &filtered, &g);
        assert_eq!(
            net.node_count(),
            prefix_nodes + i + 1,
            "each WHERE-family member adds exactly its private σ"
        );
    }
    // The private σ nodes are stateless: all materialised state lives in
    // the shared prefix.
    let summaries = net.node_summaries();
    let sigmas: Vec<_> = summaries
        .iter()
        .filter(|n| n.label.starts_with('σ'))
        .collect();
    assert_eq!(sigmas.len(), 4);
    assert!(sigmas.iter().all(|n| n.own_tuples == 0));
}

/// Regression: an edge scan pushing a property of a *label-free*
/// endpoint must receive property events for any vertex — folding both
/// endpoints' label requirements into one union starved the free side
/// and left views permanently stale.
#[test]
fn unlabeled_endpoint_prop_changes_reach_edge_scans() {
    use pgq_common::value::Value;

    let mut g = PropertyGraph::new();
    let (a, _) = g.add_vertex([s("A")], Properties::new());
    let (b, _) = g.add_vertex([], Properties::new());
    g.add_edge(a, b, s("R"), Properties::new()).unwrap();

    // ⇑[(a:A)-[:R]->(b)] pushing b.x — src labeled, dst label-free.
    let plan = Fra::ScanEdges {
        src: "a".into(),
        edge: "e".into(),
        dst: "b".into(),
        types: vec![s("R")],
        src_labels: vec![s("A")],
        dst_labels: vec![],
        src_props: vec![],
        edge_props: vec![],
        dst_props: vec![PropPush {
            prop: s("x"),
            col: "b.x".into(),
        }],
        dir: pgq_common::dir::Direction::Out,
        carry_maps: (false, false, false),
    };
    let mut net = DataflowNetwork::new();
    let v = net.register("v", &plan, &g);
    assert_eq!(net.view(v).results()[0].0.get(3), &Value::Null);

    let ev = g.set_vertex_prop(b, s("x"), Value::str("new")).unwrap();
    net.on_transaction(&g, &[ev]);
    assert_eq!(
        net.view(v).results()[0].0.get(3),
        &Value::str("new"),
        "property change on the label-free endpoint must be routed"
    );
}

/// The eight views of the benchmark's `social_stream`: the thread view,
/// the friend-likes join, two aggregates and four members of one WHERE
/// family. Each σ/π/ω chain is one program node, so the eight share 18
/// nodes — 11 stateful ones and 7 programs (25 while every σ and π was a
/// node of its own: five of the chains are a σ and a π, merged into one;
/// 20 while the friend-likes join that brings in `KNOWS` keyed on `b`
/// alone and closed `a` through a join with `©(Person)` of its own).
#[test]
fn social_views_share_eighteen_nodes() {
    use pgq_algebra::compile_query;
    use pgq_parser::parse_query;

    const VIEWS: [&str; 8] = [
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
        "MATCH (a:Person)-[:CREATED]->(p:Post) MATCH (a)-[:KNOWS]->(b:Person) \
         MATCH (b)-[:LIKES]->(p) RETURN a, b, p",
        "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang AS lang, count(*) AS replies",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'en' RETURN p, c",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'de' RETURN p, c",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'de' OR c.lang = 'fr' RETURN p, c",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'fr' OR c.lang = 'hu' RETURN p, c",
    ];
    let g =
        pgq_workloads::social::generate_social(pgq_workloads::social::SocialParams::scale(0.05, 7))
            .graph;
    let mut net = DataflowNetwork::new();
    for (i, q) in VIEWS.iter().enumerate() {
        let fra = compile_query(&parse_query(q).unwrap()).unwrap().fra;
        net.register(format!("v{i}"), &fra, &g);
    }
    if !pgq_ivm::planner_enabled() {
        // The syntactic join order is another network; the benchmark
        // runs the planned one.
        return;
    }
    let labels: Vec<String> = net.node_summaries().into_iter().map(|n| n.label).collect();
    let programs = labels
        .iter()
        .filter(|l| l.starts_with(['σ', 'π', 'ω']))
        .count();
    assert_eq!(net.node_count(), 18, "{labels:#?}");
    assert_eq!(programs, 7, "{labels:#?}");
    let fused = labels.iter().filter(|l| l.starts_with("σ→π")).count();
    assert_eq!(fused, 5, "{labels:#?}");
}
