//! Engine-level canonicalisation: alpha-renamed / conjunct- or
//! disjunct-reordered / alias-renamed duplicates of a registered view
//! add **zero** operator nodes, `WHERE`-only-differing families share their whole stateful
//! prefix, and the collapsed network delivers each change event once —
//! all while every view keeps answering with its own schema and the
//! exact recompute result. Overlapping views on one engine pay per
//! distinct scan, where one private network per view pays per view.

use pgq_algebra::pipeline::compile_query;
use pgq_core::GraphEngine;
use pgq_ivm::network::{DataflowNetwork, NodeSummary};
use pgq_parser::parse_query;
use pgq_workloads::social::{
    generate_social, renamed_overlap_query, SocialParams, OVERLAPPING_QUERIES, WHERE_FAMILY_QUERIES,
};

fn seeded_engine() -> GraphEngine {
    let mut e = GraphEngine::new();
    e.execute_script(
        "CREATE (:Post {lang:'en'})-[:REPLY]->(:Comm {lang:'en'});\
         CREATE (:Post {lang:'de'})-[:REPLY]->(:Comm {lang:'fr'});\
         CREATE (:Post {lang:'fr'})-[:REPLY]->(:Comm {lang:'fr'})",
    )
    .unwrap();
    e
}

/// Check a view against a from-scratch evaluation of its own compiled
/// plan.
fn assert_matches_recompute(e: &GraphEngine, name: &str) {
    let id = e.view_by_name(name).unwrap();
    let compiled = e.view_compiled(id).unwrap();
    assert_eq!(
        e.view(id).unwrap().results(),
        pgq_eval::evaluate_consolidated(&compiled.fra, e.graph()),
        "view {name} diverged from recompute"
    );
}

#[test]
fn alpha_equivalent_views_add_zero_nodes() {
    let mut e = seeded_engine();
    e.register_view("base", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        .unwrap();
    let nodes = e.network_node_count();

    // Renamed variables, reordered WHERE conjuncts, renamed output
    // aliases: all alpha-equivalent, all must cons onto existing nodes.
    for (name, q) in [
        ("renamed", "MATCH (x:Post)-[:REPLY]->(y:Comm) RETURN x, y"),
        (
            "aliased",
            "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p AS post, c AS comment",
        ),
    ] {
        e.register_view(name, q).unwrap();
        assert_eq!(
            e.network_node_count(),
            nodes,
            "{name} must add zero operator nodes"
        );
    }
    let with_where = "MATCH (p:Post)-[:REPLY]->(c:Comm) \
                      WHERE p.lang = 'en' AND c.lang = 'en' RETURN p, c";
    let reordered = "MATCH (a:Post)-[:REPLY]->(b:Comm) \
                     WHERE b.lang = 'en' AND a.lang = 'en' RETURN a, b";
    e.register_view("w0", with_where).unwrap();
    let nodes_with_filter = e.network_node_count();
    e.register_view("w1", reordered).unwrap();
    assert_eq!(
        e.network_node_count(),
        nodes_with_filter,
        "reordered conjuncts under renamed variables must add zero nodes"
    );
    // `OR` operands are as commutative (and idempotent) as conjuncts.
    let either = "MATCH (p:Post)-[:REPLY]->(c:Comm) \
                  WHERE p.lang = 'en' OR c.lang = 'fr' RETURN p, c";
    let either_flipped = "MATCH (a:Post)-[:REPLY]->(b:Comm) \
                          WHERE b.lang = 'fr' OR a.lang = 'en' OR b.lang = 'fr' RETURN a, b";
    e.register_view("o0", either).unwrap();
    let nodes_with_or = e.network_node_count();
    e.register_view("o1", either_flipped).unwrap();
    assert_eq!(
        e.network_node_count(),
        nodes_with_or,
        "reordered, repeated OR operands must add zero nodes"
    );

    // Sharing must be observationally invisible.
    e.execute("CREATE (:Post {lang:'en'})-[:REPLY]->(:Comm {lang:'en'})")
        .unwrap();
    for name in ["base", "renamed", "aliased", "w0", "w1", "o0", "o1"] {
        assert_matches_recompute(&e, name);
    }
    // The alias-renamed view reports its own column names.
    let id = e.view_by_name("aliased").unwrap();
    assert_eq!(e.view(id).unwrap().columns(), ["post", "comment"]);
}

#[test]
fn renamed_copies_deliver_each_event_once() {
    // Engine A: one view. Engine B: 8 alpha-renamed copies. The same
    // transaction must deliver the same number of scan events to both —
    // the collapsed form does not multiply delivery by view count.
    let mut a = seeded_engine();
    let mut b = seeded_engine();
    a.register_view("v0", &renamed_overlap_query(0)).unwrap();
    for i in 0..8 {
        b.register_view(&format!("v{i}"), &renamed_overlap_query(i))
            .unwrap();
    }
    assert_eq!(
        a.network_node_count(),
        b.network_node_count(),
        "8 renamed copies collapse to the single view's chain"
    );

    let tx = "CREATE (:Post {lang:'hu'})-[:REPLY]->(:Comm {lang:'hu'})";
    a.execute(tx).unwrap();
    b.execute(tx).unwrap();
    let delivered = |e: &GraphEngine| -> u64 {
        e.network()
            .node_summaries()
            .iter()
            .map(|n| n.delivered_events)
            .sum()
    };
    assert_eq!(
        delivered(&a),
        delivered(&b),
        "the collapsed network delivers each event once, not once per view"
    );
    for i in 0..8 {
        assert_matches_recompute(&b, &format!("v{i}"));
    }
}

#[test]
fn where_family_shares_prefix_and_stays_correct() {
    let mut e = seeded_engine();
    e.register_view("m0", WHERE_FAMILY_QUERIES[0]).unwrap();
    let first = e.network_node_count();
    for (i, q) in WHERE_FAMILY_QUERIES.iter().enumerate().skip(1) {
        e.register_view(&format!("m{i}"), q).unwrap();
        // Each member adds only its private stateless suffix: one
        // program node, its σ and π merged (two nodes before programs);
        // the scans and any join memories stay shared.
        assert_eq!(
            e.network_node_count(),
            first + i,
            "member {i} added more than its program node"
        );
    }

    // Maintain through churn and compare every member against recompute.
    e.execute_script(
        "CREATE (:Post {lang:'de'})-[:REPLY]->(:Comm {lang:'hu'});\
         MATCH (c:Comm) WHERE c.lang = 'fr' SET c.lang = 'en'",
    )
    .unwrap();
    for i in 0..WHERE_FAMILY_QUERIES.len() {
        assert_matches_recompute(&e, &format!("m{i}"));
    }
}

#[test]
fn permuted_return_shares_everything_below_the_tail() {
    let mut e = seeded_engine();
    e.register_view("pc", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c")
        .unwrap();
    let nodes = e.network_node_count();
    // Same pattern, permuted RETURN: at most the canonical tail
    // projection is new.
    e.register_view("cp", "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN c, p")
        .unwrap();
    assert!(
        e.network_node_count() <= nodes + 1,
        "permuted RETURN shares everything below one tail projection"
    );
    // A second view with the same permutation shares the tail too.
    let with_tail = e.network_node_count();
    e.register_view("cp2", "MATCH (x:Post)-[:REPLY]->(y:Comm) RETURN y, x")
        .unwrap();
    assert_eq!(e.network_node_count(), with_tail);

    e.execute("CREATE (:Post {lang:'nl'})-[:REPLY]->(:Comm {lang:'nl'})")
        .unwrap();
    for name in ["pc", "cp", "cp2"] {
        assert_matches_recompute(&e, name);
    }
    // Column order is each view's own.
    let pc = e.view_by_name("pc").unwrap();
    let cp = e.view_by_name("cp").unwrap();
    assert_eq!(e.view(pc).unwrap().columns(), ["p", "c"]);
    assert_eq!(e.view(cp).unwrap().columns(), ["c", "p"]);
    let flip = |rows: Vec<pgq_common::tuple::Tuple>| -> Vec<Vec<pgq_common::value::Value>> {
        rows.iter()
            .map(|t| vec![t.get(1).clone(), t.get(0).clone()])
            .collect()
    };
    let mut flipped = flip(e.view_results(pc).unwrap());
    let mut direct: Vec<Vec<pgq_common::value::Value>> = e
        .view_results(cp)
        .unwrap()
        .iter()
        .map(|t| vec![t.get(0).clone(), t.get(1).clone()])
        .collect();
    let key = |r: &Vec<pgq_common::value::Value>| format!("{r:?}");
    flipped.sort_by_key(key);
    direct.sort_by_key(key);
    assert_eq!(flipped, direct, "cp is pc with columns swapped");
}

/// The benchmark's `motif_skew`: triangle, four-cycle and wedge count on
/// one engine compute the wedge once and index it once. Every label-only
/// © folds into the one `⇑(E)`, the three wedge joins hash-cons to one,
/// and one arrangement of the wedge — keyed by its two end vertices —
/// serves the triangle-closing join and both sides of the four-cycle's
/// wedge ⋈ wedge.
#[test]
fn motif_views_share_one_edge_scan_one_wedge_and_one_wedge_index() {
    use pgq_workloads::motifs::{generate_skew_motifs, queries, SkewMotifParams};

    let seed = generate_skew_motifs(SkewMotifParams::default());
    let mut e = GraphEngine::from_graph(seed.graph);
    for (i, q) in queries::MOTIF_SKEW.iter().enumerate() {
        e.register_view(&format!("m{i}"), q).unwrap();
    }
    let nodes = e.network().node_summaries();
    let count = |label: &str| nodes.iter().filter(|n| n.label == label).count();
    assert!(
        nodes.iter().all(|n| !n.label.starts_with('©')),
        "no vertex scan survives canonicalisation"
    );
    for i in 0..queries::MOTIF_SKEW.len() {
        assert_matches_recompute(&e, &format!("m{i}"));
    }
    assert_eq!(count("⇑(E)"), 1, "one edge scan");
    assert_eq!(
        count("⋈"),
        3,
        "wedge, triangle-closing and four-cycle joins"
    );
    // ⇑, three ⋈, γ and three programs: the wedge's σ, and the
    // triangle's and the four-cycle's σ→π, each pair merged into one
    // node (10 nodes while every σ and π was a node of its own).
    assert_eq!(nodes.len(), 8, "{nodes:?}");

    // The edge scan is indexed once per key set its three readers use:
    // the wedge join's two sides and the triangle-closing join.
    let scan = nodes.iter().find(|n| n.label == "⇑(E)").unwrap();
    let mut scan_keys: Vec<(Vec<usize>, usize)> = scan
        .arrangements
        .iter()
        .map(|(keys, _, readers)| (keys.clone(), *readers))
        .collect();
    scan_keys.sort();
    assert_eq!(
        scan_keys,
        vec![(vec![0], 1), (vec![0, 2], 1), (vec![2], 1)],
        "⇑(E) arrangements"
    );
    // The only other arranged node is the wedge: one index, three
    // readers.
    let arranged: Vec<_> = nodes
        .iter()
        .filter(|n| n.label != "⇑(E)" && !n.arrangements.is_empty())
        .collect();
    assert_eq!(
        arranged.len(),
        1,
        "only the wedge is arranged: {arranged:?}"
    );
    let [(wedge_keys, wedge_tuples, wedge_readers)] = &arranged[0].arrangements[..] else {
        panic!("one wedge arrangement, got {:?}", arranged[0].arrangements);
    };
    assert_eq!(wedge_keys.len(), 2, "keyed by the wedge's two end vertices");
    assert_eq!(
        *wedge_readers, 3,
        "triangle ⋈ and both sides of four-cycle ⋈"
    );

    // State: the wedge is held once (three private join memories held it
    // before), so the whole network stays well under half of what it was.
    let held: usize = nodes.iter().map(|n| n.own_tuples).sum();
    assert!(*wedge_tuples > 50_000, "the wedge is the big intermediate");
    assert!(held <= 160_000, "{held} tuples held");
}

/// `=` and `<>` are symmetric and `<`, `<=` mirror `>`, `>=`, so a
/// comparison written either way round is one σ: the second spelling of
/// a view adds zero nodes to the first.
#[test]
fn flipped_equalities_share_every_node() {
    for spellings in [
        [
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang <> c.lang RETURN p, c",
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang <> p.lang RETURN p, c",
        ],
        [
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
            "MATCH (a:Post)-[:REPLY]->(b:Comm) WHERE b.lang = a.lang RETURN a, b",
        ],
        [
            "MATCH (p:Post) WHERE p.lang = 'en' RETURN p",
            "MATCH (p:Post) WHERE 'en' = p.lang RETURN p",
        ],
        [
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang < c.lang RETURN p, c",
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE c.lang > p.lang RETURN p, c",
        ],
        [
            "MATCH (p:Post) WHERE p.lang >= 'en' RETURN p",
            "MATCH (p:Post) WHERE 'en' <= p.lang RETURN p",
        ],
        [
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang <> 'fr' RETURN c",
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE 'fr' <> c.lang OR 'en' = p.lang RETURN c",
        ],
    ] {
        let mut e = seeded_engine();
        e.register_view("v0", spellings[0]).unwrap();
        let nodes = e.network_node_count();
        e.register_view("v1", spellings[1]).unwrap();
        assert_eq!(
            e.network_node_count(),
            nodes,
            "{spellings:?} must share every node"
        );
        e.execute("CREATE (:Post {lang:'en'})-[:REPLY]->(:Comm {lang:'de'})")
            .unwrap();
        assert_matches_recompute(&e, "v0");
        assert_matches_recompute(&e, "v1");
    }
}

/// `motif_skew`'s three views on a small uniform random graph, where the
/// planner orients the views' wedges differently: the wedge's σ on its
/// two edges being distinct (`e1 <> e2` in one view, `e2 <> e1` in
/// another) is still one node, so the wedge is arranged once, with a
/// reader per join that reads it.
#[test]
fn motif_views_on_a_random_graph_hold_one_wedge_arrangement() {
    use pgq_common::intern::Symbol;
    use pgq_graph::props::Properties;
    use pgq_graph::store::PropertyGraph;
    use pgq_workloads::motifs::queries;

    let mut g = PropertyGraph::new();
    let n: Vec<_> = (0..300)
        .map(|_| g.add_vertex([Symbol::intern("N")], Properties::new()).0)
        .collect();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n.len() as u64) as usize
    };
    for _ in 0..1_200 {
        let (src, dst) = (next(), next());
        g.add_edge(n[src], n[dst], Symbol::intern("E"), Properties::new())
            .unwrap();
    }
    let mut e = GraphEngine::from_graph(g);
    for (i, q) in queries::MOTIF_SKEW.iter().enumerate() {
        e.register_view(&format!("m{i}"), q).unwrap();
    }
    for i in 0..queries::MOTIF_SKEW.len() {
        assert_matches_recompute(&e, &format!("m{i}"));
    }
    let nodes = e.network().node_summaries();
    let wedges: Vec<_> = nodes
        .iter()
        .filter(|n| n.label != "⇑(E)")
        .flat_map(|n| n.arrangements.iter().map(move |a| (&n.label, a)))
        .collect();
    let [(_, (keys, _, readers))] = wedges[..] else {
        panic!("one wedge arrangement, got {wedges:?}");
    };
    assert_eq!(keys.len(), 2, "keyed by the wedge's two end vertices");
    assert_eq!(*readers, 3, "triangle ⋈ and both sides of four-cycle ⋈");
}

/// A network's work over an update stream: Σ `delivered_events` over
/// its nodes (the change events routed to its scans) and its node count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Figure {
    delivered: u64,
    nodes: usize,
}

impl Figure {
    fn of(nodes: &[NodeSummary]) -> Figure {
        Figure {
            delivered: nodes.iter().map(|n| n.delivered_events).sum(),
            nodes: nodes.len(),
        }
    }

    fn plus(self, other: Figure) -> Figure {
        Figure {
            delivered: self.delivered + other.delivered,
            nodes: self.nodes + other.nodes,
        }
    }
}

/// The sharing claims as counts, with no clock: `OVERLAPPING_QUERIES`
/// on one engine against one private `DataflowNetwork` per text (the
/// pre-sharing architecture), over one seeded update stream, at N = 1
/// and N = 16.
#[test]
fn overlapping_views_pay_per_scan_where_private_views_pay_per_view() {
    let mut social = generate_social(SocialParams::scale(0.1, 42));
    let stream = social.update_stream(50, (4, 2, 3, 1));
    let graph = social.graph;

    let shared = |texts: &[&str]| -> Vec<NodeSummary> {
        let mut e = GraphEngine::from_graph(graph.clone());
        for (i, q) in texts.iter().enumerate() {
            e.register_view(&format!("v{i}"), q).unwrap();
        }
        for tx in &stream {
            e.apply(tx).unwrap();
        }
        e.network().node_summaries()
    };
    let private = |texts: &[&str]| -> Figure {
        let mut g = graph.clone();
        let mut nets: Vec<DataflowNetwork> = texts
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let compiled = compile_query(&parse_query(q).unwrap()).unwrap();
                assert!(compiled.is_maintainable());
                let mut net = DataflowNetwork::new();
                net.register(format!("p{i}"), &compiled.fra, &g);
                net
            })
            .collect();
        for tx in &stream {
            let events = g.apply(tx).unwrap();
            for net in &mut nets {
                net.on_transaction(&g, &events);
            }
        }
        nets.iter()
            .map(|net| Figure::of(&net.node_summaries()))
            .fold(Figure::default(), Figure::plus)
    };

    // N = 1: one view is one network, whichever side builds it.
    let one = Figure::of(&shared(&OVERLAPPING_QUERIES[..1]));
    assert_eq!(private(&OVERLAPPING_QUERIES[..1]), one);
    assert!(one.delivered > 0, "the stream reaches the view's scan");

    // Private, N = 16: nothing is shared, so each view pays its own
    // network in full — exactly 16× the N = 1 figure for 16 copies of
    // one text, and for the 16 distinct texts the sum of their own N = 1
    // figures.
    assert_eq!(
        private(&[OVERLAPPING_QUERIES[0]; 16]),
        Figure {
            delivered: 16 * one.delivered,
            nodes: 16 * one.nodes,
        }
    );
    let alone: Vec<Figure> = OVERLAPPING_QUERIES.iter().map(|q| private(&[q])).collect();
    let private_all = private(OVERLAPPING_QUERIES);
    assert_eq!(
        private_all,
        alone.iter().copied().fold(Figure::default(), Figure::plus)
    );

    // Shared, N = 16: the 16 texts need five distinct scans — ⇑(REPLY)
    // reading no property, `p.lang`, `c.lang` or both, and one ©(Post)
    // reading `lang` below a ⋈ — and each event reaches each scan once,
    // however many views read it. So the network stays within five times
    // the widest N = 1 figure: a text whose scan reads `lang` also sees
    // the stream's retags, so its N = 1 figure exceeds the first text's.
    const SCANS: u64 = 5;
    let shared_all = shared(OVERLAPPING_QUERIES);
    let all = Figure::of(&shared_all);
    let scans = shared_all
        .iter()
        .filter(|n| n.label.starts_with('⇑') || n.label.starts_with('©'))
        .count();
    assert_eq!(scans as u64, SCANS, "distinct scans of the 16 texts");
    let widest = alone.iter().map(|f| f.delivered).max().unwrap();
    assert!(
        all.delivered <= SCANS * widest,
        "shared: {all:?}, widest N = 1 figure {widest}"
    );
    assert!(
        all.delivered < private_all.delivered && all.nodes < private_all.nodes,
        "shared {all:?} against private {private_all:?}"
    );
}
