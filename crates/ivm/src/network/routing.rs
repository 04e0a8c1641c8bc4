//! Event routing: the label/type index that delivers each change event
//! to the scan nodes that can react to it.
//!
//! # Invariants
//!
//! * Routing is conservative: a scan that can react to an event always
//!   receives it, and each event reaches a scan node at most once.
//!   Scans rely on it: a scan-bearing node reads only the events routed
//!   to it (see `schedule`), so an event routing withheld from a scan
//!   that could react to it would be a wrong delta, not wasted work.
//!   The `exactness` test below holds every scan to it.
//! * **The routing index is rebuilt eagerly** on register/drop and
//!   never inside a measured transaction; it depends on the node set
//!   alone, so a registration that creates no node and a drop that
//!   frees none may leave it as it is (`DataflowNetwork::rebuild_layout`).
//!   Keep it that way: a
//!   lazily-stale index pushes the rebuild into the first transaction
//!   of engines cloned from a registered-but-never-maintained template,
//!   which benchmarks clone-per-iteration — it showed up as a phantom
//!   30% regression before this was learned (see ROADMAP's
//!   performance notes).

use pgq_common::fxhash::FxHashMap;
use pgq_common::intern::Symbol;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::store::PropertyGraph;

use super::arena::NodeKind;
use super::{DataflowNetwork, NodeId};
use crate::scan::{EdgeRouting, ScanRouting, VertexRouting};

/// One vertex-indexed routing target.
#[derive(Clone, Debug)]
struct VertexRoute {
    node: NodeId,
    /// Vertex creations/removals matter (scan membership).
    structural: bool,
    /// Label requirement, conjunctive: the vertex must carry all of
    /// them, for a vertex scan and for each endpoint side of an edge
    /// scan alike.
    labels: Vec<Symbol>,
    /// Property keys that can change emitted tuples.
    prop_keys: Vec<Symbol>,
}

impl VertexRoute {
    fn labels_admit(&self, has: impl Fn(Symbol) -> bool) -> bool {
        self.labels.iter().all(|&l| has(l))
    }

    fn cares_about_key(&self, key: Symbol) -> bool {
        self.prop_keys.contains(&key)
    }
}

/// One edge-indexed routing target.
#[derive(Clone, Debug)]
struct EdgeRoute {
    node: NodeId,
    /// Property keys that can change emitted tuples.
    prop_keys: Vec<Symbol>,
}

/// The label/type → scan-node routing index.
#[derive(Clone, Debug, Default)]
pub(super) struct RoutingIndex {
    vertex_by_label: FxHashMap<Symbol, Vec<VertexRoute>>,
    /// Scans with no label requirement (must see all vertex events that
    /// pass their interest filter).
    vertex_any: Vec<VertexRoute>,
    edge_by_type: FxHashMap<Symbol, Vec<EdgeRoute>>,
    edge_any: Vec<EdgeRoute>,
}

impl RoutingIndex {
    fn clear(&mut self) {
        self.vertex_by_label.clear();
        self.vertex_any.clear();
        self.edge_by_type.clear();
        self.edge_any.clear();
    }

    fn add_vertex_route(&mut self, route: VertexRoute) {
        if route.labels.is_empty() {
            self.vertex_any.push(route);
        } else {
            for &l in &route.labels {
                self.vertex_by_label
                    .entry(l)
                    .or_default()
                    .push(route.clone());
            }
        }
    }

    fn add_edge_route(&mut self, types: &[Symbol], route: EdgeRoute) {
        if types.is_empty() {
            self.edge_any.push(route);
        } else {
            for &t in types {
                self.edge_by_type.entry(t).or_default().push(route.clone());
            }
        }
    }

    fn add_scan(&mut self, node: NodeId, routing: &ScanRouting) {
        match routing {
            ScanRouting::Vertex(VertexRouting { labels, prop_keys }) => {
                self.add_vertex_route(VertexRoute {
                    node,
                    structural: true,
                    labels: labels.clone(),
                    prop_keys: prop_keys.clone(),
                });
            }
            ScanRouting::Edge(EdgeRouting {
                types,
                edge_prop_keys,
                src_interest,
                dst_interest,
            }) => {
                self.add_edge_route(
                    types,
                    EdgeRoute {
                        node,
                        prop_keys: edge_prop_keys.clone(),
                    },
                );
                // One vertex route per interested endpoint side, each
                // judged against its own conjunctive label requirement
                // (a label-free prop-bearing side lands in the
                // any-label bucket: any vertex can be that endpoint).
                // Structural vertex events never matter to an edge
                // scan: vertex deletions detach edges via their own
                // edge events, and a fresh vertex has no edges yet.
                for interest in [src_interest, dst_interest].into_iter().flatten() {
                    self.add_vertex_route(VertexRoute {
                        node,
                        structural: false,
                        labels: interest.labels.clone(),
                        prop_keys: interest.prop_keys.clone(),
                    });
                }
            }
        }
    }
}

impl DataflowNetwork {
    pub(super) fn rebuild_routing(&mut self) {
        self.routing.clear();
        for (ix, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            let id = NodeId(ix as u32);
            match &node.kind {
                NodeKind::Vertices(s) => {
                    self.routing.add_scan(id, &ScanRouting::Vertex(s.routing()))
                }
                NodeKind::Edges(s) => self.routing.add_scan(id, &ScanRouting::Edge(s.routing())),
                NodeKind::VarLength { op, .. } => {
                    for r in op.routing() {
                        self.routing.add_scan(id, &r);
                    }
                }
                _ => {}
            }
        }
    }

    /// Deliver each event to the scan nodes that can possibly react to
    /// it, marking them dirty.
    pub(super) fn route_events(&mut self, g: &PropertyGraph, events: &[ChangeEvent]) {
        // The index is moved out for the duration of the loop so the
        // delivery closure can borrow `self` mutably.
        let routing = std::mem::take(&mut self.routing);
        for (position, ev) in events.iter().enumerate() {
            self.event_serial += 1;
            let serial = self.event_serial;
            {
                let mut deliver =
                    |node: NodeId, net: &mut Self| net.deliver(node, serial, position as u32);
                match ev {
                    ChangeEvent::VertexAdded { id } | ChangeEvent::VertexRemoved { id, .. } => {
                        // Labels at creation time (post-state) or removal
                        // time (before-image).
                        let labels: &[Symbol] = match ev {
                            ChangeEvent::VertexRemoved { data, .. } => &data.labels,
                            _ => match g.vertex(*id) {
                                Some(d) => &d.labels,
                                None => &[],
                            },
                        };
                        for &l in labels {
                            if let Some(routes) = routing.vertex_by_label.get(&l) {
                                for r in routes {
                                    if r.structural && r.labels_admit(|x| labels.contains(&x)) {
                                        deliver(r.node, self);
                                    }
                                }
                            }
                        }
                        for r in &routing.vertex_any {
                            if r.structural {
                                deliver(r.node, self);
                            }
                        }
                    }
                    ChangeEvent::LabelAdded { label, .. }
                    | ChangeEvent::LabelRemoved { label, .. } => {
                        // Only scans requiring `label` can change
                        // membership; tuples never contain labels, so
                        // unrelated scans are unaffected.
                        if let Some(routes) = routing.vertex_by_label.get(label) {
                            for r in routes {
                                deliver(r.node, self);
                            }
                        }
                    }
                    ChangeEvent::VertexPropChanged { id, key, .. } => {
                        let labels: &[Symbol] = match g.vertex(*id) {
                            Some(d) => &d.labels,
                            // Deleted later in the same batch: the
                            // removal event routes the retraction.
                            None => &[],
                        };
                        for &l in labels {
                            if let Some(routes) = routing.vertex_by_label.get(&l) {
                                for r in routes {
                                    if r.cares_about_key(*key)
                                        && r.labels_admit(|x| labels.contains(&x))
                                    {
                                        deliver(r.node, self);
                                    }
                                }
                            }
                        }
                        for r in &routing.vertex_any {
                            if r.cares_about_key(*key) {
                                deliver(r.node, self);
                            }
                        }
                    }
                    ChangeEvent::EdgeAdded { id } => {
                        // Gone again within the same batch: the removal
                        // event covers any retraction, and the scan
                        // never saw the edge.
                        if let Some(data) = g.edge(*id) {
                            self.route_edge(&routing, data.ty, None, &mut deliver);
                        }
                    }
                    ChangeEvent::EdgeRemoved { data, .. } => {
                        self.route_edge(&routing, data.ty, None, &mut deliver);
                    }
                    ChangeEvent::EdgePropChanged { id, key, .. } => {
                        if let Some(data) = g.edge(*id) {
                            self.route_edge(&routing, data.ty, Some(*key), &mut deliver);
                        }
                    }
                }
            }
        }
        self.routing = routing;
    }

    fn route_edge(
        &mut self,
        routing: &RoutingIndex,
        ty: Symbol,
        key: Option<Symbol>,
        deliver: &mut impl FnMut(NodeId, &mut Self),
    ) {
        let admits = |r: &EdgeRoute| key.is_none_or(|k| r.prop_keys.contains(&k));
        if let Some(routes) = routing.edge_by_type.get(&ty) {
            for r in routes {
                if admits(r) {
                    deliver(r.node, self);
                }
            }
        }
        for r in &routing.edge_any {
            if admits(r) {
                deliver(r.node, self);
            }
        }
    }

    /// Scan nodes routed vertex events by `label` (`None`: the routes
    /// without a label requirement).
    pub(crate) fn vertex_routes(&self, label: Option<Symbol>) -> impl Iterator<Item = NodeId> + '_ {
        let routes = match label {
            Some(l) => self
                .routing
                .vertex_by_label
                .get(&l)
                .map_or(&[][..], Vec::as_slice),
            None => &self.routing.vertex_any,
        };
        routes.iter().map(|r| r.node)
    }

    /// Scan nodes routed events of edges of type `ty`, type-free routes
    /// included.
    pub(crate) fn edge_routes(&self, ty: Symbol) -> impl Iterator<Item = NodeId> + '_ {
        let typed = self
            .routing
            .edge_by_type
            .get(&ty)
            .map_or(&[][..], Vec::as_slice);
        typed.iter().chain(&self.routing.edge_any).map(|r| r.node)
    }
}

#[cfg(test)]
mod exactness {
    use super::*;
    use crate::delta::Delta;
    use pgq_algebra::compile_query;
    use pgq_common::value::Value;
    use pgq_graph::before::BeforeIndex;
    use pgq_graph::props::Properties;
    use pgq_graph::tx::Transaction;
    use pgq_parser::parse_query;

    /// The differential oracle's queries (`tests/differential.rs`).
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
        "MATCH (p:Post)-[:REPLY]->(c) RETURN p, c.lang",
        "MATCH (a:Post)-[:REPLY*1..3]-(b) RETURN a, b",
        "MATCH t = (a:Post)-[:REPLY*0..]->(b) RETURN a, b, t",
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = 'en' RETURN p, t",
    ];

    const LABELS: &[&str] = &["Post", "Comm", "P0", "C0", "P1", "C1"];
    const TYPES: &[&str] = &["REPLY", "R0", "R1"];
    const LANGS: &[&str] = &["en", "de", "fr"];

    /// `fanout_batch`'s shapes: one ⋈* view per branch, and a family of
    /// projections, aggregates and filters over one shared join.
    fn fanout_family() -> Vec<String> {
        let mut out: Vec<String> = (0..2)
            .map(|i| {
                format!("MATCH t = (p:P{i})-[:R{i}*]->(c:C{i}) WHERE p.lang = c.lang RETURN p, t")
            })
            .collect();
        for tail in [
            "RETURN c, p",
            "RETURN DISTINCT p",
            "RETURN c.lang AS lang, count(*) AS n",
            "WHERE p.lang <> c.lang RETURN count(*) AS n",
            "WHERE p.lang = 'en' AND c.lang = 'de' RETURN p, c",
        ] {
            out.push(format!("MATCH (p:Post)-[:REPLY]->(c:Comm) {tail}"));
        }
        out
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 33) as usize % n
        }

        fn pick(&mut self, from: &[&str]) -> Symbol {
            Symbol::intern(from[self.below(from.len())])
        }

        fn lang(&mut self) -> Properties {
            Properties::from_iter([("lang", Value::str(LANGS[self.below(LANGS.len())]))])
        }
    }

    /// One member of a mixed batch, drawn against the current graph.
    fn member(g: &PropertyGraph, rng: &mut Rng) -> Transaction {
        let vs: Vec<_> = g.vertex_ids().collect();
        let es: Vec<_> = g.edge_ids().collect();
        let mut tx = Transaction::new();
        match rng.below(9) {
            0 | 1 if !vs.is_empty() => {
                let labels = [rng.pick(LABELS)];
                let v = tx.create_vertex(labels, rng.lang());
                let u = vs[rng.below(vs.len())];
                match rng.below(2) {
                    0 => tx.create_edge(u, v, rng.pick(TYPES), Properties::new()),
                    _ => tx.create_edge(v, u, rng.pick(TYPES), Properties::new()),
                };
            }
            2 if vs.len() > 1 => {
                let (u, w) = (vs[rng.below(vs.len())], vs[rng.below(vs.len())]);
                tx.create_edge(u, w, rng.pick(TYPES), Properties::new());
            }
            3 if vs.len() > 8 => {
                tx.delete_vertex(vs[rng.below(vs.len())], true);
            }
            4 if !es.is_empty() => {
                tx.delete_edge(es[rng.below(es.len())]);
            }
            // Property sets: a pushed key, then a key no scan reads.
            5 if !vs.is_empty() => {
                let v = vs[rng.below(vs.len())];
                let value = Value::str(LANGS[rng.below(LANGS.len())]);
                tx.set_vertex_prop(v, Symbol::intern("lang"), value);
            }
            6 if !vs.is_empty() => {
                let v = vs[rng.below(vs.len())];
                tx.set_vertex_prop(v, Symbol::intern("x"), Value::Int(rng.below(9) as i64));
            }
            7 if !vs.is_empty() => {
                let (v, label) = (vs[rng.below(vs.len())], rng.pick(LABELS));
                match rng.below(2) {
                    0 => tx.add_label(v, label),
                    _ => tx.remove_label(v, label),
                };
            }
            8 if !es.is_empty() => {
                let e = es[rng.below(es.len())];
                tx.set_edge_prop(e, Symbol::intern("w"), Value::Int(rng.below(3) as i64));
            }
            _ => {
                tx.create_vertex([rng.pick(LABELS)], rng.lang());
            }
        }
        tx
    }

    /// Every scan-bearing node, run from a copy of its state before a
    /// pass, emits from the events routed to it exactly what it emits
    /// from all of the pass's events — the conservative-routing
    /// invariant each scan's correctness rests on — over random mixed
    /// batches: creates, detach-deletes, property sets on pushed and
    /// unpushed keys, label adds and removes, edge property sets.
    #[test]
    fn every_scan_emits_from_its_routed_events_what_it_emits_from_all() {
        let (mut g, mut net) = (PropertyGraph::new(), DataflowNetwork::new());
        let mut queries: Vec<String> = QUERIES.iter().map(|q| q.to_string()).collect();
        queries.extend(fanout_family());
        for (i, q) in queries.iter().enumerate() {
            let fra = compile_query(&parse_query(q).expect("parses"))
                .expect("compiles")
                .fra;
            net.register(format!("v{i}"), &fra, &g);
        }
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let (mut narrowed, empty) = (0, Delta::new());
        for batch in 0..150 {
            let mut events = Vec::new();
            for _ in 0..1 + rng.below(8) {
                let tx = member(&g, &mut rng);
                events.extend(g.apply(&tx).expect("each member applies"));
            }
            let before = net.clone();
            net.on_transaction(&g, &events);
            let mut index = BeforeIndex::new();
            let image = index.build(&g, &events);
            for (slot, node) in before.nodes.iter().enumerate() {
                let Some(node) = node else { continue };
                let left = match &node.kind {
                    NodeKind::Vertices(_) | NodeKind::Edges(_) => None,
                    NodeKind::VarLength { left, .. } => Some(*left),
                    _ => continue,
                };
                let id = NodeId(slot as u32);
                let routed = net.routed_positions(id);
                narrowed += usize::from(!routed.is_empty() && routed.len() < events.len());
                let emit = |events: &mut dyn Iterator<Item = &ChangeEvent>| {
                    let mut kind = node.kind.clone();
                    let mut out = Delta::new();
                    let events: Vec<&ChangeEvent> = events.collect();
                    let child = |c: NodeId| match Some(c) == left {
                        true => net.last_output(c),
                        false => &empty,
                    };
                    kind.run(child, &before.arrangements, &image, events, &mut out);
                    out.consolidate_sorted()
                };
                assert_eq!(
                    emit(&mut routed.iter().map(|&i| &events[i as usize])),
                    emit(&mut events.iter()),
                    "batch {batch}: {} routed {routed:?} of {events:?}",
                    node.kind.label()
                );
            }
        }
        assert!(
            narrowed > 100,
            "the batches must narrow routing: {narrowed}"
        );
    }
}
