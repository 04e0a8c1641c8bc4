//! Event routing: the label/type index that delivers each change event
//! to the scan nodes that can react to it.
//!
//! # Invariants
//!
//! * Routing is conservative: a scan that can react to an event always
//!   receives it, and each event reaches a scan node at most once.
//! * **The routing index is rebuilt eagerly** on register/drop and
//!   never inside a measured transaction. Keep it that way: a
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
    /// Label requirement. For vertex scans this is conjunctive (the
    /// vertex must carry all of them); for the endpoint interest of an
    /// edge scan it is a union (any overlap can matter).
    labels: Vec<Symbol>,
    conjunctive: bool,
    /// Property keys that can change emitted tuples; `None` = all.
    prop_keys: Option<Vec<Symbol>>,
}

impl VertexRoute {
    fn labels_admit(&self, has: impl Fn(Symbol) -> bool) -> bool {
        if self.labels.is_empty() {
            return true;
        }
        if self.conjunctive {
            self.labels.iter().all(|&l| has(l))
        } else {
            self.labels.iter().any(|&l| has(l))
        }
    }

    fn cares_about_key(&self, key: Symbol) -> bool {
        match &self.prop_keys {
            None => true,
            Some(keys) => keys.contains(&key),
        }
    }
}

/// One edge-indexed routing target.
#[derive(Clone, Debug)]
struct EdgeRoute {
    node: NodeId,
    /// Property keys that can change emitted tuples; `None` = all.
    prop_keys: Option<Vec<Symbol>>,
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
                    conjunctive: true,
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
                        conjunctive: true,
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
        for ev in events {
            self.event_serial += 1;
            let serial = self.event_serial;
            {
                let mut deliver = |node: NodeId, net: &mut Self| net.deliver(node, serial);
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
        let admits = |r: &EdgeRoute| match (key, &r.prop_keys) {
            (None, _) => true,
            (Some(_), None) => true,
            (Some(k), Some(keys)) => keys.contains(&k),
        };
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
