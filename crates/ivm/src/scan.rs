//! Base-relation operators: the © get-vertices and ⇑ get-edges scans.
//!
//! Scans are the boundary between the graph's change feed and the tuple
//! dataflow. Each scan remembers the exact tuple(s) it last emitted per
//! element; on a change event it recomputes the element's tuple(s) against
//! the post-state graph and emits the difference. This turns arbitrary
//! fine-grained events (FGN: property/label updates) into minimal tuple
//! deltas without needing a pre-state snapshot.

use pgq_algebra::fra::PropPush;
use pgq_common::dir::Direction;
use pgq_common::fxhash::{FxHashMap, FxHashSet};
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::store::PropertyGraph;

use crate::delta::{Delta, Row, RowSink};

/// What part of the change feed a scan can possibly react to — the
/// routing contract the shared dataflow network indexes scans by, so a
/// transaction's events are delivered only to scans that can match them.
#[derive(Clone, Debug)]
pub(crate) enum ScanRouting {
    /// A © scan (or an internal vertex scan of a ⋈* node).
    Vertex(VertexRouting),
    /// A ⇑ scan (or the internal edge scan of a ⋈* node).
    Edge(EdgeRouting),
}

/// Routing contract of a vertex scan.
#[derive(Clone, Debug)]
pub(crate) struct VertexRouting {
    /// Conjunctive label requirement (empty = every vertex matches).
    pub labels: Vec<Symbol>,
    /// Vertex property keys whose changes can alter emitted tuples.
    pub prop_keys: Vec<Symbol>,
}

/// Routing contract of an edge scan.
///
/// Endpoint interest is tracked **per side**: a vertex event matters if
/// the vertex could participate as the pattern-source or as the
/// pattern-target, each judged against that side's own (conjunctive)
/// label requirement. Folding both sides into one union would starve a
/// label-free side — e.g. `(a:A)-[:R]->(b)` pushing `b.x` must see
/// property changes on *any* vertex, because any vertex can be `b`.
#[derive(Clone, Debug)]
pub(crate) struct EdgeRouting {
    /// Admissible edge types (empty = any).
    pub types: Vec<Symbol>,
    /// Edge property keys whose changes matter (pushed properties and
    /// literal filters).
    pub edge_prop_keys: Vec<Symbol>,
    /// Vertex interest of the pattern-source endpoint (`None` when
    /// source tuples don't depend on vertex state).
    pub src_interest: Option<VertexRouting>,
    /// Vertex interest of the pattern-target endpoint.
    pub dst_interest: Option<VertexRouting>,
}

/// The © get-vertices scan node.
#[derive(Clone, Debug)]
pub(crate) struct VertexScan {
    labels: Vec<Symbol>,
    props: Vec<PropPush>,
    memory: FxHashMap<VertexId, Tuple>,
    /// Reused per-batch dedup set (cleared, not reallocated).
    touched: FxHashSet<VertexId>,
    /// Reused row-assembly buffer.
    scratch: Vec<Value>,
    /// Change events examined by [`VertexScan::on_events_into`].
    events_read: u64,
}

impl VertexScan {
    /// Create a scan for `labels` (empty = all vertices) emitting the
    /// pushed `props`.
    pub(crate) fn new(labels: Vec<Symbol>, props: Vec<PropPush>) -> VertexScan {
        VertexScan {
            labels,
            props,
            memory: FxHashMap::default(),
            touched: FxHashSet::default(),
            scratch: Vec::new(),
            events_read: 0,
        }
    }

    /// Number of tuples materialised in this scan's memory.
    pub(crate) fn memory_tuples(&self) -> usize {
        self.memory.len()
    }

    /// Change events this scan has examined since it was created.
    pub(crate) fn events_read(&self) -> u64 {
        self.events_read
    }

    /// The tuple currently emitted for `v` (`[v, props…]`), if `v`
    /// satisfies the scan — the memory read as an admission map.
    pub(crate) fn get(&self, v: VertexId) -> Option<&Tuple> {
        self.memory.get(&v)
    }

    /// Routing contract (see [`ScanRouting`]).
    pub(crate) fn routing(&self) -> VertexRouting {
        VertexRouting {
            labels: self.labels.clone(),
            prop_keys: self.props.iter().map(|p| p.prop).collect(),
        }
    }

    /// Re-emit the full current memory contents (each remembered tuple
    /// with multiplicity +1) into `out`.
    pub(crate) fn replay_into(&self, out: &mut dyn RowSink) {
        for t in self.memory.values() {
            out.push_row(Row::Held(t), 1);
        }
    }

    /// The tuple `v` contributes now, assembled in the reused scratch
    /// buffer (one allocation); `known` is a label `v` is already known
    /// to carry, which is not tested again.
    fn tuple_of(&mut self, g: &PropertyGraph, v: VertexId, known: Option<Symbol>) -> Option<Tuple> {
        let data = g.vertex(v)?;
        let mut tested = self.labels.iter().filter(|&&l| Some(l) != known);
        if !tested.all(|&l| data.has_label(l)) {
            return None;
        }
        let vals = &mut self.scratch;
        vals.clear();
        vals.push(Value::Node(v));
        for p in &self.props {
            vals.push(data.props.get_or_null(p.prop));
        }
        Some(Tuple::from_slice(vals))
    }

    /// Full evaluation against `g`, populating the memory.
    pub(crate) fn initial(&mut self, g: &PropertyGraph) -> Delta {
        let (ids, known): (Vec<VertexId>, _) = if self.labels.is_empty() {
            (g.vertex_ids().collect(), None)
        } else {
            // Scan the smallest label extent, verify the rest.
            let (first, _) = self
                .labels
                .iter()
                .map(|&l| (l, g.vertices_with_label(l).len()))
                .min_by_key(|&(_, n)| n)
                .expect("non-empty labels");
            (g.vertices_with_label(first).to_vec(), Some(first))
        };
        let mut out = Delta::with_capacity(ids.len());
        self.memory.reserve(ids.len());
        for v in ids {
            if let Some(t) = self.tuple_of(g, v, known) {
                self.memory.insert(v, t.clone());
                out.push(t, 1);
            }
        }
        // Sized once for every id; return what the other labels rejected.
        self.memory.shrink_to_fit();
        out
    }

    /// Delta for a batch of committed events (post-state `g`) — the
    /// network hands a scan only the events routed to it — into a
    /// caller-owned (pooled) buffer or any other [`RowSink`].
    pub(crate) fn on_events_into<'e>(
        &mut self,
        g: &PropertyGraph,
        events: impl IntoIterator<Item = &'e ChangeEvent>,
        out: &mut (impl RowSink + ?Sized),
    ) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for ev in events {
            self.events_read += 1;
            if let Some(v) = ev.touched_vertex() {
                touched.insert(v);
            }
        }
        for &v in &touched {
            self.refresh(g, v, out);
        }
        self.touched = touched;
    }

    /// Recompute one vertex and emit the difference into `out`.
    pub(crate) fn refresh(
        &mut self,
        g: &PropertyGraph,
        v: VertexId,
        out: &mut (impl RowSink + ?Sized),
    ) {
        let new = self.tuple_of(g, v, None);
        let old = self.memory.get(&v);
        if old == new.as_ref() {
            return;
        }
        if let Some(o) = old {
            out.push_row(Row::Held(o), -1);
        }
        match new {
            Some(n) => {
                out.push_row(Row::Held(&n), 1);
                self.memory.insert(v, n);
            }
            None => {
                self.memory.remove(&v);
            }
        }
    }
}

/// The ⇑ get-edges scan node.
///
/// Emits `(src, edge, dst, src_props…, edge_props…, dst_props…)`
/// tuples for every edge whose type matches and whose endpoints carry the
/// required labels. `Direction::In` swaps the roles of source and target;
/// `Direction::Both` emits each edge in both orientations (a self-loop
/// only once).
#[derive(Clone, Debug)]
pub(crate) struct EdgeScan {
    types: Vec<Symbol>,
    src_labels: Vec<Symbol>,
    dst_labels: Vec<Symbol>,
    src_props: Vec<PropPush>,
    edge_props: Vec<PropPush>,
    dst_props: Vec<PropPush>,
    dir: Direction,
    /// Literal equality constraints on edge properties (used when this
    /// scan feeds a variable-length join).
    edge_prop_filters: Vec<(Symbol, Value)>,
    memory: FxHashMap<EdgeId, EdgeTuples>,
    /// Reused per-batch dedup set (cleared, not reallocated).
    touched: FxHashSet<EdgeId>,
    /// Reused row-assembly buffer.
    scratch: Vec<Value>,
    /// Change events examined by [`EdgeScan::on_events_into`].
    events_read: u64,
}

/// The tuples one edge contributes, inline: one per admitted
/// orientation, so two only for a `Both` scan of a non-self-loop.
#[derive(Clone, Debug, PartialEq)]
enum EdgeTuples {
    One(Tuple),
    Two([Tuple; 2]),
}

impl EdgeTuples {
    fn as_slice(&self) -> &[Tuple] {
        match self {
            EdgeTuples::One(t) => std::slice::from_ref(t),
            EdgeTuples::Two(ts) => ts,
        }
    }
}

/// Construction parameters for [`EdgeScan`].
#[derive(Clone, Debug, Default)]
pub(crate) struct EdgeScanSpec {
    /// Admissible edge types (empty = any).
    pub types: Vec<Symbol>,
    /// Labels required on the pattern-source.
    pub src_labels: Vec<Symbol>,
    /// Labels required on the pattern-target.
    pub dst_labels: Vec<Symbol>,
    /// Pushed source properties.
    pub src_props: Vec<PropPush>,
    /// Pushed edge properties.
    pub edge_props: Vec<PropPush>,
    /// Pushed target properties.
    pub dst_props: Vec<PropPush>,
    /// Orientation.
    pub dir: Option<Direction>,
    /// Literal edge-property constraints.
    pub edge_prop_filters: Vec<(Symbol, Value)>,
}

impl EdgeScan {
    /// Create a scan from `spec`.
    pub(crate) fn new(spec: EdgeScanSpec) -> EdgeScan {
        EdgeScan {
            types: spec.types,
            src_labels: spec.src_labels,
            dst_labels: spec.dst_labels,
            src_props: spec.src_props,
            edge_props: spec.edge_props,
            dst_props: spec.dst_props,
            dir: spec.dir.unwrap_or(Direction::Out),
            edge_prop_filters: spec.edge_prop_filters,
            memory: FxHashMap::default(),
            touched: FxHashSet::default(),
            scratch: Vec::new(),
            events_read: 0,
        }
    }

    /// Number of tuples materialised in this scan's memory.
    pub(crate) fn memory_tuples(&self) -> usize {
        self.memory.values().map(|ts| ts.as_slice().len()).sum()
    }

    /// Change events this scan has examined since it was created.
    pub(crate) fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Routing contract (see [`ScanRouting`] and [`EdgeRouting`]).
    pub(crate) fn routing(&self) -> EdgeRouting {
        // One endpoint side's interest: labels gate membership, props
        // make that side's vertex state part of the emitted tuple. A side
        // with neither has no vertex interest.
        let side = |labels: &[Symbol], props: &[PropPush]| -> Option<VertexRouting> {
            if labels.is_empty() && props.is_empty() {
                return None;
            }
            Some(VertexRouting {
                labels: labels.to_vec(),
                prop_keys: props.iter().map(|p| p.prop).collect(),
            })
        };
        let mut edge_prop_keys: Vec<Symbol> = self.edge_props.iter().map(|p| p.prop).collect();
        for (k, _) in &self.edge_prop_filters {
            if !edge_prop_keys.contains(k) {
                edge_prop_keys.push(*k);
            }
        }
        EdgeRouting {
            types: self.types.clone(),
            edge_prop_keys,
            src_interest: side(&self.src_labels, &self.src_props),
            dst_interest: side(&self.dst_labels, &self.dst_props),
        }
    }

    /// Re-emit the full current memory contents into `out`.
    pub(crate) fn replay_into(&self, out: &mut dyn RowSink) {
        for tuples in self.memory.values() {
            for t in tuples.as_slice() {
                out.push_row(Row::Held(t), 1);
            }
        }
    }

    /// Do this scan's tuples depend on vertex state at all? When not
    /// (e.g. the bare `(src, e, dst)` scan feeding a variable-length
    /// join), vertex label/property events cannot change any emitted
    /// tuple, so the per-event adjacency fan-out can be skipped entirely.
    /// Structural changes (vertex deletion detaching edges) arrive as
    /// their own edge events and are still handled.
    fn vertex_sensitive(&self) -> bool {
        !self.src_labels.is_empty()
            || !self.dst_labels.is_empty()
            || !self.src_props.is_empty()
            || !self.dst_props.is_empty()
    }

    /// The tuples `e` contributes now, `None` when it fails the scan.
    /// Each is assembled in the reused scratch buffer: one allocation
    /// per tuple.
    fn tuples_of(&mut self, g: &PropertyGraph, e: EdgeId) -> Option<EdgeTuples> {
        let data = g.edge(e)?;
        if !self.types.is_empty() && !self.types.contains(&data.ty) {
            return None;
        }
        for (k, want) in &self.edge_prop_filters {
            if data.props.get(*k) != Some(want) {
                return None;
            }
        }
        let orientations: &[(VertexId, VertexId)] = match self.dir {
            Direction::Out => &[(data.src, data.dst)],
            Direction::In => &[(data.dst, data.src)],
            Direction::Both => {
                if data.src == data.dst {
                    &[(data.src, data.dst)]
                } else {
                    &[(data.src, data.dst), (data.dst, data.src)]
                }
            }
        };
        let mut first: Option<Tuple> = None;
        for &(s, d) in orientations {
            let (Some(sd), Some(dd)) = (g.vertex(s), g.vertex(d)) else {
                continue;
            };
            if !self.src_labels.iter().all(|&l| sd.has_label(l)) {
                continue;
            }
            if !self.dst_labels.iter().all(|&l| dd.has_label(l)) {
                continue;
            }
            let vals = &mut self.scratch;
            vals.clear();
            vals.push(Value::Node(s));
            vals.push(Value::Rel(e));
            vals.push(Value::Node(d));
            for p in &self.src_props {
                vals.push(sd.props.get_or_null(p.prop));
            }
            for p in &self.edge_props {
                vals.push(data.props.get_or_null(p.prop));
            }
            for p in &self.dst_props {
                vals.push(dd.props.get_or_null(p.prop));
            }
            let t = Tuple::from_slice(vals);
            match first.take() {
                None => first = Some(t),
                Some(f) => return Some(EdgeTuples::Two([f, t])),
            }
        }
        first.map(EdgeTuples::One)
    }

    /// Full evaluation against `g`.
    pub(crate) fn initial(&mut self, g: &PropertyGraph) -> Delta {
        let ids: Vec<EdgeId> = if self.types.is_empty() {
            g.edge_ids().collect()
        } else {
            self.types
                .iter()
                .flat_map(|&t| g.edges_with_type(t).iter().copied())
                .collect()
        };
        let mut out = Delta::with_capacity(ids.len());
        self.memory.reserve(ids.len());
        for e in ids {
            if let Some(tuples) = self.tuples_of(g, e) {
                for t in tuples.as_slice() {
                    out.push(t.clone(), 1);
                }
                self.memory.insert(e, tuples);
            }
        }
        // Sized once for every id; return what the endpoint labels and
        // edge-property filters rejected.
        self.memory.shrink_to_fit();
        out
    }

    /// Delta for a batch of committed events — the network hands a scan
    /// only the events routed to it — into a caller-owned (pooled)
    /// buffer or any other [`RowSink`]. Vertex events touch every
    /// incident edge (labels/properties of endpoints are part of edge
    /// tuples).
    pub(crate) fn on_events_into<'e>(
        &mut self,
        g: &PropertyGraph,
        events: impl IntoIterator<Item = &'e ChangeEvent>,
        out: &mut (impl RowSink + ?Sized),
    ) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        let vertex_sensitive = self.vertex_sensitive();
        for ev in events {
            self.events_read += 1;
            if let Some(e) = ev.touched_edge() {
                touched.insert(e);
            }
            if vertex_sensitive {
                if let Some(v) = ev.touched_vertex() {
                    // Structural vertex events come with their own edge
                    // events; label/prop updates need the adjacency.
                    touched.extend(g.out_edges(v).iter().copied());
                    touched.extend(g.in_edges(v).iter().copied());
                }
            }
        }
        for &e in &touched {
            self.refresh(g, e, out);
        }
        self.touched = touched;
    }

    fn refresh(&mut self, g: &PropertyGraph, e: EdgeId, out: &mut (impl RowSink + ?Sized)) {
        let new = self.tuples_of(g, e);
        // Unchanged is the common case (a vertex-touch event fans out to
        // every incident edge) — detect it without cloning the memory.
        if self.memory.get(&e) == new.as_ref() {
            return;
        }
        if let Some(old) = self.memory.remove(&e) {
            for t in old.as_slice() {
                out.push_row(Row::Held(t), -1);
            }
        }
        if let Some(new) = new {
            for t in new.as_slice() {
                out.push_row(Row::Held(t), 1);
            }
            self.memory.insert(e, new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_graph::props::Properties;
    use pgq_graph::tx::Transaction;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn push(prop: &str, col: &str) -> PropPush {
        PropPush {
            prop: sym(prop),
            col: col.into(),
        }
    }

    /// The consolidated delta a scan's `on_events_into` writes.
    fn consolidated(on_events_into: impl FnOnce(&mut Delta)) -> Delta {
        let mut out = Delta::new();
        on_events_into(&mut out);
        out.consolidate()
    }

    #[test]
    fn vertex_scan_initial_and_updates() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex(
            [sym("Post")],
            Properties::from_iter([("lang", Value::str("en"))]),
        );
        let mut scan = VertexScan::new(vec![sym("Post")], vec![push("lang", "p.lang")]);
        let init = scan.initial(&g).consolidate();
        assert_eq!(init.len(), 1);
        let (t0, m0) = init.iter().next().unwrap().clone();
        assert_eq!(m0, 1);
        assert_eq!(t0.get(0), &Value::Node(a));
        assert_eq!(t0.get(1), &Value::str("en"));

        // Fine-grained property change → retract + assert.
        let ev = g.set_vertex_prop(a, sym("lang"), "de".into()).unwrap();
        let d = consolidated(|out| scan.on_events_into(&g, &[ev], out));
        assert_eq!(d.len(), 2);
        // Label removal → retraction only.
        let ev = g.remove_label(a, sym("Post")).unwrap().unwrap();
        let d = consolidated(|out| scan.on_events_into(&g, &[ev], out));
        assert_eq!(d.len(), 1);
        assert_eq!(d.iter().next().unwrap().1, -1);
        assert_eq!(scan.memory_tuples(), 0);
    }

    #[test]
    fn vertex_scan_unrelated_prop_change_is_noop_tuplewise() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("Post")], Properties::new());
        let mut scan = VertexScan::new(vec![sym("Post")], vec![]);
        scan.initial(&g);
        let ev = g.set_vertex_prop(a, sym("other"), Value::Int(1)).unwrap();
        let d = consolidated(|out| scan.on_events_into(&g, &[ev], out));
        assert!(d.is_empty(), "tuple did not change, no delta expected");
    }

    #[test]
    fn edge_scan_both_orientations() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("P")], Properties::new());
        let (b, _) = g.add_vertex([sym("P")], Properties::new());
        g.add_edge(a, b, sym("KNOWS"), Properties::new()).unwrap();
        let mut scan = EdgeScan::new(EdgeScanSpec {
            types: vec![sym("KNOWS")],
            dir: Some(Direction::Both),
            ..Default::default()
        });
        let init = scan.initial(&g).consolidate();
        assert_eq!(init.len(), 2, "both orientations");
    }

    #[test]
    fn edge_scan_self_loop_once_in_both_mode() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("P")], Properties::new());
        g.add_edge(a, a, sym("KNOWS"), Properties::new()).unwrap();
        let mut scan = EdgeScan::new(EdgeScanSpec {
            dir: Some(Direction::Both),
            ..Default::default()
        });
        assert_eq!(scan.initial(&g).consolidate().len(), 1);
    }

    #[test]
    fn edge_scan_reacts_to_endpoint_label_change() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("Post")], Properties::new());
        let (b, _) = g.add_vertex([sym("Comm")], Properties::new());
        g.add_edge(a, b, sym("REPLY"), Properties::new()).unwrap();
        let mut scan = EdgeScan::new(EdgeScanSpec {
            types: vec![sym("REPLY")],
            dst_labels: vec![sym("Comm")],
            dir: Some(Direction::Out),
            ..Default::default()
        });
        assert_eq!(scan.initial(&g).consolidate().len(), 1);
        let ev = g.remove_label(b, sym("Comm")).unwrap().unwrap();
        let d = consolidated(|out| scan.on_events_into(&g, &[ev], out));
        assert_eq!(d.len(), 1);
        assert_eq!(d.iter().next().unwrap().1, -1);
    }

    #[test]
    fn edge_scan_prop_filter() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("P")], Properties::new());
        let (b, _) = g.add_vertex([sym("P")], Properties::new());
        let (e, _) = g
            .add_edge(
                a,
                b,
                sym("R"),
                Properties::from_iter([("w", Value::Int(1))]),
            )
            .unwrap();
        let mut scan = EdgeScan::new(EdgeScanSpec {
            edge_prop_filters: vec![(sym("w"), Value::Int(1))],
            ..Default::default()
        });
        assert_eq!(scan.initial(&g).consolidate().len(), 1);
        let ev = g.set_edge_prop(e, sym("w"), Value::Int(2)).unwrap();
        let d = consolidated(|out| scan.on_events_into(&g, &[ev], out));
        assert_eq!(d.iter().next().unwrap().1, -1);
    }

    #[test]
    fn transaction_events_flow_through_scan() {
        let mut g = PropertyGraph::new();
        let mut scan = VertexScan::new(vec![sym("Post")], vec![]);
        scan.initial(&g);
        let mut tx = Transaction::new();
        tx.create_vertex([sym("Post")], Properties::new());
        tx.create_vertex([sym("Comm")], Properties::new());
        let events = g.apply(&tx).unwrap();
        let d = consolidated(|out| scan.on_events_into(&g, &events, out));
        assert_eq!(d.len(), 1, "only the Post matches");
    }
}
