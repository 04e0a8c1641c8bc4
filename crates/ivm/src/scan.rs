//! Base-relation operators: the © get-vertices and ⇑ get-edges scans.
//!
//! Scans are the boundary between the graph's change feed and the tuple
//! dataflow, and they hold no state: for each element a pass's events
//! touch, a scan assembles the element's row(s) before the pass — read
//! from the pass's [`BeforeImage`], the post-state graph with the pass's
//! events undone — and now, read from the graph, and emits the
//! difference. This turns arbitrary fine-grained events (FGN:
//! property/label updates) into minimal tuple deltas, one per changed
//! element and orientation, so a scan's output is consolidated by
//! construction: every row carries its element's id.

use pgq_algebra::fra::PropPush;
use pgq_common::dir::Direction;
use pgq_common::fxhash::FxHashSet;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::before::{BeforeImage, EdgeView, VertexView};
use pgq_graph::delta::ChangeEvent;
use pgq_graph::store::PropertyGraph;

use crate::delta::{Row, RowSink};

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

/// The © get-vertices scan node. It keeps no copy of what it emitted: a
/// pass diffs each touched vertex's row before the pass, read from the
/// pass's [`BeforeImage`], against its row now, read from the graph.
#[derive(Clone, Debug)]
pub(crate) struct VertexScan {
    labels: Vec<Symbol>,
    props: Vec<PropPush>,
    /// Reused per-batch dedup set (cleared, not reallocated).
    touched: FxHashSet<VertexId>,
    /// Reused row-assembly buffers: a vertex's row before the pass and
    /// now.
    before: Vec<Value>,
    now: Vec<Value>,
    /// Change events examined by [`VertexScan::on_events_into`].
    events_read: u64,
}

/// A changed row into `out`: the old one retracted, the new asserted.
fn push_change(out: &mut (impl RowSink + ?Sized), old: Option<&[Value]>, new: Option<&[Value]>) {
    if let Some(old) = old {
        out.push_row(Row::Assembled(old), -1);
    }
    if let Some(new) = new {
        out.push_row(Row::Assembled(new), 1);
    }
}

/// Edges [`EdgeScan::replay_into`] reads per stage.
const BATCH: usize = 64;

/// `v`'s row `[v, props…]` as `data` holds it, assembled into `row`;
/// false when `v` is absent or lacks one of `labels`.
fn vertex_row(
    labels: &[Symbol],
    props: &[PropPush],
    v: VertexId,
    data: Option<VertexView<'_>>,
    row: &mut Vec<Value>,
) -> bool {
    let Some(data) = data else { return false };
    if !labels.iter().all(|&l| data.has_label(l)) {
        return false;
    }
    row.clear();
    row.push(Value::Node(v));
    row.extend(props.iter().map(|p| data.get_or_null(p.prop)));
    true
}

impl VertexScan {
    /// Create a scan for `labels` (empty = all vertices) emitting the
    /// pushed `props`.
    pub(crate) fn new(labels: Vec<Symbol>, props: Vec<PropPush>) -> VertexScan {
        VertexScan {
            labels,
            props,
            touched: FxHashSet::default(),
            before: Vec::new(),
            now: Vec::new(),
            events_read: 0,
        }
    }

    /// Change events this scan has examined since it was created.
    pub(crate) fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Routing contract (see [`ScanRouting`]).
    pub(crate) fn routing(&self) -> VertexRouting {
        VertexRouting {
            labels: self.labels.clone(),
            prop_keys: self.props.iter().map(|p| p.prop).collect(),
        }
    }

    /// `v`'s row as `data` holds it, into `row`; false when `v` fails
    /// the scan.
    pub(crate) fn row_into(
        &self,
        v: VertexId,
        data: Option<VertexView<'_>>,
        row: &mut Vec<Value>,
    ) -> bool {
        vertex_row(&self.labels, &self.props, v, data, row)
    }

    /// How many vertices [`VertexScan::replay_into`] reads from `g`: a
    /// bound on its rows.
    pub(crate) fn extent(&self, g: &PropertyGraph) -> usize {
        let extents = self.labels.iter().map(|&l| g.vertices_with_label(l).len());
        extents.min().unwrap_or(g.vertex_count())
    }

    /// Emit every row of the scan over `g`, each with multiplicity +1,
    /// into `out`: the smallest label extent, the other labels tested in
    /// the label index, a vertex read only for its pushed properties.
    pub(crate) fn replay_into(&self, g: &PropertyGraph, out: &mut (impl RowSink + ?Sized)) {
        let extent = self
            .labels
            .iter()
            .min_by_key(|&&l| g.vertices_with_label(l).len());
        let mut row = Vec::with_capacity(1 + self.props.len());
        let mut emit = |v: VertexId| {
            let mut tested = self.labels.iter().filter(|&l| Some(l) != extent);
            if !tested.all(|&l| g.has_label(v, l)) {
                return;
            }
            row.clear();
            row.push(Value::Node(v));
            if !self.props.is_empty() {
                let data = g.vertex_view(v).expect("a listed vertex exists");
                row.extend(self.props.iter().map(|p| data.get_or_null(p.prop)));
            }
            out.push_row(Row::Assembled(&row), 1);
        };
        match extent {
            None => g.vertex_ids().for_each(&mut emit),
            Some(&l) => g.vertices_with_label(l).iter().copied().for_each(&mut emit),
        }
    }

    /// Delta for a batch of committed events — the network hands a scan
    /// only the events routed to it; `image` undoes all of the pass's —
    /// into a caller-owned (pooled) buffer or any other [`RowSink`].
    pub(crate) fn on_events_into<'e>(
        &mut self,
        image: &BeforeImage<'_>,
        events: impl IntoIterator<Item = &'e ChangeEvent>,
        out: &mut (impl RowSink + ?Sized),
    ) {
        self.changes(image, events, |_, old, new| push_change(out, old, new));
    }

    /// Call `f(v, old, new)` for every vertex the events touch whose row
    /// changed: its row before the pass and now, `None` where it failed
    /// the scan.
    pub(crate) fn changes<'e>(
        &mut self,
        image: &BeforeImage<'_>,
        events: impl IntoIterator<Item = &'e ChangeEvent>,
        mut f: impl FnMut(VertexId, Option<&[Value]>, Option<&[Value]>),
    ) {
        let VertexScan {
            labels,
            props,
            touched,
            before,
            now,
            events_read,
        } = self;
        touched.clear();
        for ev in events {
            *events_read += 1;
            if let Some(v) = ev.touched_vertex() {
                touched.insert(v);
            }
        }
        let g = image.graph();
        for &v in touched.iter() {
            let had = vertex_row(labels, props, v, image.vertex(v), before);
            let has = vertex_row(labels, props, v, g.vertex_view(v), now);
            if had && has && before == now {
                continue;
            }
            f(v, had.then_some(&before[..]), has.then_some(&now[..]));
        }
    }
}

/// The ⇑ get-edges scan node.
///
/// Emits `(src, edge, dst, src_props…, edge_props…, dst_props…)`
/// tuples for every edge whose type matches and whose endpoints carry the
/// required labels. `Direction::In` swaps the roles of source and target;
/// `Direction::Both` emits each edge in both orientations (a self-loop
/// only once). Like [`VertexScan`] it keeps no copy of what it emitted.
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
    /// Reused per-batch dedup set (cleared, not reallocated).
    touched: FxHashSet<EdgeId>,
    /// Reused row-assembly buffers: one orientation's row before the
    /// pass and now.
    before: Vec<Value>,
    now: Vec<Value>,
    /// Change events examined by [`EdgeScan::on_events_into`].
    events_read: u64,
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
            touched: FxHashSet::default(),
            before: Vec::new(),
            now: Vec::new(),
            events_read: 0,
        }
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

    /// Does `edge` pass the type and edge-property constraints?
    fn admits(&self, edge: &EdgeView<'_>) -> bool {
        (self.types.is_empty() || self.types.contains(&edge.ty()))
            && self
                .edge_prop_filters
                .iter()
                .all(|(k, want)| edge.get(*k) == Some(want))
    }

    /// The `(pattern-source, pattern-target)` orientations of an edge
    /// `src → dst` the scan emits: the first `n` of the array.
    fn orientations(&self, src: VertexId, dst: VertexId) -> ([(VertexId, VertexId); 2], usize) {
        match self.dir {
            Direction::Out => ([(src, dst); 2], 1),
            Direction::In => ([(dst, src); 2], 1),
            Direction::Both if src == dst => ([(src, dst); 2], 1),
            Direction::Both => ([(src, dst), (dst, src)], 2),
        }
    }

    /// `e`'s row in orientation `s → d`, reading the edge and both
    /// endpoints through `edge` and `vertex`, into `row`; false when it
    /// fails the scan. `edge` has passed [`EdgeScan::admits`]. The target
    /// is looked up only once the source has passed.
    fn row_into<'g>(
        &self,
        (s, d): (VertexId, VertexId),
        e: EdgeId,
        edge: &EdgeView<'g>,
        vertex: impl Fn(VertexId) -> Option<VertexView<'g>>,
        row: &mut Vec<Value>,
    ) -> bool {
        let carries =
            |v: &VertexView<'_>, labels: &[Symbol]| labels.iter().all(|&l| v.has_label(l));
        let Some(src) = vertex(s).filter(|v| carries(v, &self.src_labels)) else {
            return false;
        };
        let Some(dst) = vertex(d).filter(|v| carries(v, &self.dst_labels)) else {
            return false;
        };
        self.assemble((s, d), e, edge, (Some(&src), Some(&dst)), row);
        true
    }

    /// `e`'s row in orientation `s → d` into `row`, its endpoints'
    /// pushed properties read from `ends` (`None` where that side pushes
    /// none).
    fn assemble(
        &self,
        (s, d): (VertexId, VertexId),
        e: EdgeId,
        edge: &EdgeView<'_>,
        (src, dst): (Option<&VertexView<'_>>, Option<&VertexView<'_>>),
        row: &mut Vec<Value>,
    ) {
        let prop = |v: Option<&VertexView<'_>>, p: &PropPush| {
            v.map_or(Value::Null, |v| v.get_or_null(p.prop))
        };
        row.clear();
        row.extend([Value::Node(s), Value::Rel(e), Value::Node(d)]);
        row.extend(self.src_props.iter().map(|p| prop(src, p)));
        row.extend(self.edge_props.iter().map(|p| edge.get_or_null(p.prop)));
        row.extend(self.dst_props.iter().map(|p| prop(dst, p)));
    }

    /// How many rows [`EdgeScan::replay_into`] can emit from `g`: one
    /// per orientation of every edge it reads.
    pub(crate) fn extent(&self, g: &PropertyGraph) -> usize {
        let edges = match self.types.is_empty() {
            true => g.edge_count(),
            false => self.types.iter().map(|&t| g.edges_with_type(t).len()).sum(),
        };
        match self.dir {
            Direction::Both => 2 * edges,
            Direction::Out | Direction::In => edges,
        }
    }

    /// Emit every row of the scan over `g`, each with multiplicity +1,
    /// into `out`. Endpoint labels are tested in the label index, and an
    /// endpoint is read only for its pushed properties. Edges are read
    /// [`BATCH`] at a time, one kind of lookup per stage — the edges,
    /// their endpoints' labels, the sources, the targets — so that a
    /// stage's cache misses overlap instead of each waiting behind the
    /// lookups and the consumer of the row before it.
    pub(crate) fn replay_into(&self, g: &PropertyGraph, out: &mut (impl RowSink + ?Sized)) {
        let carries = |v: VertexId, labels: &[Symbol]| labels.iter().all(|&l| g.has_label(v, l));
        let read = |v: VertexId, props: &[PropPush]| match props.is_empty() {
            true => None,
            false => g.vertex_view(v),
        };
        let all = self.types.is_empty().then(|| g.edge_ids());
        let typed = self.types.iter().flat_map(|&t| g.edges_with_type(t));
        let mut ids = all.into_iter().flatten().chain(typed.copied());
        // A batch's edges; their (at most two) admitted orientations; and
        // those orientations' sources and targets, read for their props.
        let mut edges = Vec::with_capacity(BATCH);
        let (mut hits, mut ends) = (Vec::with_capacity(2 * BATCH), Vec::with_capacity(2 * BATCH));
        let width = 3 + self.src_props.len() + self.edge_props.len() + self.dst_props.len();
        let mut row = Vec::with_capacity(width);
        loop {
            edges.clear();
            edges.extend(ids.by_ref().take(BATCH).map(|e| (e, g.edge_view(e))));
            hits.clear();
            for &(e, edge) in &edges {
                let Some(edge) = edge.filter(|edge| self.admits(edge)) else {
                    continue;
                };
                let (ends, n) = self.orientations(edge.src(), edge.dst());
                let admitted = ends[..n].iter().filter(|&&(s, d)| {
                    carries(s, &self.src_labels) && carries(d, &self.dst_labels)
                });
                hits.extend(admitted.map(|&ends| (e, edge, ends)));
            }
            ends.clear();
            ends.extend(
                hits.iter()
                    .map(|&(_, _, (s, _))| (read(s, &self.src_props), None)),
            );
            for (&(_, _, (_, d)), (_, dst)) in hits.iter().zip(&mut ends) {
                *dst = read(d, &self.dst_props);
            }
            for (&(e, edge, sd), (src, dst)) in hits.iter().zip(&ends) {
                self.assemble(sd, e, &edge, (src.as_ref(), dst.as_ref()), &mut row);
                out.push_row(Row::Assembled(&row), 1);
            }
            if edges.len() < BATCH {
                return;
            }
        }
    }

    /// Delta for a batch of committed events — the network hands a scan
    /// only the events routed to it; `image` undoes all of the pass's —
    /// into a caller-owned (pooled) buffer or any other [`RowSink`].
    /// Vertex events touch every incident edge (labels/properties of
    /// endpoints are part of edge tuples).
    pub(crate) fn on_events_into<'e>(
        &mut self,
        image: &BeforeImage<'_>,
        events: impl IntoIterator<Item = &'e ChangeEvent>,
        out: &mut (impl RowSink + ?Sized),
    ) {
        self.changes(image, events, |old, new| push_change(out, old, new));
    }

    /// Call `f(old, new)` for every orientation of every edge the events
    /// touch whose row changed: its row before the pass and now, `None`
    /// where it failed the scan.
    pub(crate) fn changes<'e>(
        &mut self,
        image: &BeforeImage<'_>,
        events: impl IntoIterator<Item = &'e ChangeEvent>,
        mut f: impl FnMut(Option<&[Value]>, Option<&[Value]>),
    ) {
        let g = image.graph();
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
        let (mut before, mut now) = (
            std::mem::take(&mut self.before),
            std::mem::take(&mut self.now),
        );
        for &e in &touched {
            let old = image.edge(e);
            let new = g.edge_view(e);
            // Endpoints never change, so both sides share orientations.
            let Some(ends) = old.or(new).map(|edge| (edge.src(), edge.dst())) else {
                continue;
            };
            let old = old.filter(|edge| self.admits(edge));
            let new = new.filter(|edge| self.admits(edge));
            let (orientations, n) = self.orientations(ends.0, ends.1);
            for &ends in &orientations[..n] {
                let had = old.is_some_and(|edge| {
                    self.row_into(ends, e, &edge, |v| image.vertex(v), &mut before)
                });
                let has = new.is_some_and(|edge| {
                    self.row_into(ends, e, &edge, |v| g.vertex_view(v), &mut now)
                });
                if had && has && before == now {
                    continue;
                }
                f(had.then_some(&before[..]), has.then_some(&now[..]));
            }
        }
        self.touched = touched;
        (self.before, self.now) = (before, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use pgq_graph::before::BeforeIndex;
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

    /// The bag a scan's `replay_into` writes.
    fn scan_bag(replay_into: impl FnOnce(&mut Delta)) -> Delta {
        let mut out = Delta::new();
        replay_into(&mut out);
        out
    }

    /// The consolidated delta a scan's `on_events_into` writes for a
    /// pass of `events` over their post-state `g`.
    fn consolidated(
        g: &PropertyGraph,
        events: &[ChangeEvent],
        on_events_into: impl FnOnce(&BeforeImage<'_>, &[ChangeEvent], &mut Delta),
    ) -> Delta {
        let mut index = BeforeIndex::new();
        let mut out = Delta::new();
        on_events_into(&index.build(g, events), events, &mut out);
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
        let init = scan_bag(|out| scan.replay_into(&g, out)).consolidate();
        assert_eq!(init.len(), 1);
        let (t0, m0) = init.iter().next().unwrap().clone();
        assert_eq!(m0, 1);
        assert_eq!(t0.get(0), &Value::Node(a));
        assert_eq!(t0.get(1), &Value::str("en"));

        // Fine-grained property change → retract + assert.
        let ev = g.set_vertex_prop(a, sym("lang"), "de".into()).unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.on_events_into(image, evs, out)
        });
        assert_eq!(d.len(), 2);
        // Label removal → retraction only.
        let ev = g.remove_label(a, sym("Post")).unwrap().unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.on_events_into(image, evs, out)
        });
        assert_eq!(d.len(), 1);
        assert_eq!(d.iter().next().unwrap().1, -1);
    }

    #[test]
    fn vertex_scan_unrelated_prop_change_is_noop_tuplewise() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("Post")], Properties::new());
        let mut scan = VertexScan::new(vec![sym("Post")], vec![]);
        scan_bag(|out| scan.replay_into(&g, out));
        let ev = g.set_vertex_prop(a, sym("other"), Value::Int(1)).unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.on_events_into(image, evs, out)
        });
        assert!(d.is_empty(), "tuple did not change, no delta expected");
    }

    #[test]
    fn edge_scan_both_orientations() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("P")], Properties::new());
        let (b, _) = g.add_vertex([sym("P")], Properties::new());
        g.add_edge(a, b, sym("KNOWS"), Properties::new()).unwrap();
        let scan = EdgeScan::new(EdgeScanSpec {
            types: vec![sym("KNOWS")],
            dir: Some(Direction::Both),
            ..Default::default()
        });
        let init = scan_bag(|out| scan.replay_into(&g, out)).consolidate();
        assert_eq!(init.len(), 2, "both orientations");
    }

    #[test]
    fn edge_scan_self_loop_once_in_both_mode() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("P")], Properties::new());
        g.add_edge(a, a, sym("KNOWS"), Properties::new()).unwrap();
        let scan = EdgeScan::new(EdgeScanSpec {
            dir: Some(Direction::Both),
            ..Default::default()
        });
        assert_eq!(
            scan_bag(|out| scan.replay_into(&g, out))
                .consolidate()
                .len(),
            1
        );
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
        assert_eq!(
            scan_bag(|out| scan.replay_into(&g, out))
                .consolidate()
                .len(),
            1
        );
        let ev = g.remove_label(b, sym("Comm")).unwrap().unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.on_events_into(image, evs, out)
        });
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
        assert_eq!(
            scan_bag(|out| scan.replay_into(&g, out))
                .consolidate()
                .len(),
            1
        );
        let ev = g.set_edge_prop(e, sym("w"), Value::Int(2)).unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.on_events_into(image, evs, out)
        });
        assert_eq!(d.iter().next().unwrap().1, -1);
    }

    #[test]
    fn transaction_events_flow_through_scan() {
        let mut g = PropertyGraph::new();
        let mut scan = VertexScan::new(vec![sym("Post")], vec![]);
        scan_bag(|out| scan.replay_into(&g, out));
        let mut tx = Transaction::new();
        tx.create_vertex([sym("Post")], Properties::new());
        tx.create_vertex([sym("Comm")], Properties::new());
        let events = g.apply(&tx).unwrap();
        let d = consolidated(&g, &events, |image, evs, out| {
            scan.on_events_into(image, evs, out)
        });
        assert_eq!(d.len(), 1, "only the Post matches");
    }
}
