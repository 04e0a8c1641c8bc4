//! The property graph store.

use std::fmt;

use pgq_common::fxhash::FxHashMap;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;

use crate::delta::ChangeEvent;
use crate::index::GraphIndexes;
use crate::props::Properties;
use crate::stats::CatalogCell;

/// Payload of a vertex: label set + property map.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct VertexData {
    /// Labels, kept sorted and duplicate-free.
    pub labels: Vec<Symbol>,
    /// Property map.
    pub props: Properties,
}

impl VertexData {
    /// Does the vertex carry `label`?
    pub fn has_label(&self, label: Symbol) -> bool {
        self.labels.binary_search(&label).is_ok()
    }
}

/// Payload of an edge: endpoints (the paper's `st` function), single type,
/// property map.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeData {
    /// Source vertex.
    pub src: VertexId,
    /// Target vertex.
    pub dst: VertexId,
    /// Edge type.
    pub ty: Symbol,
    /// Property map.
    pub props: Properties,
}

/// Errors from store mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// Referenced vertex does not exist.
    VertexNotFound(VertexId),
    /// Referenced edge does not exist.
    EdgeNotFound(EdgeId),
    /// Attempt to delete a vertex that still has incident edges without
    /// `detach` (mirrors Cypher's `DELETE` vs `DETACH DELETE`).
    VertexHasEdges(VertexId),
    /// A transaction referenced a locally created vertex index that does
    /// not exist.
    BadNodeRef(usize),
    /// Store-level validation failure with a free-form reason.
    Invalid(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexNotFound(v) => write!(f, "vertex {v} not found"),
            GraphError::EdgeNotFound(e) => write!(f, "edge {e} not found"),
            GraphError::VertexHasEdges(v) => {
                write!(f, "vertex {v} still has incident edges (use detach delete)")
            }
            GraphError::BadNodeRef(i) => write!(f, "transaction-local node #{i} does not exist"),
            GraphError::Invalid(msg) => write!(f, "invalid operation: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An in-memory property graph with label/type/adjacency indexes.
///
/// All mutators return the [`ChangeEvent`]s they committed; batch them
/// through [`crate::tx::Transaction`] for atomicity.
#[derive(Default, Debug)]
pub struct PropertyGraph {
    vertices: FxHashMap<VertexId, VertexData>,
    edges: FxHashMap<EdgeId, EdgeData>,
    index: GraphIndexes,
    /// Deferred cardinality counters (see [`crate::stats`]); a mutex
    /// only so `&self` readers can integrate pending deltas — mutators
    /// go through `get_mut` and never lock.
    catalog: std::sync::Mutex<CatalogCell>,
    /// While true, mutators skip their per-mutation catalog hooks; the
    /// transaction path ([`PropertyGraph::apply`]) sets this and derives
    /// the catalog deltas from the committed event stream instead, so a
    /// rolled-back transaction pays zero catalog traffic.
    catalog_defer: bool,
    next_vertex: u64,
    next_edge: u64,
}

impl Clone for PropertyGraph {
    fn clone(&self) -> PropertyGraph {
        PropertyGraph {
            vertices: self.vertices.clone(),
            edges: self.edges.clone(),
            index: self.index.clone(),
            catalog: std::sync::Mutex::new(
                self.catalog
                    .lock()
                    .expect("catalog mutex poisoned (a catalog update panicked)")
                    .clone(),
            ),
            catalog_defer: self.catalog_defer,
            next_vertex: self.next_vertex,
            next_edge: self.next_edge,
        }
    }
}

impl PropertyGraph {
    /// Empty graph.
    pub fn new() -> Self {
        PropertyGraph::default()
    }

    // ---- accessors -------------------------------------------------------

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Vertex payload.
    pub fn vertex(&self, id: VertexId) -> Option<&VertexData> {
        self.vertices.get(&id)
    }

    /// Edge payload.
    pub fn edge(&self, id: EdgeId) -> Option<&EdgeData> {
        self.edges.get(&id)
    }

    /// Does `id` exist?
    pub fn has_vertex(&self, id: VertexId) -> bool {
        self.vertices.contains_key(&id)
    }

    /// Does `id` exist?
    pub fn has_edge(&self, id: EdgeId) -> bool {
        self.edges.contains_key(&id)
    }

    /// All vertex ids (arbitrary but deterministic order).
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices.keys().copied()
    }

    /// All edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.keys().copied()
    }

    /// All vertices with their payloads, borrowed (same order as
    /// [`PropertyGraph::vertex_ids`]).
    pub fn vertices(&self) -> impl Iterator<Item = (VertexId, &VertexData)> + '_ {
        self.vertices.iter().map(|(id, data)| (*id, data))
    }

    /// All edges with their payloads, borrowed.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeData)> + '_ {
        self.edges.iter().map(|(id, data)| (*id, data))
    }

    /// Vertices carrying `label` (via the label index).
    pub fn vertices_with_label(&self, label: Symbol) -> &[VertexId] {
        self.index.with_label(label)
    }

    /// Edges of type `ty` (via the type index).
    pub fn edges_with_type(&self, ty: Symbol) -> &[EdgeId] {
        self.index.with_type(ty)
    }

    /// Outgoing edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        self.index.out_edges(v)
    }

    /// Incoming edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        self.index.in_edges(v)
    }

    /// Start maintaining the property-equality index `(label, key)`
    /// (see [`crate::index`]); returns `true` when this call built it.
    /// Built once from the label's extent, then kept by the mutators.
    pub fn ensure_prop_index(&mut self, label: Symbol, key: Symbol) -> bool {
        let built = !self.index.has_prop(label, key);
        let vertices = &self.vertices;
        self.index.ensure_prop(label, key, |v| {
            vertices.get(&v).and_then(|d| d.props.get(key))
        });
        built
    }

    /// Is the property index `(label, key)` maintained?
    pub fn has_prop_index(&self, label: Symbol, key: Symbol) -> bool {
        self.index.has_prop(label, key)
    }

    /// Candidate vertices for `(:label {key: value})` from the property
    /// index: a superset of the matches under `Value::cypher_eq`, or
    /// `None` when no index can answer (the caller scans).
    pub fn prop_seek(&self, label: Symbol, key: Symbol, value: &Value) -> Option<&[VertexId]> {
        self.index.prop_seek(label, key, value)
    }

    /// The maintained property indexes as `(label, key, vertices filed)`.
    pub fn prop_indexes(&self) -> Vec<(Symbol, Symbol, usize)> {
        self.index.prop_indexes().collect()
    }

    /// One property index's content, sorted — for audits against a
    /// from-scratch rebuild.
    pub fn prop_index_dump(&self, label: Symbol, key: Symbol) -> Vec<(Value, Vec<VertexId>)> {
        self.index.prop_dump(label, key)
    }

    /// Every label that has ever appeared.
    pub fn labels(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.index.labels()
    }

    /// Every edge type that has ever appeared.
    pub fn edge_types(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.index.types()
    }

    /// The catalog cell (counters + pending deltas); the public read
    /// API is [`PropertyGraph::catalog`](crate::stats) in `stats.rs`.
    pub(crate) fn catalog_cell(&self) -> &std::sync::Mutex<CatalogCell> {
        &self.catalog
    }

    /// The catalog cell for mutators: no locking (`&mut self` proves
    /// exclusivity).
    #[inline]
    fn catalog_mut(&mut self) -> &mut CatalogCell {
        self.catalog
            .get_mut()
            .expect("catalog mutex poisoned (a catalog update panicked)")
    }

    /// Start deferring catalog maintenance: mutators skip their
    /// per-mutation hooks until [`PropertyGraph::end_catalog_defer`].
    /// Used by the transaction path, which derives the deltas from the
    /// committed events via [`PropertyGraph::catalog_fold_events`].
    #[inline]
    pub(crate) fn begin_catalog_defer(&mut self) {
        self.catalog_defer = true;
    }

    /// Stop deferring catalog maintenance (see
    /// [`PropertyGraph::begin_catalog_defer`]).
    #[inline]
    pub(crate) fn end_catalog_defer(&mut self) {
        self.catalog_defer = false;
    }

    /// Append the cardinality-catalog deltas of a committed transaction,
    /// derived from its event stream in exact mutation order. Must be
    /// called on the post-transaction graph (added elements' payloads
    /// are read from the final state, or from the removal event when
    /// they were deleted again within the same transaction).
    pub(crate) fn catalog_fold_events(&mut self, events: &[ChangeEvent]) {
        let PropertyGraph {
            vertices,
            edges,
            index,
            catalog,
            ..
        } = self;
        let cell = catalog
            .get_mut()
            .expect("catalog mutex poisoned (a catalog update panicked)");
        match events {
            [] => return,
            [ev] => fold_single(cell, vertices, edges, index, ev),
            evs => fold_many(cell, vertices, edges, index, evs),
        }
        cell.maybe_integrate();
    }

    /// Vertex property lookup, `Null` when absent (Cypher semantics).
    pub fn vertex_prop(&self, id: VertexId, key: Symbol) -> Value {
        self.vertices
            .get(&id)
            .map_or(Value::Null, |d| d.props.get_or_null(key))
    }

    // ---- mutators --------------------------------------------------------

    /// Create a vertex; returns its id and the event.
    pub fn add_vertex(
        &mut self,
        labels: impl IntoIterator<Item = Symbol>,
        props: Properties,
    ) -> (VertexId, ChangeEvent) {
        let id = VertexId(self.next_vertex);
        self.next_vertex += 1;
        self.insert_vertex_raw(id, labels, props);
        (id, ChangeEvent::VertexAdded { id })
    }

    /// Re-insert a vertex under a specific id (transaction rollback and
    /// loader use only — ids must not collide).
    pub(crate) fn insert_vertex_raw(
        &mut self,
        id: VertexId,
        labels: impl IntoIterator<Item = Symbol>,
        props: Properties,
    ) {
        let mut labels: Vec<Symbol> = labels.into_iter().collect();
        labels.sort_unstable();
        labels.dedup();
        for &l in &labels {
            self.index.add_label(l, id);
        }
        self.index.prop_vertex(&labels, &props, id, true);
        if !self.catalog_defer {
            self.catalog_mut().on_vertex_added(&props);
        }
        self.vertices.insert(id, VertexData { labels, props });
        self.next_vertex = self.next_vertex.max(id.0 + 1);
    }

    /// Re-insert a vertex under a specific id — the snapshot-loader
    /// seam (`pgq_durability`). A live id is refused: a dump that
    /// repeats a row must not index it twice. The id watermark advances
    /// past `id` and catalog counters are kept as for a normal insert.
    pub fn load_vertex(
        &mut self,
        id: VertexId,
        labels: impl IntoIterator<Item = Symbol>,
        props: Properties,
    ) -> Result<(), GraphError> {
        if self.vertices.contains_key(&id) {
            return Err(GraphError::Invalid(format!("vertex {id} already exists")));
        }
        self.insert_vertex_raw(id, labels, props);
        Ok(())
    }

    /// Re-insert an edge under a specific id (snapshot-loader seam; see
    /// [`PropertyGraph::load_vertex`]). Endpoints must already exist and
    /// the id must not.
    pub fn load_edge(
        &mut self,
        id: EdgeId,
        src: VertexId,
        dst: VertexId,
        ty: Symbol,
        props: Properties,
    ) -> Result<(), GraphError> {
        if self.edges.contains_key(&id) {
            return Err(GraphError::Invalid(format!("edge {id} already exists")));
        }
        if !self.vertices.contains_key(&src) {
            return Err(GraphError::VertexNotFound(src));
        }
        if !self.vertices.contains_key(&dst) {
            return Err(GraphError::VertexNotFound(dst));
        }
        self.insert_edge_raw(id, src, dst, ty, props);
        Ok(())
    }

    /// The id-allocation watermarks `(next_vertex, next_edge)`. Part of
    /// the durable snapshot: WAL-tail replay must allocate the same ids
    /// the original process did, and the maximum live id can undershoot
    /// the watermark when the most recently created elements were
    /// deleted before the snapshot.
    pub fn id_watermarks(&self) -> (u64, u64) {
        (self.next_vertex, self.next_edge)
    }

    /// Advance the id-allocation watermarks (monotone; loader use only —
    /// see [`PropertyGraph::id_watermarks`]).
    pub fn set_id_watermarks(&mut self, next_vertex: u64, next_edge: u64) {
        self.next_vertex = self.next_vertex.max(next_vertex);
        self.next_edge = self.next_edge.max(next_edge);
    }

    /// Restore the id-allocation watermarks *exactly* — rollback use
    /// only. Ids are part of the durable contract (WAL replay must
    /// re-allocate the same ids the original process did), so undoing a
    /// transaction must also un-burn the ids it allocated; the monotone
    /// setter above cannot move the watermark backwards.
    pub(crate) fn rollback_id_watermarks(&mut self, next_vertex: u64, next_edge: u64) {
        self.next_vertex = next_vertex;
        self.next_edge = next_edge;
    }

    /// Delete a vertex. With `detach`, incident edges are removed first
    /// (their events precede the vertex event); otherwise incident edges
    /// are an error.
    pub(crate) fn remove_vertex(
        &mut self,
        id: VertexId,
        detach: bool,
    ) -> Result<Vec<ChangeEvent>, GraphError> {
        if !self.vertices.contains_key(&id) {
            return Err(GraphError::VertexNotFound(id));
        }
        let mut incident: Vec<EdgeId> = self
            .index
            .out_edges(id)
            .iter()
            .chain(self.index.in_edges(id))
            .copied()
            .collect();
        incident.sort_unstable();
        incident.dedup();
        if !incident.is_empty() && !detach {
            return Err(GraphError::VertexHasEdges(id));
        }
        let mut events = Vec::with_capacity(incident.len() + 1);
        for e in incident {
            events.push(self.remove_edge(e)?);
        }
        let data = self.vertices.remove(&id).expect("checked above");
        for &l in &data.labels {
            self.index.remove_label(l, id);
        }
        self.index.prop_vertex(&data.labels, &data.props, id, false);
        if !self.catalog_defer {
            self.catalog_mut().on_vertex_removed(&data.props);
        }
        events.push(ChangeEvent::VertexRemoved { id, data });
        Ok(events)
    }

    /// Create an edge; both endpoints must exist.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        ty: Symbol,
        props: Properties,
    ) -> Result<(EdgeId, ChangeEvent), GraphError> {
        if !self.vertices.contains_key(&src) {
            return Err(GraphError::VertexNotFound(src));
        }
        if !self.vertices.contains_key(&dst) {
            return Err(GraphError::VertexNotFound(dst));
        }
        let id = EdgeId(self.next_edge);
        self.next_edge += 1;
        self.insert_edge_raw(id, src, dst, ty, props);
        Ok((id, ChangeEvent::EdgeAdded { id }))
    }

    pub(crate) fn insert_edge_raw(
        &mut self,
        id: EdgeId,
        src: VertexId,
        dst: VertexId,
        ty: Symbol,
        props: Properties,
    ) {
        let old_src_out = self.index.add_edge(id, src, dst, ty);
        if !self.catalog_defer {
            self.catalog_mut()
                .on_edge_added(ty, src, dst, old_src_out, &props);
        }
        self.edges.insert(
            id,
            EdgeData {
                src,
                dst,
                ty,
                props,
            },
        );
        self.next_edge = self.next_edge.max(id.0 + 1);
    }

    /// Delete an edge.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<ChangeEvent, GraphError> {
        let data = self.edges.remove(&id).ok_or(GraphError::EdgeNotFound(id))?;
        let old_src_out = self.index.remove_edge(id, data.src, data.dst, data.ty);
        if !self.catalog_defer {
            self.catalog_mut().on_edge_removed(
                data.ty,
                data.src,
                data.dst,
                old_src_out,
                &data.props,
            );
        }
        Ok(ChangeEvent::EdgeRemoved { id, data })
    }

    /// Set (or with `Null`, remove) a vertex property.
    pub fn set_vertex_prop(
        &mut self,
        id: VertexId,
        key: Symbol,
        value: Value,
    ) -> Result<ChangeEvent, GraphError> {
        let data = self
            .vertices
            .get_mut(&id)
            .ok_or(GraphError::VertexNotFound(id))?;
        let old = data.props.set(key, value.clone()).unwrap_or(Value::Null);
        if self.index.has_prop_indexes() {
            for &l in &data.labels {
                self.index.prop_remove(l, key, &old, id);
                self.index.prop_insert(l, key, &value, id);
            }
        }
        if !self.catalog_defer {
            self.catalog_mut().on_vertex_prop_changed(key, &old, &value);
        }
        Ok(ChangeEvent::VertexPropChanged {
            id,
            key,
            old,
            new: value,
        })
    }

    /// Set (or with `Null`, remove) an edge property.
    pub fn set_edge_prop(
        &mut self,
        id: EdgeId,
        key: Symbol,
        value: Value,
    ) -> Result<ChangeEvent, GraphError> {
        let data = self
            .edges
            .get_mut(&id)
            .ok_or(GraphError::EdgeNotFound(id))?;
        let old = data.props.set(key, value.clone()).unwrap_or(Value::Null);
        if !self.catalog_defer {
            self.catalog_mut().on_edge_prop_changed(key, &old, &value);
        }
        Ok(ChangeEvent::EdgePropChanged {
            id,
            key,
            old,
            new: value,
        })
    }

    /// Attach `label` to a vertex (no-op event suppressed if present).
    pub(crate) fn add_label(
        &mut self,
        id: VertexId,
        label: Symbol,
    ) -> Result<Option<ChangeEvent>, GraphError> {
        let data = self
            .vertices
            .get_mut(&id)
            .ok_or(GraphError::VertexNotFound(id))?;
        match data.labels.binary_search(&label) {
            Ok(_) => Ok(None),
            Err(pos) => {
                data.labels.insert(pos, label);
                self.index.add_label(label, id);
                self.index.prop_vertex(&[label], &data.props, id, true);
                Ok(Some(ChangeEvent::LabelAdded { id, label }))
            }
        }
    }

    /// Detach `label` from a vertex (no-op event suppressed if absent).
    pub fn remove_label(
        &mut self,
        id: VertexId,
        label: Symbol,
    ) -> Result<Option<ChangeEvent>, GraphError> {
        let data = self
            .vertices
            .get_mut(&id)
            .ok_or(GraphError::VertexNotFound(id))?;
        match data.labels.binary_search(&label) {
            Err(_) => Ok(None),
            Ok(pos) => {
                data.labels.remove(pos);
                self.index.remove_label(label, id);
                self.index.prop_vertex(&[label], &data.props, id, false);
                Ok(Some(ChangeEvent::LabelRemoved { id, label }))
            }
        }
    }
}

/// Catalog fold for a single-event transaction (the common transactional
/// workload): no per-element interactions are possible, so the payloads
/// and degrees come straight from the final graph state.
fn fold_single(
    cell: &mut CatalogCell,
    vertices: &FxHashMap<VertexId, VertexData>,
    edges: &FxHashMap<EdgeId, EdgeData>,
    index: &GraphIndexes,
    ev: &ChangeEvent,
) {
    match ev {
        ChangeEvent::VertexAdded { id } => {
            let data = vertices.get(id).expect("added vertex exists");
            cell.on_vertex_added(&data.props);
        }
        ChangeEvent::VertexRemoved { data, .. } => cell.on_vertex_removed(&data.props),
        ChangeEvent::EdgeAdded { id } => {
            let d = edges.get(id).expect("added edge exists");
            // The edge is already in the index, so the pre-mutation
            // out-degree is one less than the current one.
            cell.on_edge_added(
                d.ty,
                d.src,
                d.dst,
                index.out_edges(d.src).len() - 1,
                &d.props,
            );
        }
        ChangeEvent::EdgeRemoved { data, .. } => cell.on_edge_removed(
            data.ty,
            data.src,
            data.dst,
            index.out_edges(data.src).len() + 1,
            &data.props,
        ),
        ChangeEvent::VertexPropChanged { key, old, new, .. } => {
            cell.on_vertex_prop_changed(*key, old, new);
        }
        ChangeEvent::EdgePropChanged { key, old, new, .. } => {
            cell.on_edge_prop_changed(*key, old, new);
        }
        // Labels are counted by the label index, not the catalog.
        ChangeEvent::LabelAdded { .. } | ChangeEvent::LabelRemoved { .. } => {}
    }
}

/// Catalog fold for a multi-event transaction, replaying the deltas in
/// exact mutation order. Added elements' payloads come from the final
/// graph state (or the removal event, if they were deleted again within
/// the transaction), with property values rewound through the
/// transaction's own later changes; running out-degrees start from the
/// final degrees minus the transaction's net change.
fn fold_many(
    cell: &mut CatalogCell,
    vertices: &FxHashMap<VertexId, VertexData>,
    edges: &FxHashMap<EdgeId, EdgeData>,
    index: &GraphIndexes,
    events: &[ChangeEvent],
) {
    use ChangeEvent as Ev;
    // Pass 1: removed payloads, per-source net out-degree change, and
    // each property's value before its first in-transaction change.
    let mut removed_v: FxHashMap<VertexId, &VertexData> = FxHashMap::default();
    let mut removed_e: FxHashMap<EdgeId, &EdgeData> = FxHashMap::default();
    let mut net: FxHashMap<VertexId, i64> = FxHashMap::default();
    let mut vfirst: FxHashMap<(VertexId, Symbol), &Value> = FxHashMap::default();
    let mut efirst: FxHashMap<(EdgeId, Symbol), &Value> = FxHashMap::default();
    for ev in events {
        match ev {
            Ev::VertexRemoved { id, data } => {
                removed_v.insert(*id, data);
            }
            Ev::EdgeRemoved { id, data } => {
                removed_e.insert(*id, data);
                *net.entry(data.src).or_insert(0) -= 1;
            }
            Ev::VertexPropChanged { id, key, old, .. } => {
                vfirst.entry((*id, *key)).or_insert(old);
            }
            Ev::EdgePropChanged { id, key, old, .. } => {
                efirst.entry((*id, *key)).or_insert(old);
            }
            _ => {}
        }
    }
    let edge_data = |id: EdgeId| -> &EdgeData {
        edges
            .get(&id)
            .or_else(|| removed_e.get(&id).copied())
            .expect("added edge has a payload")
    };
    for ev in events {
        if let Ev::EdgeAdded { id } = ev {
            *net.entry(edge_data(*id).src).or_insert(0) += 1;
        }
    }
    // Running out-degrees, rewound to their pre-transaction values.
    let mut deg: FxHashMap<VertexId, i64> = net
        .iter()
        .map(|(&v, &n)| (v, index.out_edges(v).len() as i64 - n))
        .collect();
    // Pass 2: replay in mutation order.
    for ev in events {
        match ev {
            Ev::VertexAdded { id } => {
                let data = vertices
                    .get(id)
                    .or_else(|| removed_v.get(id).copied())
                    .expect("added vertex has a payload");
                for (key, v) in data.props.iter() {
                    let v0 = vfirst.get(&(*id, key)).copied().unwrap_or(v);
                    if !v0.is_null() {
                        cell.push_prop_delta(key, v0, true, true);
                    }
                }
                // Keys present at creation but gone from the final state.
                for (&(vid, key), &old) in vfirst.iter() {
                    if vid == *id && data.props.get(key).is_none() && !old.is_null() {
                        cell.push_prop_delta(key, old, true, true);
                    }
                }
            }
            Ev::VertexRemoved { data, .. } => {
                for (key, v) in data.props.iter() {
                    cell.push_prop_delta(key, v, true, false);
                }
            }
            Ev::EdgeAdded { id } => {
                let data = edge_data(*id);
                let d = deg.get_mut(&data.src).expect("degree seeded in pass 1");
                cell.push_edge_delta(data.ty, data.src, data.dst, *d as usize, true);
                *d += 1;
                for (key, v) in data.props.iter() {
                    let v0 = efirst.get(&(*id, key)).copied().unwrap_or(v);
                    if !v0.is_null() {
                        cell.push_prop_delta(key, v0, false, true);
                    }
                }
                for (&(eid, key), &old) in efirst.iter() {
                    if eid == *id && data.props.get(key).is_none() && !old.is_null() {
                        cell.push_prop_delta(key, old, false, true);
                    }
                }
            }
            Ev::EdgeRemoved { data, .. } => {
                let d = deg.get_mut(&data.src).expect("degree seeded in pass 1");
                cell.push_edge_delta(data.ty, data.src, data.dst, *d as usize, false);
                *d -= 1;
                for (key, v) in data.props.iter() {
                    cell.push_prop_delta(key, v, false, false);
                }
            }
            Ev::VertexPropChanged { key, old, new, .. } => {
                if !old.is_null() {
                    cell.push_prop_delta(*key, old, true, false);
                }
                if !new.is_null() {
                    cell.push_prop_delta(*key, new, true, true);
                }
            }
            Ev::EdgePropChanged { key, old, new, .. } => {
                if !old.is_null() {
                    cell.push_prop_delta(*key, old, false, false);
                }
                if !new.is_null() {
                    cell.push_prop_delta(*key, new, false, true);
                }
            }
            Ev::LabelAdded { .. } | Ev::LabelRemoved { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn props(pairs: &[(&str, Value)]) -> Properties {
        pairs.iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    #[test]
    fn vertex_lifecycle() {
        let mut g = PropertyGraph::new();
        let (v, ev) = g.add_vertex([sym("Post")], props(&[("lang", "en".into())]));
        assert_eq!(ev, ChangeEvent::VertexAdded { id: v });
        assert_eq!(g.vertex_count(), 1);
        assert!(g.vertex(v).unwrap().has_label(sym("Post")));
        assert_eq!(g.vertex_prop(v, sym("lang")), Value::str("en"));
        assert_eq!(g.vertices_with_label(sym("Post")), &[v]);

        let evs = g.remove_vertex(v, false).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(g.vertex_count(), 0);
        assert!(g.vertices_with_label(sym("Post")).is_empty());
    }

    #[test]
    fn edge_lifecycle_and_adjacency() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("Post")], Properties::new());
        let (b, _) = g.add_vertex([sym("Comm")], Properties::new());
        let (e, _) = g.add_edge(a, b, sym("REPLY"), Properties::new()).unwrap();
        assert_eq!(g.out_edges(a), &[e]);
        assert_eq!(g.in_edges(b), &[e]);
        assert_eq!(g.edges_with_type(sym("REPLY")), &[e]);
        let data = g.edge(e).unwrap();
        assert_eq!((data.src, data.dst), (a, b));

        g.remove_edge(e).unwrap();
        assert!(g.out_edges(a).is_empty());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn edge_to_missing_vertex_fails() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("Post")], Properties::new());
        let err = g
            .add_edge(a, VertexId(999), sym("REPLY"), Properties::new())
            .unwrap_err();
        assert_eq!(err, GraphError::VertexNotFound(VertexId(999)));
    }

    #[test]
    fn delete_vertex_with_edges_requires_detach() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("Post")], Properties::new());
        let (b, _) = g.add_vertex([sym("Comm")], Properties::new());
        let (e, _) = g.add_edge(a, b, sym("REPLY"), Properties::new()).unwrap();

        assert_eq!(
            g.remove_vertex(a, false),
            Err(GraphError::VertexHasEdges(a))
        );
        let evs = g.remove_vertex(a, true).unwrap();
        // Edge removal precedes vertex removal.
        assert!(matches!(evs[0], ChangeEvent::EdgeRemoved { id, .. } if id == e));
        assert!(matches!(evs[1], ChangeEvent::VertexRemoved { id, .. } if id == a));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.vertex_count(), 1);
    }

    #[test]
    fn self_loop_detach_delete_removes_edge_once() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("N")], Properties::new());
        g.add_edge(a, a, sym("SELF"), Properties::new()).unwrap();
        let evs = g.remove_vertex(a, true).unwrap();
        assert_eq!(evs.len(), 2); // one edge event + one vertex event
    }

    #[test]
    fn property_update_events_carry_old_and_new() {
        let mut g = PropertyGraph::new();
        let (v, _) = g.add_vertex([sym("Post")], props(&[("lang", "en".into())]));
        let ev = g.set_vertex_prop(v, sym("lang"), "de".into()).unwrap();
        assert_eq!(
            ev,
            ChangeEvent::VertexPropChanged {
                id: v,
                key: sym("lang"),
                old: "en".into(),
                new: "de".into(),
            }
        );
        // Setting Null removes.
        let ev = g.set_vertex_prop(v, sym("lang"), Value::Null).unwrap();
        assert_eq!(g.vertex_prop(v, sym("lang")), Value::Null);
        assert!(matches!(
            ev,
            ChangeEvent::VertexPropChanged {
                new: Value::Null,
                ..
            }
        ));
    }

    #[test]
    fn label_add_remove_events() {
        let mut g = PropertyGraph::new();
        let (v, _) = g.add_vertex([sym("Post")], Properties::new());
        assert!(g.add_label(v, sym("Pinned")).unwrap().is_some());
        assert!(g.add_label(v, sym("Pinned")).unwrap().is_none()); // idempotent
        assert_eq!(g.vertices_with_label(sym("Pinned")), &[v]);
        assert!(g.remove_label(v, sym("Pinned")).unwrap().is_some());
        assert!(g.remove_label(v, sym("Pinned")).unwrap().is_none());
    }

    #[test]
    fn labels_deduplicated_on_insert() {
        let mut g = PropertyGraph::new();
        let (v, _) = g.add_vertex([sym("A"), sym("A"), sym("B")], Properties::new());
        assert_eq!(g.vertex(v).unwrap().labels.len(), 2);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("X")], Properties::new());
        g.remove_vertex(a, false).unwrap();
        let (b, _) = g.add_vertex([sym("X")], Properties::new());
        assert_ne!(a, b);
    }
}
