//! Atomic update transactions.
//!
//! A [`Transaction`] is an ordered batch of update operations applied
//! all-or-nothing. Operations may reference vertices created earlier in
//! the same transaction through [`NodeRef::New`], which is what lets a
//! single `CREATE (a)-[:R]->(b)` clause build both endpoints and the edge
//! atomically.
//!
//! On failure the store is rolled back by reversing the events the
//! transaction had committed so far ([`PropertyGraph::unapply`]), so a
//! failed transaction leaves no trace — neither in the graph nor in the
//! change feed (no events are emitted for rolled-back work).

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;

use crate::delta::ChangeEvent;
use crate::props::Properties;
use crate::store::{GraphError, PropertyGraph};

/// Reference to a vertex: either pre-existing or created earlier within
/// the same transaction (by 0-based creation order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRef {
    /// An id that existed before the transaction.
    Existing(VertexId),
    /// The `n`-th vertex created by this transaction.
    New(usize),
}

impl From<VertexId> for NodeRef {
    fn from(v: VertexId) -> Self {
        NodeRef::Existing(v)
    }
}

/// One operation inside a transaction.
#[derive(Clone, Debug)]
pub enum TxOp {
    /// Create a vertex (becomes `NodeRef::New(k)` for the k-th create).
    CreateVertex {
        /// Labels of the new vertex.
        labels: Vec<Symbol>,
        /// Initial properties.
        props: Properties,
    },
    /// Create an edge between two (possibly transaction-local) vertices.
    CreateEdge {
        /// Source endpoint.
        src: NodeRef,
        /// Target endpoint.
        dst: NodeRef,
        /// Edge type.
        ty: Symbol,
        /// Initial properties.
        props: Properties,
    },
    /// Delete a vertex; with `detach`, incident edges go first.
    DeleteVertex {
        /// Vertex to delete.
        id: VertexId,
        /// Remove incident edges too?
        detach: bool,
    },
    /// Delete an edge.
    DeleteEdge {
        /// Edge to delete.
        id: EdgeId,
    },
    /// Set (or remove, with `Null`) a vertex property.
    SetVertexProp {
        /// Vertex to update.
        id: NodeRef,
        /// Property key.
        key: Symbol,
        /// New value (`Null` removes).
        value: Value,
    },
    /// Set (or remove, with `Null`) an edge property.
    SetEdgeProp {
        /// Edge to update.
        id: EdgeId,
        /// Property key.
        key: Symbol,
        /// New value (`Null` removes).
        value: Value,
    },
    /// Attach a label.
    AddLabel {
        /// Vertex to update.
        id: NodeRef,
        /// Label to attach.
        label: Symbol,
    },
    /// Detach a label.
    RemoveLabel {
        /// Vertex to update.
        id: NodeRef,
        /// Label to detach.
        label: Symbol,
    },
}

/// An atomic batch of graph updates.
#[derive(Clone, Debug, Default)]
pub struct Transaction {
    ops: Vec<TxOp>,
    creates: usize,
}

impl Transaction {
    /// Empty transaction.
    pub fn new() -> Self {
        Transaction::default()
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued operations.
    pub fn ops(&self) -> &[TxOp] {
        &self.ops
    }

    /// Rebuild a transaction from a decoded operation list (the
    /// write-ahead-log replay seam). The create counter is re-derived
    /// from the ops, so `NodeRef::New` references resolve exactly as
    /// they did when the transaction was first applied.
    pub fn from_ops(ops: Vec<TxOp>) -> Self {
        let creates = ops
            .iter()
            .filter(|op| matches!(op, TxOp::CreateVertex { .. }))
            .count();
        Transaction { ops, creates }
    }

    /// Queue a vertex creation; the returned [`NodeRef`] can be used by
    /// later operations in this transaction.
    pub fn create_vertex(
        &mut self,
        labels: impl IntoIterator<Item = Symbol>,
        props: Properties,
    ) -> NodeRef {
        self.ops.push(TxOp::CreateVertex {
            labels: labels.into_iter().collect(),
            props,
        });
        let r = NodeRef::New(self.creates);
        self.creates += 1;
        r
    }

    /// Queue an edge creation.
    pub fn create_edge(
        &mut self,
        src: impl Into<NodeRef>,
        dst: impl Into<NodeRef>,
        ty: Symbol,
        props: Properties,
    ) -> &mut Self {
        self.ops.push(TxOp::CreateEdge {
            src: src.into(),
            dst: dst.into(),
            ty,
            props,
        });
        self
    }

    /// Queue a vertex deletion.
    pub fn delete_vertex(&mut self, id: VertexId, detach: bool) -> &mut Self {
        self.ops.push(TxOp::DeleteVertex { id, detach });
        self
    }

    /// Queue an edge deletion.
    pub fn delete_edge(&mut self, id: EdgeId) -> &mut Self {
        self.ops.push(TxOp::DeleteEdge { id });
        self
    }

    /// Queue a vertex property update.
    pub fn set_vertex_prop(
        &mut self,
        id: impl Into<NodeRef>,
        key: Symbol,
        value: Value,
    ) -> &mut Self {
        self.ops.push(TxOp::SetVertexProp {
            id: id.into(),
            key,
            value,
        });
        self
    }

    /// Queue an edge property update.
    pub fn set_edge_prop(&mut self, id: EdgeId, key: Symbol, value: Value) -> &mut Self {
        self.ops.push(TxOp::SetEdgeProp { id, key, value });
        self
    }

    /// Queue a label attach.
    pub fn add_label(&mut self, id: impl Into<NodeRef>, label: Symbol) -> &mut Self {
        self.ops.push(TxOp::AddLabel {
            id: id.into(),
            label,
        });
        self
    }

    /// Queue a label detach.
    pub fn remove_label(&mut self, id: impl Into<NodeRef>, label: Symbol) -> &mut Self {
        self.ops.push(TxOp::RemoveLabel {
            id: id.into(),
            label,
        });
        self
    }
}

impl PropertyGraph {
    fn resolve(&self, r: NodeRef, created: &[VertexId]) -> Result<VertexId, GraphError> {
        match r {
            NodeRef::Existing(v) => Ok(v),
            NodeRef::New(i) => created.get(i).copied().ok_or(GraphError::BadNodeRef(i)),
        }
    }

    /// Apply `tx` atomically. On success returns the committed events in
    /// operation order; on failure the graph is unchanged.
    ///
    /// The cardinality catalog is kept by the mutators' own hooks, as for
    /// any other mutation; a failed transaction's reversal pushes the
    /// opposite deltas, so the catalog ends where it started.
    pub fn apply(&mut self, tx: &Transaction) -> Result<Vec<ChangeEvent>, GraphError> {
        let mut events: Vec<ChangeEvent> = Vec::with_capacity(tx.len());
        let mut created: Vec<VertexId> = Vec::new();
        let watermarks = self.id_watermarks();

        let result = (|| -> Result<(), GraphError> {
            for op in &tx.ops {
                match op {
                    TxOp::CreateVertex { labels, props } => {
                        let (id, ev) = self.add_vertex(labels.iter().copied(), props.clone());
                        created.push(id);
                        events.push(ev);
                    }
                    TxOp::CreateEdge {
                        src,
                        dst,
                        ty,
                        props,
                    } => {
                        let s = self.resolve(*src, &created)?;
                        let d = self.resolve(*dst, &created)?;
                        let (_, ev) = self.add_edge(s, d, *ty, props.clone())?;
                        events.push(ev);
                    }
                    TxOp::DeleteVertex { id, detach } => {
                        events.extend(self.remove_vertex(*id, *detach)?);
                    }
                    TxOp::DeleteEdge { id } => events.push(self.remove_edge(*id)?),
                    TxOp::SetVertexProp { id, key, value } => {
                        let v = self.resolve(*id, &created)?;
                        events.push(self.set_vertex_prop(v, *key, value.clone())?);
                    }
                    TxOp::SetEdgeProp { id, key, value } => {
                        events.push(self.set_edge_prop(*id, *key, value.clone())?);
                    }
                    TxOp::AddLabel { id, label } => {
                        let v = self.resolve(*id, &created)?;
                        events.extend(self.add_label(v, *label)?);
                    }
                    TxOp::RemoveLabel { id, label } => {
                        let v = self.resolve(*id, &created)?;
                        events.extend(self.remove_label(v, *label)?);
                    }
                }
            }
            Ok(())
        })();

        if let Err(e) = result {
            // The reversal also un-burns the ids the aborted transaction
            // allocated: a failed transaction must be invisible to WAL
            // replay, which re-derives ids from the watermarks.
            self.unapply(&events, watermarks);
            return Err(e);
        }
        Ok(events)
    }

    /// Reverse an already-committed event stream, restoring the graph —
    /// including the id-allocation watermarks — to its state before the
    /// transaction that produced `events`. `watermarks` is the
    /// [`PropertyGraph::id_watermarks`] value captured *before* that
    /// transaction applied.
    ///
    /// This is the durable engine's commit-failure path: the graph
    /// mutated in memory, but the WAL append failed, so the commit must
    /// be taken back as if it never happened. Must be called immediately
    /// after the transaction (no intervening mutations).
    /// [`PropertyGraph::apply`] also calls it to roll back a failed
    /// transaction. Either way the reversal runs through the normal
    /// mutators, whose catalog hooks push the opposite of every delta
    /// the transaction pushed, so the cardinality catalog rolls back
    /// along with the topology.
    pub fn unapply(&mut self, events: &[ChangeEvent], watermarks: (u64, u64)) {
        for ev in events.iter().rev() {
            match ev {
                ChangeEvent::VertexAdded { id } => {
                    self.remove_vertex(*id, true).expect("unapply vertex add");
                }
                ChangeEvent::VertexRemoved { id, data } => {
                    self.insert_vertex_raw(*id, data.labels.iter().copied(), data.props.clone());
                }
                ChangeEvent::EdgeAdded { id } => {
                    self.remove_edge(*id).expect("unapply edge add");
                }
                ChangeEvent::EdgeRemoved { id, data } => {
                    self.insert_edge_raw(*id, data.src, data.dst, data.ty, data.props.clone());
                }
                ChangeEvent::VertexPropChanged { id, key, old, .. } => {
                    self.set_vertex_prop(*id, *key, old.clone())
                        .expect("unapply vprop");
                }
                ChangeEvent::EdgePropChanged { id, key, old, .. } => {
                    self.set_edge_prop(*id, *key, old.clone())
                        .expect("unapply eprop");
                }
                ChangeEvent::LabelAdded { id, label } => {
                    self.remove_label(*id, *label).expect("unapply label add");
                }
                ChangeEvent::LabelRemoved { id, label } => {
                    self.add_label(*id, *label).expect("unapply label remove");
                }
            }
        }
        self.rollback_id_watermarks(watermarks.0, watermarks.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn create_pattern_atomically() {
        let mut g = PropertyGraph::new();
        let mut tx = Transaction::new();
        let a = tx.create_vertex([sym("Post")], Properties::new());
        let b = tx.create_vertex([sym("Comm")], Properties::new());
        tx.create_edge(a, b, sym("REPLY"), Properties::new());
        let events = g.apply(&tx).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn failed_transaction_rolls_back_everything() {
        let mut g = PropertyGraph::new();
        let (existing, _) = g.add_vertex([sym("Post")], Properties::new());

        let mut tx = Transaction::new();
        let a = tx.create_vertex([sym("Comm")], Properties::new());
        tx.create_edge(a, existing, sym("REPLY"), Properties::new());
        tx.set_vertex_prop(existing, sym("lang"), "en".into());
        // This fails: edge to a non-existent vertex.
        tx.create_edge(existing, VertexId(12345), sym("REPLY"), Properties::new());

        let err = g.apply(&tx).unwrap_err();
        assert_eq!(err, GraphError::VertexNotFound(VertexId(12345)));
        // All earlier effects undone.
        assert_eq!(g.vertex_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.vertex_prop(existing, sym("lang")), Value::Null);
    }

    #[test]
    fn rollback_restores_deleted_elements() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("Post")], Properties::from_iter([("k", Value::Int(1))]));
        let (b, _) = g.add_vertex([sym("Comm")], Properties::new());
        let (e, _) = g.add_edge(a, b, sym("REPLY"), Properties::new()).unwrap();

        let mut tx = Transaction::new();
        tx.delete_vertex(a, true); // removes e then a
        tx.delete_edge(e); // fails: already gone
        assert!(g.apply(&tx).is_err());

        assert!(g.has_vertex(a));
        assert!(g.has_edge(e));
        assert_eq!(g.vertex_prop(a, sym("k")), Value::Int(1));
        assert_eq!(g.out_edges(a), &[e]);
    }

    #[test]
    fn failed_transaction_unburns_allocated_ids() {
        let mut g = PropertyGraph::new();
        g.add_vertex([sym("Post")], Properties::new());
        let before = g.id_watermarks();

        let mut tx = Transaction::new();
        tx.create_vertex([sym("Comm")], Properties::new());
        tx.delete_edge(EdgeId(999)); // fails
        assert!(g.apply(&tx).is_err());
        // Replay determinism: the aborted create must not burn an id.
        assert_eq!(g.id_watermarks(), before);

        let mut ok = Transaction::new();
        ok.create_vertex([sym("Comm")], Properties::new());
        let evs = g.apply(&ok).unwrap();
        assert!(matches!(
            evs[0],
            ChangeEvent::VertexAdded { id } if id == VertexId(before.0)
        ));
    }

    #[test]
    fn unapply_reverses_a_committed_event_stream() {
        use crate::stats::rescan_catalog;

        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex(
            [sym("Post")],
            Properties::from_iter([("lang", Value::str("en"))]),
        );
        let (b, _) = g.add_vertex([sym("Comm")], Properties::new());
        let (e, _) = g.add_edge(a, b, sym("REPLY"), Properties::new()).unwrap();
        let watermarks = g.id_watermarks();
        let before = format!("{:?} {:?}", g.id_watermarks(), rescan_catalog(&g));

        // A transaction touching every event shape.
        let mut tx = Transaction::new();
        let c = tx.create_vertex([sym("Post")], Properties::new());
        tx.create_edge(c, b, sym("REPLY"), Properties::new());
        tx.set_vertex_prop(a, sym("lang"), "de".into());
        tx.add_label(a, sym("Hot"));
        tx.remove_label(b, sym("Comm"));
        tx.delete_edge(e);
        let events = g.apply(&tx).unwrap();

        g.unapply(&events, watermarks);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(e));
        assert_eq!(g.vertex_prop(a, sym("lang")), Value::str("en"));
        assert!(!g.vertex(a).unwrap().has_label(sym("Hot")));
        assert!(g.vertex(b).unwrap().has_label(sym("Comm")));
        assert_eq!(
            format!("{:?} {:?}", g.id_watermarks(), rescan_catalog(&g)),
            before,
            "watermarks and catalog must roll back too"
        );

        // And the exact same transaction re-applies with the same ids.
        let events2 = g.apply(&tx).unwrap();
        assert_eq!(format!("{events:?}"), format!("{events2:?}"));
    }

    #[test]
    fn bad_node_ref_is_rejected() {
        let mut g = PropertyGraph::new();
        let mut tx = Transaction::new();
        tx.create_edge(
            NodeRef::New(7),
            NodeRef::New(8),
            sym("REPLY"),
            Properties::new(),
        );
        assert_eq!(g.apply(&tx).unwrap_err(), GraphError::BadNodeRef(7));
    }

    #[test]
    fn label_ops_via_transaction() {
        let mut g = PropertyGraph::new();
        let (v, _) = g.add_vertex([sym("Post")], Properties::new());
        let mut tx = Transaction::new();
        tx.add_label(v, sym("Hot")).remove_label(v, sym("Post"));
        let evs = g.apply(&tx).unwrap();
        assert_eq!(evs.len(), 2);
        assert!(g.vertex(v).unwrap().has_label(sym("Hot")));
        assert!(!g.vertex(v).unwrap().has_label(sym("Post")));
    }

    #[test]
    fn empty_transaction_is_noop() {
        let mut g = PropertyGraph::new();
        let evs = g.apply(&Transaction::new()).unwrap();
        assert!(evs.is_empty());
    }

    /// One transaction whose operations interact keeps the catalog equal
    /// to a rescan: props set at creation then overwritten or cleared,
    /// edges created and destroyed by a later detach-delete in the same
    /// transaction, and property updates to elements that are deleted
    /// again. Each mutator pushes its delta as it runs, so the running
    /// out-degrees and property values are the ones at mutation time.
    #[test]
    fn catalog_fold_handles_intra_tx_interactions() {
        use crate::stats::rescan_catalog;
        use pgq_common::value::Value;

        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex(
            [sym("N")],
            Properties::from_iter([("lang", Value::str("en"))]),
        );
        let (b, _) = g.add_vertex([sym("N")], Properties::new());
        let (e, _) = g
            .add_edge(
                a,
                b,
                sym("E"),
                Properties::from_iter([("w", Value::Int(1))]),
            )
            .unwrap();

        let mut tx = Transaction::new();
        // Created with props, then patched, cleared, and extended.
        let c = tx.create_vertex(
            [sym("N")],
            Properties::from_iter([("lang", Value::str("de")), ("score", Value::Int(1))]),
        );
        tx.set_vertex_prop(c, sym("lang"), Value::str("fr"));
        tx.set_vertex_prop(c, sym("score"), Value::Null);
        tx.set_vertex_prop(c, sym("fresh"), Value::Int(9));
        // Pre-existing edge patched, then destroyed by the detach-delete
        // below; a new edge is created and destroyed within the same
        // transaction.
        tx.set_edge_prop(e, sym("w"), Value::Int(5));
        tx.create_edge(
            a,
            b,
            sym("E"),
            Properties::from_iter([("w", Value::Int(7))]),
        );
        tx.create_edge(c, a, sym("E"), Properties::new());
        tx.delete_vertex(b, true);

        let events = g.apply(&tx).unwrap();
        assert!(events.len() >= 9, "expected a multi-event transaction");
        assert_eq!(&*g.catalog(), &rescan_catalog(&g));
    }

    /// The property index is kept by the mutators, and rollback undoes a
    /// transaction through those same mutators — so a refused
    /// transaction leaves the index exactly as it found it.
    #[test]
    fn property_index_follows_commits_and_survives_rollback_exactly() {
        use pgq_common::value::Value;
        let id = |i: i64| Properties::from_iter([("id", Value::Int(i))]);
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("P")], id(1));
        let (b, _) = g.add_vertex([sym("P"), sym("Q")], id(2));
        let (c, _) = g.add_vertex([sym("Q")], id(2));
        assert!(g.ensure_prop_index(sym("P"), sym("id")));
        assert!(g.ensure_prop_index(sym("Q"), sym("id")));
        let seek = |g: &PropertyGraph, l: &str, i: i64| {
            let mut v = g
                .prop_seek(sym(l), sym("id"), &Value::Int(i))
                .unwrap()
                .to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(seek(&g, "P", 2), vec![b]);
        assert_eq!(seek(&g, "Q", 2), vec![b, c]);

        // Every kind of mutation, then a failing op: all of it unwinds.
        let before = (
            g.prop_index_dump(sym("P"), sym("id")),
            g.prop_index_dump(sym("Q"), sym("id")),
        );
        let mut tx = Transaction::new();
        tx.create_vertex([sym("P")], id(3));
        tx.set_vertex_prop(a, sym("id"), Value::Int(2));
        tx.set_vertex_prop(c, sym("id"), Value::Null);
        tx.add_label(c, sym("P"));
        tx.remove_label(b, sym("Q"));
        tx.delete_vertex(b, true);
        tx.delete_edge(pgq_common::ids::EdgeId(999));
        assert!(g.apply(&tx).is_err());
        assert_eq!(
            before,
            (
                g.prop_index_dump(sym("P"), sym("id")),
                g.prop_index_dump(sym("Q"), sym("id")),
            )
        );

        // The same transaction without the failing op commits.
        let mut tx = Transaction::new();
        let d = tx.create_vertex([sym("P")], id(3));
        tx.set_vertex_prop(a, sym("id"), Value::Int(2));
        tx.set_vertex_prop(c, sym("id"), Value::Null);
        tx.add_label(c, sym("P"));
        tx.remove_label(b, sym("Q"));
        tx.delete_vertex(b, true);
        let events = g.apply(&tx).unwrap();
        let d = match (d, &events[0]) {
            (NodeRef::New(_), ChangeEvent::VertexAdded { id }) => *id,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(seek(&g, "P", 1), vec![]);
        assert_eq!(seek(&g, "P", 2), vec![a]);
        assert_eq!(seek(&g, "P", 3), vec![d]);
        assert_eq!(seek(&g, "Q", 2), vec![]);
        assert_eq!(g.prop_indexes().len(), 2);
    }
}
