//! Conservative scan footprints of not-yet-applied transactions.
//!
//! The engine does not use this: `GraphEngine::apply_batch` maintains a
//! whole batch in one pass whatever its members touch. It stays public
//! because the benchmark's twin model (`perfbench/src/twin.rs`) still
//! replays the older rule that split a batch wherever two members'
//! footprints met; it goes with that twin (ROADMAP item 1(iii)).

use pgq_common::intern::Symbol;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::{NodeRef, Transaction, TxOp};

use crate::network::{DataflowNetwork, NodeId};

/// Conservative scan-node footprint of a not-yet-applied
/// [`Transaction`], computed by [`DataflowNetwork::tx_footprint`].
#[derive(Clone, Debug, Default)]
pub struct TxFootprint {
    /// Sorted, deduplicated scan nodes the transaction may dirty.
    scans: Vec<NodeId>,
    /// The transaction references ids the current graph cannot resolve,
    /// so its reach cannot be bounded: conflicts with everything.
    unbounded: bool,
}

impl TxFootprint {
    fn unbounded() -> TxFootprint {
        TxFootprint {
            scans: Vec::new(),
            unbounded: true,
        }
    }

    /// True when the two footprints share no scan node (and both are
    /// bounded).
    pub fn disjoint(&self, other: &TxFootprint) -> bool {
        if self.unbounded || other.unbounded {
            return false;
        }
        let (mut i, mut j) = (0, 0);
        while i < self.scans.len() && j < other.scans.len() {
            match self.scans[i].cmp(&other.scans[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// Absorb `other` (accumulating a group's combined footprint).
    pub fn merge(&mut self, other: &TxFootprint) {
        if other.unbounded {
            self.unbounded = true;
            self.scans.clear();
        } else if !self.unbounded {
            self.scans.extend_from_slice(&other.scans);
            self.seal();
        }
    }

    fn seal(&mut self) {
        self.scans.sort_unstable();
        self.scans.dedup();
    }
}

impl DataflowNetwork {
    /// Conservative footprint of `tx` over the current routing index,
    /// computed **before** the transaction is applied (`g` is the
    /// pre-state). Over-approximates on purpose:
    ///
    /// * vertex-touching operations take every route of every label the
    ///   vertex can carry after the transaction (its current labels,
    ///   the transaction's creation labels, plus any label the
    ///   transaction attaches anywhere), and every label-free vertex
    ///   route, ignoring property-key interest filters;
    /// * edge-touching operations take every route of the edge's type
    ///   plus every type-free edge route;
    /// * an id the pre-state cannot resolve (other than `NodeRef::New`)
    ///   makes the footprint unbounded.
    pub fn tx_footprint(&self, g: &PropertyGraph, tx: &Transaction) -> TxFootprint {
        let mut fp = TxFootprint::default();
        // Labels attached anywhere in the transaction widen the possible
        // post-state of any vertex it touches.
        let added_labels: Vec<Symbol> = tx
            .ops()
            .iter()
            .filter_map(|op| match op {
                TxOp::AddLabel { label, .. } => Some(*label),
                _ => None,
            })
            .collect();
        let vertex_routes = |fp: &mut TxFootprint, labels: &[Symbol]| {
            for &l in labels {
                fp.scans.extend(self.vertex_routes(Some(l)));
            }
            fp.scans.extend(self.vertex_routes(None));
        };
        let edge_routes = |fp: &mut TxFootprint, ty: Symbol| {
            fp.scans.extend(self.edge_routes(ty));
        };
        // Labels per `CreateVertex`, in order (resolves `NodeRef::New`).
        let mut created: Vec<&[Symbol]> = Vec::new();
        for op in tx.ops() {
            match op {
                TxOp::CreateVertex { labels, .. } => {
                    vertex_routes(&mut fp, labels);
                    vertex_routes(&mut fp, &added_labels);
                    created.push(labels);
                }
                TxOp::CreateEdge { ty, .. } => edge_routes(&mut fp, *ty),
                TxOp::DeleteVertex { id, detach } => {
                    let Some(data) = g.vertex(*id) else {
                        return TxFootprint::unbounded();
                    };
                    vertex_routes(&mut fp, &data.labels);
                    vertex_routes(&mut fp, &added_labels);
                    if *detach {
                        for &e in g.out_edges(*id).iter().chain(g.in_edges(*id)) {
                            let Some(ed) = g.edge(e) else {
                                return TxFootprint::unbounded();
                            };
                            edge_routes(&mut fp, ed.ty);
                        }
                    }
                }
                TxOp::DeleteEdge { id } => {
                    let Some(ed) = g.edge(*id) else {
                        return TxFootprint::unbounded();
                    };
                    edge_routes(&mut fp, ed.ty);
                }
                TxOp::SetVertexProp { id, .. } => {
                    let labels: &[Symbol] = match id {
                        NodeRef::Existing(v) => match g.vertex(*v) {
                            Some(data) => &data.labels,
                            None => return TxFootprint::unbounded(),
                        },
                        NodeRef::New(ix) => match created.get(*ix) {
                            Some(l) => l,
                            None => return TxFootprint::unbounded(),
                        },
                    };
                    vertex_routes(&mut fp, labels);
                    vertex_routes(&mut fp, &added_labels);
                }
                TxOp::SetEdgeProp { id, .. } => {
                    let Some(ed) = g.edge(*id) else {
                        return TxFootprint::unbounded();
                    };
                    edge_routes(&mut fp, ed.ty);
                }
                TxOp::AddLabel { id, label } | TxOp::RemoveLabel { id, label } => {
                    // Membership flips route only to scans requiring
                    // `label`; the id is resolved just to classify
                    // unknowns as unbounded.
                    if let NodeRef::Existing(v) = id {
                        if g.vertex(*v).is_none() {
                            return TxFootprint::unbounded();
                        }
                    }
                    fp.scans.extend(self.vertex_routes(Some(*label)));
                }
            }
        }
        fp.seal();
        fp
    }
}
