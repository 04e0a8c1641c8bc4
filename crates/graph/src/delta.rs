//! Committed change events — the delta feed for view maintenance.
//!
//! Every mutation of the store produces a [`ChangeEvent`]. Events that
//! destroy information (element removal) carry the before-image, so a
//! downstream consumer can retract derived tuples without consulting a
//! pre-state snapshot. Property/label changes identify the touched
//! element and the before/after value of the changed slot — fine-grained
//! exactly as the paper's FGN property demands.

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;

use crate::store::{EdgeData, VertexData};

/// A single committed change to the graph.
#[derive(Clone, Debug, PartialEq)]
pub enum ChangeEvent {
    /// A vertex was created (its data is readable from the post-state).
    VertexAdded {
        /// The new vertex.
        id: VertexId,
    },
    /// A vertex was deleted; `data` is its before-image.
    VertexRemoved {
        /// The removed vertex.
        id: VertexId,
        /// Its labels and properties at removal time.
        data: VertexData,
    },
    /// An edge was created.
    EdgeAdded {
        /// The new edge.
        id: EdgeId,
    },
    /// An edge was deleted; `data` is its before-image.
    EdgeRemoved {
        /// The removed edge.
        id: EdgeId,
        /// Its endpoints, type and properties at removal time.
        data: EdgeData,
    },
    /// A label was attached to an existing vertex.
    LabelAdded {
        /// The vertex.
        id: VertexId,
        /// The attached label.
        label: Symbol,
    },
    /// A label was detached from a vertex.
    LabelRemoved {
        /// The vertex.
        id: VertexId,
        /// The detached label.
        label: Symbol,
    },
    /// A vertex property changed; `Value::Null` encodes "absent".
    VertexPropChanged {
        /// The vertex.
        id: VertexId,
        /// The property key.
        key: Symbol,
        /// Previous value (`Null` = absent).
        old: Value,
        /// New value (`Null` = removed).
        new: Value,
    },
    /// An edge property changed; `Value::Null` encodes "absent".
    EdgePropChanged {
        /// The edge.
        id: EdgeId,
        /// The property key.
        key: Symbol,
        /// Previous value (`Null` = absent).
        old: Value,
        /// New value (`Null` = removed).
        new: Value,
    },
}

impl ChangeEvent {
    /// The vertex this event touches, if any.
    pub fn touched_vertex(&self) -> Option<VertexId> {
        match self {
            ChangeEvent::VertexAdded { id }
            | ChangeEvent::VertexRemoved { id, .. }
            | ChangeEvent::LabelAdded { id, .. }
            | ChangeEvent::LabelRemoved { id, .. }
            | ChangeEvent::VertexPropChanged { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// The edge this event touches, if any.
    pub fn touched_edge(&self) -> Option<EdgeId> {
        match self {
            ChangeEvent::EdgeAdded { id }
            | ChangeEvent::EdgeRemoved { id, .. }
            | ChangeEvent::EdgePropChanged { id, .. } => Some(*id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touched_accessors() {
        let ev = ChangeEvent::VertexAdded { id: VertexId(4) };
        assert_eq!(ev.touched_vertex(), Some(VertexId(4)));
        assert_eq!(ev.touched_edge(), None);

        let ev = ChangeEvent::EdgePropChanged {
            id: EdgeId(9),
            key: Symbol::intern("w"),
            old: Value::Null,
            new: Value::Int(1),
        };
        assert_eq!(ev.touched_edge(), Some(EdgeId(9)));
    }
}
