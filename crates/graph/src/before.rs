//! The graph as it was before a pass: the post-state graph with the
//! pass's own events undone.
//!
//! A maintenance pass reads the graph *after* a run of committed events
//! and needs, for every element the run touched, the state it had
//! *before* — a scan retracts the row an element used to contribute
//! instead of remembering it. Every event already carries what it
//! destroyed, so the before-image is the post-state graph with:
//!
//! * existence undone — an element whose first event in the run created
//!   it did not exist; one the run removed reads its removal data;
//! * each property read from the **first** in-run change of that key
//!   (its `old`), if any;
//! * each label read from the first in-run event on that label: present
//!   before if that event removed it, absent if it added it.
//!
//! [`BeforeIndex::build`] indexes the run by element and by (element,
//! key), one table entry per first event, so building costs O(events)
//! and each read O(1) whatever the run's length. The index's tables are
//! cleared, not freed, between runs: once they have grown, building one
//! allocates nothing. An element the run did not touch reads the graph.

use pgq_common::fxhash::FxHashMap;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;

use crate::delta::ChangeEvent;
use crate::store::{EdgeData, PropertyGraph, VertexData};

/// No removal event.
const NONE: u32 = u32::MAX;

/// An element a run touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Element {
    Vertex(VertexId),
    Edge(EdgeId),
}

/// One slot of an element's state that in-run events can change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Slot {
    Label(VertexId, Symbol),
    VertexProp(VertexId, Symbol),
    EdgeProp(EdgeId, Symbol),
}

/// What a run did to one element, as positions in the run.
#[derive(Clone, Copy, Debug)]
struct Origin {
    /// The element's first event created it.
    created: bool,
    /// Position of its removal event, or [`NONE`].
    removed: u32,
    /// Some label or property event names it (so a read must consult the
    /// slot table).
    labels: bool,
    props: bool,
}

/// Reusable index of one run of events by element (module docs).
#[derive(Clone, Debug, Default)]
pub struct BeforeIndex {
    elements: FxHashMap<Element, Origin>,
    /// Position of the first event on each slot.
    slots: FxHashMap<Slot, u32>,
}

impl BeforeIndex {
    /// An empty index.
    pub fn new() -> BeforeIndex {
        BeforeIndex::default()
    }

    /// Index `events`, every change since the graph's last before-image,
    /// in commit order, and view `g`, their post-state, as it was before
    /// them.
    pub fn build<'a>(
        &'a mut self,
        g: &'a PropertyGraph,
        events: &'a [ChangeEvent],
    ) -> BeforeImage<'a> {
        self.elements.clear();
        self.slots.clear();
        for (pos, ev) in events.iter().enumerate() {
            let pos = pos as u32;
            let (element, slot) = match ev {
                ChangeEvent::VertexAdded { id } | ChangeEvent::VertexRemoved { id, .. } => {
                    (Element::Vertex(*id), None)
                }
                ChangeEvent::EdgeAdded { id } | ChangeEvent::EdgeRemoved { id, .. } => {
                    (Element::Edge(*id), None)
                }
                ChangeEvent::LabelAdded { id, label } | ChangeEvent::LabelRemoved { id, label } => {
                    (Element::Vertex(*id), Some(Slot::Label(*id, *label)))
                }
                ChangeEvent::VertexPropChanged { id, key, .. } => {
                    (Element::Vertex(*id), Some(Slot::VertexProp(*id, *key)))
                }
                ChangeEvent::EdgePropChanged { id, key, .. } => {
                    (Element::Edge(*id), Some(Slot::EdgeProp(*id, *key)))
                }
            };
            let origin = self.elements.entry(element).or_insert(Origin {
                created: matches!(
                    ev,
                    ChangeEvent::VertexAdded { .. } | ChangeEvent::EdgeAdded { .. }
                ),
                removed: NONE,
                labels: false,
                props: false,
            });
            match (ev, slot) {
                (ChangeEvent::VertexRemoved { .. } | ChangeEvent::EdgeRemoved { .. }, _) => {
                    origin.removed = pos;
                }
                (_, Some(slot)) => {
                    match slot {
                        Slot::Label(..) => origin.labels = true,
                        Slot::VertexProp(..) | Slot::EdgeProp(..) => origin.props = true,
                    }
                    self.slots.entry(slot).or_insert(pos);
                }
                (_, None) => {}
            }
        }
        BeforeImage {
            g,
            events,
            index: self,
        }
    }
}

/// The graph as it was before a run of events (module docs), built by
/// [`BeforeIndex::build`].
#[derive(Clone, Copy, Debug)]
pub struct BeforeImage<'a> {
    g: &'a PropertyGraph,
    events: &'a [ChangeEvent],
    index: &'a BeforeIndex,
}

impl<'a> BeforeImage<'a> {
    /// The post-state graph.
    pub fn graph(&self) -> &'a PropertyGraph {
        self.g
    }

    /// The run of events this image undoes.
    pub fn events(&self) -> &'a [ChangeEvent] {
        self.events
    }

    /// `v` before the run; `None` if it did not exist.
    pub fn vertex(&self, v: VertexId) -> Option<VertexView<'a>> {
        let Some(origin) = self.index.elements.get(&Element::Vertex(v)) else {
            return self.g.vertex_view(v);
        };
        if origin.created {
            return None;
        }
        let data = match self.events.get(origin.removed as usize) {
            Some(ChangeEvent::VertexRemoved { data, .. }) => data,
            _ => self
                .g
                .vertex(v)
                .expect("a vertex the run did not remove exists"),
        };
        Some(VertexView {
            id: v,
            data,
            undo: (origin.labels || origin.props).then_some(Undo {
                image: *self,
                labels: origin.labels,
                props: origin.props,
            }),
        })
    }

    /// `e` before the run; `None` if it did not exist.
    pub fn edge(&self, e: EdgeId) -> Option<EdgeView<'a>> {
        let Some(origin) = self.index.elements.get(&Element::Edge(e)) else {
            return self.g.edge_view(e);
        };
        if origin.created {
            return None;
        }
        let data = match self.events.get(origin.removed as usize) {
            Some(ChangeEvent::EdgeRemoved { data, .. }) => data,
            _ => self
                .g
                .edge(e)
                .expect("an edge the run did not remove exists"),
        };
        Some(EdgeView {
            id: e,
            data,
            undo: origin.props.then_some(*self),
        })
    }

    /// The event that first changed `slot` in the run, if any.
    fn first(&self, slot: Slot) -> Option<&'a ChangeEvent> {
        let pos = *self.index.slots.get(&slot)?;
        Some(&self.events[pos as usize])
    }
}

/// The in-run changes a view undoes over its element's data.
#[derive(Clone, Copy, Debug)]
struct Undo<'a> {
    image: BeforeImage<'a>,
    labels: bool,
    props: bool,
}

/// A `Null` `old` is an absent property.
fn present(v: &Value) -> Option<&Value> {
    (!v.is_null()).then_some(v)
}

/// One vertex's labels and properties, as the graph holds them now or as
/// a [`BeforeImage`] reads them.
#[derive(Clone, Copy, Debug)]
pub struct VertexView<'a> {
    id: VertexId,
    data: &'a VertexData,
    undo: Option<Undo<'a>>,
}

impl<'a> VertexView<'a> {
    /// The vertex's id.
    #[inline]
    pub fn id(&self) -> VertexId {
        self.id
    }

    /// Does the vertex carry `label`?
    #[inline]
    pub fn has_label(&self, label: Symbol) -> bool {
        if let Some(undo) = self.undo.filter(|u| u.labels) {
            match undo.image.first(Slot::Label(self.id, label)) {
                Some(ChangeEvent::LabelAdded { .. }) => return false,
                Some(_) => return true,
                None => {}
            }
        }
        self.data.has_label(label)
    }

    /// The value of `key`, if set.
    #[inline]
    pub fn get(&self, key: Symbol) -> Option<&'a Value> {
        if let Some(undo) = self.undo.filter(|u| u.props) {
            if let Some(ChangeEvent::VertexPropChanged { old, .. }) =
                undo.image.first(Slot::VertexProp(self.id, key))
            {
                return present(old);
            }
        }
        self.data.props.get(key)
    }

    /// The value of `key`, `Null` when absent (Cypher semantics).
    #[inline]
    pub fn get_or_null(&self, key: Symbol) -> Value {
        self.get(key).cloned().unwrap_or(Value::Null)
    }
}

/// One edge's endpoints, type and properties, as the graph holds them
/// now or as a [`BeforeImage`] reads them.
#[derive(Clone, Copy, Debug)]
pub struct EdgeView<'a> {
    id: EdgeId,
    data: &'a EdgeData,
    /// The image to undo property changes from, when the run made any.
    undo: Option<BeforeImage<'a>>,
}

impl<'a> EdgeView<'a> {
    /// The edge's id.
    #[inline]
    pub fn id(&self) -> EdgeId {
        self.id
    }

    /// Source vertex.
    #[inline]
    pub fn src(&self) -> VertexId {
        self.data.src
    }

    /// Target vertex.
    #[inline]
    pub fn dst(&self) -> VertexId {
        self.data.dst
    }

    /// Edge type.
    #[inline]
    pub fn ty(&self) -> Symbol {
        self.data.ty
    }

    /// The value of `key`, if set.
    #[inline]
    pub fn get(&self, key: Symbol) -> Option<&'a Value> {
        if let Some(image) = self.undo {
            if let Some(ChangeEvent::EdgePropChanged { old, .. }) =
                image.first(Slot::EdgeProp(self.id, key))
            {
                return present(old);
            }
        }
        self.data.props.get(key)
    }

    /// The value of `key`, `Null` when absent (Cypher semantics).
    #[inline]
    pub fn get_or_null(&self, key: Symbol) -> Value {
        self.get(key).cloned().unwrap_or(Value::Null)
    }
}

impl PropertyGraph {
    /// Vertex `v` as it is now, as a [`VertexView`].
    #[inline]
    pub fn vertex_view(&self, v: VertexId) -> Option<VertexView<'_>> {
        self.vertex(v).map(|data| VertexView {
            id: v,
            data,
            undo: None,
        })
    }

    /// Edge `e` as it is now, as an [`EdgeView`].
    #[inline]
    pub fn edge_view(&self, e: EdgeId) -> Option<EdgeView<'_>> {
        self.edge(e).map(|data| EdgeView {
            id: e,
            data,
            undo: None,
        })
    }
}
