//! Base-relation operators: the © get-vertices and ⇑ get-edges scans.
//!
//! Which elements a scan reads, and the row each gives, is its
//! `pgq_graph::scan` pattern ([`VertexPattern`], [`EdgePattern`]) — the
//! rule one-shot reads and a view's registration read through as well. A
//! scan node adds only its routing contract and the diff a pass makes.
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

use pgq_common::fxhash::FxHashSet;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_graph::before::BeforeImage;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::scan::{EdgePattern, VertexPattern};

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
    pattern: VertexPattern,
    /// Reused per-batch dedup set (cleared, not reallocated).
    touched: FxHashSet<VertexId>,
    /// Reused row-assembly buffers: a vertex's row before the pass and
    /// now.
    before: Vec<Value>,
    now: Vec<Value>,
    /// Change events examined by [`VertexScan::changes`].
    events_read: u64,
}

/// A changed row into `out`, as a scan's `changes` reports it: the old
/// one retracted, the new asserted.
pub(crate) fn push_change(
    out: &mut (impl RowSink + ?Sized),
    old: Option<&[Value]>,
    new: Option<&[Value]>,
) {
    if let Some(old) = old {
        out.push_row(Row::Assembled(old), -1);
    }
    if let Some(new) = new {
        out.push_row(Row::Assembled(new), 1);
    }
}

impl VertexScan {
    /// Create a scan reading `pattern`.
    pub(crate) fn new(pattern: VertexPattern) -> VertexScan {
        VertexScan {
            pattern,
            touched: FxHashSet::default(),
            before: Vec::new(),
            now: Vec::new(),
            events_read: 0,
        }
    }

    /// The pattern this scan reads.
    pub(crate) fn pattern(&self) -> &VertexPattern {
        &self.pattern
    }

    /// Change events this scan has examined since it was created.
    pub(crate) fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Routing contract (see [`ScanRouting`]).
    pub(crate) fn routing(&self) -> VertexRouting {
        VertexRouting {
            labels: self.pattern.labels.clone(),
            prop_keys: self.pattern.props.clone(),
        }
    }

    /// Call `f(v, old, new)` for every vertex the events touch whose row
    /// changed: its row before the pass and now, `None` where it failed
    /// the scan. The network hands a scan only the events routed to it;
    /// `image` undoes all of the pass's.
    pub(crate) fn changes<'e>(
        &mut self,
        image: &BeforeImage<'_>,
        events: impl IntoIterator<Item = &'e ChangeEvent>,
        mut f: impl FnMut(VertexId, Option<&[Value]>, Option<&[Value]>),
    ) {
        let VertexScan {
            pattern,
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
            let had = pattern.row_into(image.vertex(v), before);
            let has = pattern.row_into(g.vertex_view(v), now);
            if had && has && before == now {
                continue;
            }
            f(v, had.then_some(&before[..]), has.then_some(&now[..]));
        }
    }
}

/// The ⇑ get-edges scan node: the rows of its [`EdgePattern`]. Like
/// [`VertexScan`] it keeps no copy of what it emitted.
#[derive(Clone, Debug)]
pub(crate) struct EdgeScan {
    pattern: EdgePattern,
    /// Reused per-batch dedup set (cleared, not reallocated).
    touched: FxHashSet<EdgeId>,
    /// Reused row-assembly buffers: one orientation's row before the
    /// pass and now.
    before: Vec<Value>,
    now: Vec<Value>,
    /// Change events examined by [`EdgeScan::changes`].
    events_read: u64,
}

impl EdgeScan {
    /// Create a scan reading `pattern`.
    pub(crate) fn new(pattern: EdgePattern) -> EdgeScan {
        EdgeScan {
            pattern,
            touched: FxHashSet::default(),
            before: Vec::new(),
            now: Vec::new(),
            events_read: 0,
        }
    }

    /// The pattern this scan reads.
    pub(crate) fn pattern(&self) -> &EdgePattern {
        &self.pattern
    }

    /// Change events this scan has examined since it was created.
    pub(crate) fn events_read(&self) -> u64 {
        self.events_read
    }

    /// Routing contract (see [`ScanRouting`] and [`EdgeRouting`]).
    pub(crate) fn routing(&self) -> EdgeRouting {
        let p = &self.pattern;
        // One endpoint side's interest: labels gate membership, props
        // make that side's vertex state part of the emitted tuple. A side
        // with neither has no vertex interest.
        let side = |labels: &[Symbol], props: &[Symbol]| -> Option<VertexRouting> {
            if labels.is_empty() && props.is_empty() {
                return None;
            }
            Some(VertexRouting {
                labels: labels.to_vec(),
                prop_keys: props.to_vec(),
            })
        };
        let mut edge_prop_keys = p.edge_props.clone();
        for (k, _) in &p.filters {
            if !edge_prop_keys.contains(k) {
                edge_prop_keys.push(*k);
            }
        }
        EdgeRouting {
            types: p.types.clone(),
            edge_prop_keys,
            src_interest: side(&p.src_labels, &p.src_props),
            dst_interest: side(&p.dst_labels, &p.dst_props),
        }
    }

    /// Do this scan's tuples depend on vertex state at all? When not
    /// (e.g. the bare `(src, e, dst)` scan feeding a variable-length
    /// join), vertex label/property events cannot change any emitted
    /// tuple, so the per-event adjacency fan-out can be skipped entirely.
    /// Structural changes (vertex deletion detaching edges) arrive as
    /// their own edge events and are still handled.
    fn vertex_sensitive(&self) -> bool {
        let p = &self.pattern;
        !p.src_labels.is_empty()
            || !p.dst_labels.is_empty()
            || !p.src_props.is_empty()
            || !p.dst_props.is_empty()
    }

    /// Call `f(old, new)` for every orientation of every edge the events
    /// touch whose row changed: its row before the pass and now, `None`
    /// where it failed the scan. Vertex events touch every incident edge
    /// (labels/properties of endpoints are part of edge tuples).
    pub(crate) fn changes<'e>(
        &mut self,
        image: &BeforeImage<'_>,
        events: impl IntoIterator<Item = &'e ChangeEvent>,
        mut f: impl FnMut(Option<&[Value]>, Option<&[Value]>),
    ) {
        let g = image.graph();
        let vertex_sensitive = self.vertex_sensitive();
        let EdgeScan {
            pattern,
            touched,
            before,
            now,
            events_read,
        } = self;
        touched.clear();
        for ev in events {
            *events_read += 1;
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
        for &e in touched.iter() {
            let old = image.edge(e);
            let new = g.edge_view(e);
            // Endpoints never change, so both sides share orientations.
            let Some(ends) = old.or(new).map(|edge| (edge.src(), edge.dst())) else {
                continue;
            };
            for sd in pattern.orientations(ends) {
                let had = pattern.row_into(sd, old, |v| image.vertex(v), before);
                let has = pattern.row_into(sd, new, |v| g.vertex_view(v), now);
                if had && has && before == now {
                    continue;
                }
                f(had.then_some(&before[..]), has.then_some(&now[..]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use pgq_common::dir::Direction;
    use pgq_graph::before::BeforeIndex;
    use pgq_graph::props::Properties;
    use pgq_graph::store::PropertyGraph;
    use pgq_graph::tx::Transaction;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// The bag of the rows a pattern's enumeration hands out.
    fn scan_bag(rows: impl FnOnce(&mut dyn FnMut(&[Value])) -> u64) -> Delta {
        let mut out = Delta::new();
        rows(&mut |row| out.push_row(Row::Assembled(row), 1));
        out
    }

    /// The consolidated delta a scan's changes write for a
    /// pass of `events` over their post-state `g`.
    fn consolidated(
        g: &PropertyGraph,
        events: &[ChangeEvent],
        changes: impl FnOnce(&BeforeImage<'_>, &[ChangeEvent], &mut Delta),
    ) -> Delta {
        let mut index = BeforeIndex::new();
        let mut out = Delta::new();
        changes(&index.build(g, events), events, &mut out);
        out.consolidate()
    }

    #[test]
    fn vertex_scan_initial_and_updates() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex(
            [sym("Post")],
            Properties::from_iter([("lang", Value::str("en"))]),
        );
        let mut scan = VertexScan::new(VertexPattern {
            labels: vec![sym("Post")],
            props: vec![sym("lang")],
        });
        let init = scan_bag(|out| scan.pattern().rows(&g, out)).consolidate();
        assert_eq!(init.len(), 1);
        let (t0, m0) = init.iter().next().unwrap().clone();
        assert_eq!(m0, 1);
        assert_eq!(t0.get(0), &Value::Node(a));
        assert_eq!(t0.get(1), &Value::str("en"));

        // Fine-grained property change → retract + assert.
        let ev = g.set_vertex_prop(a, sym("lang"), "de".into()).unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.changes(image, evs, |_, old, new| push_change(out, old, new))
        });
        assert_eq!(d.len(), 2);
        // Label removal → retraction only.
        let ev = g.remove_label(a, sym("Post")).unwrap().unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.changes(image, evs, |_, old, new| push_change(out, old, new))
        });
        assert_eq!(d.len(), 1);
        assert_eq!(d.iter().next().unwrap().1, -1);
    }

    #[test]
    fn vertex_scan_unrelated_prop_change_is_noop_tuplewise() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("Post")], Properties::new());
        let mut scan = VertexScan::new(VertexPattern {
            labels: vec![sym("Post")],
            props: vec![],
        });
        scan_bag(|out| scan.pattern().rows(&g, out));
        let ev = g.set_vertex_prop(a, sym("other"), Value::Int(1)).unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.changes(image, evs, |_, old, new| push_change(out, old, new))
        });
        assert!(d.is_empty(), "tuple did not change, no delta expected");
    }

    #[test]
    fn edge_scan_both_orientations() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("P")], Properties::new());
        let (b, _) = g.add_vertex([sym("P")], Properties::new());
        g.add_edge(a, b, sym("KNOWS"), Properties::new()).unwrap();
        let scan = EdgeScan::new(EdgePattern {
            types: vec![sym("KNOWS")],
            dir: Direction::Both,
            ..Default::default()
        });
        let init = scan_bag(|out| scan.pattern().rows(&g, out)).consolidate();
        assert_eq!(init.len(), 2, "both orientations");
    }

    #[test]
    fn edge_scan_self_loop_once_in_both_mode() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("P")], Properties::new());
        g.add_edge(a, a, sym("KNOWS"), Properties::new()).unwrap();
        let scan = EdgeScan::new(EdgePattern {
            dir: Direction::Both,
            ..Default::default()
        });
        assert_eq!(
            scan_bag(|out| scan.pattern().rows(&g, out))
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
        let mut scan = EdgeScan::new(EdgePattern {
            types: vec![sym("REPLY")],
            dst_labels: vec![sym("Comm")],
            dir: Direction::Out,
            ..Default::default()
        });
        assert_eq!(
            scan_bag(|out| scan.pattern().rows(&g, out))
                .consolidate()
                .len(),
            1
        );
        let ev = g.remove_label(b, sym("Comm")).unwrap().unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.changes(image, evs, |old, new| push_change(out, old, new))
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
        let mut scan = EdgeScan::new(EdgePattern {
            filters: vec![(sym("w"), Value::Int(1))],
            ..Default::default()
        });
        assert_eq!(
            scan_bag(|out| scan.pattern().rows(&g, out))
                .consolidate()
                .len(),
            1
        );
        let ev = g.set_edge_prop(e, sym("w"), Value::Int(2)).unwrap();
        let d = consolidated(&g, &[ev], |image, evs, out| {
            scan.changes(image, evs, |old, new| push_change(out, old, new))
        });
        assert_eq!(d.iter().next().unwrap().1, -1);
    }

    #[test]
    fn transaction_events_flow_through_scan() {
        let mut g = PropertyGraph::new();
        let mut scan = VertexScan::new(VertexPattern {
            labels: vec![sym("Post")],
            props: vec![],
        });
        scan_bag(|out| scan.pattern().rows(&g, out));
        let mut tx = Transaction::new();
        tx.create_vertex([sym("Post")], Properties::new());
        tx.create_vertex([sym("Comm")], Properties::new());
        let events = g.apply(&tx).unwrap();
        let d = consolidated(&g, &events, |image, evs, out| {
            scan.changes(image, evs, |_, old, new| push_change(out, old, new))
        });
        assert_eq!(d.len(), 1, "only the Post matches");
    }
}
