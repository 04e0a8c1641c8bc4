//! Sinks: the views over the DAG — their handles, their result bags,
//! and the fold that brings each bag up to date after a pass.
//!
//! # Invariants
//!
//! * A view's result bag is its root's full output bag, consolidated,
//!   with no zero multiplicity: registration seeds it, and each pass
//!   folds in the root's consolidated delta.
//! * A [`SinkId`] names one registration for good: a dropped view's
//!   slot is reused, but dropping through its old handle does nothing
//!   and reading through it panics.
//! * [`changed_sinks`](DataflowNetwork::changed_sinks) is in slot order,
//!   and a view's delta borrows its root's pooled output.

use std::collections::hash_map::Entry;

use pgq_common::fxhash::FxHashMap;
use pgq_common::tuple::Tuple;

use super::{DataflowNetwork, NodeId};
use crate::delta::Delta;
use crate::stats::OpStats;

/// Handle of a view (sink) registered over the network: its slot, and
/// the serial of the registration that took the slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SinkId {
    slot: u32,
    serial: u64,
}

impl SinkId {
    fn ix(self) -> usize {
        self.slot as usize
    }
}

/// A view: a refcounted sink over the shared DAG.
#[derive(Clone, Debug)]
struct Sink {
    name: String,
    columns: Vec<String>,
    root: NodeId,
    results: FxHashMap<Tuple, i64>,
    /// Network generation at registration; the view has been through
    /// every maintenance round since.
    registered_gen: u64,
    /// Generation of the last transaction that changed this view; the
    /// delta itself stays in the root's pooled output buffer (see
    /// [`DataflowNetwork::last_delta`]) — no copy is made.
    changed_gen: u64,
    /// Serial of the registration that made this view.
    serial: u64,
}

impl Sink {
    /// Did the transaction of `generation` change this view?
    fn changed_in(&self, generation: u64) -> bool {
        self.changed_gen == generation && generation > 0
    }
}

/// Every view, in its slot, and the views the last transaction changed.
#[derive(Clone, Debug, Default)]
pub(super) struct Sinks {
    slots: Vec<Option<Sink>>,
    changed: Vec<SinkId>,
    /// Registrations so far: the serial last handed out.
    serial: u64,
}

impl Sinks {
    /// The view `sid` names; a stale or foreign handle panics, naming it.
    fn get(&self, sid: SinkId) -> &Sink {
        match self.slots.get(sid.ix()) {
            Some(Some(sink)) if sink.serial == sid.serial => sink,
            _ => panic!("{sid:?} names no live view"),
        }
    }

    pub(super) fn clear_changed(&mut self) {
        self.changed.clear();
    }

    /// Fold changed roots into sink result bags. `roots` holds the nodes
    /// the pass ran, each as the sinks reading it and its delta, so only
    /// those are visited, never every sink. `changed` is reported in
    /// sink-id order.
    pub(super) fn fold<'a>(
        &mut self,
        generation: u64,
        roots: impl Iterator<Item = (&'a [SinkId], &'a Delta)>,
    ) {
        for (sinks, delta) in roots {
            if delta.is_empty() {
                continue;
            }
            for &sid in sinks {
                let sink = self.slots[sid.ix()].as_mut().expect("live sink");
                for (t, m) in delta.iter() {
                    match sink.results.entry(t.clone()) {
                        Entry::Occupied(mut e) => {
                            *e.get_mut() += m;
                            debug_assert!(*e.get() >= 0, "negative view multiplicity for {t}");
                            if *e.get() == 0 {
                                e.remove();
                            }
                        }
                        Entry::Vacant(v) => {
                            debug_assert!(*m >= 0, "negative view multiplicity for {t}");
                            v.insert(*m);
                        }
                    }
                }
                sink.changed_gen = generation;
                self.changed.push(sid);
            }
        }
        self.changed.sort_unstable();
    }
}

impl DataflowNetwork {
    /// Attach a new view `name` to `root`, its result bag `results`.
    pub(super) fn add_sink(
        &mut self,
        name: String,
        columns: Vec<String>,
        root: NodeId,
        results: FxHashMap<Tuple, i64>,
    ) -> SinkId {
        let sinks = &mut self.sinks;
        sinks.serial += 1;
        let (slots, serial) = (&mut sinks.slots, sinks.serial);
        let slot = slots
            .iter()
            .position(Option::is_none)
            .unwrap_or(slots.len());
        if slot == slots.len() {
            slots.push(None);
        }
        slots[slot] = Some(Sink {
            name,
            columns,
            root,
            results,
            registered_gen: self.generation,
            changed_gen: 0,
            serial,
        });
        let sid = SinkId {
            slot: slot as u32,
            serial,
        };
        self.node_mut(root).sinks.push(sid);
        sid
    }

    /// Drop a view. Shared operator nodes are released only when their
    /// last consumer (parent edge or sink) is gone; the freed subgraph
    /// cascades bottom-up. A handle of a view already dropped is ignored.
    pub fn drop_sink(&mut self, sid: SinkId) {
        let slot = self.sinks.slots.get_mut(sid.ix());
        let Some(sink) = slot.and_then(|s| s.take_if(|s| s.serial == sid.serial)) else {
            return;
        };
        let root = sink.root;
        let sinks = &mut self.node_mut(root).sinks;
        if let Some(pos) = sinks.iter().position(|&s| s == sid) {
            sinks.remove(pos);
        }
        self.collect_if_dead(root);
        self.rebuild_routing();
    }

    /// View `sid`'s result bag.
    pub(super) fn sink_results(&self, sid: SinkId) -> &FxHashMap<Tuple, i64> {
        &self.sinks.get(sid).results
    }

    /// The node whose output is view `sid`.
    pub(super) fn sink_root(&self, sid: SinkId) -> NodeId {
        self.sinks.get(sid).root
    }

    /// Number of live sinks (views).
    pub fn sink_count(&self) -> usize {
        self.sinks.slots.iter().flatten().count()
    }

    /// Sinks whose results changed in the last
    /// [`on_transaction`](DataflowNetwork::on_transaction), in sink-id
    /// order.
    pub fn changed_sinks(&self) -> &[SinkId] {
        &self.sinks.changed
    }

    /// Did this sink's result change in the last transaction?
    pub fn sink_changed(&self, sid: SinkId) -> bool {
        self.sinks.get(sid).changed_in(self.generation)
    }

    /// Consolidated root delta of the transaction just propagated by
    /// [`on_transaction`](DataflowNetwork::on_transaction) — a borrow of
    /// the root node's pooled output buffer, so it is valid only until
    /// the next mutation of the network (next transaction, register, or
    /// drop). Empty unless
    /// [`sink_changed`](DataflowNetwork::sink_changed) is true.
    pub fn last_delta(&self, sid: SinkId) -> &Delta {
        let sink = self.sinks.get(sid);
        if sink.changed_in(self.generation) {
            self.output_of(sink.root)
        } else {
            &self.empty
        }
    }

    /// Borrow a view handle for result access.
    pub fn view(&self, sid: SinkId) -> ViewRef<'_> {
        ViewRef { net: self, sid }
    }

    /// Look up a view by name.
    pub fn view_named(&self, name: &str) -> Option<ViewRef<'_>> {
        self.sinks.slots.iter().enumerate().find_map(|(ix, s)| {
            s.as_ref().filter(|s| s.name == name).map(|s| ViewRef {
                net: self,
                sid: SinkId {
                    slot: ix as u32,
                    serial: s.serial,
                },
            })
        })
    }

    /// Tuples materialised across one view's reachable subgraph plus its
    /// result bag. Shared nodes are counted once per view (each view
    /// reports the memory it depends on), but only once within a view
    /// even if referenced from several places in its plan.
    pub fn memory_tuples_of(&self, sid: SinkId) -> usize {
        let sink = self.sinks.get(sid);
        let mut visited: Vec<NodeId> = Vec::new();
        let mut stack = vec![sink.root];
        let mut total = sink.results.len();
        while let Some(id) = stack.pop() {
            if visited.contains(&id) {
                continue;
            }
            visited.push(id);
            total += self.own_tuples(id);
            stack.extend(self.node(id).kind.children());
        }
        total
    }
}

/// Borrowed read access to one view's results — the engine-facing
/// equivalent of the old per-view `MaterializedView` getters.
#[derive(Clone, Copy)]
pub struct ViewRef<'a> {
    net: &'a DataflowNetwork,
    sid: SinkId,
}

impl<'a> ViewRef<'a> {
    /// View name.
    pub fn name(&self) -> &'a str {
        &self.net.sinks.get(self.sid).name
    }

    /// Output column names.
    pub fn columns(&self) -> &'a [String] {
        &self.net.sinks.get(self.sid).columns
    }

    /// The result bag by reference, sorted by [`Tuple::total_cmp`]. The
    /// tuples are distinct keys, so an unstable sort is deterministic.
    fn sorted(&self) -> Vec<(&'a Tuple, i64)> {
        let results = &self.net.sinks.get(self.sid).results;
        let mut out: Vec<(&Tuple, i64)> = results.iter().map(|(t, m)| (t, *m)).collect();
        out.sort_unstable_by(|a, b| a.0.total_cmp(b.0));
        out
    }

    /// Current result bag as `(tuple, multiplicity)` pairs, sorted for
    /// deterministic output.
    pub fn results(&self) -> Vec<(Tuple, i64)> {
        self.sorted()
            .into_iter()
            .map(|(t, m)| (t.clone(), m))
            .collect()
    }

    /// Flattened result rows (each tuple repeated by its multiplicity).
    pub fn rows(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.row_count());
        for (t, m) in self.sorted() {
            out.extend(std::iter::repeat_n(t, m.max(0) as usize).cloned());
        }
        out
    }

    /// Number of distinct result tuples.
    pub fn distinct_count(&self) -> usize {
        self.net.sinks.get(self.sid).results.len()
    }

    /// Total row count (with multiplicities).
    pub fn row_count(&self) -> usize {
        self.net
            .sinks
            .get(self.sid)
            .results
            .values()
            .map(|m| (*m).max(0) as usize)
            .sum()
    }

    /// Tuples materialised across the view's subgraph (memory metric).
    pub fn memory_tuples(&self) -> usize {
        self.net.memory_tuples_of(self.sid)
    }

    /// Number of maintenance rounds executed.
    pub fn maintenance_count(&self) -> u64 {
        self.net.generation - self.net.sinks.get(self.sid).registered_gen
    }

    /// Per-operator statistics of the view's subgraph.
    pub fn network_stats(&self) -> OpStats {
        self.net.stats_of(self.sid)
    }
}

#[cfg(test)]
mod tests {
    use crate::network::DataflowNetwork;
    use pgq_algebra::compile_query;
    use pgq_algebra::fra::Fra;
    use pgq_graph::store::PropertyGraph;
    use pgq_parser::parse_query;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn fra(q: &str) -> Fra {
        compile_query(&parse_query(q).expect("parses"))
            .expect("compiles")
            .fra
    }

    /// Register `a`, drop it, register `b` into the freed slot: the old
    /// handle no longer names anything.
    #[test]
    fn a_stale_sink_id_never_names_a_later_view() {
        let (g, mut net) = (PropertyGraph::new(), DataflowNetwork::new());
        let a = net.register("a", &fra("MATCH (n:A) RETURN n"), &g);
        net.drop_sink(a);
        let b = net.register("b", &fra("MATCH (n:B) RETURN n"), &g);
        assert_eq!(a.slot, b.slot, "the slot is reused");
        assert_ne!(a, b);
        assert_eq!(net.view(b).name(), "b");

        net.drop_sink(a);
        assert_eq!(net.sink_count(), 1, "a stale drop is a no-op");
        assert_eq!(net.view(b).name(), "b");

        let payload = catch_unwind(AssertUnwindSafe(|| net.view(a).name().len()))
            .expect_err("a read through a stale id panics");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(msg.contains(&format!("{a:?}")), "{msg}");
    }
}
