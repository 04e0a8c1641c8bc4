//! Sinks: the views over the DAG — their handles, the result bag of
//! each view root, and the fold that brings each bag up to date after a
//! pass.
//!
//! # Invariants
//!
//! * Every node a view reads has exactly one result bag, shared by all
//!   the views on it: its full output bag, consolidated, with no zero
//!   multiplicity. The first view on a root seeds it, the root's `sinks`
//!   refcount it (as readers refcount an arrangement), and the last view
//!   out frees it; a node no view reads has none.
//! * Each pass folds a changed root's consolidated delta into its bag
//!   once, however many views read it, then marks every one changed.
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

/// A view: a sink over the shared DAG, reading its root's result bag.
#[derive(Clone, Debug)]
struct Sink {
    name: String,
    columns: Vec<String>,
    root: NodeId,
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

/// Every view, in its slot, the result bag of each view root, and the
/// views the last transaction changed.
#[derive(Clone, Debug, Default)]
pub(super) struct Sinks {
    slots: Vec<Option<Sink>>,
    /// Each view root's result bag, shared by the views on it.
    bags: FxHashMap<NodeId, FxHashMap<Tuple, i64>>,
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

    /// View `sid`'s result bag: its root's.
    fn results(&self, sid: SinkId) -> &FxHashMap<Tuple, i64> {
        &self.bags[&self.get(sid).root]
    }

    /// The result bag of `root`, if a view reads it.
    pub(super) fn bag(&self, root: NodeId) -> Option<&FxHashMap<Tuple, i64>> {
        self.bags.get(&root)
    }

    /// Number of live result bags (one per node a view reads).
    #[cfg(test)]
    pub(super) fn bag_count(&self) -> usize {
        self.bags.len()
    }

    pub(super) fn clear_changed(&mut self) {
        self.changed.clear();
    }

    /// Fold changed roots into their result bags. `roots` holds the
    /// nodes the pass ran, each with the sinks reading it and its delta,
    /// so only those are visited, never every sink: each root's delta
    /// goes into its bag once, and every sink on it is marked changed.
    /// `changed` is reported in sink-id order.
    pub(super) fn fold<'a>(
        &mut self,
        generation: u64,
        roots: impl Iterator<Item = (NodeId, &'a [SinkId], &'a Delta)>,
    ) {
        for (root, sinks, delta) in roots {
            if sinks.is_empty() || delta.is_empty() {
                continue;
            }
            let results = self.bags.get_mut(&root).expect("a view root's bag");
            for (t, m) in delta.iter() {
                match results.entry(t.clone()) {
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
            for &sid in sinks {
                self.slots[sid.ix()]
                    .as_mut()
                    .expect("live sink")
                    .changed_gen = generation;
                self.changed.push(sid);
            }
        }
        self.changed.sort_unstable();
    }
}

impl DataflowNetwork {
    /// Attach a new view `name` to `root`. `seed` is the root's full
    /// output bag when no view reads `root` yet, and `None` when one
    /// does: the new view then shares that view's bag.
    pub(super) fn add_sink(
        &mut self,
        name: String,
        columns: Vec<String>,
        root: NodeId,
        seed: Option<FxHashMap<Tuple, i64>>,
    ) -> SinkId {
        debug_assert_eq!(
            seed.is_some(),
            self.node(root).sinks.is_empty(),
            "a root is seeded exactly when no view reads it"
        );
        let sinks = &mut self.sinks;
        if let Some(results) = seed {
            sinks.bags.insert(root, results);
        }
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
    ///
    /// A drop that leaves its root with a view frees nothing and changes
    /// no node's sinks from some to none, so the routing index and the
    /// fused pairs stand as they are.
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
        if !sinks.is_empty() {
            return;
        }
        self.sinks.bags.remove(&root);
        self.collect_if_dead(root);
        self.rebuild_layout();
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
    pub(crate) fn memory_tuples_of(&self, sid: SinkId) -> usize {
        let mut visited: Vec<NodeId> = Vec::new();
        let mut stack = vec![self.sink_root(sid)];
        let mut total = self.sinks.results(sid).len();
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
        let results = self.net.sinks.results(self.sid);
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
        self.net.sinks.results(self.sid).len()
    }

    /// Total row count (with multiplicities).
    pub fn row_count(&self) -> usize {
        self.net
            .sinks
            .results(self.sid)
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
    use crate::network::{DataflowNetwork, SinkId};
    use pgq_algebra::compile_query;
    use pgq_algebra::fra::Fra;
    use pgq_common::intern::Symbol;
    use pgq_common::value::Value;
    use pgq_graph::props::Properties;
    use pgq_graph::store::PropertyGraph;
    use pgq_graph::tx::Transaction;
    use pgq_parser::parse_query;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const LANGS: [&str; 3] = ["en", "de", "fr"];

    fn fra(q: &str) -> Fra {
        compile_query(&parse_query(q).expect("parses"))
            .expect("compiles")
            .fra
    }

    fn lang(i: usize) -> Value {
        Value::str(LANGS[i % LANGS.len()])
    }

    /// `n` posts, in the three languages in turn.
    fn posts(n: usize) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut tx = Transaction::new();
        for i in 0..n {
            let mut p = Properties::new();
            p.set(Symbol::intern("lang"), lang(i));
            tx.create_vertex([Symbol::intern("Post")], p);
        }
        g.apply(&tx).unwrap();
        g
    }

    /// Step `i` of a churn: a new post, a post's language changed, and
    /// every third step a post deleted.
    fn churn(g: &PropertyGraph, i: usize) -> Transaction {
        let mut ids: Vec<_> = g.vertex_ids().collect();
        ids.sort_unstable();
        let mut tx = Transaction::new();
        let mut p = Properties::new();
        p.set(Symbol::intern("lang"), lang(i));
        tx.create_vertex([Symbol::intern("Post")], p);
        tx.set_vertex_prop(
            ids[(7 * i) % ids.len()],
            Symbol::intern("lang"),
            lang(i + 1),
        );
        if i.is_multiple_of(3) {
            tx.delete_vertex(ids[(5 * i + 1) % ids.len()], true);
        }
        tx
    }

    /// Run `steps` churn steps, holding each of `views` to the recompute
    /// of its plan after every one; returns how many steps changed the
    /// first.
    fn churn_and_audit(
        net: &mut DataflowNetwork,
        g: &mut PropertyGraph,
        steps: usize,
        views: &[(SinkId, &Fra)],
    ) -> usize {
        let mut changed = 0;
        for i in 0..steps {
            let events = g.apply(&churn(g, i)).unwrap();
            net.on_transaction(g, &events);
            changed += usize::from(net.sink_changed(views[0].0));
            for &(sid, plan) in views {
                let want = pgq_eval::evaluate_consolidated(plan, g);
                assert_eq!(net.view(sid).results(), want, "step {i}");
            }
        }
        changed
    }

    /// Two views on one root read one bag: the second registration adds
    /// no node, enumerates no bag and rebuilds nothing, the bag outlives
    /// the first view and stays exact, and goes with the last.
    #[test]
    fn a_root_bag_lives_as_long_as_its_last_view() {
        let (mut g, mut net) = (posts(12), DataflowNetwork::new());
        let (qa, qb) = (
            fra("MATCH (p:Post) WHERE p.lang = 'en' RETURN p"),
            fra("MATCH (x:Post) WHERE x.lang = 'en' RETURN x"),
        );
        let a = net.register("a", &qa, &g);
        let before = (
            net.node_count(),
            net.counters().bag_enumerations,
            net.layout_rebuilds,
        );
        let b = net.register("b", &qb, &g);
        let after = (
            net.node_count(),
            net.counters().bag_enumerations,
            net.layout_rebuilds,
        );
        assert_eq!(after, before, "(nodes, bag enumerations, rebuilds)");
        assert_eq!(net.sinks.bag_count(), 1);
        assert!(std::ptr::eq(net.sinks.results(a), net.sinks.results(b)));

        net.drop_sink(a);
        assert_eq!(net.layout_rebuilds, before.2, "b still reads the root");
        assert_eq!(net.sinks.bag_count(), 1);
        let changed = churn_and_audit(&mut net, &mut g, 12, &[(b, &qb)]);
        assert!(changed > 0, "the churn never changed b");

        let stale = catch_unwind(AssertUnwindSafe(|| net.view(a).row_count()));
        assert!(stale.is_err(), "a read through a dropped view's id panics");

        net.drop_sink(b);
        assert_eq!(net.sinks.bag_count(), 0, "the last view frees the bag");
        assert_eq!(net.node_count(), 0);
    }

    /// A view whose root is a fused producer — here the `©(Post)` under
    /// another view's σ→π — adds no node, but gives that producer its
    /// first view: the pair must come apart, or the scan's deltas never
    /// reach the new view.
    #[test]
    fn a_first_view_on_a_fused_producer_unfuses_it() {
        let (mut g, mut net) = (posts(12), DataflowNetwork::new());
        let (qa, qb) = (
            fra("MATCH (p:Post) WHERE p.lang = 'en' RETURN p"),
            fra("MATCH (p:Post) RETURN p, p.lang"),
        );
        let a = net.register("a", &qa, &g);
        let program = net.sink_root(a);
        let (_, scan) = net.node(program).kind.program().expect("a σ→π root");
        assert_eq!(net.fused_with(scan), Some(program));

        let nodes = net.node_count();
        let b = net.register("b", &qb, &g);
        assert_eq!(net.node_count(), nodes, "b adds no node");
        assert_eq!(net.sink_root(b), scan);
        assert_eq!(net.fused_with(scan), None, "a producer feeding a view");
        let changed = churn_and_audit(&mut net, &mut g, 12, &[(b, &qb), (a, &qa)]);
        assert_eq!(changed, 12, "every step changes b");
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
