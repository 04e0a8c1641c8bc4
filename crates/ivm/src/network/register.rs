//! Registration: instantiating a view's plan, sharing what exists and
//! loading what is new; and the state dump, which reads the same bags.
//!
//! # Full bags: registration and the state dump
//!
//! Deltas are what flows at run time, but two operations need a node's
//! *full* output bag: registering a view onto a populated graph (every
//! new operator's memories are loaded from its inputs' bags, the new
//! arrangements and a new root's result bag from theirs) and a durable
//! snapshot ([`DataflowNetwork::dump_states`], every live node's bag). Both
//! **stream** it: the rows come from the node or, for a program node,
//! from its input, whichever has them first — a bag memoised earlier in
//! the pass, a snapshot's stored bag (warm registration), a bag maintenance already
//! keeps consolidated (a view root's result bag, one of the node's own
//! arrangements), and only last an enumeration of the node's own
//! memories (for a ⋈, of its inputs' arrangements) — and run through the
//! chain's program row by row on borrowed values
//! (`basic::Programmed`), so a row is allocated only if it
//! survives into what keeps it: the
//! arrangement being built, the view's result bag, or a memoised bag. A
//! full bag is memoised where a consumer needs one whole — the input of
//! a loading δ / γ / ⋉ / ⨝ⁿ / ⋈*, the by-product of a scan's, ⋈*'s, δ's
//! or γ's linear load — or where a second consumer in the same pass
//! would enumerate a node's memories again. A new join whose input is
//! already arranged on its key set loads nothing for that side.
//!
//! Registration is therefore one bottom-up pass over the *new* part of
//! the plan: stateful operators load insert-only, stateless ones do no
//! work, and a view whose root already feeds another view shares that
//! view's result bag. Cost: O(new inputs + new outputs) for the new
//! sub-DAG; when nothing is new and the root already feeds a view, only
//! the plan's hash-consing — no bag is streamed or copied, and the
//! routing index and the fused pairs are not rebuilt, whatever the
//! result's size. A dump costs O(operator state), each shared node
//! once. See ARCHITECTURE.md, "Registration".

use pgq_algebra::expr::AggCall;
use pgq_algebra::fra::Fra;
use pgq_algebra::plan::WcojMode;
use pgq_algebra::program::{Scratch, TupleProgram};
use pgq_common::fxhash::{FxHashMap, FxHashSet};
use pgq_common::tuple::Tuple;
use pgq_graph::store::PropertyGraph;

use super::arena::{arranged, live, Arrangement, Node, NodeKind};
use super::{DataflowNetwork, NodeId, SinkId};
use crate::aggregate::AggregateOp;
use crate::basic::Programmed;
use crate::delta::{Delta, IndexedBag, Row, RowSink};
use crate::distinct::DistinctOp;
use crate::join::JoinOp;
use crate::scan::{EdgeScan, EdgeScanSpec, VertexScan};
use crate::semijoin::SemiJoinOp;
use crate::tc::VarLengthOp;
use crate::wcoj::MultiwayJoinOp;
use crate::Counters;

/// Options for [`DataflowNetwork::register_with`]: how one view is
/// planned. The defaults are what every engine registration runs; the
/// others keep the syntactic order and the binary join trees reachable
/// per view, as the reference twins of the differential oracles.
#[derive(Clone, Copy, Debug)]
pub struct RegisterOptions {
    /// Run the cost-based join-order planner before canonicalisation
    /// (the default). Disable for the syntactic-order baseline.
    pub plan: bool,
    /// Fusion policy for cyclic join regions: `CostBased` (default)
    /// weighs the catalog estimates, `Disabled` pins the
    /// binary-join-tree baseline benchmarks and differential tests
    /// compare against, `Forced` fuses every eligible region regardless
    /// of the estimates. Has no effect when `plan` is false (fusion is
    /// a planner decision).
    pub wcoj: WcojMode,
    /// Backend for ⨝ⁿ sub-indexes: `None` lets the catalog decide
    /// (sorted runs when the snapshot's out-degree skew reaches
    /// [`pgq_algebra::plan::SORTED_BACKEND_MIN_SKEW`], hash tries
    /// below it — each wins on its side of that line), `Some(true)`
    /// forces sorted runs with galloping intersection, `Some(false)`
    /// forces the hash tries (benchmarks and the backend twin of the
    /// differential oracle pin one backend per view this way).
    pub wcoj_sorted: Option<bool>,
}

impl Default for RegisterOptions {
    fn default() -> Self {
        RegisterOptions {
            plan: true,
            wcoj: WcojMode::CostBased,
            wcoj_sorted: None,
        }
    }
}

/// Fingerprint-keyed operator-state bags captured by a durable
/// snapshot, ready for warm re-registration via
/// [`DataflowNetwork::register_with_restore`].
///
/// Each entry pairs a node's content-stable plan fingerprint with a
/// second, domain-separated `check` hash
/// ([`Fra::snapshot_check`](pgq_algebra::fra::Fra::snapshot_check)) —
/// the stand-in for the full plan-equality confirmation in-process
/// hash-consing performs, since a snapshot cannot ship the plans
/// themselves — and the node's consolidated full output bag at
/// snapshot time.
#[derive(Clone, Debug, Default)]
pub struct RestoreStates {
    map: FxHashMap<u64, (u64, Vec<(Tuple, i64)>)>,
}

impl RestoreStates {
    /// Empty state map (every lookup misses, so recovery degrades to
    /// cold registration).
    pub fn new() -> RestoreStates {
        RestoreStates::default()
    }

    /// Add one node's bag under `(fingerprint, check)`.
    pub fn insert(&mut self, fingerprint: u64, check: u64, bag: Vec<(Tuple, i64)>) {
        self.map.insert(fingerprint, (check, bag));
    }

    /// The bag stored for `fingerprint`, verified against `check`.
    pub fn lookup(&self, fingerprint: u64, check: u64) -> Option<&[(Tuple, i64)]> {
        match self.map.get(&fingerprint) {
            Some((c, bag)) if *c == check => Some(bag.as_slice()),
            _ => None,
        }
    }

    /// Iterate all stored `(fingerprint, check, bag)` entries.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, u64, &[(Tuple, i64)])> {
        self.map
            .iter()
            .map(|(fp, (check, bag))| (*fp, *check, bag.as_slice()))
    }

    /// Number of stored node states.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no states are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// One pass's full output bags (see [`DataflowNetwork::feed`]): the
/// memoised ones — each consolidated, produced at most once and read by
/// every later consumer — and which enumerations were already streamed.
#[derive(Default)]
struct Bags<'s> {
    /// Snapshot bags, consulted first (warm registration only).
    stored: Option<&'s RestoreStates>,
    resolved: FxHashMap<NodeId, Delta>,
    /// Nodes whose memories a consumer of this pass has streamed: the
    /// next consumer materialises them instead of enumerating again.
    streamed: FxHashSet<NodeId>,
    /// This pass's work: the bags produced from a node's own state
    /// ([`bag_enumerations`](crate::Counters::bag_enumerations)) and the
    /// rows and probes of the ⋈ / ⨝ⁿ enumerations among them.
    work: Counters,
}

impl<'s> Bags<'s> {
    /// The snapshot's bag for `node`, if this pass has a snapshot and it
    /// stores one under the node's `(fingerprint, check)` pair.
    fn stored_bag(&self, node: &Node) -> Option<&'s [(Tuple, i64)]> {
        self.stored?
            .lookup(node.fingerprint, node.plan.snapshot_check().0)
    }

    /// Record `bag` as `id`'s memoised bag, consolidating it first unless
    /// it is `consolidated` by construction.
    fn keep(&mut self, id: NodeId, consolidated: bool, mut bag: Delta) {
        if !consolidated {
            bag.consolidate_in_place();
        }
        self.resolved.insert(id, bag);
    }
}

/// A full output bag's rows, borrowed from where they are kept.
type Rows<'a> = Box<dyn Iterator<Item = (&'a Tuple, i64)> + 'a>;

/// Snapshot the planner-relevant statistics of `g`: label/type extents
/// from the secondary indexes, per-type distinct endpoints and
/// distinct-property-value estimates from the live
/// [cardinality catalog](pgq_graph::stats::CardinalityCatalog).
///
/// O(labels + types + property keys), independent of |V| and |E|. The
/// snapshot is immutable: plans chosen from it are **not** re-planned
/// as the graph drifts (re-register a view to replan against fresh
/// statistics).
pub fn plan_stats(g: &PropertyGraph) -> pgq_algebra::plan::PlanStats {
    let catalog = g.catalog();
    let mut stats = pgq_algebra::plan::PlanStats {
        vertices: g.vertex_count() as u64,
        edges: g.edge_count() as u64,
        out_degree_sq_sum: catalog.out_degree_second_moment(),
        out_degree_sources: catalog.out_degree_source_count(),
        ..Default::default()
    };
    for l in g.labels() {
        stats
            .label_counts
            .insert(l, g.vertices_with_label(l).len() as u64);
    }
    for t in g.edge_types() {
        stats
            .type_counts
            .insert(t, g.edges_with_type(t).len() as u64);
        stats
            .type_distinct_src
            .insert(t, catalog.distinct_sources(t) as u64);
        stats
            .type_distinct_dst
            .insert(t, catalog.distinct_targets(t) as u64);
    }
    for k in catalog.vertex_prop_keys() {
        stats
            .vertex_prop_distinct
            .insert(k, catalog.vertex_prop_distinct(k) as u64);
    }
    for k in catalog.edge_prop_keys() {
        stats
            .edge_prop_distinct
            .insert(k, catalog.edge_prop_distinct(k) as u64);
    }
    stats
}

impl DataflowNetwork {
    // ---- registration ----------------------------------------------------

    /// Register a view over `fra`, sharing every subplan already
    /// instantiated in the network, and run the initial evaluation of
    /// whatever suffix is new. Returns the sink handle.
    ///
    /// Two rewrites run before instantiation, in order:
    ///
    /// 1. **Cost-based planning** ([`mod@pgq_algebra::plan`]): a statistics
    ///    snapshot of `g` (see [`plan_stats`]) drives a join-order
    ///    rewrite, so the dataflow's join memories hold the smallest
    ///    intermediates the estimator can find. Planning is a pure
    ///    function of plan structure and the snapshot — alpha-equivalent
    ///    queries plan identically, so sharing is preserved. The
    ///    snapshot is taken **once, here**: later graph drift never
    ///    re-plans a standing view (re-register to replan). Disable
    ///    per view via [`DataflowNetwork::register_with`].
    /// 2. **Canonicalisation** ([`pgq_algebra::canon`]): sharing is up
    ///    to *alpha-equivalence* — registering `MATCH (a:Post)` after
    ///    `MATCH (p:Post)` (or the same `WHERE` with reordered
    ///    conjuncts, or the same `RETURN` under different aliases)
    ///    instantiates zero new nodes. When canonicalisation permutes
    ///    the output columns, a canonical tail projection — itself
    ///    hash-consed — restores the view's own column order; the sink
    ///    always reports the original [`Fra::schema`] names.
    pub fn register(&mut self, name: impl Into<String>, fra: &Fra, g: &PropertyGraph) -> SinkId {
        self.register_with(name, fra, g, RegisterOptions::default())
    }

    /// [`DataflowNetwork::register`] with explicit options (e.g. the
    /// planner-disabled baseline used by benchmarks and differential
    /// tests).
    pub fn register_with(
        &mut self,
        name: impl Into<String>,
        fra: &Fra,
        g: &PropertyGraph,
        options: RegisterOptions,
    ) -> SinkId {
        self.register_impl(name.into(), fra, g, options, None)
    }

    /// Warm-recovery registration: exactly
    /// [`DataflowNetwork::register_with`], except every operator node
    /// whose `(fingerprint, check)` pair hits in `states` rebuilds its
    /// memories probe-free from the snapshot's bags instead of
    /// recomputing its initial evaluation from scratch, and the sink's
    /// result bag is seeded from the stored root bag.
    ///
    /// **Precondition:** `g` must hold exactly the graph the states
    /// were dumped against (the durability layer guarantees this by
    /// replaying the WAL tail only *after* all views are restored).
    /// Misses degrade to cold initialisation per node — correctness
    /// never depends on the snapshot's contents, only recovery speed
    /// does.
    pub fn register_with_restore(
        &mut self,
        name: impl Into<String>,
        fra: &Fra,
        g: &PropertyGraph,
        options: RegisterOptions,
        states: &RestoreStates,
    ) -> SinkId {
        self.register_impl(name.into(), fra, g, options, Some(states))
    }

    fn register_impl(
        &mut self,
        name: String,
        fra: &Fra,
        g: &PropertyGraph,
        options: RegisterOptions,
        states: Option<&RestoreStates>,
    ) -> SinkId {
        let planned_storage;
        // Backend default for any ⨝ⁿ node this registration creates:
        // sorted runs on hub-skewed catalogs (galloping pays), hash
        // tries on low-skew ones (leapfrog constants don't). Only the
        // planned path snapshots statistics; the unplanned path never
        // fuses, so the flag is moot there.
        let mut catalog_sorted = true;
        let planned: &Fra = if options.plan {
            let snapshot = plan_stats(g);
            catalog_sorted =
                snapshot.out_degree_skew() >= pgq_algebra::plan::SORTED_BACKEND_MIN_SKEW;
            let opts = pgq_algebra::plan::PlanOptions { wcoj: options.wcoj };
            planned_storage = pgq_algebra::plan::plan_with(fra, &snapshot, &opts).fra;
            &planned_storage
        } else {
            fra
        };
        let canon = pgq_algebra::canon::canonicalize(planned);
        let plan = canon.with_restored_order();
        let sorted = options.wcoj_sorted.unwrap_or(catalog_sorted);
        let mut bags = Bags {
            stored: states,
            ..Bags::default()
        };
        let root = self.instantiate(&plan, g, sorted, &mut bags);
        // The view reads its root's result bag: the one a view already on
        // the root reads (a fully shared registration streams and copies
        // nothing), else one seeded with the root's rows.
        let shared = !self.node(root).sinks.is_empty();
        let seed = (!shared).then(|| {
            let mut results = FxHashMap::default();
            self.feed(root, &mut bags, &mut results);
            results
        });
        self.counters += bags.work;
        let sid = self.add_sink(name, fra.schema(), root, seed);
        // Rebuild the routing index and the fused pairs eagerly:
        // registration is already a heavyweight operation, and a
        // lazily-stale index would push the rebuild into the first (often
        // benchmarked) transaction — or into every transaction of engines
        // cloned from a registered-but-never-maintained template. The
        // index depends only on the node set and the pairs on the DAG and
        // on which nodes feed a view. A root that already fed a view was
        // hash-consed whole, so no node was made, and it fed a view
        // before: neither changed.
        if !shared {
            self.rebuild_layout();
        }
        sid
    }

    /// Instantiate (or share) the node for `fra`, children first.
    ///
    /// `sorted` picks the sub-index backend for any ⨝ⁿ node created
    /// here. Hash-consing matches on the *plan* only: if an identical
    /// Multiway node already exists, it is shared with whatever backend
    /// it was first created with (both backends maintain the same bag,
    /// so this only matters for benchmarks — which pin one backend per
    /// engine).
    fn instantiate(
        &mut self,
        fra: &Fra,
        g: &PropertyGraph,
        sorted: bool,
        bags: &mut Bags<'_>,
    ) -> NodeId {
        let fp = fra.fingerprint().0;
        if let Some(id) = self.consed(fra, fp) {
            return id;
        }
        let kind = match fra {
            Fra::Unit => NodeKind::Unit { emitted: false },
            Fra::ScanVertices {
                labels,
                props,
                carry_map,
                ..
            } => NodeKind::Vertices(VertexScan::new(labels.clone(), props.clone(), *carry_map)),
            Fra::ScanEdges {
                types,
                src_labels,
                dst_labels,
                src_props,
                edge_props,
                dst_props,
                dir,
                carry_maps,
                ..
            } => NodeKind::Edges(EdgeScan::new(EdgeScanSpec {
                types: types.clone(),
                src_labels: src_labels.clone(),
                dst_labels: dst_labels.clone(),
                src_props: src_props.clone(),
                edge_props: edge_props.clone(),
                dst_props: dst_props.clone(),
                carry_maps: *carry_maps,
                dir: Some(*dir),
                edge_prop_filters: Vec::new(),
            })),
            Fra::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                value_keys,
            } => {
                let op = JoinOp::with_value_keys(
                    left_keys.clone(),
                    right_keys.clone(),
                    value_keys,
                    right.schema().len(),
                );
                let l = self.instantiate(left, g, sorted, bags);
                let r = self.instantiate(right, g, sorted, bags);
                let values = op.value_key_count();
                NodeKind::Join {
                    left: l,
                    right: r,
                    left_arr: self.arrange(l, op.left_arrangement_keys(), values, bags),
                    right_arr: self.arrange(r, op.right_arrangement_keys(), values, bags),
                    op,
                }
            }
            Fra::SemiJoin {
                left,
                right,
                left_keys,
                right_keys,
                anti,
            } => {
                let op = SemiJoinOp::new(left_keys.clone(), right_keys.clone(), *anti);
                let l = self.instantiate(left, g, sorted, bags);
                let r = self.instantiate(right, g, sorted, bags);
                NodeKind::SemiJoin {
                    left: l,
                    right: r,
                    left_arr: self.arrange(l, op.left_arrangement_keys(), 0, bags),
                    op,
                }
            }
            Fra::VarLengthJoin {
                left,
                src_col,
                spec,
                ..
            } => {
                let op = Box::new(VarLengthOp::new(left.schema().len(), *src_col, spec));
                let l = self.instantiate(left, g, sorted, bags);
                NodeKind::VarLength { left: l, op }
            }
            Fra::Filter { .. } | Fra::Project { .. } | Fra::Unwind { .. } => {
                let (program, below) = TupleProgram::compile(fra).expect("a σ/π/ω root");
                NodeKind::Program {
                    input: self.instantiate(below, g, sorted, bags),
                    program,
                    scratch: Scratch::default(),
                }
            }
            Fra::Distinct { input } => NodeKind::Distinct {
                input: self.instantiate(input, g, sorted, bags),
                op: DistinctOp::new(),
            },
            Fra::Aggregate { input, group, aggs } => NodeKind::Aggregate {
                input: self.instantiate(input, g, sorted, bags),
                op: AggregateOp::new(
                    group.iter().map(|(e, _)| e.clone()).collect(),
                    aggs.iter()
                        .map(|(c, _)| c.clone())
                        .collect::<Vec<AggCall>>(),
                ),
            },
            Fra::MultiwayJoin {
                inputs,
                var_of,
                names,
            } => {
                let ids: Vec<NodeId> = inputs
                    .iter()
                    .map(|f| self.instantiate(f, g, sorted, bags))
                    .collect();
                NodeKind::Multiway {
                    inputs: ids,
                    op: Box::new(MultiwayJoinOp::with_backend(var_of, names.len(), sorted)),
                }
            }
        };

        let id = self.alloc(Node {
            kind,
            plan: fra.clone(),
            fingerprint: fp,
            parents: Vec::new(),
            sinks: Vec::new(),
            delivered_events: 0,
        });
        self.place(id);
        self.load_node(id, g, bags);
        // One parent edge per reference (a self-join registers twice).
        for child in self.node(id).kind.children() {
            self.node_mut(child).parents.push(id);
        }
        id
    }

    /// Take a reader's share of `producer`'s arrangement keyed by
    /// `keys` (sorted), the last `values` of them by value, building it
    /// from the node's streamed rows if no consumer reads that key set
    /// yet. Returns the slot.
    fn arrange(
        &mut self,
        producer: NodeId,
        keys: &[usize],
        values: usize,
        bags: &mut Bags<'_>,
    ) -> u32 {
        let arrs = &mut self.arrangements[producer.ix()];
        if let Some(ix) = arrs
            .iter()
            .position(|a| a.readers > 0 && a.bag.key_cols() == keys && a.bag.value_cols() == values)
        {
            arrs[ix].readers += 1;
            return ix as u32;
        }
        let mut bag = IndexedBag::with_values(keys.to_vec(), values);
        self.feed(producer, bags, &mut bag);
        let arr = Arrangement { bag, readers: 1 };
        let arrs = &mut self.arrangements[producer.ix()];
        match arrs.iter().position(|a| a.readers == 0) {
            Some(ix) => {
                arrs[ix] = arr;
                ix as u32
            }
            None => {
                arrs.push(arr);
                (arrs.len() - 1) as u32
            }
        }
    }

    /// Fill a brand-new node's memories from its children's memoised
    /// bags ([`DataflowNetwork::resolve`]; older shared nodes, or nodes
    /// this pass just loaded). The same loader serves cold and warm
    /// registration — they differ only in where a bag is found. Loading
    /// is insert-only: ⋉/▷ and ⨝ⁿ absorb their inputs without probing and
    /// enumerate their output only if a consumer streams it; scans, ⋈*,
    /// δ and γ produce their full output as a by-product of a linear
    /// load, which is memoised for the consumers unless the snapshot
    /// already stores it; a program has nothing to load, and neither has ⋈
    /// — its inputs were arranged (or found arranged) by
    /// [`DataflowNetwork::arrange`] when the node was built.
    fn load_node(&mut self, id: NodeId, g: &PropertyGraph, bags: &mut Bags<'_>) {
        let node = self.node(id);
        let hit = bags.stored_bag(node).is_some();
        if node.kind.program().is_some() {
            return;
        }
        let children = match &node.kind {
            NodeKind::Join { .. } => return,
            // The left input is read through its arrangement.
            NodeKind::SemiJoin { right, .. } => vec![*right],
            kind => kind.children(),
        };
        for &c in &children {
            self.resolve(c, bags);
        }
        let inputs: Vec<&Delta> = children.iter().map(|c| &bags.resolved[c]).collect();
        let mut produced: Option<Delta> = None;
        let kind = &mut self.nodes[id.ix()].as_mut().expect("live node").kind;
        match kind {
            NodeKind::Unit { emitted } => *emitted = true,
            NodeKind::Vertices(scan) => produced = Some(scan.initial(g)),
            NodeKind::Edges(scan) => produced = Some(scan.initial(g)),
            NodeKind::SemiJoin { op, .. } => op.restore(inputs[0]),
            NodeKind::Multiway { op, .. } => op.restore(&inputs),
            NodeKind::VarLength { op, .. } => {
                op.initial_into(g, inputs[0], produced.insert(Delta::new()))
            }
            NodeKind::Distinct { op, .. } => op.apply(inputs[0], produced.insert(Delta::new())),
            NodeKind::Aggregate { op, .. } => op.apply(inputs[0], produced.insert(Delta::new())),
            NodeKind::Join { .. } | NodeKind::Program { .. } => {
                unreachable!("nothing to load: returned above")
            }
        }
        if let Some(bag) = produced.filter(|_| !hit) {
            bags.work.bag_enumerations += 1;
            // A ⋈*'s deltas can retract and re-assert a row, but its
            // first load is one row per (left row, trie node) over a
            // consolidated left bag: consolidated already.
            let consolidated =
                kind.output_consolidated() || matches!(kind, NodeKind::VarLength { .. });
            bags.keep(id, consolidated, bag);
        }
    }

    /// Consolidated full output bag of every live operator node, keyed
    /// by `(fingerprint, check)` — the payload a durable snapshot
    /// stores and [`DataflowNetwork::register_with_restore`] later
    /// consumes in a fresh process.
    ///
    /// Every bag comes from the memoised resolver registration uses
    /// (module docs, "Full bags"), so each is materialised exactly once
    /// and copied rather than recomputed wherever maintenance already
    /// keeps it. The DAG is walked as a DAG: a subplan shared by N views
    /// is dumped once, not once per path that reaches it. Cost:
    /// O(operator state), independent of how many views share it.
    ///
    /// A fingerprint shared by two *live* nodes means two different
    /// plans collided in the primary hash (identical plans would have
    /// been hash-consed into one node); such an ambiguous key is
    /// dropped entirely rather than risk restoring one plan's state
    /// into the other's operator, and recovery cold-starts those
    /// nodes. A dump changes no state; the bags it enumerates count
    /// into [`bag_enumerations`](crate::Counters::bag_enumerations), as
    /// registration's do, but the join rows they take do not.
    pub fn dump_states(&mut self) -> RestoreStates {
        let mut live: Vec<NodeId> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_some())
            .map(|i| NodeId(i as u32))
            .collect();
        // Inputs first: each program then reads its input's memoised bag
        // instead of re-running the nodes below it.
        live.sort_by_key(|&id| self.depth(id));
        let mut fp_count: FxHashMap<u64, u32> = FxHashMap::default();
        let mut bags = Bags::default();
        for &id in &live {
            *fp_count.entry(self.node(id).fingerprint).or_insert(0) += 1;
            self.resolve(id, &mut bags);
        }
        let mut states = RestoreStates::new();
        for id in live {
            let node = self.node(id);
            if fp_count[&node.fingerprint] == 1 {
                let bag = bags.resolved.remove(&id).expect("resolved above");
                states.insert(
                    node.fingerprint,
                    node.plan.snapshot_check().0,
                    bag.into_entries(),
                );
            }
        }
        self.counters.bag_enumerations += bags.work.bag_enumerations;
        states
    }

    /// Make `bags` hold `id`'s consolidated full output bag — the
    /// memoised bag a loading δ / γ / ⋉ / ⨝ⁿ / ⋈* reads, and what a dump
    /// stores — streamed by [`DataflowNetwork::feed`].
    fn resolve(&self, id: NodeId, bags: &mut Bags<'_>) {
        if bags.resolved.contains_key(&id) {
            return;
        }
        let mut bag = Delta::new();
        if !self.feed(id, bags, &mut bag) {
            bag.consolidate_in_place();
        }
        bags.resolved.insert(id, bag);
    }

    /// Stream `id`'s full output bag into `out`, row by row, and say
    /// whether the rows come out consolidated. They are taken from the
    /// first place at or below `id`'s σ/π/ω program where they exist —
    /// this pass's memoised bag, the snapshot's bag, a bag maintenance
    /// keeps ([`DataflowNetwork::kept`]), else an enumeration of the
    /// node's own memories — and run through the program on borrowed
    /// values (`Programmed`), so a row costs an allocation only if it
    /// survives into `out`. An enumeration goes to its first consumer of
    /// the pass directly; a second consumer materialises it into the
    /// memo once, and every later one reads that.
    fn feed(&self, id: NodeId, bags: &mut Bags<'_>, out: &mut dyn RowSink) -> bool {
        enum Source<'a> {
            Memo,
            Kept(Rows<'a>),
            Memories,
        }
        let mut program = None;
        let mut cur = id;
        let mut source = loop {
            if bags.resolved.contains_key(&cur) {
                break Source::Memo;
            }
            let node = self.node(cur);
            if let Some(bag) = bags.stored_bag(node) {
                break Source::Kept(Box::new(bag.iter().map(|(t, m)| (t, *m))));
            }
            if let Some(rows) = self.kept(cur) {
                break Source::Kept(rows);
            }
            match node.kind.program() {
                Some((p, input)) => {
                    debug_assert!(program.is_none(), "a program's input is never a program");
                    program = Some(p);
                    cur = input;
                }
                None => break Source::Memories,
            }
        };
        if matches!(source, Source::Memories) && !bags.streamed.insert(cur) {
            let mut bag = Delta::new();
            bags.work.bag_enumerations += 1;
            bags.work += self.replay_memories(cur, &mut bag);
            bags.keep(cur, self.node(cur).kind.output_consolidated(), bag);
            source = Source::Memo;
        }
        let consolidated = program.is_none_or(TupleProgram::is_filter)
            && (!matches!(source, Source::Memories) || self.node(cur).kind.output_consolidated());
        let mut scratch = Scratch::default();
        let sink = &mut Programmed {
            program: program.map(|p| (p, &mut scratch)),
            out,
        };
        match source {
            Source::Memo => {
                for (t, m) in bags.resolved[&cur].iter() {
                    sink.push_row(Row::Held(t), *m);
                }
            }
            Source::Kept(rows) => {
                for (t, m) in rows {
                    sink.push_row(Row::Held(t), m);
                }
            }
            Source::Memories => {
                bags.work.bag_enumerations += 1;
                bags.work += self.replay_memories(cur, sink);
            }
        }
        consolidated
    }

    /// `id`'s full output bag where maintenance already keeps it
    /// consolidated — its result bag (view roots) or one of the node's
    /// arrangements; `None` when it must be derived.
    fn kept(&self, id: NodeId) -> Option<Rows<'_>> {
        if let Some(results) = self.sinks.bag(id) {
            return Some(Box::new(results.iter().map(|(t, m)| (t, *m))));
        }
        let arr = live(&self.arrangements[id.ix()]).next()?;
        Some(Box::new(arr.bag.iter()))
    }

    /// Fingerprint, canonical sub-plan and directly-attached views of
    /// every live node, in arena order — what a state audit needs to
    /// recompute each node's bag independently of the network and to
    /// find each view's root (see `tests/snapshot_tick.rs`).
    pub fn node_plans(&self) -> impl Iterator<Item = (u64, &Fra, &[SinkId])> {
        self.nodes
            .iter()
            .flatten()
            .map(|n| (n.fingerprint, &n.plan, n.sinks.as_slice()))
    }

    /// Stream stateful node `id`'s full output bag, enumerated from its
    /// own memories, into `out`, returning the join work that took.
    fn replay_memories(&self, id: NodeId, out: &mut dyn RowSink) -> Counters {
        let arrangements = &self.arrangements;
        let mut work = Counters::default();
        match &self.node(id).kind {
            NodeKind::Unit { emitted } => {
                if *emitted {
                    out.push_row(Row::Held(&Tuple::unit()), 1);
                }
            }
            NodeKind::Vertices(s) => s.replay_into(out),
            NodeKind::Edges(s) => s.replay_into(out),
            NodeKind::Join {
                left,
                right,
                left_arr,
                right_arr,
                op,
            } => {
                work = op.replay_into(
                    arranged(arrangements, *left, *left_arr),
                    arranged(arrangements, *right, *right_arr),
                    out,
                )
            }
            NodeKind::SemiJoin {
                left, left_arr, op, ..
            } => op.replay_into(arranged(arrangements, *left, *left_arr), out),
            NodeKind::VarLength { op, .. } => op.replay_into(out),
            NodeKind::Distinct { op, .. } => op.replay_into(out),
            NodeKind::Aggregate { op, .. } => op.replay_into(out),
            NodeKind::Multiway { op, .. } => work = op.replay_into(out),
            NodeKind::Program { .. } => unreachable!("replay_memories on a stateless node"),
        }
        work
    }

    /// Every live arrangement as `(producer's canonical sub-plan, key
    /// columns, readers, contents)`, in arena order — what a state audit
    /// needs to hold each index to the recompute of its producer.
    pub fn arrangement_bags(
        &self,
    ) -> impl Iterator<Item = (&Fra, &[usize], usize, Vec<(Tuple, i64)>)> {
        self.nodes
            .iter()
            .zip(&self.arrangements)
            .filter_map(|(n, arrs)| n.as_ref().map(|n| (n, arrs)))
            .flat_map(|(n, arrs)| {
                live(arrs).map(move |a| {
                    let bag = a.bag.iter().map(|(t, m)| (t.clone(), m)).collect();
                    (&n.plan, a.bag.key_cols(), a.readers as usize, bag)
                })
            })
    }
}
