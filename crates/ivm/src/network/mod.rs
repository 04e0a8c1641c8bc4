//! The shared dataflow network: one arena-allocated operator DAG serving
//! every registered view.
//!
//! This is the Rete idea the paper's propagation network is built on:
//! structurally identical relational-algebra subplans are compiled
//! **once** and shared across standing queries. Where the engine
//! previously gave every materialised view a private recursive operator
//! tree (cost O(#views) per transaction even for overlapping views),
//! the [`DataflowNetwork`] keeps a flat arena of operator nodes
//! ([`NodeId`]-indexed, explicit child→parent edges) in which a node may
//! feed any number of consumers, and views are **sink** entries over the
//! shared DAG: the views on one root read one result bag, which they
//! refcount.
//!
//! Three mechanisms keep per-transaction cost proportional to affected
//! state rather than to the number of registered queries:
//!
//! * **Canonicalisation + hash-consing** —
//!   [`register`](DataflowNetwork::register) first rewrites the plan
//!   into the [canonical form](pgq_algebra::canon) (alpha-renamed
//!   positional columns, sorted commutative structure, fused σ chains,
//!   normalised π positions), then keys every canonical subplan by its
//!   [fingerprint](pgq_algebra::fingerprint) and reuses an existing
//!   node when a full structural equality check confirms the match. N
//!   overlapping views instantiate one shared operator chain, not N —
//!   and "overlapping" is judged up to alpha-equivalence, so
//!   `MATCH (a:Post)` and `MATCH (p:Post)` are the same scan. A family
//!   of views differing only in a top-level `WHERE` shares its whole
//!   stateful prefix (scans, join memories) and pays one private
//!   stateless node each — its σ and π, compiled into one
//!   [`TupleProgram`](pgq_algebra::program::TupleProgram) — because canonicalisation keeps top-level filters
//!   as a *suffix* above the prefix instead of pushing them into it.
//! * **Targeted event routing** — scans are indexed by vertex label and
//!   edge type (plus property-key interest), and a transaction's change
//!   events are delivered only to the scan nodes that can possibly
//!   match them; a transaction touching only label `A` delivers zero
//!   events to scans over label `B`. Because alpha-equivalent scans
//!   collapse to one node, each event is delivered (and counted) once
//!   per *distinct* scan, not once per registered view.
//!   A scan reads only the events routed to it, not the whole pass's.
//! * **Delta pooling** — every dataflow edge's delta buffer is drawn
//!   from a transaction-scoped pool and returned after its consumers
//!   have read it, and a σ/π/ω chain is one node whose program runs
//!   inside the step of its input when it is that input's one consumer
//!   (a fused pair), so steady-state maintenance performs no per-layer
//!   allocation and a row the program rejects is never allocated.
//!
//! The network does five jobs, one submodule each: `arena`, `routing`,
//! `register`, `schedule` and `sinks`. Each owns its state and states
//! its invariants; the others reach that state only through its methods.
//!
//! # Invariants
//!
//! * Each view root has one result bag (`sinks`), whatever the number of
//!   views on it: a registration whose root already feeds a view copies
//!   nothing, and a pass folds each root's delta once.
//! * The routing index and the fused pairs are rebuilt together, on every
//!   registration and drop that may change them: one that creates or
//!   frees a node, or that changes whether a node feeds a view. A fully
//!   shared registration, and a drop that leaves its root a view, do
//!   neither and rebuild nothing.
//!
//! # Work counters
//!
//! [`DataflowNetwork::counters`] reads the network's work as counts
//! ([`Counters`]). Each is a plain field kept where the work happens: a
//! ⋈, ⨝ⁿ or ⋈* operator counts what it emits, probes or touches in its
//! own fields (a level's nodes are disjoint, so a worker counts without
//! synchronisation), and the network counts arrangement updates after
//! the pass and the bags a registration or a dump enumerates. A dropped node's
//! counts fold into the network's totals, so every counter only grows,
//! and since every node runs the same step at every width, the counters
//! are part of the determinism contract.

mod arena;
mod register;
mod routing;
mod schedule;
mod sinks;

pub use arena::NodeId;
pub use register::{plan_stats, RegisterOptions, RestoreStates};
pub use sinks::{SinkId, ViewRef};

use pgq_common::fxhash::FxHashMap;

use crate::delta::Delta;
use crate::stats::{Counters, OpStats};
use arena::{live, Arrangement, Node, NodeKind};
use routing::RoutingIndex;
use schedule::{DeltaPool, Scheduler};
use sinks::Sinks;

/// Aggregate description of one live node — the observable the
/// node-sharing and event-routing tests assert against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSummary {
    /// Arena handle.
    pub id: NodeId,
    /// Operator glyph plus scan labels/types, e.g. `©(Post)`, or the
    /// ⨝ⁿ candidate backend, e.g. `⨝ⁿ [3 rels, sorted]`.
    pub label: String,
    /// Incoming consumer edges (parent edges + sink edges). A node
    /// shared by N views reports N consumers at the sharing boundary.
    pub consumers: usize,
    /// Change events routed to this node since creation (scan-bearing
    /// nodes only).
    pub delivered_events: u64,
    /// Change events this node's scans examined since creation: exactly
    /// the ones routed to it, so never more than `delivered_events` (a
    /// ⋈*'s two internal scans read the same events, counted once).
    pub events_read: u64,
    /// Tuples the node holds: its operator's private memories plus
    /// every arrangement of its output.
    pub own_tuples: usize,
    /// The node's arrangements as `(key columns, tuples, readers)`: each
    /// is one index over its full output, shared by `readers` consuming
    /// ⋈ / ⋉ / ▷ edges.
    pub arrangements: Vec<(Vec<usize>, usize, usize)>,
    /// Topological depth (0 = leaf).
    pub depth: u32,
}

/// The engine-owned shared dataflow network. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct DataflowNetwork {
    nodes: Vec<Option<Node>>,
    free_nodes: Vec<u32>,
    /// Each node's arrangements, by arena slot (parallel to `nodes`):
    /// read-only during a pass, updated once after it.
    arrangements: Vec<Vec<Arrangement>>,
    sinks: Sinks,
    /// Fingerprint → candidate nodes (hash-consing index).
    cons: FxHashMap<u64, Vec<NodeId>>,
    routing: RoutingIndex,
    generation: u64,
    sched: Scheduler,
    pool: DeltaPool,
    /// Monotone per-event stamp backing `deliver_stamp`.
    event_serial: u64,
    /// Static empty delta handed out by [`DataflowNetwork::last_delta`]
    /// for unchanged sinks.
    empty: Delta,
    /// The network's own counts plus those of every dropped node (see
    /// [`DataflowNetwork::counters`]).
    counters: Counters,
    /// Rebuilds of the routing index and fused pairs so far.
    layout_rebuilds: u64,
}

impl DataflowNetwork {
    /// Fresh empty network.
    pub fn new() -> DataflowNetwork {
        DataflowNetwork::default()
    }

    /// Rebuild what the node set and the view roots decide: the routing
    /// index (from the node set) and the fused pairs (from the DAG and
    /// which nodes feed a view). Register and drop run it unless they
    /// changed neither.
    fn rebuild_layout(&mut self) {
        self.layout_rebuilds += 1;
        self.rebuild_routing();
        self.rebuild_fusion();
    }

    /// Summaries of all live nodes, in arena order.
    pub fn node_summaries(&self) -> Vec<NodeSummary> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(ix, n)| {
                n.as_ref().map(|n| NodeSummary {
                    id: NodeId(ix as u32),
                    label: n.kind.label(),
                    consumers: n.parents.len() + n.sinks.len(),
                    delivered_events: n.delivered_events,
                    events_read: n.kind.events_read(),
                    own_tuples: self.own_tuples(NodeId(ix as u32)),
                    arrangements: live(&self.arrangements[ix])
                        .map(|a| {
                            (
                                a.bag.key_cols().to_vec(),
                                a.bag.distinct_len(),
                                a.readers as usize,
                            )
                        })
                        .collect(),
                    depth: self.depth(NodeId(ix as u32)),
                })
            })
            .collect()
    }

    /// The network's work so far (module docs, "Work counters"): its own
    /// counts, those of every dropped node, and every live node's.
    pub fn counters(&self) -> Counters {
        let mut c = self.counters;
        for node in self.nodes.iter().flatten() {
            c += node.kind.counters();
        }
        c
    }

    /// Per-operator statistics of one view's subgraph, rendered as a
    /// tree (shared nodes appear in every referencing view's tree).
    pub(crate) fn stats_of(&self, sid: SinkId) -> OpStats {
        self.node_stats(self.sink_root(sid))
    }

    fn node_stats(&self, id: NodeId) -> OpStats {
        let node = self.node(id);
        let name = match &node.kind {
            NodeKind::Vertices(_) => "©".to_string(),
            NodeKind::Edges(_) => "⇑".to_string(),
            kind => kind.label(),
        };
        OpStats {
            name: name + &self.arrangement_note(id),
            own_tuples: self.own_tuples(id),
            children: node
                .kind
                .children()
                .into_iter()
                .map(|c| self.node_stats(c))
                .collect(),
        }
    }

    /// ` arr{0,4}: 112k ×3, 97% inline` per arrangement of `id` — key
    /// columns (`~3` for a value join's column 3), tuples held, readers,
    /// share of keys whose tuples sit in the table entry — for the
    /// `:stats` rendering.
    fn arrangement_note(&self, id: NodeId) -> String {
        use std::fmt::Write;
        let mut note = String::new();
        for a in live(&self.arrangements[id.ix()]) {
            let keys = a.bag.key_cols();
            let ids = keys.len() - a.bag.value_cols();
            let cols: Vec<String> = keys
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{}{c}", if i < ids { "" } else { "~" }))
                .collect();
            let n = a.bag.distinct_len();
            let size = if n < 1000 {
                n.to_string()
            } else {
                format!("{}k", n / 1000)
            };
            let (keys, inline) = a.bag.key_counts();
            let share = (100 * inline).checked_div(keys).unwrap_or(100);
            let _ = write!(
                note,
                " arr{{{}}}: {size} ×{}, {share}% inline",
                cols.join(","),
                a.readers
            );
        }
        note
    }
}
