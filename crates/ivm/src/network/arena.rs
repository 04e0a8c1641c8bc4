//! The arena: the operator nodes, the arrangements of their outputs,
//! slot allocation, and the hash-consing index that lets views share.
//!
//! # Arrangements: a node's output, indexed once
//!
//! A join needs its inputs' full bags indexed by the join key. The
//! operator does not keep them: the *network* indexes a node's output,
//! once per distinct key-column **set**, as a refcounted arrangement
//! owned by the producing node (`arrangements[slot]`), and every ⋈ / ⋉ /
//! ▷ reading that node on that key set shares it — a triangle-closing
//! join on `(c, a)` and both sides of a four-cycle's wedge ⋈ wedge on
//! `(a, c)` / `(c, a)` probe one index of the wedge, because an
//! arrangement is keyed by the *sorted* columns and each consumer
//! permutes its probe columns to match. The last reader to go frees it.
//!
//! Arrangements are **read-only during a pass** and hold the state as of
//! its start; after the pass each node the pass ran has its delta
//! applied to each of its arrangements exactly once
//! ([`DataflowNetwork::on_transaction_with`]). So the join kernel's
//! delta rule carries a third term, `ΔL ⋈ ΔR` (see [`crate::join`]) —
//! the one a self-join fed the same delta on both sides cannot do
//! without — and a pooled level needs no synchronisation for them:
//! workers share `&[Vec<Arrangement>]`, and nothing writes it until the
//! pass is over.
//!
//! # Invariants
//!
//! * **Consing is sound** because equality is checked on the full
//!   canonical plan (`Fra: PartialEq`), never on the fingerprint alone;
//!   a hash collision can therefore cost a linear probe, never shared
//!   state between different plans. Canonicalisation itself only
//!   permutes output columns (recorded in its mapping and undone by a
//!   tail projection), so a shared node computes the *identical* bag
//!   for every view that reaches it.
//! * A node lives while a parent edge or a sink reads it; the last to
//!   go frees it and cascades to its children.

use pgq_algebra::fra::Fra;
use pgq_algebra::program::{Scratch, TupleProgram};
use pgq_common::intern::Symbol;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::store::PropertyGraph;

use super::{DataflowNetwork, SinkId};
use crate::aggregate::AggregateOp;
use crate::basic::program_into;
use crate::delta::{Delta, IndexedBag};
use crate::distinct::DistinctOp;
use crate::join::JoinOp;
use crate::scan::{EdgeScan, VertexScan};
use crate::semijoin::SemiJoinOp;
use crate::stats::Counters;
use crate::tc::VarLengthOp;
use crate::wcoj::MultiwayJoinOp;

/// Handle of an operator node in the network arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub(super) u32);

impl NodeId {
    pub(super) fn ix(self) -> usize {
        self.0 as usize
    }
}

/// One operator of the dataflow DAG. Mirrors the FRA operator set;
/// child links are arena indices instead of boxed subtrees.
#[derive(Clone, Debug)]
pub(super) enum NodeKind {
    /// Constant single empty tuple.
    Unit { emitted: bool },
    /// © scan.
    Vertices(VertexScan),
    /// ⇑ scan.
    Edges(EdgeScan),
    /// Hash join: a kernel over `left`'s arrangement `left_arr` and
    /// `right`'s arrangement `right_arr` (see [`Arrangement`]).
    Join {
        left: NodeId,
        right: NodeId,
        left_arr: u32,
        right_arr: u32,
        op: JoinOp,
    },
    /// Semijoin / antijoin over `left`'s arrangement `left_arr` and a
    /// private support map of `right`.
    SemiJoin {
        left: NodeId,
        right: NodeId,
        left_arr: u32,
        op: SemiJoinOp,
    },
    /// ⋈* variable-length join (owns internal scans, so it also
    /// receives routed events).
    VarLength { left: NodeId, op: Box<VarLengthOp> },
    /// A maximal σ/π/ω chain, compiled into one program, with the
    /// program's working memory.
    Program {
        input: NodeId,
        program: TupleProgram,
        scratch: Scratch,
    },
    /// δ.
    Distinct { input: NodeId, op: DistinctOp },
    /// γ.
    Aggregate { input: NodeId, op: AggregateOp },
    /// ⨝ⁿ worst-case optimal n-ary join. One child link per input
    /// *position* — positions sharing an upstream node link it twice
    /// (each reference is its own dependency edge, like a self-join).
    Multiway {
        inputs: Vec<NodeId>,
        op: Box<MultiwayJoinOp>,
    },
}

impl NodeKind {
    /// Child links, one entry per incoming reference, in input order.
    pub(super) fn children(&self) -> Vec<NodeId> {
        match self {
            NodeKind::Unit { .. } | NodeKind::Vertices(_) | NodeKind::Edges(_) => Vec::new(),
            NodeKind::Join { left, right, .. } | NodeKind::SemiJoin { left, right, .. } => {
                vec![*left, *right]
            }
            NodeKind::VarLength { left, .. } => vec![*left],
            NodeKind::Program { input, .. }
            | NodeKind::Distinct { input, .. }
            | NodeKind::Aggregate { input, .. } => vec![*input],
            NodeKind::Multiway { inputs, .. } => inputs.clone(),
        }
    }

    /// A stateless chain's program and its one input, whose output is a
    /// pure function of that input's; `None` for operators with memories
    /// of their own.
    pub(super) fn program(&self) -> Option<(&TupleProgram, NodeId)> {
        match self {
            NodeKind::Program { input, program, .. } => Some((program, *input)),
            _ => None,
        }
    }

    /// Is this operator's full output consolidated by construction
    /// (given consolidated inputs), so re-consolidating it is wasted
    /// hashing? Scans key their memory by the element id every tuple
    /// carries; a ⋈ row determines the (distinct) pair that produced
    /// it, since only the right side's key columns are dropped and they
    /// equal the left's; ⋉/▷ and a σ-only program keep a subset of a
    /// consolidated bag; δ and γ emit one row per key. A program with a
    /// π or ω, ⋈* and ⨝ⁿ are consolidated explicitly.
    pub(super) fn output_consolidated(&self) -> bool {
        match self {
            NodeKind::Program { program, .. } => program.is_filter(),
            _ => !matches!(self, NodeKind::VarLength { .. } | NodeKind::Multiway { .. }),
        }
    }

    /// Tuples materialised in this operator's private memories (the
    /// arrangements of its *output* are the network's; see
    /// [`DataflowNetwork::own_tuples`]).
    pub(super) fn private_tuples(&self) -> usize {
        match self {
            NodeKind::Unit { .. } | NodeKind::Join { .. } | NodeKind::Program { .. } => 0,
            NodeKind::Vertices(s) => s.memory_tuples(),
            NodeKind::Edges(s) => s.memory_tuples(),
            NodeKind::SemiJoin { op, .. } => op.memory_tuples(),
            NodeKind::VarLength { op, .. } => op.memory_tuples(),
            NodeKind::Distinct { op, .. } => op.memory_tuples(),
            NodeKind::Aggregate { op, .. } => op.memory_tuples(),
            NodeKind::Multiway { op, .. } => op.memory_tuples(),
        }
    }

    /// Run the operator over one pass's inputs — `child(id)` is input
    /// `id`'s delta, `arrangements` every node's indexes as of the start
    /// of the pass, `events` what was routed here — appending its output
    /// delta to `out`. The one operator dispatch of the pass, inlined
    /// into `schedule`'s per-node step, its one caller.
    #[inline]
    pub(super) fn run<'a>(
        &mut self,
        child: impl Fn(NodeId) -> &'a Delta,
        arrangements: &[Vec<Arrangement>],
        g: &PropertyGraph,
        events: &[ChangeEvent],
        out: &mut Delta,
    ) {
        match self {
            NodeKind::Unit { .. } => {}
            NodeKind::Vertices(scan) => scan.on_events_into(g, events, out),
            NodeKind::Edges(scan) => scan.on_events_into(g, events, out),
            NodeKind::Join {
                left,
                right,
                left_arr,
                right_arr,
                op,
            } => op.apply(
                child(*left),
                child(*right),
                arranged(arrangements, *left, *left_arr),
                arranged(arrangements, *right, *right_arr),
                out,
            ),
            NodeKind::SemiJoin {
                left,
                right,
                left_arr,
                op,
            } => op.apply(
                child(*left),
                child(*right),
                arranged(arrangements, *left, *left_arr),
                out,
            ),
            NodeKind::VarLength { left, op } => op.on_events_into(g, events, child(*left), out),
            NodeKind::Program {
                input,
                program,
                scratch,
            } => program_into(program, child(*input), scratch, out),
            NodeKind::Distinct { input, op } => op.apply(child(*input), out),
            NodeKind::Aggregate { input, op } => op.apply(child(*input), out),
            NodeKind::Multiway { inputs, op } => {
                let refs: Vec<&Delta> = inputs.iter().map(|&i| child(i)).collect();
                op.apply(&refs, out);
            }
        }
    }

    /// The work this operator has counted (module docs, "Work
    /// counters").
    pub(super) fn counters(&self) -> Counters {
        match self {
            NodeKind::Join { op, .. } => op.counters(),
            NodeKind::VarLength { op, .. } => op.counters(),
            NodeKind::Multiway { op, .. } => op.counters(),
            _ => Counters::default(),
        }
    }

    /// Display label (the same operator glyphs the old tree stats used).
    pub(super) fn label(&self) -> String {
        fn syms(s: &[Symbol]) -> String {
            s.iter()
                .map(|x| x.resolve().to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
        match self {
            NodeKind::Unit { .. } => "Unit".into(),
            NodeKind::Vertices(s) => format!("©({})", syms(&s.routing().labels)),
            NodeKind::Edges(s) => format!("⇑({})", syms(&s.routing().types)),
            NodeKind::Join { .. } => "⋈".into(),
            NodeKind::SemiJoin { .. } => "⋉/▷".into(),
            NodeKind::VarLength { op, .. } => format!(
                "⋈* [{} anchors, {} paths, {} edges]",
                op.anchor_count(),
                op.path_count(),
                op.edge_count()
            ),
            NodeKind::Program { program, .. } => program.to_string(),
            NodeKind::Distinct { .. } => "δ".into(),
            NodeKind::Aggregate { .. } => "γ".into(),
            NodeKind::Multiway { inputs, op } => format!(
                "⨝ⁿ [{} rels, {}]",
                inputs.len(),
                if op.sorted_backend() {
                    "sorted"
                } else {
                    "hash"
                }
            ),
        }
    }
}

/// Arena slot: the operator plus its DAG bookkeeping.
#[derive(Clone, Debug)]
pub(super) struct Node {
    pub(super) kind: NodeKind,
    /// Canonical subplan this node implements — the hash-consing
    /// identity. Equal plans (confirmed by full structural comparison,
    /// so fingerprint collisions are harmless) share one node.
    pub(super) plan: Fra,
    pub(super) fingerprint: u64,
    /// Consumer nodes, one entry per incoming edge (a self-join parent
    /// appears twice).
    pub(super) parents: Vec<NodeId>,
    /// Views reading this node's output directly.
    pub(super) sinks: Vec<SinkId>,
    /// Change events routed to this node since creation (scan-bearing
    /// nodes only; the routing-exactness metric).
    pub(super) delivered_events: u64,
}

/// One index over a node's full output bag, owned by the producing node
/// and shared by every ⋈ / ⋉ / ▷ that reads the node on this key-column
/// set (module docs, "Arrangements"). Slots are stable handles: a slot
/// whose last reader left holds an empty bag until it is reused.
#[derive(Clone, Debug)]
pub(super) struct Arrangement {
    /// The bag, keyed by the *sorted* key columns.
    pub(super) bag: IndexedBag,
    /// Consumer edges reading it (a self-join on one key set counts
    /// twice); zero marks a free slot.
    pub(super) readers: u32,
}

/// `producer`'s arrangement in `slot`.
pub(super) fn arranged(arrs: &[Vec<Arrangement>], producer: NodeId, slot: u32) -> &IndexedBag {
    &arrs[producer.ix()][slot as usize].bag
}

/// The live arrangements among `arrs`.
pub(super) fn live(arrs: &[Arrangement]) -> impl Iterator<Item = &Arrangement> {
    arrs.iter().filter(|a| a.readers > 0)
}

impl DataflowNetwork {
    /// The live node already instantiating `fra`, whose fingerprint is
    /// `fp`, if any.
    pub(super) fn consed(&self, fra: &Fra, fp: u64) -> Option<NodeId> {
        let cands = self.cons.get(&fp)?;
        cands.iter().copied().find(|&id| self.node(id).plan == *fra)
    }

    /// Put `node` in a free arena slot, or a new one, with no
    /// arrangements, and enter it in the hash-consing index.
    pub(super) fn alloc(&mut self, node: Node) -> NodeId {
        let fp = node.fingerprint;
        let id = match self.free_nodes.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Some(node);
                NodeId(slot)
            }
            None => {
                self.nodes.push(Some(node));
                NodeId((self.nodes.len() - 1) as u32)
            }
        };
        self.arrangements.resize_with(self.nodes.len(), Vec::new);
        self.cons.entry(fp).or_default().push(id);
        id
    }

    /// Give back one reader's share of `producer`'s arrangement `slot`;
    /// the last reader out frees the index (the slot stays, so sibling
    /// handles remain valid).
    fn release_arrangement(&mut self, producer: NodeId, slot: u32) {
        let arr = &mut self.arrangements[producer.ix()][slot as usize];
        arr.readers -= 1;
        if arr.readers == 0 {
            arr.bag = IndexedBag::default();
        }
    }

    /// Free `id` if it has no consumers left, cascading to children. Its
    /// counts fold into the network's totals.
    pub(super) fn collect_if_dead(&mut self, id: NodeId) {
        {
            let node = self.node(id);
            if !node.parents.is_empty() || !node.sinks.is_empty() {
                return;
            }
        }
        let node = self.nodes[id.ix()].take().expect("live node");
        self.counters += node.kind.counters();
        // Unlink from the hash-consing index.
        if let Some(bucket) = self.cons.get_mut(&node.fingerprint) {
            if let Some(pos) = bucket.iter().position(|&n| n == id) {
                bucket.swap_remove(pos);
            }
            if bucket.is_empty() {
                self.cons.remove(&node.fingerprint);
            }
        }
        self.release_output(id);
        self.free_nodes.push(id.0);
        debug_assert!(
            live(&self.arrangements[id.ix()]).next().is_none(),
            "a node without consumers has no arrangement readers"
        );
        self.arrangements[id.ix()].clear();
        match &node.kind {
            NodeKind::Join {
                left,
                right,
                left_arr,
                right_arr,
                ..
            } => {
                self.release_arrangement(*left, *left_arr);
                self.release_arrangement(*right, *right_arr);
            }
            NodeKind::SemiJoin { left, left_arr, .. } => {
                self.release_arrangement(*left, *left_arr);
            }
            _ => {}
        }
        // Detach from children (one parent edge per reference) and
        // cascade.
        for child in node.kind.children() {
            let parents = &mut self.node_mut(child).parents;
            if let Some(pos) = parents.iter().position(|&p| p == id) {
                parents.swap_remove(pos);
            }
            self.collect_if_dead(child);
        }
    }

    pub(super) fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.ix()].as_ref().expect("live node")
    }

    pub(super) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.ix()].as_mut().expect("live node")
    }

    /// Tuples `id` holds: the operator's private memories plus every
    /// arrangement of its output.
    pub(super) fn own_tuples(&self, id: NodeId) -> usize {
        self.node(id).kind.private_tuples()
            + live(&self.arrangements[id.ix()])
                .map(|a| a.bag.distinct_len())
                .sum::<usize>()
    }

    /// Number of live operator nodes in the arena (the node-sharing
    /// metric: N identical views keep this at one chain's worth).
    pub fn node_count(&self) -> usize {
        self.nodes.iter().flatten().count()
    }
}
