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
//! feed any number of consumers, and views are refcounted **sink**
//! entries over the shared DAG.
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
//!   [`TupleProgram`] — because canonicalisation keeps top-level filters
//!   as a *suffix* above the prefix instead of pushing them into it.
//! * **Targeted event routing** — scans are indexed by vertex label and
//!   edge type (plus property-key interest), and a transaction's change
//!   events are delivered only to the scan nodes that can possibly
//!   match them; a transaction touching only label `A` delivers zero
//!   events to scans over label `B`. Because alpha-equivalent scans
//!   collapse to one node, each event is delivered (and counted) once
//!   per *distinct* scan, not once per registered view.
//! * **Delta pooling** — every dataflow edge's delta buffer is drawn
//!   from a transaction-scoped pool and returned after its consumers
//!   have read it, and a σ/π/ω chain is one node whose program
//!   rewrites its exclusive input's buffer in place, so steady-state
//!   maintenance performs no per-layer allocation.
//!
//! Propagation is a single topologically-scheduled pass, run one
//! **level** at a time: every dirty node at the current minimum depth.
//! Every edge goes from a strictly shallower node to a deeper one, so a
//! level's nodes are independent — each reads only its children's pooled
//! output deltas, by reference, and appends its own. After a level has
//! run, its outputs are published serially in slot order and the
//! consumers of every non-empty one are queued.
//!
//! How a level runs is the only thing that depends on the width. Inline
//! at width 1 or when the level has fewer than two nodes; otherwise as
//! one broadcast across a [`WorkerPool`]
//! ([`on_transaction_with`](DataflowNetwork::on_transaction_with)), whose
//! workers claim the level's nodes through atomic cursors, one per
//! worker's contiguous share of the level. Every node runs the same step
//! with the same inputs in the same order at every width, so every delta
//! — not only every view's consolidated result — is identical at any
//! thread count (see ARCHITECTURE.md, "Parallel delta propagation").
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
//! # Full bags: registration and the state dump
//!
//! Deltas are what flows at run time, but two operations need a node's
//! *full* output bag: registering a view onto a populated graph (every
//! new operator's memories are loaded from its inputs' bags, the new
//! arrangements and the sink from theirs) and a durable snapshot
//! ([`DataflowNetwork::dump_states`], every live node's bag). Both
//! **stream** it: the rows come from the node or, for a program node,
//! from its input, whichever has them first — a bag memoised earlier in
//! the pass, a snapshot's stored bag (warm registration), a bag maintenance already
//! keeps consolidated (a sibling sink's results, one of the node's own
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
//! work, and a view whose root already feeds another view copies that
//! view's results. Cost: O(new inputs + new outputs) for the new
//! sub-DAG, O(result) when nothing is new; a dump costs O(operator
//! state), each shared node once. See ARCHITECTURE.md, "Registration".
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
//! * **The routing index is rebuilt eagerly** on register/drop and
//!   never inside a measured transaction. Keep it that way: a
//!   lazily-stale index pushes the rebuild into the first transaction
//!   of engines cloned from a registered-but-never-maintained template,
//!   which benchmarks clone-per-iteration — it showed up as a phantom
//!   30% regression before this was learned (see ROADMAP performance
//!   notes, PR 3).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use pgq_algebra::expr::AggCall;
use pgq_algebra::fra::Fra;
use pgq_algebra::plan::WcojMode;
use pgq_algebra::program::{Scratch, TupleProgram};
use pgq_common::fxhash::{FxHashMap, FxHashSet};
use pgq_common::intern::Symbol;
use pgq_common::pool::WorkerPool;
use pgq_common::tuple::Tuple;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::store::PropertyGraph;

use crate::aggregate::AggregateOp;
use crate::basic::{program_in_place, program_into, Programmed};
use crate::delta::{Delta, IndexedBag, Row, RowSink};
use crate::distinct::DistinctOp;
use crate::join::JoinOp;
use crate::scan::{EdgeRouting, EdgeScan, EdgeScanSpec, ScanRouting, VertexRouting, VertexScan};
use crate::semijoin::SemiJoinOp;
use crate::stats::{Counters, OpStats};
use crate::tc::VarLengthOp;
use crate::wcoj::MultiwayJoinOp;

/// Handle of an operator node in the network arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    fn ix(self) -> usize {
        self.0 as usize
    }
}

/// Handle of a view (sink) registered over the network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SinkId(u32);

impl SinkId {
    fn ix(self) -> usize {
        self.0 as usize
    }
}

/// One operator of the dataflow DAG. Mirrors the FRA operator set;
/// child links are arena indices instead of boxed subtrees.
#[derive(Clone, Debug)]
enum NodeKind {
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
    fn children(&self) -> Vec<NodeId> {
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
    fn program(&self) -> Option<(&TupleProgram, NodeId)> {
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
    fn output_consolidated(&self) -> bool {
        match self {
            NodeKind::Program { program, .. } => program.is_filter(),
            _ => !matches!(self, NodeKind::VarLength { .. } | NodeKind::Multiway { .. }),
        }
    }

    /// Tuples materialised in this operator's private memories (the
    /// arrangements of its *output* are the network's; see
    /// [`DataflowNetwork::own_tuples`]).
    fn private_tuples(&self) -> usize {
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
    /// delta to `out`. The one operator dispatch of the pass.
    fn run<'a>(
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
    fn counters(&self) -> Counters {
        match self {
            NodeKind::Join { op, .. } => op.counters(),
            NodeKind::VarLength { op, .. } => op.counters(),
            NodeKind::Multiway { op, .. } => op.counters(),
            _ => Counters::default(),
        }
    }

    /// Display label (the same operator glyphs the old tree stats used).
    fn label(&self) -> String {
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
struct Node {
    kind: NodeKind,
    /// Canonical subplan this node implements — the hash-consing
    /// identity. Equal plans (confirmed by full structural comparison,
    /// so fingerprint collisions are harmless) share one node.
    plan: Fra,
    fingerprint: u64,
    /// Consumer nodes, one entry per incoming edge (a self-join parent
    /// appears twice).
    parents: Vec<NodeId>,
    /// Views reading this node's output directly.
    sinks: Vec<SinkId>,
    /// Change events routed to this node since creation (scan-bearing
    /// nodes only; the routing-exactness metric).
    delivered_events: u64,
}

/// One index over a node's full output bag, owned by the producing node
/// and shared by every ⋈ / ⋉ / ▷ that reads the node on this key-column
/// set (module docs, "Arrangements"). Slots are stable handles: a slot
/// whose last reader left holds an empty bag until it is reused.
#[derive(Clone, Debug)]
struct Arrangement {
    /// The bag, keyed by the *sorted* key columns.
    bag: IndexedBag,
    /// Consumer edges reading it (a self-join on one key set counts
    /// twice); zero marks a free slot.
    readers: u32,
}

/// `producer`'s arrangement in `slot`.
fn arranged(arrangements: &[Vec<Arrangement>], producer: NodeId, slot: u32) -> &IndexedBag {
    &arrangements[producer.ix()][slot as usize].bag
}

/// The live arrangements among `arrs`.
fn live(arrs: &[Arrangement]) -> impl Iterator<Item = &Arrangement> {
    arrs.iter().filter(|a| a.readers > 0)
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
}

/// Pool of cleared [`Delta`] buffers: steady-state maintenance draws
/// every dataflow edge's buffer from here instead of allocating one per
/// operator layer per transaction.
#[derive(Clone, Debug, Default)]
struct DeltaPool {
    free: Vec<Delta>,
}

/// Keep at most this many spare buffers (bounds worst-case retention
/// after a wide transient).
const POOL_CAP: usize = 64;

impl DeltaPool {
    fn get(&mut self) -> Delta {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, mut d: Delta) {
        if self.free.len() < POOL_CAP {
            d.clear();
            self.free.push(d);
        }
    }
}

/// Per-transaction scheduling state, generation-stamped so nothing needs
/// clearing between transactions.
#[derive(Clone, Debug, Default)]
struct Scheduler {
    /// Min-heap of (depth, slot): nodes to process this transaction.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Topological depth per slot (0 = leaf; every edge increases it).
    depth: Vec<u32>,
    /// Generation at which the slot was queued (dedup for `heap`).
    queued: Vec<u64>,
    /// Generation at which events were routed to the slot.
    event_gen: Vec<u64>,
    /// Generation for which `outputs[slot]` is valid.
    out_gen: Vec<u64>,
    /// Output delta of each processed node (pooled buffers).
    outputs: Vec<Delta>,
    /// Event-delivery dedup stamp (one count per event per node).
    deliver_stamp: Vec<u64>,
    /// Slots holding pooled outputs from the last transaction.
    produced: Vec<u32>,
    /// The steps of the level being run (storage reused across levels).
    level: Vec<Step>,
}

impl Scheduler {
    fn grow(&mut self, n: usize) {
        if self.depth.len() < n {
            self.depth.resize(n, 0);
            self.queued.resize(n, 0);
            self.event_gen.resize(n, 0);
            self.out_gen.resize(n, 0);
            self.outputs.resize_with(n, Delta::new);
            self.deliver_stamp.resize(n, 0);
        }
    }

    /// Queue `slot` for processing this generation (idempotent).
    fn mark(&mut self, generation: u64, slot: u32) {
        if self.queued[slot as usize] != generation {
            self.queued[slot as usize] = generation;
            self.heap.push(Reverse((self.depth[slot as usize], slot)));
        }
    }
}

/// One dirty node's work in its level, prepared serially before the
/// level runs ([`DataflowNetwork::prepare`]).
#[derive(Clone, Debug, Default)]
struct Step {
    slot: u32,
    /// `out` holds the output of the program node's exclusive child, to
    /// be rewritten in place instead of copied.
    stolen: bool,
    /// Events were routed to the node this pass.
    routed: bool,
    /// Consolidate the output: it faces a sink, or it feeds a δ, whose
    /// counting takes each distinct tuple once (γ's accumulators are
    /// additive in the multiplicity and read the raw delta).
    consolidate: bool,
    /// The node's output delta: a pooled buffer, or the stolen one.
    out: Delta,
}

impl Step {
    /// The per-node step, the same at every width: transform a stolen
    /// buffer in place, or run the operator on its children's outputs;
    /// then consolidate the output if it is read consolidated.
    fn run(&mut self, kind: &mut NodeKind, pass: &Pass<'_>) {
        // Work on a local: a level's steps sit side by side, and a worker
        // appending through `self.out` would share cache lines with its
        // neighbours' steps.
        let mut out = std::mem::take(&mut self.out);
        if self.stolen {
            out = match kind {
                NodeKind::Program {
                    program, scratch, ..
                } => program_in_place(program, out, scratch),
                _ => unreachable!("only a program steals its input"),
            };
        } else {
            let events = if self.routed { pass.events } else { &[] };
            let child = |id: NodeId| pass.output(id);
            kind.run(child, pass.arrangements, pass.g, events, &mut out);
        }
        if self.consolidate {
            out.consolidate_in_place();
        }
        self.out = out;
    }
}

/// What the nodes of a level read, shared by every worker: the outputs
/// of the levels before it, every arrangement as of the start of the
/// pass, the graph and the transaction's events.
struct Pass<'a> {
    generation: u64,
    outputs: &'a [Delta],
    out_gen: &'a [u64],
    arrangements: &'a [Vec<Arrangement>],
    g: &'a PropertyGraph,
    events: &'a [ChangeEvent],
    empty: &'a Delta,
}

impl Pass<'_> {
    /// `id`'s output delta this pass (empty when it did not run).
    fn output(&self, id: NodeId) -> &Delta {
        if self.out_gen[id.ix()] == self.generation {
            &self.outputs[id.ix()]
        } else {
            self.empty
        }
    }
}

/// Run one level's `steps`, which name their slots of `nodes` in
/// ascending order: inline at width 1 or when the level has fewer than
/// two nodes, otherwise as one broadcast across `workers`, which claim
/// nodes through atomic cursors. A panicking node fails the broadcast,
/// which re-raises the payload once every worker has returned.
fn run_level(
    nodes: &mut [Option<Node>],
    steps: &mut [Step],
    pass: &Pass<'_>,
    workers: Option<&WorkerPool>,
) {
    let pooled = workers.filter(|w| w.threads() > 1 && steps.len() > 1);
    // Split the level's nodes off the arena in slot order: disjoint
    // `&mut`s, and none of them a child of another (children are
    // strictly shallower, and read only through `pass`).
    let mut rest = nodes;
    let mut base = 0;
    let level = steps.iter_mut().map(move |step| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(step.slot as usize + 1 - base);
        rest = tail;
        base = step.slot as usize + 1;
        let node = head.last_mut().and_then(Option::as_mut).expect("live node");
        (&mut node.kind, step)
    });
    match pooled {
        None => level.for_each(|(kind, step)| step.run(kind, pass)),
        Some(workers) => {
            // Worker `c` starts on the `c`-th contiguous share of the
            // level, then helps with the others' remainders. A node's
            // position in its level is stable across levels and
            // transactions, so a branch of the DAG mostly stays on one
            // worker, with its allocations and cache lines. A cursor
            // only hands out indices (`Relaxed`): each cell's lock and
            // the broadcast's own synchronisation publish the data.
            let cells: Vec<Mutex<_>> = level.map(Mutex::new).collect();
            let (w, n) = (workers.threads(), cells.len());
            let cursors: Vec<AtomicUsize> = (0..w).map(|c| AtomicUsize::new(c * n / w)).collect();
            workers.broadcast(|ix| {
                for c in (ix..w).chain(0..ix) {
                    let share = &cells[..(c + 1) * n / w];
                    while let Some(cell) = share.get(cursors[c].fetch_add(1, Ordering::Relaxed)) {
                        let (kind, step) = &mut *cell.lock();
                        step.run(kind, pass);
                    }
                }
            });
        }
    }
}

/// One vertex-indexed routing target.
#[derive(Clone, Debug)]
struct VertexRoute {
    node: NodeId,
    /// Vertex creations/removals matter (scan membership).
    structural: bool,
    /// Label requirement. For vertex scans this is conjunctive (the
    /// vertex must carry all of them); for the endpoint interest of an
    /// edge scan it is a union (any overlap can matter).
    labels: Vec<Symbol>,
    conjunctive: bool,
    /// Property keys that can change emitted tuples; `None` = all.
    prop_keys: Option<Vec<Symbol>>,
}

impl VertexRoute {
    fn labels_admit(&self, has: impl Fn(Symbol) -> bool) -> bool {
        if self.labels.is_empty() {
            return true;
        }
        if self.conjunctive {
            self.labels.iter().all(|&l| has(l))
        } else {
            self.labels.iter().any(|&l| has(l))
        }
    }

    fn cares_about_key(&self, key: Symbol) -> bool {
        match &self.prop_keys {
            None => true,
            Some(keys) => keys.contains(&key),
        }
    }
}

/// One edge-indexed routing target.
#[derive(Clone, Debug)]
struct EdgeRoute {
    node: NodeId,
    /// Property keys that can change emitted tuples; `None` = all.
    prop_keys: Option<Vec<Symbol>>,
}

/// The label/type → scan-node routing index.
#[derive(Clone, Debug, Default)]
struct RoutingIndex {
    vertex_by_label: FxHashMap<Symbol, Vec<VertexRoute>>,
    /// Scans with no label requirement (must see all vertex events that
    /// pass their interest filter).
    vertex_any: Vec<VertexRoute>,
    edge_by_type: FxHashMap<Symbol, Vec<EdgeRoute>>,
    edge_any: Vec<EdgeRoute>,
}

impl RoutingIndex {
    fn clear(&mut self) {
        self.vertex_by_label.clear();
        self.vertex_any.clear();
        self.edge_by_type.clear();
        self.edge_any.clear();
    }

    fn add_vertex_route(&mut self, route: VertexRoute) {
        if route.labels.is_empty() {
            self.vertex_any.push(route);
        } else {
            for &l in &route.labels {
                self.vertex_by_label
                    .entry(l)
                    .or_default()
                    .push(route.clone());
            }
        }
    }

    fn add_edge_route(&mut self, types: &[Symbol], route: EdgeRoute) {
        if types.is_empty() {
            self.edge_any.push(route);
        } else {
            for &t in types {
                self.edge_by_type.entry(t).or_default().push(route.clone());
            }
        }
    }

    fn add_scan(&mut self, node: NodeId, routing: &ScanRouting) {
        match routing {
            ScanRouting::Vertex(VertexRouting { labels, prop_keys }) => {
                self.add_vertex_route(VertexRoute {
                    node,
                    structural: true,
                    labels: labels.clone(),
                    conjunctive: true,
                    prop_keys: prop_keys.clone(),
                });
            }
            ScanRouting::Edge(EdgeRouting {
                types,
                edge_prop_keys,
                src_interest,
                dst_interest,
            }) => {
                self.add_edge_route(
                    types,
                    EdgeRoute {
                        node,
                        prop_keys: edge_prop_keys.clone(),
                    },
                );
                // One vertex route per interested endpoint side, each
                // judged against its own conjunctive label requirement
                // (a label-free prop-bearing side lands in the
                // any-label bucket: any vertex can be that endpoint).
                // Structural vertex events never matter to an edge
                // scan: vertex deletions detach edges via their own
                // edge events, and a fresh vertex has no edges yet.
                for interest in [src_interest, dst_interest].into_iter().flatten() {
                    self.add_vertex_route(VertexRoute {
                        node,
                        structural: false,
                        labels: interest.labels.clone(),
                        conjunctive: true,
                        prop_keys: interest.prop_keys.clone(),
                    });
                }
            }
        }
    }
}

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
    /// Bags produced from a node's own state this pass
    /// ([`Counters::bag_enumerations`]).
    enumerations: u64,
}

impl<'s> Bags<'s> {
    /// The snapshot's bag for `node`, if this pass has a snapshot and it
    /// stores one under the node's `(fingerprint, check)` pair.
    fn stored_bag(&self, node: &Node) -> Option<&'s [(Tuple, i64)]> {
        self.stored?
            .lookup(node.fingerprint, node.plan.snapshot_check().0)
    }

    /// Record `bag` as `id`'s memoised bag, consolidating it first unless
    /// `kind`'s output is consolidated by construction.
    fn keep(&mut self, id: NodeId, kind: &NodeKind, mut bag: Delta) {
        if !kind.output_consolidated() {
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

/// The engine-owned shared dataflow network. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct DataflowNetwork {
    nodes: Vec<Option<Node>>,
    free_nodes: Vec<u32>,
    /// Each node's arrangements, by arena slot (parallel to `nodes`):
    /// read-only during a pass, updated once after it.
    arrangements: Vec<Vec<Arrangement>>,
    sinks: Vec<Option<Sink>>,
    /// Fingerprint → candidate nodes (hash-consing index).
    cons: FxHashMap<u64, Vec<NodeId>>,
    routing: RoutingIndex,
    generation: u64,
    sched: Scheduler,
    pool: DeltaPool,
    changed: Vec<SinkId>,
    /// Monotone per-event stamp backing `deliver_stamp`.
    event_serial: u64,
    /// Static empty delta handed out by [`DataflowNetwork::last_delta`]
    /// for unchanged sinks.
    empty: Delta,
    /// The network's own counts plus those of every dropped node (see
    /// [`DataflowNetwork::counters`]).
    counters: Counters,
}

impl DataflowNetwork {
    /// Fresh empty network.
    pub fn new() -> DataflowNetwork {
        DataflowNetwork::default()
    }

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
        // The sink's result bag is the root's: a copy of a sibling
        // view's when the root already feeds one (a fully shared
        // registration streams nothing), the root's rows streamed into
        // it otherwise.
        let results = match self.node(root).sinks.first() {
            Some(&sibling) => self.sink(sibling).results.clone(),
            None => {
                let mut results = FxHashMap::default();
                self.feed(root, &mut bags, &mut results);
                results
            }
        };
        self.counters.bag_enumerations += bags.enumerations;

        let sink = Sink {
            name,
            columns: fra.schema(),
            root,
            results,
            registered_gen: self.generation,
            changed_gen: 0,
        };
        let sid = match self.sinks.iter().position(Option::is_none) {
            Some(ix) => {
                self.sinks[ix] = Some(sink);
                SinkId(ix as u32)
            }
            None => {
                self.sinks.push(Some(sink));
                SinkId((self.sinks.len() - 1) as u32)
            }
        };
        self.node_mut(root).sinks.push(sid);
        // Rebuild the routing index eagerly: registration is already a
        // heavyweight operation, and a lazily-stale index would push the
        // rebuild into the first (often benchmarked) transaction — or
        // into every transaction of engines cloned from a
        // registered-but-never-maintained template.
        self.rebuild_routing();
        sid
    }

    /// Drop a view. Shared operator nodes are released only when their
    /// last consumer (parent edge or sink) is gone; the freed subgraph
    /// cascades bottom-up.
    pub fn drop_sink(&mut self, sid: SinkId) {
        let Some(sink) = self.sinks.get_mut(sid.ix()).and_then(Option::take) else {
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
        if let Some(cands) = self.cons.get(&fp) {
            for &id in cands {
                if self.node(id).plan == *fra {
                    return id;
                }
            }
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
            } => {
                let op = JoinOp::new(left_keys.clone(), right_keys.clone(), right.schema().len());
                let l = self.instantiate(left, g, sorted, bags);
                let r = self.instantiate(right, g, sorted, bags);
                NodeKind::Join {
                    left: l,
                    right: r,
                    left_arr: self.arrange(l, op.left_arrangement_keys(), bags),
                    right_arr: self.arrange(r, op.right_arrangement_keys(), bags),
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
                    left_arr: self.arrange(l, op.left_arrangement_keys(), bags),
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

        // Allocate the arena slot.
        let depth = kind
            .children()
            .into_iter()
            .map(|c| self.sched.depth[c.ix()] + 1)
            .max()
            .unwrap_or(0);
        let node = Node {
            kind,
            plan: fra.clone(),
            fingerprint: fp,
            parents: Vec::new(),
            sinks: Vec::new(),
            delivered_events: 0,
        };
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
        self.sched.grow(self.nodes.len());
        self.arrangements.resize_with(self.nodes.len(), Vec::new);
        self.sched.depth[id.ix()] = depth;
        self.cons.entry(fp).or_default().push(id);
        self.load_node(id, g, bags);
        // One parent edge per reference (a self-join registers twice).
        for child in self.node(id).kind.children() {
            self.node_mut(child).parents.push(id);
        }
        id
    }

    /// Take a reader's share of `producer`'s arrangement keyed by
    /// `keys` (sorted), building it from the node's streamed rows if no
    /// consumer reads that key set yet. Returns the slot.
    fn arrange(&mut self, producer: NodeId, keys: &[usize], bags: &mut Bags<'_>) -> u32 {
        let arrs = &mut self.arrangements[producer.ix()];
        if let Some(ix) = arrs
            .iter()
            .position(|a| a.readers > 0 && a.bag.key_cols() == keys)
        {
            arrs[ix].readers += 1;
            return ix as u32;
        }
        let mut bag = IndexedBag::new(keys.to_vec());
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
            bags.enumerations += 1;
            bags.keep(id, kind, bag);
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
    /// into [`Counters::bag_enumerations`], as registration's do.
    pub fn dump_states(&mut self) -> RestoreStates {
        let mut live: Vec<NodeId> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_some())
            .map(|i| NodeId(i as u32))
            .collect();
        // Inputs first: each program then reads its input's memoised bag
        // instead of re-running the nodes below it.
        live.sort_by_key(|id| self.sched.depth[id.ix()]);
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
        self.counters.bag_enumerations += bags.enumerations;
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
            bags.enumerations += 1;
            self.replay_memories(cur, &mut bag);
            bags.keep(cur, &self.node(cur).kind, bag);
            source = Source::Memo;
        }
        let consolidated = program.is_none_or(TupleProgram::is_filter)
            && (!matches!(source, Source::Memories) || self.node(cur).kind.output_consolidated());
        let mut scratch = Scratch::default();
        let mut through;
        let sink: &mut dyn RowSink = match program {
            Some(program) => {
                through = Programmed {
                    program,
                    scratch: &mut scratch,
                    out,
                };
                &mut through
            }
            None => out,
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
                bags.enumerations += 1;
                self.replay_memories(cur, sink);
            }
        }
        consolidated
    }

    /// `id`'s full output bag where maintenance already keeps it
    /// consolidated — a sink's result bag (view roots) or one of the
    /// node's arrangements; `None` when it must be derived.
    fn kept(&self, id: NodeId) -> Option<Rows<'_>> {
        if let Some(&sid) = self.node(id).sinks.first() {
            return Some(Box::new(
                self.sink(sid).results.iter().map(|(t, m)| (t, *m)),
            ));
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
    /// own memories, into `out`.
    fn replay_memories(&self, id: NodeId, out: &mut dyn RowSink) {
        let arrangements = &self.arrangements;
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
            } => op.replay_into(
                arranged(arrangements, *left, *left_arr),
                arranged(arrangements, *right, *right_arr),
                out,
            ),
            NodeKind::SemiJoin {
                left, left_arr, op, ..
            } => op.replay_into(arranged(arrangements, *left, *left_arr), out),
            NodeKind::VarLength { op, .. } => op.replay_into(out),
            NodeKind::Distinct { op, .. } => op.replay_into(out),
            NodeKind::Aggregate { op, .. } => op.replay_into(out),
            NodeKind::Multiway { op, .. } => op.replay_into(out),
            NodeKind::Program { .. } => unreachable!("replay_memories on a stateless node"),
        }
    }

    /// Free `id` if it has no consumers left, cascading to children. Its
    /// counts fold into the network's totals.
    fn collect_if_dead(&mut self, id: NodeId) {
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
        // Return this slot's pooled output, if any survived.
        let out = std::mem::take(&mut self.sched.outputs[id.ix()]);
        self.pool.put(out);
        self.sched.out_gen[id.ix()] = 0;
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

    // ---- maintenance -----------------------------------------------------

    /// Propagate one committed transaction through the shared DAG: route
    /// events to the scans that can match them, process dirty nodes in
    /// one topological pass, and fold root deltas into sink result bags.
    pub fn on_transaction(&mut self, g: &PropertyGraph, events: &[ChangeEvent]) {
        self.on_transaction_with(g, events, None);
    }

    /// [`DataflowNetwork::on_transaction`], optionally fanning each level
    /// of the pass across a [`WorkerPool`].
    ///
    /// The pass is the same at every width: one level at a time (every
    /// dirty node at the current minimum depth), a node runs only if an
    /// input changed, and it runs the same step on the same inputs. The
    /// width decides only how a level runs: inline with `None`, a
    /// one-thread pool, or fewer than two nodes in the level; otherwise
    /// across the pool. **Determinism contract:** every node's output
    /// delta — hence every view's delta, tuple order included, its
    /// results, [`changed_sinks`](Self::changed_sinks) and
    /// [`node_summaries`](Self::node_summaries) — is identical at any
    /// thread count.
    pub fn on_transaction_with(
        &mut self,
        g: &PropertyGraph,
        events: &[ChangeEvent],
        workers: Option<&WorkerPool>,
    ) {
        self.generation += 1;
        self.changed.clear();
        if events.is_empty() {
            return;
        }
        // Recycle the previous transaction's edge buffers into the pool.
        while let Some(slot) = self.sched.produced.pop() {
            let d = std::mem::take(&mut self.sched.outputs[slot as usize]);
            self.pool.put(d);
        }
        self.route_events(g, events);
        self.propagate(g, events, workers);
        self.update_arrangements();
        self.fold_sinks();
    }

    /// Apply each producer's delta of the pass just run to each of its
    /// arrangements, exactly once. Only nodes the pass ran are visited.
    fn update_arrangements(&mut self) {
        for &slot in &self.sched.produced {
            let delta = &self.sched.outputs[slot as usize];
            for arr in &mut self.arrangements[slot as usize] {
                if arr.readers > 0 {
                    self.counters.arrangement_updates += delta.len() as u64;
                    for (t, m) in delta.iter() {
                        arr.bag.update(t, *m);
                    }
                }
            }
        }
    }

    /// Fold changed roots into sink result bags: the roots are among
    /// the nodes the pass ran, so only those are visited, never every
    /// sink. `changed` is reported in sink-id order.
    fn fold_sinks(&mut self) {
        let generation = self.generation;
        for &slot in &self.sched.produced {
            let delta = &self.sched.outputs[slot as usize];
            if delta.is_empty() {
                continue;
            }
            let node = self.nodes[slot as usize].as_ref().expect("live node");
            for &sid in &node.sinks {
                let sink = self.sinks[sid.ix()].as_mut().expect("live sink");
                use std::collections::hash_map::Entry;
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

    /// The propagation pass, one level at a time: pop every dirty node at
    /// the current minimum depth, prepare their steps, run the level
    /// ([`run_level`], where the width enters), then publish serially in
    /// slot order — stamp each output, record it for the arrangement
    /// update and the sink fold, and queue the consumers of every
    /// non-empty one.
    fn propagate(
        &mut self,
        g: &PropertyGraph,
        events: &[ChangeEvent],
        workers: Option<&WorkerPool>,
    ) {
        let generation = self.generation;
        let mut level = std::mem::take(&mut self.sched.level);
        while let Some(&Reverse((depth, _))) = self.sched.heap.peek() {
            while let Some(&Reverse((d, slot))) = self.sched.heap.peek() {
                if d != depth {
                    break;
                }
                self.sched.heap.pop();
                level.push(self.prepare(slot));
            }
            let pass = Pass {
                generation,
                outputs: &self.sched.outputs,
                out_gen: &self.sched.out_gen,
                arrangements: &self.arrangements,
                g,
                events,
                empty: &self.empty,
            };
            run_level(&mut self.nodes, &mut level, &pass, workers);
            for step in level.drain(..) {
                let slot = step.slot as usize;
                let produced = !step.out.is_empty();
                self.sched.outputs[slot] = step.out;
                self.sched.out_gen[slot] = generation;
                self.sched.produced.push(step.slot);
                if produced {
                    for &p in &self.nodes[slot].as_ref().expect("live node").parents {
                        self.sched.mark(generation, p.0);
                    }
                }
            }
        }
        self.sched.level = level;
    }

    /// Prepare dirty node `slot`'s step. A program without an ω whose
    /// child feeds nothing else takes the child's output buffer to
    /// rewrite in place (the move-through that keeps a single view's
    /// chain copy-free); any other node draws a pooled buffer and reads
    /// its children by borrow. Intermediate deltas flow raw: only an
    /// output that faces a sink or feeds a δ is consolidated.
    fn prepare(&mut self, slot: u32) -> Step {
        let generation = self.generation;
        let node = self.node(NodeId(slot));
        let consolidate = !node.sinks.is_empty()
            || node
                .parents
                .iter()
                .any(|&p| matches!(self.node(p).kind, NodeKind::Distinct { .. }));
        let steal = match &node.kind {
            NodeKind::Program { input, program, .. } if !program.fans_out() => {
                let child = self.node(*input);
                let exclusive = child.parents.len() + child.sinks.len() == 1;
                (exclusive && self.sched.out_gen[input.ix()] == generation).then_some(input.ix())
            }
            _ => None,
        };
        let out = match steal {
            Some(c) => {
                self.sched.out_gen[c] = 0;
                std::mem::take(&mut self.sched.outputs[c])
            }
            None => self.pool.get(),
        };
        Step {
            slot,
            stolen: steal.is_some(),
            routed: self.sched.event_gen[slot as usize] == generation,
            consolidate,
            out,
        }
    }

    // ---- event routing ---------------------------------------------------

    fn rebuild_routing(&mut self) {
        self.routing.clear();
        for (ix, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            let id = NodeId(ix as u32);
            match &node.kind {
                NodeKind::Vertices(s) => {
                    self.routing.add_scan(id, &ScanRouting::Vertex(s.routing()))
                }
                NodeKind::Edges(s) => self.routing.add_scan(id, &ScanRouting::Edge(s.routing())),
                NodeKind::VarLength { op, .. } => {
                    for r in op.routing() {
                        self.routing.add_scan(id, &r);
                    }
                }
                _ => {}
            }
        }
    }

    /// Deliver each event to the scan nodes that can possibly react to
    /// it, marking them dirty.
    fn route_events(&mut self, g: &PropertyGraph, events: &[ChangeEvent]) {
        let generation = self.generation;
        // The index is moved out for the duration of the loop so the
        // delivery closure can borrow `self` mutably.
        let routing = std::mem::take(&mut self.routing);
        for ev in events {
            self.event_serial += 1;
            let serial = self.event_serial;
            {
                let mut deliver = |node: NodeId, net: &mut Self| {
                    if net.sched.deliver_stamp[node.ix()] == serial {
                        return;
                    }
                    net.sched.deliver_stamp[node.ix()] = serial;
                    net.node_mut(node).delivered_events += 1;
                    net.sched.event_gen[node.ix()] = generation;
                    net.sched.mark(generation, node.0);
                };
                match ev {
                    ChangeEvent::VertexAdded { id } | ChangeEvent::VertexRemoved { id, .. } => {
                        // Labels at creation time (post-state) or removal
                        // time (before-image).
                        let labels: &[Symbol] = match ev {
                            ChangeEvent::VertexRemoved { data, .. } => &data.labels,
                            _ => match g.vertex(*id) {
                                Some(d) => &d.labels,
                                None => &[],
                            },
                        };
                        for &l in labels {
                            if let Some(routes) = routing.vertex_by_label.get(&l) {
                                for r in routes {
                                    if r.structural && r.labels_admit(|x| labels.contains(&x)) {
                                        deliver(r.node, self);
                                    }
                                }
                            }
                        }
                        for r in &routing.vertex_any {
                            if r.structural {
                                deliver(r.node, self);
                            }
                        }
                    }
                    ChangeEvent::LabelAdded { label, .. }
                    | ChangeEvent::LabelRemoved { label, .. } => {
                        // Only scans requiring `label` can change
                        // membership; tuples never contain labels, so
                        // unrelated scans are unaffected.
                        if let Some(routes) = routing.vertex_by_label.get(label) {
                            for r in routes {
                                deliver(r.node, self);
                            }
                        }
                    }
                    ChangeEvent::VertexPropChanged { id, key, .. } => {
                        let labels: &[Symbol] = match g.vertex(*id) {
                            Some(d) => &d.labels,
                            // Deleted later in the same batch: the
                            // removal event routes the retraction.
                            None => &[],
                        };
                        for &l in labels {
                            if let Some(routes) = routing.vertex_by_label.get(&l) {
                                for r in routes {
                                    if r.cares_about_key(*key)
                                        && r.labels_admit(|x| labels.contains(&x))
                                    {
                                        deliver(r.node, self);
                                    }
                                }
                            }
                        }
                        for r in &routing.vertex_any {
                            if r.cares_about_key(*key) {
                                deliver(r.node, self);
                            }
                        }
                    }
                    ChangeEvent::EdgeAdded { id } => {
                        // Gone again within the same batch: the removal
                        // event covers any retraction, and the scan
                        // never saw the edge.
                        if let Some(data) = g.edge(*id) {
                            self.route_edge(&routing, data.ty, None, &mut deliver);
                        }
                    }
                    ChangeEvent::EdgeRemoved { data, .. } => {
                        self.route_edge(&routing, data.ty, None, &mut deliver);
                    }
                    ChangeEvent::EdgePropChanged { id, key, .. } => {
                        if let Some(data) = g.edge(*id) {
                            self.route_edge(&routing, data.ty, Some(*key), &mut deliver);
                        }
                    }
                }
            }
        }
        self.routing = routing;
    }

    fn route_edge(
        &mut self,
        routing: &RoutingIndex,
        ty: Symbol,
        key: Option<Symbol>,
        deliver: &mut impl FnMut(NodeId, &mut Self),
    ) {
        let admits = |r: &EdgeRoute| match (key, &r.prop_keys) {
            (None, _) => true,
            (Some(_), None) => true,
            (Some(k), Some(keys)) => keys.contains(&k),
        };
        if let Some(routes) = routing.edge_by_type.get(&ty) {
            for r in routes {
                if admits(r) {
                    deliver(r.node, self);
                }
            }
        }
        for r in &routing.edge_any {
            if admits(r) {
                deliver(r.node, self);
            }
        }
    }

    /// Scan nodes routed vertex events by `label` (`None`: the routes
    /// without a label requirement).
    pub(crate) fn vertex_routes(&self, label: Option<Symbol>) -> impl Iterator<Item = NodeId> + '_ {
        let routes = match label {
            Some(l) => self
                .routing
                .vertex_by_label
                .get(&l)
                .map_or(&[][..], Vec::as_slice),
            None => &self.routing.vertex_any,
        };
        routes.iter().map(|r| r.node)
    }

    /// Scan nodes routed events of edges of type `ty`, type-free routes
    /// included.
    pub(crate) fn edge_routes(&self, ty: Symbol) -> impl Iterator<Item = NodeId> + '_ {
        let typed = self
            .routing
            .edge_by_type
            .get(&ty)
            .map_or(&[][..], Vec::as_slice);
        typed.iter().chain(&self.routing.edge_any).map(|r| r.node)
    }

    // ---- accessors -------------------------------------------------------

    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id.ix()].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id.ix()].as_mut().expect("live node")
    }

    fn sink(&self, sid: SinkId) -> &Sink {
        self.sinks[sid.ix()].as_ref().expect("live sink")
    }

    /// Tuples `id` holds: the operator's private memories plus every
    /// arrangement of its output.
    fn own_tuples(&self, id: NodeId) -> usize {
        self.node(id).kind.private_tuples()
            + live(&self.arrangements[id.ix()])
                .map(|a| a.bag.distinct_len())
                .sum::<usize>()
    }

    /// ` arr{0,4}: 112k ×3, 97% inline` per arrangement of `id` — key
    /// columns, tuples held, readers, share of keys whose tuples sit in
    /// the table entry — for the `:stats` rendering.
    fn arrangement_note(&self, id: NodeId) -> String {
        use std::fmt::Write;
        let mut note = String::new();
        for a in live(&self.arrangements[id.ix()]) {
            let cols: Vec<String> = a.bag.key_cols().iter().map(|c| c.to_string()).collect();
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

    /// Number of live operator nodes in the arena (the node-sharing
    /// metric: N identical views keep this at one chain's worth).
    pub fn node_count(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Number of live sinks (views).
    pub fn sink_count(&self) -> usize {
        self.sinks.iter().flatten().count()
    }

    /// Sinks whose results changed in the last
    /// [`on_transaction`](DataflowNetwork::on_transaction), in sink-id
    /// order.
    pub fn changed_sinks(&self) -> &[SinkId] {
        &self.changed
    }

    /// Did this sink's result change in the last transaction?
    pub fn sink_changed(&self, sid: SinkId) -> bool {
        self.sink(sid).changed_gen == self.generation && self.generation > 0
    }

    /// Consolidated root delta of the transaction just propagated by
    /// [`on_transaction`](DataflowNetwork::on_transaction) — a borrow of
    /// the root node's pooled output buffer, so it is valid only until
    /// the next mutation of the network (next transaction, register, or
    /// drop). Empty unless
    /// [`sink_changed`](DataflowNetwork::sink_changed) is true.
    pub fn last_delta(&self, sid: SinkId) -> &Delta {
        let sink = self.sink(sid);
        if sink.changed_gen == self.generation && self.generation > 0 {
            &self.sched.outputs[sink.root.ix()]
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
        self.sinks.iter().enumerate().find_map(|(ix, s)| {
            s.as_ref().filter(|s| s.name == name).map(|_| ViewRef {
                net: self,
                sid: SinkId(ix as u32),
            })
        })
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
                    depth: self.sched.depth[ix],
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
    pub fn stats_of(&self, sid: SinkId) -> OpStats {
        self.node_stats(self.sink(sid).root)
    }

    fn node_stats(&self, id: NodeId) -> OpStats {
        let node = self.node(id);
        let name = match &node.kind {
            NodeKind::Unit { .. } => "Unit".to_string(),
            NodeKind::Vertices(_) => "©".to_string(),
            NodeKind::Edges(_) => "⇑".to_string(),
            NodeKind::Join { .. } => "⋈".to_string(),
            NodeKind::SemiJoin { .. } => "⋉/▷".to_string(),
            kind @ (NodeKind::VarLength { .. }
            | NodeKind::Program { .. }
            | NodeKind::Multiway { .. }) => kind.label(),
            NodeKind::Distinct { .. } => "δ".to_string(),
            NodeKind::Aggregate { .. } => "γ".to_string(),
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

    /// Tuples materialised across one view's reachable subgraph plus its
    /// result bag. Shared nodes are counted once per view (each view
    /// reports the memory it depends on), but only once within a view
    /// even if referenced from several places in its plan.
    pub fn memory_tuples_of(&self, sid: SinkId) -> usize {
        let sink = self.sink(sid);
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
        &self.net.sink(self.sid).name
    }

    /// Output column names.
    pub fn columns(&self) -> &'a [String] {
        &self.net.sink(self.sid).columns
    }

    /// The result bag by reference, sorted by [`Tuple::total_cmp`]. The
    /// tuples are distinct keys, so an unstable sort is deterministic.
    fn sorted(&self) -> Vec<(&'a Tuple, i64)> {
        let results = &self.net.sink(self.sid).results;
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
        self.net.sink(self.sid).results.len()
    }

    /// Total row count (with multiplicities).
    pub fn row_count(&self) -> usize {
        self.net
            .sink(self.sid)
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
        self.net.generation - self.net.sink(self.sid).registered_gen
    }

    /// Per-operator statistics of the view's subgraph.
    pub fn network_stats(&self) -> OpStats {
        self.net.stats_of(self.sid)
    }
}

#[cfg(test)]
mod level_tests {
    use super::*;
    use pgq_common::value::Value;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    const NODES: usize = 64;
    const BAD: usize = 17;

    fn node(kind: NodeKind) -> Option<Node> {
        Some(Node {
            kind,
            plan: Fra::Unit,
            fingerprint: 0,
            parents: Vec::new(),
            sinks: Vec::new(),
            delivered_events: 0,
        })
    }

    /// σ[true] over the child in slot `NODES`, outside the level.
    fn filter() -> NodeKind {
        let sigma = Fra::Filter {
            input: Box::new(Fra::Unit),
            predicate: pgq_algebra::expr::ScalarExpr::Lit(Value::Bool(true)),
        };
        NodeKind::Program {
            input: NodeId(NODES as u32),
            program: TupleProgram::compile(&sigma).unwrap().0,
            scratch: Scratch::default(),
        }
    }

    fn steps(stolen_at: usize) -> Vec<Step> {
        (0..NODES)
            .map(|i| Step {
                slot: i as u32,
                stolen: i == stolen_at,
                ..Step::default()
            })
            .collect()
    }

    /// A level of 64 nodes at width 4 in which one node panics (a
    /// non-program handed a stolen buffer): the original payload reaches the
    /// caller, every other node of the level still runs, nothing hangs,
    /// and the same pool runs the next level.
    #[test]
    fn panicking_node_fails_its_level_and_the_pool_runs_the_next() {
        let (done, finished) = channel();
        let run = std::thread::spawn(move || {
            let mut nodes: Vec<Option<Node>> = (0..NODES)
                .map(|i| match i {
                    BAD => node(NodeKind::Unit { emitted: false }),
                    _ => node(filter()),
                })
                .collect();
            let mut outputs = vec![Delta::new(); NODES];
            outputs.push(
                [(Tuple::from_slice(&[Value::Int(1)]), 1)]
                    .into_iter()
                    .collect(),
            );
            let mut out_gen = vec![0; NODES];
            out_gen.push(1);
            let (g, empty) = (PropertyGraph::new(), Delta::new());
            let pass = Pass {
                generation: 1,
                outputs: &outputs,
                out_gen: &out_gen,
                arrangements: &[],
                g: &g,
                events: &[],
                empty: &empty,
            };
            let workers = WorkerPool::new(4);

            let mut level = steps(BAD);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                run_level(&mut nodes, &mut level, &pass, Some(&workers))
            }))
            .expect_err("the panicking node fails its level");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(
                msg.contains("only a program steals"),
                "unexpected payload: {msg:?}"
            );
            for (i, step) in level.iter().enumerate().filter(|&(i, _)| i != BAD) {
                assert_eq!(
                    step.out.len(),
                    1,
                    "node {i} of the failed level did not run"
                );
            }

            nodes[BAD] = node(filter());
            let mut level = steps(usize::MAX);
            run_level(&mut nodes, &mut level, &pass, Some(&workers));
            assert!(level.iter().all(|step| step.out.len() == 1));
            done.send(()).expect("test thread waits");
        });
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => run.join().expect("the run finished"),
            Err(RecvTimeoutError::Timeout) => panic!("the level dispatch hung"),
            Err(RecvTimeoutError::Disconnected) => {
                resume_unwind(run.join().expect_err("the run failed"))
            }
        }
    }
}
