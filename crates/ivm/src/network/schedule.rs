//! Scheduling: one transaction's propagation pass over the dirty part
//! of the DAG, and the pooled delta buffers its edges carry.
//!
//! Propagation is a single topologically-scheduled pass, run one
//! **level** at a time: every dirty node at the current minimum depth.
//! Every edge goes from a strictly shallower node to a deeper one, so a
//! level's nodes are independent — each reads only its children's pooled
//! output deltas, by reference, and appends its own. After a level has
//! run, its outputs are published serially in slot order and the
//! consumers of every non-empty one are queued.
//!
//! A scan-bearing node reads only the events routed to it: routing
//! records each delivery's position in the pass's events, per node, in a
//! list reused across passes, and the node's step iterates those (the
//! whole slice when the node received every event, as in every
//! one-event pass). Its old rows come from the pass's **before-image**
//! (`pgq_graph::before`), built once, serially, from the pass's whole
//! event slice before the first level runs, and read-only at every
//! width; its index lives in reused tables, so a steady-state pass
//! allocates nothing for it.
//!
//! # Fused pairs
//!
//! A node whose one consumer is a program node (a σ/π/ω chain), and
//! which feeds no sink, is **fused** with it: its step pushes each row it
//! emits through the program (`basic::Programmed`) straight into the
//! program node's output buffer, and the program node is never scheduled
//! as a step of its own. The step publishes that buffer as the program
//! node's output — stamped, recorded for the arrangement update and the
//! sink fold, its consumers queued — and the producer's own output is
//! never materialised: nothing else reads it (it has no arrangement,
//! since every arrangement has a ⋈ / ⋉ / ▷ consumer). A row the program
//! rejects is never allocated, one it rewrites is allocated once. Which
//! pairs are fused is a fact of the DAG's shape and of which nodes feed
//! a view, decided on register and drop
//! ([`DataflowNetwork::rebuild_fusion`]) beside the routing index, never
//! per pass; the program stays in its node, which the step borrows
//! beside the producer's.
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
//! # Invariants
//!
//! * A node is deeper than each of its children, and a pass runs it at
//!   most once, after every child it reads.
//! * A fused program node is never queued: its one child is its
//!   producer, whose step publishes for it.
//! * A pass's output buffers stay readable until the next call, which
//!   first returns them to the pool; the pool keeps at most `POOL_CAP`,
//!   all cleared.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pgq_common::pool::WorkerPool;
use pgq_common::sync::lock;
use pgq_graph::before::{BeforeImage, BeforeIndex};
use pgq_graph::delta::ChangeEvent;
use pgq_graph::store::PropertyGraph;

use super::arena::{Arrangement, Node, NodeKind};
use super::{DataflowNetwork, NodeId};
use crate::basic::Programmed;
use crate::delta::Delta;

/// Pool of cleared [`Delta`] buffers: steady-state maintenance draws
/// every dataflow edge's buffer from here instead of allocating one per
/// operator layer per transaction.
#[derive(Clone, Debug, Default)]
pub(super) struct DeltaPool {
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
/// clearing between transactions, plus the fused pairs.
#[derive(Clone, Debug, Default)]
pub(super) struct Scheduler {
    /// Min-heap of (depth, slot): nodes to process this transaction.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Topological depth per slot (0 = leaf; every edge increases it).
    depth: Vec<u32>,
    /// Generation at which the slot was queued (dedup for `heap`).
    queued: Vec<u64>,
    /// Generation at which events were routed to the slot.
    event_gen: Vec<u64>,
    /// Positions, in the pass's events, of the events routed to the slot
    /// (current when `event_gen` is; the lists are reused across passes).
    routed: Vec<Vec<u32>>,
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
    /// Per slot, the program node it is fused with (module docs, "Fused
    /// pairs").
    fused: Vec<Option<u32>>,
    /// The pass's before-image index (reused tables).
    before: BeforeIndex,
}

impl Scheduler {
    fn grow(&mut self, n: usize) {
        if self.depth.len() < n {
            self.depth.resize(n, 0);
            self.queued.resize(n, 0);
            self.event_gen.resize(n, 0);
            self.routed.resize_with(n, Vec::new);
            self.out_gen.resize(n, 0);
            self.outputs.resize_with(n, Delta::new);
            self.deliver_stamp.resize(n, 0);
            self.fused.resize(n, None);
        }
    }

    /// Queue `slot` for processing this generation (idempotent). Inlined:
    /// it runs once per parent of every node that produced output.
    #[inline]
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
    /// The program node the step's rows run through, whose output the
    /// step produces and publishes (module docs, "Fused pairs").
    fused: Option<u32>,
    /// Events were routed to the node this pass.
    routed: bool,
    /// Consolidate the output: it faces a sink, or it feeds a δ, whose
    /// counting takes each distinct tuple once (γ's accumulators are
    /// additive in the multiplicity and read the raw delta).
    consolidate: bool,
    /// The step's output delta, a pooled buffer.
    out: Delta,
}

impl Step {
    /// The per-node step, the same at every width: run the operator on
    /// its children's outputs and its routed events, through the fused
    /// consumer's program if it has one; then consolidate the output if
    /// it is read consolidated.
    fn run(&mut self, kind: &mut NodeKind, consumer: Option<&mut NodeKind>, pass: &Pass<'_>) {
        // Work on a local: a level's steps sit side by side, and a worker
        // appending through `self.out` would share cache lines with its
        // neighbours' steps.
        let mut out = std::mem::take(&mut self.out);
        let program = consumer.map(|c| c.program_mut().expect("a fused consumer is a program"));
        let events = pass.events_of(self.slot, self.routed);
        let child = |id: NodeId| pass.output(id);
        let sink = &mut Programmed {
            program,
            out: &mut out,
        };
        kind.run(child, pass.arrangements, &pass.image, events, sink);
        if self.consolidate {
            out.consolidate_in_place();
        }
        self.out = out;
    }
}

/// The events routed to one node this pass, in pass order: the pass's
/// whole slice when the node received every event, else the listed ones.
#[derive(Clone)]
enum RoutedEvents<'a> {
    All(std::slice::Iter<'a, ChangeEvent>),
    Listed(&'a [ChangeEvent], std::slice::Iter<'a, u32>),
}

impl<'a> Iterator for RoutedEvents<'a> {
    type Item = &'a ChangeEvent;

    #[inline]
    fn next(&mut self) -> Option<&'a ChangeEvent> {
        match self {
            RoutedEvents::All(events) => events.next(),
            RoutedEvents::Listed(events, listed) => listed.next().map(|&i| &events[i as usize]),
        }
    }
}

/// What the nodes of a level read, shared by every worker: the outputs
/// of the levels before it, every arrangement as of the start of the
/// pass, the graph before and after the pass's events, those events and
/// which of them each node was routed.
struct Pass<'a> {
    generation: u64,
    outputs: &'a [Delta],
    out_gen: &'a [u64],
    arrangements: &'a [Vec<Arrangement>],
    image: BeforeImage<'a>,
    events: &'a [ChangeEvent],
    routed: &'a [Vec<u32>],
    empty: &'a Delta,
}

impl<'a> Pass<'a> {
    /// `id`'s output delta this pass (empty when it did not run).
    fn output(&self, id: NodeId) -> &Delta {
        if self.out_gen[id.ix()] == self.generation {
            &self.outputs[id.ix()]
        } else {
            self.empty
        }
    }

    /// The events routed to `slot` this pass (none unless `routed`).
    fn events_of(&self, slot: u32, routed: bool) -> RoutedEvents<'a> {
        let listed: &'a [u32] = if routed {
            &self.routed[slot as usize]
        } else {
            &[]
        };
        if listed.len() == self.events.len() {
            RoutedEvents::All(self.events.iter())
        } else {
            RoutedEvents::Listed(self.events, listed.iter())
        }
    }
}

/// `step`'s node and, in a fused pair, its program node: disjoint
/// borrows of the arena.
fn pick<'n>(
    nodes: &'n mut [Option<Node>],
    step: &Step,
) -> (&'n mut NodeKind, Option<&'n mut NodeKind>) {
    let kind = |n: &'n mut Option<Node>| &mut n.as_mut().expect("live node").kind;
    match step.fused {
        None => (kind(&mut nodes[step.slot as usize]), None),
        Some(program) => {
            let [own, program] = nodes
                .get_disjoint_mut([step.slot as usize, program as usize])
                .expect("a fused pair is two slots");
            (kind(own), Some(kind(program)))
        }
    }
}

/// [`pick`] for every step of a level at once: the arena is split in
/// slot order at the level's slots and its fused program nodes' slots,
/// all distinct (a fused program is never in a level, and has one
/// producer).
fn split_level<'n>(
    nodes: &'n mut [Option<Node>],
    steps: &[Step],
) -> Vec<(&'n mut NodeKind, Option<&'n mut NodeKind>)> {
    let mut slots: Vec<(u32, usize, bool)> = Vec::with_capacity(2 * steps.len());
    for (i, step) in steps.iter().enumerate() {
        slots.push((step.slot, i, false));
        slots.extend(step.fused.map(|program| (program, i, true)));
    }
    slots.sort_unstable();
    let mut picked: Vec<(Option<&'n mut NodeKind>, Option<&'n mut NodeKind>)> =
        std::iter::repeat_with(|| (None, None))
            .take(steps.len())
            .collect();
    let (mut rest, mut base) = (nodes, 0);
    for (slot, i, program) in slots {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(slot as usize + 1 - base);
        rest = tail;
        base = slot as usize + 1;
        let kind = &mut head
            .last_mut()
            .and_then(Option::as_mut)
            .expect("live node")
            .kind;
        match program {
            false => picked[i].0 = Some(kind),
            true => picked[i].1 = Some(kind),
        }
    }
    picked
        .into_iter()
        .map(|(own, program)| (own.expect("every step's node"), program))
        .collect()
}

/// Run one level's `steps`, which name their slots of `nodes` in
/// ascending order: inline at width 1 or when the level has fewer than
/// two nodes, otherwise as one broadcast across `workers`, which claim
/// nodes through atomic cursors. A panicking node fails the broadcast,
/// which re-raises the payload once every worker has returned; every
/// node, program nodes included, stays where it was.
fn run_level(
    nodes: &mut [Option<Node>],
    steps: &mut [Step],
    pass: &Pass<'_>,
    workers: Option<&WorkerPool>,
) {
    match workers.filter(|w| w.threads() > 1 && steps.len() > 1) {
        None => {
            for step in steps {
                let (kind, consumer) = pick(nodes, step);
                step.run(kind, consumer, pass);
            }
        }
        Some(workers) => {
            // Worker `c` starts on the `c`-th contiguous share of the
            // level, then helps with the others' remainders. A node's
            // position in its level is stable across levels and
            // transactions, so a branch of the DAG mostly stays on one
            // worker, with its allocations and cache lines. A cursor
            // only hands out indices (`Relaxed`): each cell's lock and
            // the broadcast's own synchronisation publish the data.
            let cells: Vec<Mutex<_>> = split_level(nodes, steps)
                .into_iter()
                .zip(steps.iter_mut())
                .map(|((kind, consumer), step)| Mutex::new((kind, consumer, step)))
                .collect();
            let (w, n) = (workers.threads(), cells.len());
            let cursors: Vec<AtomicUsize> = (0..w).map(|c| AtomicUsize::new(c * n / w)).collect();
            workers.broadcast(|ix| {
                for c in (ix..w).chain(0..ix) {
                    let share = &cells[..(c + 1) * n / w];
                    while let Some(cell) = share.get(cursors[c].fetch_add(1, Ordering::Relaxed)) {
                        let (kind, consumer, step) = &mut *lock(cell);
                        step.run(kind, consumer.as_deref_mut(), pass);
                    }
                }
            });
        }
    }
}

impl DataflowNetwork {
    /// Propagate one committed transaction through the shared DAG: route
    /// events to the scans that can match them, process dirty nodes in
    /// one topological pass, and fold root deltas into sink result bags.
    ///
    /// `events` must be every change made to `g` since the last pass (or
    /// registration), in order: the scans keep no copy of what they
    /// emitted, and read each element's old row from `g` with these
    /// events undone.
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
        self.sinks.clear_changed();
        if events.is_empty() {
            return;
        }
        // The graph has changed: scan bags enumerated before are stale.
        self.scan_bags.clear();
        // Recycle the previous transaction's edge buffers into the pool.
        while let Some(slot) = self.sched.produced.pop() {
            let d = std::mem::take(&mut self.sched.outputs[slot as usize]);
            self.pool.put(d);
        }
        self.route_events(g, events);
        if !self.sched.heap.is_empty() {
            let mut before = std::mem::take(&mut self.sched.before);
            self.propagate(before.build(g, events), workers);
            self.sched.before = before;
        }
        self.update_arrangements();
        let roots = self.sched.produced.iter().map(|&slot| {
            let node = self.nodes[slot as usize].as_ref().expect("live node");
            let delta = &self.sched.outputs[slot as usize];
            (NodeId(slot), node.sinks.as_slice(), delta)
        });
        self.sinks.fold(self.generation, roots);
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

    /// The propagation pass, one level at a time: pop every dirty node at
    /// the current minimum depth, prepare their steps, run the level
    /// ([`run_level`], where the width enters), then publish serially in
    /// slot order — stamp each output (a fused pair's as its program
    /// node's), record it for the arrangement update and the sink fold,
    /// and queue the consumers of every non-empty one.
    fn propagate(&mut self, image: BeforeImage<'_>, workers: Option<&WorkerPool>) {
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
                image,
                events: image.events(),
                routed: &self.sched.routed,
                empty: &self.empty,
            };
            run_level(&mut self.nodes, &mut level, &pass, workers);
            for step in level.drain(..) {
                let slot = step.fused.unwrap_or(step.slot) as usize;
                let produced = !step.out.is_empty();
                self.sched.outputs[slot] = step.out;
                self.sched.out_gen[slot] = generation;
                self.sched.produced.push(slot as u32);
                if produced {
                    for &p in &self.nodes[slot].as_ref().expect("live node").parents {
                        self.sched.mark(generation, p.0);
                    }
                }
            }
        }
        self.sched.level = level;
    }

    /// Prepare dirty node `slot`'s step: a pooled output buffer, fused
    /// with the node's program consumer if it has one. Intermediate
    /// deltas flow raw: only an output that faces a sink or feeds a δ —
    /// in a fused pair, the program node's — is consolidated.
    fn prepare(&mut self, slot: u32) -> Step {
        let fused = self.sched.fused[slot as usize];
        let publisher = self.node(NodeId(fused.unwrap_or(slot)));
        let consolidate = !publisher.sinks.is_empty()
            || publisher
                .parents
                .iter()
                .any(|&p| matches!(self.node(p).kind, NodeKind::Distinct { .. }));
        Step {
            slot,
            fused,
            routed: self.sched.event_gen[slot as usize] == self.generation,
            consolidate,
            out: self.pool.get(),
        }
    }

    /// Decide the fused pairs (module docs, "Fused pairs"): every node
    /// other than a program whose one consumer edge goes to a program
    /// node and which feeds no sink. The DAG's shape and which nodes feed
    /// a view decide, so this runs on register and drop, beside the
    /// routing index's rebuild ([`DataflowNetwork::rebuild_layout`]).
    pub(super) fn rebuild_fusion(&mut self) {
        let (nodes, fused) = (&self.nodes, &mut self.sched.fused);
        fused.clear();
        fused.resize(nodes.len(), None);
        for (slot, node) in nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            let &[consumer] = node.parents.as_slice() else {
                continue;
            };
            let program = |n: &Node| n.kind.program().is_some();
            if node.sinks.is_empty()
                && !program(node)
                && nodes[consumer.ix()].as_ref().is_some_and(program)
            {
                fused[slot] = Some(consumer.0);
            }
        }
    }

    /// `id`'s topological depth (0 = leaf).
    pub(super) fn depth(&self, id: NodeId) -> u32 {
        self.sched.depth[id.ix()]
    }

    /// Give a newly allocated node its scheduling state: a depth one
    /// past its deepest child's.
    pub(super) fn place(&mut self, id: NodeId) {
        let children = self.node(id).kind.children();
        let depth = children.into_iter().map(|c| self.depth(c) + 1).max();
        self.sched.grow(self.nodes.len());
        self.sched.depth[id.ix()] = depth.unwrap_or(0);
    }

    /// Return a freed slot's pooled output, if any survived.
    pub(super) fn release_output(&mut self, id: NodeId) {
        let out = std::mem::take(&mut self.sched.outputs[id.ix()]);
        self.pool.put(out);
        self.sched.out_gen[id.ix()] = 0;
    }

    /// Deliver event number `serial`, at `position` in the pass's
    /// events, to scan node `node` (once per event, however many routes
    /// lead there): record the position and queue the node for this
    /// pass.
    #[inline]
    pub(super) fn deliver(&mut self, node: NodeId, serial: u64, position: u32) {
        let slot = node.ix();
        if self.sched.deliver_stamp[slot] == serial {
            return;
        }
        self.sched.deliver_stamp[slot] = serial;
        self.node_mut(node).delivered_events += 1;
        if self.sched.event_gen[slot] != self.generation {
            self.sched.event_gen[slot] = self.generation;
            self.sched.routed[slot].clear();
            self.sched.mark(self.generation, node.0);
        }
        self.sched.routed[slot].push(position);
    }

    /// `id`'s output buffer as the last pass that ran it left it.
    pub(super) fn output_of(&self, id: NodeId) -> &Delta {
        &self.sched.outputs[id.ix()]
    }

    /// `id`'s output in the last pass: empty unless that pass ran it.
    #[cfg(test)]
    pub(super) fn last_output(&self, id: NodeId) -> &Delta {
        match self.sched.out_gen[id.ix()] == self.generation {
            true => self.output_of(id),
            false => &self.empty,
        }
    }

    /// The program node `id` is fused with, if any.
    #[cfg(test)]
    pub(super) fn fused_with(&self, id: NodeId) -> Option<NodeId> {
        self.sched.fused[id.ix()].map(NodeId)
    }

    /// Positions, in the last pass's events, of those routed to `id`.
    #[cfg(test)]
    pub(super) fn routed_positions(&self, id: NodeId) -> &[u32] {
        match self.sched.event_gen[id.ix()] == self.generation {
            true => &self.sched.routed[id.ix()],
            false => &[],
        }
    }
}

#[cfg(test)]
mod level_tests {
    use super::*;
    use crate::distinct::DistinctOp;
    use crate::join::JoinOp;
    use pgq_algebra::fra::Fra;
    use pgq_algebra::program::{Scratch, TupleProgram};
    use pgq_common::tuple::Tuple;
    use pgq_common::value::Value;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    const NODES: usize = 64;
    const BAD: usize = 17;
    /// The slot every level node reads (outside the arena), and the
    /// program node `BAD` is fused with (outside the level).
    const INPUT: u32 = NODES as u32;
    const FUSED: u32 = NODES as u32 + 1;

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

    /// σ[true] over `input`.
    fn filter(input: u32) -> NodeKind {
        let sigma = Fra::Filter {
            input: Box::new(Fra::Unit),
            predicate: pgq_algebra::expr::ScalarExpr::Lit(Value::Bool(true)),
        };
        NodeKind::Program {
            input: NodeId(input),
            program: TupleProgram::compile(&sigma).unwrap().0,
            scratch: Scratch::default(),
        }
    }

    /// One step per level node; `BAD`'s is fused with the program node
    /// `FUSED`.
    fn steps() -> Vec<Step> {
        (0..NODES)
            .map(|i| Step {
                slot: i as u32,
                fused: (i == BAD).then_some(FUSED),
                ..Step::default()
            })
            .collect()
    }

    /// A level of 64 nodes at width 4 in which one node panics (a ⋈
    /// whose arrangements the pass does not hold), fused with a program
    /// node: the original payload reaches the caller, every other node of
    /// the level still runs, nothing hangs, the program node keeps its
    /// program, and the same pool runs the next level.
    #[test]
    fn panicking_node_fails_its_level_and_the_pool_runs_the_next() {
        let (done, finished) = channel();
        let run = std::thread::spawn(move || {
            let mut nodes: Vec<Option<Node>> = (0..NODES)
                .map(|i| match i {
                    BAD => node(NodeKind::Join {
                        left: NodeId(INPUT),
                        right: NodeId(INPUT),
                        left_arr: 0,
                        right_arr: 0,
                        op: JoinOp::new(vec![0], vec![0], 1),
                    }),
                    _ => node(filter(INPUT)),
                })
                .collect();
            nodes.push(None);
            nodes.push(node(filter(BAD as u32)));
            let mut outputs = vec![Delta::new(); NODES];
            outputs.push(
                [(Tuple::from_slice(&[Value::Int(1)]), 1)]
                    .into_iter()
                    .collect(),
            );
            let mut out_gen = vec![0; NODES];
            out_gen.push(1);
            let (g, empty) = (PropertyGraph::new(), Delta::new());
            let mut before = BeforeIndex::new();
            let pass = Pass {
                generation: 1,
                outputs: &outputs,
                out_gen: &out_gen,
                arrangements: &[],
                image: before.build(&g, &[]),
                events: &[],
                routed: &[],
                empty: &empty,
            };
            let workers = WorkerPool::new(4);

            let mut level = steps();
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
                msg.contains("index out of bounds"),
                "unexpected payload: {msg:?}"
            );
            for (i, step) in level.iter().enumerate().filter(|&(i, _)| i != BAD) {
                assert_eq!(
                    step.out.len(),
                    1,
                    "node {i} of the failed level did not run"
                );
            }
            let program = nodes[FUSED as usize].as_mut().map(|n| n.kind.program_mut());
            assert!(
                matches!(program, Some(Some((p, _))) if p.is_filter()),
                "the fused program node lost its program"
            );

            nodes[BAD] = node(NodeKind::Distinct {
                input: NodeId(INPUT),
                op: DistinctOp::new(),
            });
            let mut level = steps();
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

#[cfg(test)]
mod pool_tests {
    use super::POOL_CAP;
    use crate::network::DataflowNetwork;
    use pgq_algebra::compile_query;
    use pgq_common::intern::Symbol;
    use pgq_common::value::Value;
    use pgq_graph::props::Properties;
    use pgq_graph::store::PropertyGraph;
    use pgq_graph::tx::Transaction;
    use pgq_parser::parse_query;

    fn commit(g: &mut PropertyGraph, net: &mut DataflowNetwork, label: &str) {
        let mut tx = Transaction::new();
        let props = Properties::from_iter([("x", Value::Int(-1))]);
        tx.create_vertex([Symbol::intern(label)], props);
        let events = g.apply(&tx).expect("the transaction applies");
        net.on_transaction(g, &events);
    }

    /// A pass that runs more nodes than the pool keeps: the next call
    /// returns their buffers before it routes anything, and the pool
    /// keeps `POOL_CAP` of them, each one cleared.
    #[test]
    fn next_call_recycles_the_pass_and_the_pool_keeps_at_most_pool_cap() {
        let (mut g, mut net) = (PropertyGraph::new(), DataflowNetwork::new());
        let views = POOL_CAP + 6;
        for i in 0..views {
            let q = format!("MATCH (n:P) WHERE n.x <> {i} RETURN n");
            let fra = compile_query(&parse_query(&q).expect("parses"))
                .expect("compiles")
                .fra;
            net.register(format!("v{i}"), &fra, &g);
        }
        // One scan feeding one private program per view: every program
        // produces a row, each in a buffer of its own.
        commit(&mut g, &mut net, "P");
        assert_eq!(net.changed_sinks().len(), views);
        assert!(net.pool.free.is_empty(), "the first pass found no spares");

        // A vertex no scan reads: the pass runs nothing, so the pool holds
        // exactly what the recycling kept.
        commit(&mut g, &mut net, "Q");
        assert!(net.changed_sinks().is_empty());
        assert_eq!(net.pool.free.len(), POOL_CAP);
        assert!(net.pool.free.iter().all(|d| d.is_empty()));
    }
}
