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
//! * A pass's output buffers stay readable until the next call, which
//!   first returns them to the pool; the pool keeps at most `POOL_CAP`,
//!   all cleared.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use pgq_common::pool::WorkerPool;
use pgq_graph::delta::ChangeEvent;
use pgq_graph::store::PropertyGraph;

use super::arena::{Arrangement, Node, NodeKind};
use super::{DataflowNetwork, NodeId};
use crate::basic::program_in_place;
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
/// clearing between transactions.
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

impl DataflowNetwork {
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
        self.sinks.clear_changed();
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
        let roots = self.sched.produced.iter().map(|&slot| {
            let node = self.nodes[slot as usize].as_ref().expect("live node");
            (node.sinks.as_slice(), &self.sched.outputs[slot as usize])
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

    /// Deliver event number `serial` to scan node `node` (once per event,
    /// however many routes lead there) and queue the node for this pass.
    #[inline]
    pub(super) fn deliver(&mut self, node: NodeId, serial: u64) {
        if self.sched.deliver_stamp[node.ix()] == serial {
            return;
        }
        self.sched.deliver_stamp[node.ix()] = serial;
        self.node_mut(node).delivered_events += 1;
        self.sched.event_gen[node.ix()] = self.generation;
        self.sched.mark(self.generation, node.0);
    }

    /// `id`'s output buffer as the last pass that ran it left it.
    pub(super) fn output_of(&self, id: NodeId) -> &Delta {
        &self.sched.outputs[id.ix()]
    }
}

#[cfg(test)]
mod level_tests {
    use super::*;
    use pgq_algebra::fra::Fra;
    use pgq_algebra::program::{Scratch, TupleProgram};
    use pgq_common::tuple::Tuple;
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
