//! Incremental variable-length (transitive) join — the ⋈* operator.
//!
//! Maintains the **edge-distinct paths** (Cypher's relationship
//! isomorphism, which also keeps path sets finite on cyclic graphs) that
//! start at a source vertex of the left input, following the paper's
//! *atomic path* model: a path is asserted or retracted as a unit, never
//! mutated, and assertion and retraction carry the same `Arc<PathValue>`.
//!
//! # State
//!
//! Only *anchored* paths are kept — a reply chain of depth *d* under one
//! `Post` holds *d* paths, not the *d(d+1)/2* between any two of its
//! messages, because the view can only ever return the former.
//!
//! * **Anchors** `source vertex → (left rows, trie root)`: the left input
//!   grouped by its source column. A source with at least one left row
//!   is an anchor.
//! * **Path trie**: one root per anchor (its zero-length path, which is
//!   also the `*0..` result) and one node per longer path, child of the
//!   node of its one-hop-shorter prefix. A node owns the materialised
//!   path; `ending: vertex → nodes` and `by_last_edge: edge → nodes`
//!   index the trie by where a path ends and by its final hop.
//! * **Adjacency** `vertex → [(edge, neighbour)]`: the hops the
//!   operator's own `EdgeScan` currently admits (type, direction and
//!   edge-property filters applied; `Both` lists an edge under both
//!   endpoints). The scan itself keeps nothing: a pass's hop changes are
//!   its before-image rows against its rows now.
//!
//! A path's target is **admitted** when it satisfies the destination
//! constraint; its admission row `[vertex, pushed props…]` is read from
//! the graph, by the operator's destination `VertexScan`, when the
//! pattern constrains or reads the destination — no copy is kept.
//!
//! Every part is a function of the current inputs alone (never of the
//! order updates arrived in), and the whole is O(anchored paths + edges +
//! left rows).
//!
//! # Delta rules
//!
//! One call applies its changes in this order, each against the state
//! the previous ones left — the usual sequential form of a multilinear
//! delta. An output row is `left row ++ [dst, props…, path]` with the
//! left row's multiplicity, emitted for every trie node at depth ≥ `min`
//! whose target is admitted.
//!
//! 1. **Destination ±** (`v` starts or stops satisfying the destination
//!    constraint, or a pushed property changes): for every node in
//!    `ending[v]`, retract rows built on the old admission row — `v`'s
//!    row in the pass's before-image — and assert them on the new one,
//!    read from the graph. Every later step reads the graph.
//! 2. **Edge −** `e`: the nodes of `by_last_edge[e]` and their subtrees
//!    are exactly the paths through `e` (a path is edge-distinct, so it
//!    has one prefix ending in `e`); drop them, retracting their rows. No
//!    over-deletion/rederivation phase (DRed) is needed because paths are
//!    their own support certificates.
//! 3. **Edge +** `e = (u, w)`: every new path decomposes uniquely as
//!    `p · e · s` with `p` a node of `ending[u]` that does not contain
//!    `e`; hang `p · e` under `p` and grow the suffixes `s` by a bounded,
//!    edge-distinct depth-first walk of the adjacency.
//! 4. **Left row ±**: a row of a new source makes it an anchor (root plus
//!    the same walk); the row is then asserted or retracted against the
//!    anchor's subtree. Anchors left without rows are dropped, subtree
//!    and all, once the whole left delta has been applied, so an update
//!    arriving as retract-then-assert does not rebuild the subtree.
//!
//! The walk reads the operator's adjacency, never `g`: within one call
//! `g` is already the post-state of *every* event, so a walk over it
//! after inserting the first of two new edges would find paths through
//! the second, and inserting the second would find them again.
//!
//! # Cost
//!
//! Work is proportional to the trie nodes created, dropped or read, times
//! the path length (a node's path is copied from its parent's once, and
//! edge-distinctness is a scan of the path) — the touched neighbourhood,
//! never the graph. An edge change additionally scans its source's
//! adjacency list to unlink it, and every hop costs one vertex-map and
//! one edge-map lookup. Under a destination constraint an emitted row
//! also reads its target's labels and pushed properties from the graph.
//! A hop change arrives as three ids, with no tuple. The lists a path
//! enters — its parent's `children`, its target's `ending`, its last
//! edge's `by_last_edge` — and a vertex's `out` hold one entry inline
//! (`SmallList`), so a new path allocates its `Arc<PathValue>` (and that
//! value's two `Vec`s) and nothing else until some vertex, edge or node
//! gains a second entry.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use pgq_algebra::fra::VarLenSpec;
use pgq_common::fxhash::FxHashMap;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::path::PathValue;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_graph::before::{BeforeImage, BeforeIndex};
use pgq_graph::delta::ChangeEvent;
use pgq_graph::scan::{EdgePattern, VertexPattern};
use pgq_graph::store::PropertyGraph;

use crate::delta::{Bucket, Delta, Row, RowSink};
use crate::scan::{EdgeScan, ScanRouting, VertexScan};
use crate::small_list::SmallList;
use crate::stats::Counters;

/// "No parent": marks a trie root.
const NIL: u32 = u32::MAX;

/// One anchored path.
#[derive(Clone, Debug)]
struct TrieNode {
    /// Node of the path minus its last hop; [`NIL`] for a root.
    parent: u32,
    /// Last vertex of `path`, kept beside it so that the admission
    /// lookup of every emission does not chase into the path's buffers.
    target: VertexId,
    /// The path itself, materialised once.
    path: Arc<PathValue>,
    children: SmallList<u32>,
    /// This node's index in its parent's `children`, in
    /// `ending[target]` and in `by_last_edge[last edge]`, so that it
    /// leaves each by `swap_remove`.
    child_pos: u32,
    ending_pos: u32,
    edge_pos: u32,
}

/// Per-vertex slice of the operator's state.
#[derive(Clone, Debug, Default)]
struct VertexEntry {
    /// Admitted hops leaving this vertex.
    out: SmallList<(EdgeId, VertexId)>,
    /// Trie nodes whose path ends here.
    ending: SmallList<u32>,
}

fn slot(nodes: &mut [Option<TrieNode>], ix: u32) -> &mut TrieNode {
    nodes[ix as usize].as_mut().expect("live trie node")
}

/// `list.swap_remove(pos)`, returning the node that took the slot.
fn swap_out(list: &mut SmallList<u32>, pos: u32) -> Option<u32> {
    list.swap_remove(pos as usize);
    list.get(pos as usize).copied()
}

/// The prefix trie of anchored paths plus the adjacency it grows over.
#[derive(Clone, Debug, Default)]
struct PathTrie {
    max: Option<u32>,
    nodes: Vec<Option<TrieNode>>,
    free: Vec<u32>,
    verts: FxHashMap<VertexId, VertexEntry>,
    by_last_edge: FxHashMap<EdgeId, SmallList<u32>>,
    roots: usize,
    paths: usize,
    /// Entries of the adjacency.
    hops: usize,
    /// Pending one-hop extensions `(node, edge, neighbour)` of the walk.
    frontier: Vec<(u32, EdgeId, VertexId)>,
    /// Reused subtree-traversal stack.
    stack: Vec<u32>,
    /// Trie nodes created, dropped or read: the operator's work count
    /// (`tc_paths_touched`).
    counters: Counters,
}

impl PathTrie {
    fn node(&self, ix: u32) -> &TrieNode {
        self.nodes[ix as usize].as_ref().expect("live trie node")
    }

    fn node_mut(&mut self, ix: u32) -> &mut TrieNode {
        slot(&mut self.nodes, ix)
    }

    /// May a path of `len` hops grow by one within the hop bound?
    fn can_grow(&self, len: usize) -> bool {
        self.max.is_none_or(|m| (len as u32) < m)
    }

    fn ending(&self, v: VertexId) -> &[u32] {
        self.verts.get(&v).map_or(&[], |ve| &ve.ending)
    }

    /// Link a new node for `path` (ending at `target`) under `parent`
    /// and queue its one-hop extensions.
    fn attach(&mut self, parent: u32, target: VertexId, path: Arc<PathValue>) -> u32 {
        let ix = self.free.pop().unwrap_or_else(|| {
            self.nodes.push(None);
            (self.nodes.len() - 1) as u32
        });
        let grows = self.can_grow(path.len());
        let ve = self.verts.entry(target).or_default();
        let ending_pos = ve.ending.len() as u32;
        ve.ending.push(ix);
        if grows {
            self.frontier
                .extend(ve.out.iter().map(|&(e, w)| (ix, e, w)));
        }
        let (mut child_pos, mut edge_pos) = (0, 0);
        match path.edges().last() {
            Some(&e) => {
                let siblings = &mut slot(&mut self.nodes, parent).children;
                child_pos = siblings.len() as u32;
                siblings.push(ix);
                let same_edge = self.by_last_edge.entry(e).or_default();
                edge_pos = same_edge.len() as u32;
                same_edge.push(ix);
                self.paths += 1;
            }
            None => self.roots += 1,
        }
        self.nodes[ix as usize] = Some(TrieNode {
            parent,
            target,
            path,
            children: SmallList::Empty,
            child_pos,
            ending_pos,
            edge_pos,
        });
        self.counters.tc_paths_touched += 1;
        ix
    }

    /// Drain the frontier: the bounded, edge-distinct depth-first walk.
    /// `visit` sees every node created.
    fn expand(&mut self, mut visit: impl FnMut(&TrieNode)) {
        while let Some((p, e, w)) = self.frontier.pop() {
            let prefix = &self.node(p).path;
            if prefix.contains_edge(e) {
                continue;
            }
            let path = Arc::new(prefix.extend(e, w));
            let ix = self.attach(p, w, path);
            visit(self.node(ix));
        }
    }

    /// Root at `v` plus every path the adjacency currently offers from
    /// it; `visit` sees every node created.
    fn add_root(&mut self, v: VertexId, mut visit: impl FnMut(&TrieNode)) -> u32 {
        let root = self.attach(NIL, v, Arc::new(PathValue::single(v)));
        visit(self.node(root));
        self.expand(visit);
        root
    }

    /// Record hop `u -e-> w` and copy out the nodes it may extend: the
    /// paths ending at `u`.
    fn add_hop(&mut self, u: VertexId, e: EdgeId, w: VertexId, prefixes: &mut Vec<u32>) {
        let ve = self.verts.entry(u).or_default();
        ve.out.push((e, w));
        self.hops += 1;
        prefixes.clear();
        prefixes.extend_from_slice(&ve.ending);
    }

    /// Forget hop `u -e-> w` (the paths through it go by
    /// [`PathTrie::drop_subtree`]).
    fn remove_hop(&mut self, u: VertexId, e: EdgeId, w: VertexId) {
        let Entry::Occupied(mut ve) = self.verts.entry(u) else {
            return;
        };
        let out = &mut ve.get_mut().out;
        if let Some(i) = out.iter().position(|&h| h == (e, w)) {
            out.swap_remove(i);
            self.hops -= 1;
        }
        if ve.get().out.is_empty() && ve.get().ending.is_empty() {
            ve.remove();
        }
    }

    /// Extend node `p` over hop `e` to `w` and onwards, if the hop bound
    /// allows; `visit` sees every node created.
    fn extend(&mut self, p: u32, e: EdgeId, w: VertexId, visit: impl FnMut(&TrieNode)) {
        self.counters.tc_paths_touched += 1;
        if self.can_grow(self.node(p).path.len()) {
            self.frontier.push((p, e, w));
            self.expand(visit);
        }
    }

    /// Some node whose last hop is `e`, while any is left.
    fn any_ending_in(&self, e: EdgeId) -> Option<u32> {
        self.by_last_edge.get(&e).and_then(|l| l.last().copied())
    }

    /// Free `top` and everything below it; `visit` sees every node freed.
    fn drop_subtree(&mut self, top: u32, mut visit: impl FnMut(&TrieNode)) {
        let (parent, pos) = {
            let n = self.node(top);
            (n.parent, n.child_pos)
        };
        if parent != NIL {
            if let Some(moved) = swap_out(&mut self.node_mut(parent).children, pos) {
                self.node_mut(moved).child_pos = pos;
            }
        }
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(top);
        while let Some(ix) = stack.pop() {
            let n = self.nodes[ix as usize].take().expect("live trie node");
            self.free.push(ix);
            stack.extend_from_slice(&n.children);
            if let Entry::Occupied(mut ve) = self.verts.entry(n.target) {
                if let Some(moved) = swap_out(&mut ve.get_mut().ending, n.ending_pos) {
                    slot(&mut self.nodes, moved).ending_pos = n.ending_pos;
                }
                if ve.get().out.is_empty() && ve.get().ending.is_empty() {
                    ve.remove();
                }
            }
            match n.path.edges().last() {
                Some(&e) => {
                    if let Entry::Occupied(mut same_edge) = self.by_last_edge.entry(e) {
                        if let Some(moved) = swap_out(same_edge.get_mut(), n.edge_pos) {
                            slot(&mut self.nodes, moved).edge_pos = n.edge_pos;
                        }
                        if same_edge.get().is_empty() {
                            same_edge.remove();
                        }
                    }
                    self.paths -= 1;
                }
                None => self.roots -= 1,
            }
            self.counters.tc_paths_touched += 1;
            visit(&n);
        }
        self.stack = stack;
    }

    /// Visit `top` and everything below it.
    fn for_subtree(&mut self, top: u32, visit: impl FnMut(&TrieNode)) {
        let mut stack = std::mem::take(&mut self.stack);
        self.counters.tc_paths_touched += self.walk(top, &mut stack, visit);
        self.stack = stack;
    }

    /// [`PathTrie::for_subtree`] over a shared trie, on `stack`; returns
    /// the nodes visited.
    fn walk(&self, top: u32, stack: &mut Vec<u32>, mut visit: impl FnMut(&TrieNode)) -> u64 {
        let mut visited = 0;
        stack.push(top);
        while let Some(ix) = stack.pop() {
            let n = self.node(ix);
            stack.extend_from_slice(&n.children);
            visited += 1;
            visit(n);
        }
        visited
    }
}

/// The left rows sharing one source vertex, and that source's trie root.
#[derive(Clone, Debug)]
struct Anchor {
    root: u32,
    rows: Bucket,
}

/// Assembles output rows `left ++ [dst, props…, path]`.
struct Emitter<'a, S: RowSink + ?Sized> {
    min: u32,
    /// The destination constraint and the graph it reads; `None` admits
    /// every target with the row `[target]`.
    admission: Option<(&'a VertexScan, &'a PropertyGraph)>,
    /// Reused admission-row and output-row assembly areas.
    dst_row: &'a mut Vec<Value>,
    scratch: &'a mut Vec<Value>,
    out: &'a mut S,
}

impl<S: RowSink + ?Sized> Emitter<'_, S> {
    /// `mult ×` the rows node `n` contributes for the given left rows
    /// when its target is admitted with the values `dst`: none if its
    /// path is shorter than `min`.
    fn emit_on<'r>(
        &mut self,
        rows: impl Iterator<Item = (&'r Tuple, i64)>,
        dst: &[Value],
        mult: i64,
        n: &TrieNode,
    ) {
        if (n.path.len() as u32) < self.min {
            return;
        }
        for (left, m) in rows {
            let row = &mut *self.scratch;
            row.clear();
            row.reserve(left.arity() + dst.len() + 1);
            row.extend_from_slice(left.values());
            row.extend_from_slice(dst);
            row.push(Value::Path(n.path.clone()));
            self.out.push_row(Row::Assembled(row), m * mult);
        }
    }

    /// [`Emitter::emit_on`] the target's admission row now; nothing if
    /// it is not admitted.
    fn emit<'r>(&mut self, rows: impl Iterator<Item = (&'r Tuple, i64)>, sign: i64, n: &TrieNode) {
        match self.admission {
            None => self.emit_on(rows, &[Value::Node(n.target)], sign, n),
            Some((scan, g)) => {
                let mut dst = std::mem::take(self.dst_row);
                if scan.pattern().row_into(g.vertex_view(n.target), &mut dst) {
                    self.emit_on(rows, &dst, sign, n);
                }
                *self.dst_row = dst;
            }
        }
    }
}

/// The ⋈* dataflow node.
#[derive(Clone, Debug)]
pub struct VarLengthOp {
    edge_scan: EdgeScan,
    /// Destination constraint and pushed properties, when the pattern
    /// has any: it reads admission rows off the graph.
    dst: Option<VertexScan>,
    src_col: usize,
    min: u32,
    trie: PathTrie,
    anchors: FxHashMap<VertexId, Anchor>,
    /// Distinct left rows across all anchors.
    left_rows: usize,
    /// Reused buffers: the hops a pass retracts and asserts, the
    /// prefixes of an edge insertion, sources whose last row a left delta
    /// removed, and the admission-row and output-row assembly areas.
    gone: Vec<Hop>,
    added: Vec<Hop>,
    prefixes: Vec<u32>,
    emptied: Vec<VertexId>,
    dst_row: Vec<Value>,
    scratch: Vec<Value>,
}

/// One admitted hop `(from, edge, to)`.
type Hop = (VertexId, EdgeId, VertexId);

/// The hop an edge-scan row `[from, edge, to]` encodes.
fn hop_of(row: &[Value]) -> Hop {
    (
        row[0].as_node().expect("edge triple"),
        row[1].as_rel().expect("edge triple"),
        row[2].as_node().expect("edge triple"),
    )
}

/// The left rows that `n`'s path extends.
fn rows_of<'a>(anchors: &'a FxHashMap<VertexId, Anchor>, n: &TrieNode) -> &'a Bucket {
    &anchors
        .get(&n.path.source())
        .expect("every trie node hangs under an anchor")
        .rows
}

impl VarLengthOp {
    /// Build from an FRA [`VarLenSpec`]; `left_arity` and `src_col`
    /// locate the traversal source in the left input.
    pub fn new(left_arity: usize, src_col: usize, spec: &VarLenSpec) -> VarLengthOp {
        let edge_scan = EdgeScan::new(EdgePattern {
            types: spec.types.clone(),
            dir: spec.dir,
            filters: spec.edge_prop_filters.clone(),
            ..Default::default()
        });
        let needs_dst = !spec.dst_labels.is_empty() || !spec.dst_props.is_empty();
        let dst = needs_dst.then(|| {
            VertexScan::new(VertexPattern {
                labels: spec.dst_labels.clone(),
                props: spec.dst_props.iter().map(|p| p.prop).collect(),
            })
        });
        VarLengthOp {
            edge_scan,
            dst,
            src_col,
            min: spec.min,
            trie: PathTrie {
                max: spec.max,
                ..Default::default()
            },
            anchors: FxHashMap::default(),
            left_rows: 0,
            gone: Vec::new(),
            added: Vec::new(),
            prefixes: Vec::new(),
            emptied: Vec::new(),
            dst_row: Vec::new(),
            // left ++ [dst, props…, path]
            scratch: Vec::with_capacity(left_arity + 2 + spec.dst_props.len()),
        }
    }

    /// Entries materialised: trie nodes, left rows and adjacency hops
    /// (the scans keep nothing).
    pub fn memory_tuples(&self) -> usize {
        self.trie.roots + self.trie.paths + self.left_rows + self.trie.hops
    }

    /// Anchored paths of length ≥ 1 materialised (zero-length roots are
    /// counted by [`VarLengthOp::anchor_count`]).
    pub fn path_count(&self) -> usize {
        self.trie.paths
    }

    /// Distinct source vertices among the left rows.
    pub fn anchor_count(&self) -> usize {
        self.trie.roots
    }

    /// Hops admitted by the edge scan (an undirected pattern counts an
    /// edge once per orientation).
    pub fn edge_count(&self) -> usize {
        self.trie.hops
    }

    /// Does enumerating the output read the graph? It does when a
    /// destination constraint admits the targets.
    pub(crate) fn reads_graph(&self) -> bool {
        self.dst.is_some()
    }

    /// This operator's work: the trie nodes it has created, dropped or
    /// read.
    pub(crate) fn counters(&self) -> Counters {
        self.trie.counters
    }

    /// Change events this operator's scans have examined since it was
    /// created, each counted once though both internal scans examine it.
    pub(crate) fn events_read(&self) -> u64 {
        self.edge_scan.events_read()
    }

    /// Apply steps 2–4 (module docs, "Delta rules"): the hops in
    /// `self.gone` and `self.added`, then `left`, reading admission rows
    /// off `g`.
    fn apply(&mut self, g: &PropertyGraph, left: &Delta, out: &mut (impl RowSink + ?Sized)) {
        let VarLengthOp {
            dst,
            src_col,
            min,
            trie,
            anchors,
            left_rows,
            gone,
            added,
            prefixes,
            emptied,
            dst_row,
            scratch,
            ..
        } = self;
        let mut em = Emitter {
            min: *min,
            admission: dst.as_ref().map(|scan| (scan, g)),
            dst_row,
            scratch,
            out,
        };

        // 2. Edge −, before any insertion so that re-inserted edges
        // rebuild cleanly.
        for &(u, e, w) in gone.iter() {
            trie.remove_hop(u, e, w);
            while let Some(top) = trie.any_ending_in(e) {
                let rows = rows_of(anchors, trie.node(top));
                trie.drop_subtree(top, |n| em.emit(rows.iter(), -1, n));
            }
        }

        // 3. Edge +.
        for &(u, e, w) in added.iter() {
            trie.add_hop(u, e, w, prefixes);
            for &p in prefixes.iter() {
                let rows = rows_of(anchors, trie.node(p));
                trie.extend(p, e, w, |n| em.emit(rows.iter(), 1, n));
            }
        }

        // 4. Left row ±.
        for (row, m) in left.iter() {
            let Some(src) = row.get(*src_col).as_node() else {
                continue;
            };
            let this_row = || std::iter::once((row, *m));
            let anchor = match anchors.entry(src) {
                Entry::Occupied(a) => {
                    let a = a.into_mut();
                    trie.for_subtree(a.root, |n| em.emit(this_row(), 1, n));
                    a
                }
                Entry::Vacant(slot) => slot.insert(Anchor {
                    root: trie.add_root(src, |n| em.emit(this_row(), 1, n)),
                    rows: Bucket::default(),
                }),
            };
            *left_rows = (*left_rows as i64 + anchor.rows.update(row, *m)) as usize;
            if anchor.rows.is_empty() {
                emptied.push(src);
            }
        }
        for src in emptied.drain(..) {
            if anchors.get(&src).is_some_and(|a| a.rows.is_empty()) {
                let a = anchors.remove(&src).expect("checked above");
                trie.drop_subtree(a.root, |_| {});
            }
        }
    }

    /// Initial evaluation of a fresh operator: load the adjacency, then
    /// the left rows.
    pub fn initial(&mut self, g: &PropertyGraph, left_initial: Delta) -> Delta {
        let mut out = Delta::new();
        self.initial_into(g, &left_initial, &mut out);
        out
    }

    /// [`VarLengthOp::initial`] with a borrowed left input and a
    /// caller-owned (pooled) output buffer.
    pub(crate) fn initial_into(&mut self, g: &PropertyGraph, left: &Delta, out: &mut Delta) {
        debug_assert!(self.anchors.is_empty(), "initial evaluation runs once");
        self.gone.clear();
        self.added.clear();
        let added = &mut self.added;
        self.edge_scan
            .pattern()
            .rows(g, |row| added.push(hop_of(row)));
        self.apply(g, left, out);
    }

    /// Process a transaction: `left_delta` from the child subtree plus
    /// the transaction's change events, every change since the last call
    /// (for the internal scans).
    pub fn on_events(
        &mut self,
        g: &PropertyGraph,
        events: &[ChangeEvent],
        left_delta: Delta,
    ) -> Delta {
        let mut out = Delta::new();
        let mut index = BeforeIndex::new();
        self.on_events_into(&index.build(g, events), events, &left_delta, &mut out);
        out
    }

    /// [`VarLengthOp::on_events`] over the pass's before-image and any
    /// sequence of its events — the network hands the node only the
    /// events routed to it — with a borrowed left input, into a
    /// caller-owned (pooled) output buffer or any other [`RowSink`].
    pub fn on_events_into<'e>(
        &mut self,
        image: &BeforeImage<'_>,
        events: impl IntoIterator<Item = &'e ChangeEvent> + Clone,
        left: &Delta,
        out: &mut (impl RowSink + ?Sized),
    ) {
        let VarLengthOp {
            edge_scan,
            dst,
            min,
            trie,
            anchors,
            gone,
            added,
            dst_row,
            scratch,
            ..
        } = self;
        gone.clear();
        added.clear();
        edge_scan.changes(image, events.clone(), |old, new| {
            gone.extend(old.map(hop_of));
            added.extend(new.map(hop_of));
        });
        // 1. Destination ±, against the trie as the last pass left it.
        if let Some(scan) = dst {
            let mut em = Emitter {
                min: *min,
                admission: None,
                dst_row,
                scratch,
                out: &mut *out,
            };
            scan.changes(image, events, |v, old, new| {
                trie.counters.tc_paths_touched += trie.ending(v).len() as u64;
                for &ix in trie.ending(v) {
                    let n = trie.node(ix);
                    let rows = rows_of(anchors, n);
                    if let Some(old) = old {
                        em.emit_on(rows.iter(), old, -1, n);
                    }
                    if let Some(new) = new {
                        em.emit_on(rows.iter(), new, 1, n);
                    }
                }
            });
        }
        self.apply(image.graph(), left, out);
    }

    /// Reconstruct the full current output bag from the trie into
    /// `out`, admitting targets over `g`, which only a destination
    /// constraint reads.
    pub fn replay_into(&self, g: Option<&PropertyGraph>, out: &mut dyn RowSink) {
        let admission = self.dst.as_ref().map(|scan| {
            let g = g.expect("a destination constraint reads the graph");
            (scan, g)
        });
        let mut em = Emitter {
            min: self.min,
            admission,
            dst_row: &mut Vec::new(),
            scratch: &mut Vec::new(),
            out,
        };
        let mut stack = Vec::new();
        for a in self.anchors.values() {
            self.trie
                .walk(a.root, &mut stack, |n| em.emit(a.rows.iter(), 1, n));
        }
    }

    /// Routing contracts of the internal scans (edge traversal and the
    /// optional destination-constraint scan) — the union of events a ⋈*
    /// node must see.
    pub(crate) fn routing(&self) -> Vec<ScanRouting> {
        let mut out = vec![ScanRouting::Edge(self.edge_scan.routing())];
        if let Some(scan) = &self.dst {
            out.push(ScanRouting::Vertex(scan.routing()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_algebra::fra::{PropPush, VarLenSpec};
    use pgq_common::dir::Direction;
    use pgq_common::intern::Symbol;
    use pgq_graph::props::Properties;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn spec(min: u32, max: Option<u32>) -> VarLenSpec {
        VarLenSpec {
            types: vec![sym("R")],
            dir: Direction::Out,
            dst_labels: vec![],
            dst_props: vec![],
            edge_prop_filters: vec![],
            min,
            max,
        }
    }

    /// Left input: single-column tuples [Node(v)] for given vertices.
    fn left_of(vs: &[VertexId]) -> Delta {
        vs.iter()
            .map(|&v| (Tuple::new(vec![Value::Node(v)]), 1))
            .collect()
    }

    fn chain(n: usize) -> (PropertyGraph, Vec<VertexId>) {
        let mut g = PropertyGraph::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|_| g.add_vertex([sym("N")], Properties::new()).0)
            .collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1], sym("R"), Properties::new()).unwrap();
        }
        (g, vs)
    }

    #[test]
    fn chain_paths_initial() {
        let (g, vs) = chain(3); // v0 -> v1 -> v2
        let mut op = VarLengthOp::new(1, 0, &spec(1, None));
        let out = op.initial(&g, left_of(&vs)).consolidate();
        // Paths: 0→1, 1→2, 0→2 = three.
        assert_eq!(out.len(), 3);
        assert_eq!(op.path_count(), 3);
    }

    /// The first load's bag is what the network memoises without
    /// consolidating it: two left rows on one source, over a diamond
    /// `s → a → t`, `s → b → t`, give one row per (left row, path) —
    /// its own consolidation.
    #[test]
    fn initial_bag_is_its_own_consolidation() {
        let mut g = PropertyGraph::new();
        let [s, a, b, t] = [0; 4].map(|_| g.add_vertex([sym("N")], Properties::new()).0);
        for (x, y) in [(s, a), (s, b), (a, t), (b, t)] {
            g.add_edge(x, y, sym("R"), Properties::new()).unwrap();
        }
        let left: Delta = [1, 2]
            .map(|tag| (Tuple::new(vec![Value::Node(s), Value::Int(tag)]), 1))
            .into_iter()
            .collect();
        let mut op = VarLengthOp::new(2, 0, &spec(1, None));
        let bag = op.initial(&g, left);
        // Per left row: s→a, s→b, s→a→t, s→b→t.
        assert_eq!(bag.len(), 8);
        assert_eq!(bag.clone().consolidate(), bag);
    }

    #[test]
    fn only_anchored_paths_are_kept() {
        let (g, vs) = chain(4); // 0→1→2→3: six paths, three from v0
        let mut op = VarLengthOp::new(1, 0, &spec(1, None));
        let out = op.initial(&g, left_of(&vs[..1])).consolidate();
        assert_eq!(out.len(), 3);
        assert_eq!((op.anchor_count(), op.path_count()), (1, 3));
        // The last left row of the anchor takes its subtree with it.
        let gone: Delta = left_of(&vs[..1])
            .into_entries()
            .into_iter()
            .map(|(t, m)| (t, -m))
            .collect();
        let out = op.on_events(&g, &[], gone).consolidate();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, m)| *m < 0));
        assert_eq!((op.anchor_count(), op.path_count()), (0, 0));
        assert_eq!(op.memory_tuples(), op.edge_count());
    }

    #[test]
    fn edge_insertion_creates_crossing_paths() {
        let (mut g, vs) = chain(2);
        let mut op = VarLengthOp::new(1, 0, &spec(1, None));
        op.initial(&g, left_of(&vs));
        // Add v1 -> v0? No: add a new vertex and edge v1→v2'.
        let (v2, ev1) = g.add_vertex([sym("N")], Properties::new());
        let (_, ev2) = g.add_edge(vs[1], v2, sym("R"), Properties::new()).unwrap();
        // Left side gains v2 as well.
        let dl = left_of(&[v2]);
        let out = op.on_events(&g, &[ev1, ev2], dl).consolidate();
        // New paths: 1→2 and 0→1→2, both anchored at existing left rows.
        let adds: Vec<_> = out.iter().filter(|(_, m)| *m > 0).collect();
        assert_eq!(adds.len(), 2, "{out:?}");
        assert_eq!(op.path_count(), 3);
    }

    #[test]
    fn edge_deletion_retracts_all_containing_paths() {
        let (mut g, vs) = chain(4); // 0→1→2→3, 6 paths
        let mut op = VarLengthOp::new(1, 0, &spec(1, None));
        let init = op.initial(&g, left_of(&vs)).consolidate();
        assert_eq!(init.len(), 6);
        // Delete middle edge 1→2: kills 1→2, 0→2, 1→3, 0→3 (4 paths).
        let mid = g.out_edges(vs[1])[0];
        let ev = g.remove_edge(mid).unwrap();
        let out = op.on_events(&g, &[ev], Delta::new()).consolidate();
        let dels = out.iter().filter(|(_, m)| *m < 0).count();
        assert_eq!(dels, 4, "{out:?}");
        assert_eq!(op.path_count(), 2);
    }

    #[test]
    fn cycle_terminates_via_edge_distinctness() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("N")], Properties::new());
        let (b, _) = g.add_vertex([sym("N")], Properties::new());
        g.add_edge(a, b, sym("R"), Properties::new()).unwrap();
        g.add_edge(b, a, sym("R"), Properties::new()).unwrap();
        let mut op = VarLengthOp::new(1, 0, &spec(1, None));
        let out = op.initial(&g, left_of(&[a, b])).consolidate();
        // Paths: a→b, b→a, a→b→a, b→a→b — exactly 4 edge-distinct paths.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn hop_bounds_respected() {
        let (g, vs) = chain(5); // lengths 1..4 available
        let mut op = VarLengthOp::new(1, 0, &spec(2, Some(3)));
        let out = op.initial(&g, left_of(&vs)).consolidate();
        for (t, _) in out.iter() {
            let p = t.get(2).as_path().unwrap();
            assert!(p.len() >= 2 && p.len() <= 3, "bad length {}", p.len());
        }
        // len2: 0→2,1→3,2→4; len3: 0→3,1→4 → 5 paths.
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn zero_hop_includes_zero_length_paths() {
        let (g, vs) = chain(2);
        let mut op = VarLengthOp::new(1, 0, &spec(0, None));
        let out = op.initial(&g, left_of(&vs)).consolidate();
        // Zero-length ε_0, ε_1 plus the edge path 0→1 = 3.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn dst_label_constraint_enforced_incrementally() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("Post")], Properties::new());
        let (b, _) = g.add_vertex([sym("Comm")], Properties::new());
        g.add_edge(a, b, sym("R"), Properties::new()).unwrap();
        let mut sp = spec(1, None);
        sp.dst_labels = vec![sym("Comm")];
        let mut op = VarLengthOp::new(1, 0, &sp);
        let out = op.initial(&g, left_of(&[a])).consolidate();
        assert_eq!(out.len(), 1);
        // Removing the label retracts the match without touching edges.
        let ev = g.remove_label(b, sym("Comm")).unwrap().unwrap();
        let out = op.on_events(&g, &[ev], Delta::new()).consolidate();
        assert_eq!(out.len(), 1);
        assert!(out.iter().all(|(_, m)| *m < 0));
    }

    #[test]
    fn dst_props_are_emitted_in_fra_order() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("N")], Properties::new());
        let (b, _) = g.add_vertex(
            [sym("N")],
            Properties::from_iter([("lang", Value::str("en"))]),
        );
        g.add_edge(a, b, sym("R"), Properties::new()).unwrap();
        let mut sp = spec(1, None);
        sp.dst_props = vec![PropPush {
            prop: sym("lang"),
            col: "c.lang".into(),
        }];
        let mut op = VarLengthOp::new(1, 0, &sp);
        let out = op.initial(&g, left_of(&[a])).consolidate();
        let entries = out.into_entries();
        // Schema: [src, dst, c.lang, path]
        let (t, m) = &entries[0];
        assert_eq!(*m, 1);
        assert_eq!(t.arity(), 4);
        assert_eq!(t.get(0), &Value::Node(a));
        assert_eq!(t.get(1), &Value::Node(b));
        assert_eq!(t.get(2), &Value::str("en"));
        assert!(t.get(3).as_path().is_some());
    }

    #[test]
    fn parallel_edges_are_distinct_paths() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("N")], Properties::new());
        let (b, _) = g.add_vertex([sym("N")], Properties::new());
        g.add_edge(a, b, sym("R"), Properties::new()).unwrap();
        g.add_edge(a, b, sym("R"), Properties::new()).unwrap();
        let mut op = VarLengthOp::new(1, 0, &spec(1, None));
        let out = op.initial(&g, left_of(&[a])).consolidate();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn undirected_traversal() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([sym("N")], Properties::new());
        let (b, _) = g.add_vertex([sym("N")], Properties::new());
        g.add_edge(a, b, sym("R"), Properties::new()).unwrap();
        let mut sp = spec(1, None);
        sp.dir = Direction::Both;
        let mut op = VarLengthOp::new(1, 0, &sp);
        let out = op.initial(&g, left_of(&[a, b])).consolidate();
        // From a: a-b; from b: b-a. (Round trips a-b-a reuse the edge →
        // excluded by edge-distinctness.)
        assert_eq!(out.len(), 2);
    }
}
