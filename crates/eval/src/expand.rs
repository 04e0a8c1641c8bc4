//! Bound-first joins: the paper's expand-out ↑ in the one-shot evaluator.
//!
//! A ⋈, ⋉ or ▷ whose right input is a scan read through one key column —
//! a ⇑ keyed on its source or target, or a © keyed on its vertex, directly
//! or under a σ chain — can read that input from the vertices its left
//! side binds instead of from the extent: the `out_edges` / `in_edges` of
//! each key vertex, or its `vertex()`. [`Expansion::of`] recognises such
//! an input; every other join builds its right side whole.
//!
//! Whether a join expands is decided while it runs, without a knob or a
//! constant, from a safe upper bound on what expanding reads. The join
//! buffers its left rows while the buffered rows plus the adjacency
//! lengths of their distinct key vertices stay below the rows building
//! the right side would read (its seek's candidates, else
//! Σ `edges_with_type(t).len()` or the label extent). If the left side
//! ends first, the right side is read from those vertices, each vertex's
//! rows filed once, and the buffer probes it; otherwise the right side is
//! built as usual and the buffer flushes through it. So an expansion never
//! reads more rows than the build would, and a join holds at most one
//! extent of left rows besides its build side. Output stays left-major;
//! only a left row's matches may come in adjacency order instead of build
//! order.
//!
//! The bound counts all of a key vertex's edges, whatever their type: the
//! graph keeps no per-type adjacency count. So a join whose key vertices
//! carry many edges of other types builds even where expanding would have
//! read fewer rows.
//!
//! `rows_scanned` counts an adjacency entry once its edge type matches
//! the scan, and a looked-up vertex once, so a keyed two-hop over a
//! degree-4 graph reads 1 + 4 + 16 rows however large the graph is.

use std::fmt;

use pgq_algebra::fra::Fra;
use pgq_common::dir::Direction;
use pgq_common::fxhash::FxHashSet;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::value::Value;

use crate::eval::{orientations, Feed, Pipelines, Rows, Sink};

/// How the rows of one key vertex are found.
#[derive(Clone, Copy)]
enum Read {
    /// Its outgoing edges.
    Out,
    /// Its incoming edges.
    In,
    /// Both (an undirected ⇑).
    Both,
    /// The vertex itself (a ©).
    Vertex,
}

/// A join's right input that can be read from its key vertices: the scan
/// under its σ chain, and how a key vertex finds its rows.
pub(crate) struct Expansion<'f> {
    scan: &'f Fra,
    read: Read,
    /// The scan column the join keys on.
    key: usize,
}

impl<'f> Expansion<'f> {
    /// How to expand `right` when a join keys it on `right_keys`, or
    /// `None` when it can only be built.
    pub(crate) fn of(right: &'f Fra, right_keys: &[usize]) -> Option<Expansion<'f>> {
        let &[key] = right_keys else {
            return None;
        };
        let mut scan = right;
        while let Fra::Filter { input, .. } = scan {
            scan = input;
        }
        let read = match (scan, key) {
            (Fra::ScanVertices { .. }, 0) => Read::Vertex,
            (Fra::ScanEdges { dir, .. }, 0 | 2) => match (dir, key == 0) {
                (Direction::Both, _) => Read::Both,
                (Direction::Out, true) | (Direction::In, false) => Read::Out,
                (Direction::Out, false) | (Direction::In, true) => Read::In,
            },
            _ => return None,
        };
        Some(Expansion { scan, read, key })
    }
}

/// The EXPLAIN mark: `expand out KNOWS`, `expand vertex Person`.
impl fmt::Display for Expansion<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (how, names) = match (self.read, self.scan) {
            (Read::Vertex, Fra::ScanVertices { labels, .. }) => ("vertex", labels),
            (Read::Out, Fra::ScanEdges { types, .. }) => ("out", types),
            (Read::In, Fra::ScanEdges { types, .. }) => ("in", types),
            (_, Fra::ScanEdges { types, .. }) => ("both", types),
            _ => unreachable!("a © reads its vertex, a ⇑ its edges"),
        };
        write!(f, "expand {how}")?;
        for (i, name) in names.iter().enumerate() {
            write!(f, "{}{name}", if i == 0 { " " } else { "|" })?;
        }
        Ok(())
    }
}

/// A join's left rows held while it decides, and what expanding them
/// would read.
struct Buffer {
    rows: Rows,
    /// The distinct key vertices.
    vertices: FxHashSet<VertexId>,
    /// Buffered rows plus the adjacency lengths of `vertices`.
    cost: usize,
}

impl<'g> Pipelines<'g> {
    /// A ⋈ / ⋉ / ▷: stream `left` through `probe`, each left row against
    /// the right side `build` makes of the rows a feed pushes — the whole
    /// of `right`, or, when `right` can expand and that reads less, the
    /// rows of the key vertices the left side binds.
    pub(crate) fn join<T>(
        &self,
        left: &Fra,
        left_keys: &[usize],
        right: &Fra,
        right_keys: &[usize],
        build: impl Fn(&mut Feed<'_>) -> T,
        mut probe: impl FnMut(&T, &[Value], i64),
    ) {
        let x = Expansion::of(right, right_keys);
        // Without an expansion nothing reads less than building, so the
        // first left row builds.
        let extent = x.as_ref().map_or(0, |x| self.extent(right, x));
        let (mut side, mut buffer) = (None, None::<Buffer>);
        self.push(left, &mut |l, lm| {
            if let Some(side) = &side {
                return probe(side, l, lm);
            }
            let b = buffer.get_or_insert_with(|| Buffer {
                rows: Rows::new(l.len()),
                vertices: FxHashSet::default(),
                cost: 0,
            });
            b.rows.push(l.iter(), lm);
            b.cost += 1;
            if let Some(x) = &x {
                if let Some(v) = l[left_keys[0]].as_node() {
                    if b.vertices.insert(v) {
                        b.cost += match x.read {
                            Read::Vertex => 1,
                            read => self.adjacency(read, v).iter().map(|l| l.len()).sum(),
                        };
                    }
                }
            }
            if b.cost >= extent {
                let side = side.insert(build(&mut |sink| self.push(right, sink)));
                let b = buffer.take().expect("buffered above");
                for (l, lm) in b.rows.iter() {
                    probe(side, l, lm);
                }
            }
        });
        if let (Some(b), Some(x)) = (buffer, &x) {
            let side = build(&mut |sink| self.expand(right, x, &b.vertices, sink));
            for (l, lm) in b.rows.iter() {
                probe(&side, l, lm);
            }
        }
    }

    /// The rows building `right` reads: its seek's candidates, else its
    /// scan's extent.
    fn extent(&self, right: &Fra, x: &Expansion) -> usize {
        if let Some(candidates) = self.seek(right) {
            return candidates.len();
        }
        let g = self.g;
        match x.scan {
            Fra::ScanVertices { labels, .. } => labels
                .first()
                .map_or(g.vertex_count(), |&l| g.vertices_with_label(l).len()),
            Fra::ScanEdges { types, .. } if types.is_empty() => g.edge_count(),
            Fra::ScanEdges { types, .. } => types.iter().map(|&t| g.edges_with_type(t).len()).sum(),
            _ => unreachable!("an expansion reads a scan"),
        }
    }

    /// The adjacency lists an edge expansion reads `v`'s rows from.
    fn adjacency(&self, read: Read, v: VertexId) -> [&'g [EdgeId]; 2] {
        let g = self.g;
        match read {
            Read::Out => [g.out_edges(v), &[]],
            Read::In => [g.in_edges(v), &[]],
            Read::Both => [g.out_edges(v), g.in_edges(v)],
            Read::Vertex => [&[], &[]],
        }
    }

    /// Push the rows of `right` (its σ chain over the expansion's scan)
    /// whose key column holds one of `vertices`, each vertex's once.
    fn expand(
        &self,
        right: &Fra,
        x: &Expansion,
        vertices: &FxHashSet<VertexId>,
        out: &mut Sink<'_>,
    ) {
        if let Fra::Filter { .. } = right {
            return self.chain(right, out, |_, through| {
                self.expand(x.scan, x, vertices, through)
            });
        }
        if let Read::Vertex = x.read {
            return self.scan_vertices(x.scan, vertices.iter().copied(), out);
        }
        let mut row = Vec::new();
        for &v in vertices {
            let [first, second] = self.adjacency(x.read, v);
            for &e in first {
                self.expand_edge(x, e, v, false, &mut row, out);
            }
            for &e in second {
                self.expand_edge(x, e, v, true, &mut row, out);
            }
        }
    }

    /// Push the rows edge `e`, adjacent to `v`, gives the expansion's ⇑
    /// with `v` in its key column. A self-loop is in both of `v`'s lists;
    /// the second (`skip_loop`) passes it over.
    fn expand_edge(
        &self,
        x: &Expansion,
        e: EdgeId,
        v: VertexId,
        skip_loop: bool,
        row: &mut Vec<Value>,
        out: &mut Sink<'_>,
    ) {
        let Fra::ScanEdges { types, dir, .. } = x.scan else {
            unreachable!("an edge expansion reads a ⇑")
        };
        let Some(data) = self.g.edge(e) else { return };
        if !types.is_empty() && !types.contains(&data.ty) || skip_loop && data.src == data.dst {
            return;
        }
        self.count_scan();
        for (s, d) in orientations(*dir, data) {
            if (if x.key == 0 { s } else { d }) == v {
                self.edge_row(x.scan, e, data, (s, d), row, out);
            }
        }
    }
}
