//! Bound-first joins: the paper's expand-out ↑ in the one-shot evaluator.
//!
//! A ⋈, ⋉ or ▷ whose right input is a scan read through one key column —
//! a ⇑ keyed on its source or target, or a © keyed on its vertex, directly
//! or under a σ chain — can read that input from the vertices its left
//! side binds instead of from the extent: the `out_edges` / `in_edges` of
//! each key vertex, or its `vertex()`. [`Expansion::of`] recognises such
//! an input; every other join builds its right side whole. Both ways read
//! through the scan's `pgq_graph::scan` pattern — the keyed reads
//! `EdgePattern::rows_at` and `VertexPattern::rows_of`, or the
//! enumeration `rows` — so an expanded row is the row a build reads.
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
use pgq_common::ids::VertexId;
use pgq_common::value::Value;
use pgq_graph::scan::{EdgePattern, End, VertexPattern};

use crate::eval::{edge_pattern, vertex_pattern, Feed, Pipelines, Rows, Sink};

/// How the rows of one key vertex are found.
enum Read {
    /// The vertex itself (a ©).
    Vertex(VertexPattern),
    /// Its edges, with the vertex at one end of each row (a ⇑).
    Edges(EdgePattern, End),
}

/// A join's right input that can be read from its key vertices: the scan
/// under its σ chain, and how a key vertex finds its rows.
pub(crate) struct Expansion<'f> {
    scan: &'f Fra,
    read: Read,
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
            (Fra::ScanVertices { .. }, 0) => Read::Vertex(vertex_pattern(scan)),
            (Fra::ScanEdges { .. }, 0) => Read::Edges(edge_pattern(scan), End::Src),
            (Fra::ScanEdges { .. }, 2) => Read::Edges(edge_pattern(scan), End::Dst),
            _ => return None,
        };
        Some(Expansion { scan, read })
    }
}

/// The EXPLAIN mark: `expand out KNOWS`, `expand vertex Person`.
impl fmt::Display for Expansion<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (how, names) = match &self.read {
            Read::Vertex(p) => ("vertex", &p.labels),
            Read::Edges(p, end) => match p.adjacency(*end) {
                Direction::Out => ("out", &p.types),
                Direction::In => ("in", &p.types),
                Direction::Both => ("both", &p.types),
            },
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
                        b.cost += match &x.read {
                            Read::Vertex(_) => 1,
                            Read::Edges(p, end) => p.degree(self.g, v, *end),
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
        match &x.read {
            Read::Vertex(p) => p.extent(self.g),
            Read::Edges(p, _) => p.extent(self.g),
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
        match &x.read {
            Read::Vertex(p) => {
                self.count(p.rows_of(self.g, vertices.iter().copied(), |row| out(row, 1)))
            }
            Read::Edges(p, end) => {
                let vertices = vertices.iter().copied();
                self.count(p.rows_at(self.g, vertices, *end, |row| out(row, 1)))
            }
        }
    }
}
