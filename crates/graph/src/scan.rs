//! The base relations, © get-vertices and ⇑ get-edges: which elements a
//! scan reads and the row each gives, written once for every reader — a
//! one-shot read, a view's registration and a maintenance pass.
//!
//! A pattern reads rows three ways, all by the same rule: `row_into`, one
//! element through a [`VertexView`] / [`EdgeView`] (the graph now, or a
//! pass's [`BeforeImage`](crate::before::BeforeImage)); `rows`, every row
//! over the graph, in batches whose lookups overlap their cache misses;
//! and `rows_of` / `rows_at`, the rows of given vertices — a seek's
//! candidates or an expanding join's key vertices. The enumerations hand
//! rows out as borrowed slices and return how many elements they read.

use pgq_common::dir::Direction;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;

use crate::before::{EdgeView, VertexView};
use crate::store::PropertyGraph;

/// Vertices [`VertexPattern::rows`] and [`VertexPattern::rows_of`] look
/// up before they hand out the first of their rows. On an 11k-post label
/// read (σ then γ, 2-core x86-64), one vertex at a time took 2.2–2.4
/// times a bare loop over the same lookups and grouping; 16, 32, 64 and
/// 256 all took 1.8–2.1 times. 16 is the smallest past the knee.
const VERTEX_BATCH: usize = 16;

/// Edges [`EdgePattern::rows`] reads per stage.
const EDGE_BATCH: usize = 64;

/// A © pattern: the vertices carrying all of `labels`, each read as
/// `[v, props…]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VertexPattern {
    /// Labels a vertex must carry (none: every vertex).
    pub labels: Vec<Symbol>,
    /// Property keys read after the vertex (`null` where absent).
    pub props: Vec<Symbol>,
}

impl VertexPattern {
    /// The vertex `data` views as a row of the pattern, into `row`;
    /// false when there is no vertex or it lacks a label.
    #[inline]
    pub fn row_into(&self, data: Option<VertexView<'_>>, row: &mut Vec<Value>) -> bool {
        let Some(data) = data.filter(|v| self.labels.iter().all(|&l| v.has_label(l))) else {
            return false;
        };
        row.clear();
        row.push(Value::Node(data.id()));
        row.extend(self.props.iter().map(|&k| data.get_or_null(k)));
        true
    }

    /// How many vertices [`VertexPattern::rows`] reads from `g`: its
    /// first label's extent, or every vertex.
    pub fn extent(&self, g: &PropertyGraph) -> usize {
        self.labels
            .first()
            .map_or(g.vertex_count(), |&l| g.vertices_with_label(l).len())
    }

    /// Hand every row of the pattern over `g` to `out`; returns the
    /// vertices read. It reads its first label's extent and tests only
    /// the other labels.
    pub fn rows(&self, g: &PropertyGraph, out: impl FnMut(&[Value])) -> u64 {
        match self.labels.split_first() {
            Some((&l, rest)) => {
                self.resolve(g, g.vertices_with_label(l).iter().copied(), rest, true, out)
            }
            None => self.resolve(g, g.vertex_ids(), &[], true, out),
        }
    }

    /// Hand the rows of the vertices `ids` to `out`, each tested for
    /// every label; returns the ids read.
    pub fn rows_of(
        &self,
        g: &PropertyGraph,
        ids: impl Iterator<Item = VertexId>,
        out: impl FnMut(&[Value]),
    ) -> u64 {
        self.resolve(g, ids, &self.labels, false, out)
    }

    /// The rows of the vertices `ids` that carry the labels `tested`,
    /// [`VERTEX_BATCH`] at a time, a batch looked up into one reused buffer
    /// before any of its rows goes out. A vertex is looked up only to
    /// read a property, test a label or, when the ids are not an extent's
    /// (`listed`), learn whether it exists.
    fn resolve(
        &self,
        g: &PropertyGraph,
        mut ids: impl Iterator<Item = VertexId>,
        tested: &[Symbol],
        listed: bool,
        mut out: impl FnMut(&[Value]),
    ) -> u64 {
        let width = 1 + self.props.len();
        let look = !listed || !tested.is_empty() || !self.props.is_empty();
        let mut rows = Vec::with_capacity(ids.size_hint().0.min(VERTEX_BATCH) * width);
        let mut read = 0;
        loop {
            rows.clear();
            let mut batch = 0;
            for v in ids.by_ref().take(VERTEX_BATCH) {
                batch += 1;
                if !look {
                    rows.push(Value::Node(v));
                    continue;
                }
                let Some(data) = g.vertex_view(v) else {
                    continue;
                };
                if tested.iter().all(|&l| data.has_label(l)) {
                    rows.push(Value::Node(v));
                    rows.extend(self.props.iter().map(|&k| data.get_or_null(k)));
                }
            }
            read += batch;
            for row in rows.chunks_exact(width) {
                out(row);
            }
            if batch < VERTEX_BATCH as u64 {
                return read;
            }
        }
    }
}

/// The end of a ⇑ row a keyed read ([`EdgePattern::rows_at`]) fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum End {
    /// The pattern-source, column 0.
    Src,
    /// The pattern-target, column 2.
    Dst,
}

/// A ⇑ pattern: the edges of `types` whose properties equal `filters`,
/// in each orientation `dir` gives whose ends carry `src_labels` and
/// `dst_labels`, each read as `[s, e, d, src_props…, edge_props…,
/// dst_props…]` (`null` where a property is absent).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgePattern {
    /// Admissible edge types (none: any).
    pub types: Vec<Symbol>,
    /// Orientation: `In` swaps source and target, `Both` reads an edge
    /// both ways and a self-loop once.
    pub dir: Direction,
    /// Labels the pattern-source must carry.
    pub src_labels: Vec<Symbol>,
    /// Labels the pattern-target must carry.
    pub dst_labels: Vec<Symbol>,
    /// Pattern-source property keys read into the row.
    pub src_props: Vec<Symbol>,
    /// Edge property keys read into the row.
    pub edge_props: Vec<Symbol>,
    /// Pattern-target property keys read into the row.
    pub dst_props: Vec<Symbol>,
    /// Literal equality constraints on edge properties.
    pub filters: Vec<(Symbol, Value)>,
}

impl EdgePattern {
    /// Does `edge` pass the type and edge-property constraints?
    #[inline]
    fn admits(&self, edge: &EdgeView<'_>) -> bool {
        self.has_type(edge.ty())
            && self
                .filters
                .iter()
                .all(|(k, want)| edge.get(*k) == Some(want))
    }

    /// Is `ty` one of the pattern's types (any, when it names none)?
    #[inline]
    fn has_type(&self, ty: Symbol) -> bool {
        self.types.is_empty() || self.types.contains(&ty)
    }

    /// The `(pattern-source, pattern-target)` orientations in which an
    /// edge `src → dst` can be a row: one, or two for a `Both` pattern
    /// over an edge that is not a self-loop.
    #[inline]
    pub fn orientations(
        &self,
        (src, dst): (VertexId, VertexId),
    ) -> impl Iterator<Item = (VertexId, VertexId)> {
        let (first, second) = match self.dir {
            Direction::Out => ((src, dst), None),
            Direction::In => ((dst, src), None),
            Direction::Both => ((src, dst), (src != dst).then_some((dst, src))),
        };
        std::iter::once(first).chain(second)
    }

    /// The edge `edge` views as a row of the pattern in orientation
    /// `s → d` (one of [`EdgePattern::orientations`]), its ends read
    /// through `vertex`, into `row`; false when there is no edge or the
    /// row fails the pattern. The target is looked up only once the
    /// source has passed.
    pub fn row_into<'g>(
        &self,
        (s, d): (VertexId, VertexId),
        edge: Option<EdgeView<'g>>,
        vertex: impl Fn(VertexId) -> Option<VertexView<'g>>,
        row: &mut Vec<Value>,
    ) -> bool {
        let Some(edge) = edge.filter(|edge| self.admits(edge)) else {
            return false;
        };
        let carries =
            |v: &VertexView<'_>, labels: &[Symbol]| labels.iter().all(|&l| v.has_label(l));
        let Some(src) = vertex(s).filter(|v| carries(v, &self.src_labels)) else {
            return false;
        };
        let Some(dst) = vertex(d).filter(|v| carries(v, &self.dst_labels)) else {
            return false;
        };
        self.assemble((s, d), &edge, (Some(&src), Some(&dst)), row);
        true
    }

    /// `edge`'s row in orientation `s → d` into `row`, its ends' pushed
    /// properties read from `ends` (`None` where that side pushes none).
    #[inline]
    fn assemble(
        &self,
        (s, d): (VertexId, VertexId),
        edge: &EdgeView<'_>,
        (src, dst): (Option<&VertexView<'_>>, Option<&VertexView<'_>>),
        row: &mut Vec<Value>,
    ) {
        let prop =
            |v: Option<&VertexView<'_>>, k: Symbol| v.map_or(Value::Null, |v| v.get_or_null(k));
        row.clear();
        row.extend([Value::Node(s), Value::Rel(edge.id()), Value::Node(d)]);
        row.extend(self.src_props.iter().map(|&k| prop(src, k)));
        row.extend(self.edge_props.iter().map(|&k| edge.get_or_null(k)));
        row.extend(self.dst_props.iter().map(|&k| prop(dst, k)));
    }

    /// How many edges [`EdgePattern::rows`] reads from `g`: its types'
    /// extents, or every edge.
    pub fn extent(&self, g: &PropertyGraph) -> usize {
        match self.types.is_empty() {
            true => g.edge_count(),
            false => self.types.iter().map(|&t| g.edges_with_type(t).len()).sum(),
        }
    }

    /// Hand every row of the pattern over `g` to `out`; returns the
    /// edges read. End labels are tested in the label index, and an end
    /// is read only for its pushed properties. Edges are read
    /// [`EDGE_BATCH`] at a time, one kind of lookup per stage — the
    /// edges, their ends' labels, the sources, the targets — so that a
    /// stage's cache misses overlap instead of each waiting behind the
    /// lookups and the consumer of the row before it.
    pub fn rows(&self, g: &PropertyGraph, mut out: impl FnMut(&[Value])) -> u64 {
        let carries = |v: VertexId, labels: &[Symbol]| labels.iter().all(|&l| g.has_label(v, l));
        let read = |v: VertexId, props: &[Symbol]| match props.is_empty() {
            true => None,
            false => g.vertex_view(v),
        };
        let all = self.types.is_empty().then(|| g.edge_ids());
        let typed = self.types.iter().flat_map(|&t| g.edges_with_type(t));
        let mut ids = all.into_iter().flatten().chain(typed.copied());
        // A batch's edges; their admitted orientations; and those
        // orientations' sources and targets, read for their props.
        let mut edges = Vec::with_capacity(EDGE_BATCH);
        let (mut hits, mut ends) = (
            Vec::with_capacity(2 * EDGE_BATCH),
            Vec::with_capacity(2 * EDGE_BATCH),
        );
        let width = 3 + self.src_props.len() + self.edge_props.len() + self.dst_props.len();
        let mut row = Vec::with_capacity(width);
        let mut total = 0;
        loop {
            edges.clear();
            edges.extend(ids.by_ref().take(EDGE_BATCH).map(|e| g.edge_view(e)));
            total += edges.len() as u64;
            hits.clear();
            for edge in edges.iter().flatten().filter(|edge| self.admits(edge)) {
                let admitted = self
                    .orientations((edge.src(), edge.dst()))
                    .filter(|&(s, d)| carries(s, &self.src_labels) && carries(d, &self.dst_labels));
                hits.extend(admitted.map(|sd| (*edge, sd)));
            }
            ends.clear();
            ends.extend(
                hits.iter()
                    .map(|&(_, (s, _))| (read(s, &self.src_props), None)),
            );
            for (&(_, (_, d)), (_, dst)) in hits.iter().zip(&mut ends) {
                *dst = read(d, &self.dst_props);
            }
            for (&(edge, sd), (src, dst)) in hits.iter().zip(&ends) {
                self.assemble(sd, &edge, (src.as_ref(), dst.as_ref()), &mut row);
                out(&row);
            }
            if edges.len() < EDGE_BATCH {
                return total;
            }
        }
    }

    /// The adjacency [`EdgePattern::rows_at`] reads for a vertex at
    /// `end`: its outgoing edges (`Out`), its incoming ones (`In`), or
    /// both.
    pub fn adjacency(&self, end: End) -> Direction {
        match (self.dir, end) {
            (dir, End::Src) => dir,
            (Direction::Out, End::Dst) => Direction::In,
            (Direction::In, End::Dst) => Direction::Out,
            (Direction::Both, End::Dst) => Direction::Both,
        }
    }

    /// The adjacency lists [`EdgePattern::rows_at`] reads for `v` at
    /// `end`.
    fn lists<'g>(&self, g: &'g PropertyGraph, v: VertexId, end: End) -> [&'g [EdgeId]; 2] {
        match self.adjacency(end) {
            Direction::Out => [g.out_edges(v), &[]],
            Direction::In => [g.in_edges(v), &[]],
            Direction::Both => [g.out_edges(v), g.in_edges(v)],
        }
    }

    /// How many adjacency entries [`EdgePattern::rows_at`] reads for
    /// `v` at `end`, whatever their type: a bound on its rows.
    pub fn degree(&self, g: &PropertyGraph, v: VertexId, end: End) -> usize {
        self.lists(g, v, end).iter().map(|l| l.len()).sum()
    }

    /// Hand the rows with one of the vertices `ids` at `end` to `out`,
    /// each vertex's read from its adjacency; returns the entries read
    /// whose edge has one of the pattern's types. A self-loop is in both
    /// of a `Both` pattern's lists; the second passes it over.
    pub fn rows_at(
        &self,
        g: &PropertyGraph,
        ids: impl Iterator<Item = VertexId>,
        end: End,
        mut out: impl FnMut(&[Value]),
    ) -> u64 {
        let mut row = Vec::new();
        let mut read = 0;
        for v in ids {
            let [first, second] = self.lists(g, v, end);
            let entries = first.iter().map(|&e| (e, false));
            for (e, again) in entries.chain(second.iter().map(|&e| (e, true))) {
                let Some(edge) = g.edge_view(e) else { continue };
                if !self.has_type(edge.ty()) || again && edge.src() == edge.dst() {
                    continue;
                }
                read += 1;
                for sd in self.orientations((edge.src(), edge.dst())) {
                    let at = match end {
                        End::Src => sd.0,
                        End::Dst => sd.1,
                    };
                    if at == v && self.row_into(sd, Some(edge), |u| g.vertex_view(u), &mut row) {
                        out(&row);
                    }
                }
            }
        }
        read
    }
}
