//! Graph statistics: the live **cardinality catalog** maintained from
//! the store's mutators, and the [`GraphStats`] summary built from it.
//!
//! The catalog is the statistics substrate of the cost-based join-order
//! planner (`pgq_algebra::plan`): label/type counts come straight from
//! the secondary indexes, and this module adds the quantities the
//! indexes cannot answer in O(1) — the maximum out-degree (via a degree
//! histogram), per-edge-type distinct source/target counts (so the
//! planner can estimate join fan-out as `|type| / distinct sources`),
//! and per-property-key distinct-value estimates (equality-filter
//! selectivity). Nothing here ever rescans vertices or edges.
//!
//! Two design points keep the write side off the transaction hot path:
//!
//! * **Deferred integration.** The store's mutators are the catalog's
//!   only writer: each appends a compact, pre-hashed `PendingDelta` (one
//!   `Vec` push) through its hook instead of touching counter maps, and
//!   a rolled-back transaction's reversal appends the opposite deltas.
//!   Deltas are integrated in order when the catalog is *read* (view
//!   registration, stats reports) or when the pending log reaches
//!   `MAX_PENDING` (4096). Writes stay at a hash plus a push (~15 ns);
//!   integration is amortised O(1) per mutation and runs outside
//!   measured transactions in steady state. An eager version that
//!   integrated at every mutation read `social_stream`'s `op_p50_us`
//!   1.016–1.034× and `ops_per_s` 0.976–0.999× of this one (worse in 6
//!   of 6 pairs; only `op_p99_us` improved, 0.98×).
//! * **Counting sketches.** Distinct counts (property values, per-type
//!   endpoints) use fixed-size bucket-count sketches with a
//!   linear-counting estimator: exact for small cardinalities (modulo a
//!   1/`SKETCH_BUCKETS` collision), O(1) memory per key, deletion-safe
//!   (buckets hold occurrence counts). They **saturate**: once all
//!   `SKETCH_BUCKETS` (256) buckets are occupied — about 1.4k distinct
//!   keys under uniform hashing, and 1 000 sequential vertex ids
//!   already do it — `distinct` returns the occurrence total, not an
//!   estimate. On the benchmark's graphs every per-type source and
//!   target count then reads `|type|` (a `KNOWS` type with 1 500
//!   distinct sources reads 5 996), so the fan-out the planner derives
//!   is 1 for every type above that size. ROADMAP item 19 tracks the
//!   fix.

use std::hash::BuildHasher;
use std::ops::Deref;
use std::sync::MutexGuard;

use pgq_common::fxhash::{FxBuildHasher, FxHashMap};
use pgq_common::ids::VertexId;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;

use crate::props::Properties;
use crate::store::PropertyGraph;

/// Buckets per counting sketch (power of two; 1 KiB of counters).
const SKETCH_BUCKETS: usize = 256;

/// Pending-log length that triggers inline integration, bounding the
/// log's memory on write-only workloads.
const MAX_PENDING: usize = 4096;

/// A deletion-safe distinct-count sketch: per-bucket occurrence counts
/// plus a linear-counting estimator over occupied buckets.
#[derive(Debug, Clone, Default, PartialEq)]
struct CountSketch {
    /// Occurrences per hash bucket (allocated on first use).
    counts: Vec<u32>,
    /// Buckets with a non-zero count.
    occupied: u32,
    /// Total tracked occurrences.
    total: u64,
}

impl CountSketch {
    #[inline]
    fn bucket(h: u64) -> usize {
        // Fx mixes the high bits best (final multiply).
        (h >> 32) as usize & (SKETCH_BUCKETS - 1)
    }

    fn add(&mut self, h: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; SKETCH_BUCKETS];
        }
        let c = &mut self.counts[Self::bucket(h)];
        if *c == 0 {
            self.occupied += 1;
        }
        *c += 1;
        self.total += 1;
    }

    /// Remove one occurrence; returns `true` when the sketch is empty
    /// afterwards (so the caller can drop it from its outer map).
    fn remove(&mut self, h: u64) -> bool {
        if let Some(c) = self.counts.get_mut(Self::bucket(h)) {
            if *c > 0 {
                *c -= 1;
                if *c == 0 {
                    self.occupied -= 1;
                }
                self.total -= 1;
            }
        }
        self.total == 0
    }

    /// Linear-counting distinct estimate: exact (after rounding) while
    /// occupancy is low, `total` once the sketch saturates.
    fn distinct(&self) -> usize {
        let k = self.occupied as usize;
        if k == 0 {
            return 0;
        }
        if k >= SKETCH_BUCKETS {
            return self.total as usize;
        }
        let n = SKETCH_BUCKETS as f64;
        let est = (-n * (1.0 - k as f64 / n).ln()).round() as usize;
        est.clamp(1, self.total as usize)
    }
}

#[inline]
fn value_hash(v: &Value) -> u64 {
    FxBuildHasher::default().hash_one(v)
}

#[inline]
fn id_hash(v: VertexId) -> u64 {
    FxBuildHasher::default().hash_one(v.0)
}

/// Per-edge-type endpoint sketches.
#[derive(Debug, Clone, Default, PartialEq)]
struct TypeCard {
    /// Distinct-source sketch.
    src: CountSketch,
    /// Distinct-target sketch.
    dst: CountSketch,
}

/// One pre-hashed statistics delta awaiting integration.
#[derive(Debug, Clone, Copy)]
enum PendingDelta {
    /// A vertex (`on_vertex`) or edge property occurrence appeared
    /// (`add`) or disappeared.
    Prop {
        /// Property key.
        key: Symbol,
        /// Hash of the property value.
        hash: u64,
        /// Vertex property (vs edge property)?
        on_vertex: bool,
        /// Appeared (vs disappeared)?
        add: bool,
    },
    /// An edge appeared (`add`) or disappeared.
    Edge {
        /// Edge type.
        ty: Symbol,
        /// Hash of the source vertex id.
        src: u64,
        /// Hash of the target vertex id.
        dst: u64,
        /// The source's out-degree *before* the mutation.
        old_out: u32,
        /// Appeared (vs disappeared)?
        add: bool,
    },
}

/// The integrated counters of the cardinality catalog.
///
/// Obtained through [`PropertyGraph::catalog`], which integrates any
/// pending deltas first; all reads below are O(1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CardinalityCatalog {
    /// Dense out-degree histogram: `out_hist[d]` = vertices with
    /// out-degree `d` (index 0 unused — degree-0 vertices are implicit;
    /// trailing zero buckets are trimmed so the form is canonical).
    out_hist: Vec<u32>,
    /// Current maximum out-degree.
    max_out: u32,
    /// Per-edge-type endpoint sketches.
    per_type: FxHashMap<Symbol, TypeCard>,
    /// Distinct-value sketches for vertex property keys.
    vprops: FxHashMap<Symbol, CountSketch>,
    /// Distinct-value sketches for edge property keys.
    eprops: FxHashMap<Symbol, CountSketch>,
}

impl CardinalityCatalog {
    /// Maximum out-degree over all vertices.
    pub(crate) fn max_out_degree(&self) -> usize {
        self.max_out as usize
    }

    /// Σ out-degree² over all vertices — the second moment of the
    /// out-degree histogram. Measures wedge blow-up: a binary join over
    /// two edge hops materialises Σ deg² intermediate wedges, so the
    /// planner compares this against the uniform-degree assumption
    /// (E²/sources) to quantify skew.
    pub fn out_degree_second_moment(&self) -> u64 {
        self.out_hist
            .iter()
            .enumerate()
            .map(|(d, &n)| (d as u64) * (d as u64) * n as u64)
            .sum()
    }

    /// Number of vertices with at least one outgoing edge (the support
    /// of the out-degree histogram).
    pub fn out_degree_source_count(&self) -> u64 {
        self.out_hist.iter().map(|&n| n as u64).sum()
    }

    /// Estimated number of distinct vertices with at least one outgoing
    /// edge of type `ty`. `|type| / distinct_sources` is the type's
    /// average out-fan-out.
    pub fn distinct_sources(&self, ty: Symbol) -> usize {
        self.per_type.get(&ty).map_or(0, |t| t.src.distinct())
    }

    /// Estimated number of distinct vertices with at least one incoming
    /// edge of type `ty`.
    pub fn distinct_targets(&self, ty: Symbol) -> usize {
        self.per_type.get(&ty).map_or(0, |t| t.dst.distinct())
    }

    /// Estimated number of distinct values stored under vertex property
    /// `key` (0 when the key is absent).
    pub fn vertex_prop_distinct(&self, key: Symbol) -> usize {
        self.vprops.get(&key).map_or(0, |c| c.distinct())
    }

    /// Estimated number of distinct values stored under edge property
    /// `key`.
    pub fn edge_prop_distinct(&self, key: Symbol) -> usize {
        self.eprops.get(&key).map_or(0, |c| c.distinct())
    }

    /// Vertex property keys currently carried by at least one vertex.
    pub fn vertex_prop_keys(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.vprops.keys().copied()
    }

    /// Edge property keys currently carried by at least one edge.
    pub fn edge_prop_keys(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.eprops.keys().copied()
    }

    /// Apply one delta. Deltas are applied in mutation order, so the
    /// degree-histogram transitions replay exactly.
    fn apply(&mut self, d: PendingDelta) {
        match d {
            PendingDelta::Prop {
                key,
                hash,
                on_vertex,
                add,
            } => {
                let map = if on_vertex {
                    &mut self.vprops
                } else {
                    &mut self.eprops
                };
                if add {
                    map.entry(key).or_default().add(hash);
                } else if let Some(c) = map.get_mut(&key) {
                    if c.remove(hash) {
                        map.remove(&key);
                    }
                }
            }
            PendingDelta::Edge {
                ty,
                src,
                dst,
                old_out,
                add,
            } => {
                if add {
                    let t = self.per_type.entry(ty).or_default();
                    t.src.add(src);
                    t.dst.add(dst);
                    self.degree_transition(old_out, old_out + 1);
                } else {
                    if let Some(t) = self.per_type.get_mut(&ty) {
                        let src_empty = t.src.remove(src);
                        let dst_empty = t.dst.remove(dst);
                        if src_empty && dst_empty {
                            self.per_type.remove(&ty);
                        }
                    }
                    self.degree_transition(old_out, old_out - 1);
                }
            }
        }
    }

    /// Move one vertex between out-degree histogram buckets (degree 0 is
    /// implicit). The max tracker only ever rises by one per insertion,
    /// so the decrement walk below is amortised O(1).
    fn degree_transition(&mut self, from: u32, to: u32) {
        if from > 0 {
            self.out_hist[from as usize] -= 1;
        }
        if to > 0 {
            if self.out_hist.len() <= to as usize {
                self.out_hist.resize(to as usize + 1, 0);
            }
            self.out_hist[to as usize] += 1;
            if to > self.max_out {
                self.max_out = to;
            }
        }
        while self.max_out > 0 && self.out_hist[self.max_out as usize] == 0 {
            self.max_out -= 1;
        }
        // Keep the representation canonical (== a from-scratch rebuild):
        // no trailing zero buckets. `truncate` never reallocates.
        if self.max_out == 0 {
            self.out_hist.clear();
        } else {
            self.out_hist.truncate(self.max_out as usize + 1);
        }
    }
}

/// The store-owned catalog cell: integrated counters plus the pending
/// delta log. Store mutators append through the `on_*` hooks (cheap:
/// hash + push); readers integrate through [`PropertyGraph::catalog`].
#[derive(Debug, Default, Clone)]
pub(crate) struct CatalogCell {
    counters: CardinalityCatalog,
    pending: Vec<PendingDelta>,
}

impl CatalogCell {
    #[inline]
    pub(crate) fn on_vertex_added(&mut self, props: &Properties) {
        if !props.is_empty() {
            self.push_props(props, true, true);
            self.maybe_integrate();
        }
    }

    #[inline]
    pub(crate) fn on_vertex_removed(&mut self, props: &Properties) {
        if !props.is_empty() {
            self.push_props(props, true, false);
            self.maybe_integrate();
        }
    }

    fn push_props(&mut self, props: &Properties, on_vertex: bool, add: bool) {
        for (key, v) in props.iter() {
            self.push_prop_delta(key, v, on_vertex, add);
        }
    }

    /// Append one property-occurrence delta.
    #[inline]
    fn push_prop_delta(&mut self, key: Symbol, v: &Value, on_vertex: bool, add: bool) {
        self.pending.push(PendingDelta::Prop {
            key,
            hash: value_hash(v),
            on_vertex,
            add,
        });
    }

    /// Append one edge-appeared/disappeared delta; the hooks push the
    /// edge's properties after it.
    #[inline]
    fn push_edge_delta(
        &mut self,
        ty: Symbol,
        src: VertexId,
        dst: VertexId,
        old_src_out: usize,
        add: bool,
    ) {
        self.pending.push(PendingDelta::Edge {
            ty,
            src: id_hash(src),
            dst: id_hash(dst),
            old_out: old_src_out as u32,
            add,
        });
    }

    /// `old_src_out` is the source's out-degree *before* this edge.
    #[inline]
    pub(crate) fn on_edge_added(
        &mut self,
        ty: Symbol,
        src: VertexId,
        dst: VertexId,
        old_src_out: usize,
        props: &Properties,
    ) {
        self.push_edge_delta(ty, src, dst, old_src_out, true);
        if !props.is_empty() {
            self.push_props(props, false, true);
        }
        self.maybe_integrate();
    }

    /// `old_src_out` is the source's out-degree *before* the removal.
    #[inline]
    pub(crate) fn on_edge_removed(
        &mut self,
        ty: Symbol,
        src: VertexId,
        dst: VertexId,
        old_src_out: usize,
        props: &Properties,
    ) {
        self.push_edge_delta(ty, src, dst, old_src_out, false);
        if !props.is_empty() {
            self.push_props(props, false, false);
        }
        self.maybe_integrate();
    }

    #[inline]
    pub(crate) fn on_vertex_prop_changed(&mut self, key: Symbol, old: &Value, new: &Value) {
        self.push_prop_change(key, old, new, true);
    }

    #[inline]
    pub(crate) fn on_edge_prop_changed(&mut self, key: Symbol, old: &Value, new: &Value) {
        self.push_prop_change(key, old, new, false);
    }

    fn push_prop_change(&mut self, key: Symbol, old: &Value, new: &Value, on_vertex: bool) {
        if !old.is_null() {
            self.push_prop_delta(key, old, on_vertex, false);
        }
        if !new.is_null() {
            self.push_prop_delta(key, new, on_vertex, true);
        }
        self.maybe_integrate();
    }

    #[inline]
    fn maybe_integrate(&mut self) {
        if self.pending.len() >= MAX_PENDING {
            self.integrate();
        }
    }

    /// Fold every pending delta into the counters, in mutation order.
    pub(crate) fn integrate(&mut self) {
        for i in 0..self.pending.len() {
            let d = self.pending[i];
            self.counters.apply(d);
        }
        self.pending.clear();
    }
}

/// Read guard over the integrated [`CardinalityCatalog`] (see
/// [`PropertyGraph::catalog`]).
pub struct CatalogRef<'a>(MutexGuard<'a, CatalogCell>);

impl Deref for CatalogRef<'_> {
    type Target = CardinalityCatalog;

    fn deref(&self) -> &CardinalityCatalog {
        &self.0.counters
    }
}

impl std::fmt::Debug for CatalogRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PropertyGraph {
    /// The live cardinality catalog (degree histogram, per-type distinct
    /// endpoints, distinct property values), integrated up to the last
    /// committed mutation.
    ///
    /// Mutators append compact pre-hashed deltas; this accessor
    /// integrates them (amortised O(1) per mutation since the last
    /// read) and returns a read guard. Registration-time snapshots and
    /// stats reports pay the integration; measured transactions never
    /// do.
    pub fn catalog(&self) -> CatalogRef<'_> {
        let mut guard = self
            .catalog_cell()
            .lock()
            .expect("catalog mutex poisoned (a catalog update panicked)");
        guard.integrate();
        CatalogRef(guard)
    }
}

/// Recompute the catalog from scratch — the ground truth the deferred
/// counter maintenance must never drift from. Test-only: production
/// code reads the incrementally maintained counters.
#[cfg(test)]
pub(crate) fn rescan_catalog(g: &PropertyGraph) -> CardinalityCatalog {
    let mut cell = CatalogCell::default();
    for v in g.vertex_ids() {
        cell.on_vertex_added(&g.vertex(v).expect("listed vertex exists").props);
    }
    let mut degrees: FxHashMap<VertexId, usize> = FxHashMap::default();
    for e in g.edge_ids() {
        let d = g.edge(e).expect("listed edge exists");
        let deg = degrees.entry(d.src).or_insert(0);
        cell.on_edge_added(d.ty, d.src, d.dst, *deg, &d.props);
        *deg += 1;
    }
    cell.integrate();
    cell.counters
}

/// Aggregate statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Total vertices.
    pub vertices: usize,
    /// Total edges.
    pub edges: usize,
    /// `(label, count)` pairs sorted by label name.
    pub label_counts: Vec<(Symbol, usize)>,
    /// `(edge type, count)` pairs sorted by type name.
    pub type_counts: Vec<(Symbol, usize)>,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Average out-degree.
    pub avg_out_degree: f64,
}

impl GraphStats {
    /// Compute statistics for `g`. Reads the label/type indexes and the
    /// live [`CardinalityCatalog`] — O(labels + types + pending deltas),
    /// never O(V + E).
    pub fn of(g: &PropertyGraph) -> GraphStats {
        let mut label_counts: Vec<(Symbol, usize)> = g
            .labels()
            .map(|l| (l, g.vertices_with_label(l).len()))
            .filter(|(_, n)| *n > 0)
            .collect();
        label_counts.sort_by_key(|(l, _)| l.resolve());
        let mut type_counts: Vec<(Symbol, usize)> = g
            .edge_types()
            .map(|t| (t, g.edges_with_type(t).len()))
            .filter(|(_, n)| *n > 0)
            .collect();
        type_counts.sort_by_key(|(t, _)| t.resolve());

        let n = g.vertex_count();
        GraphStats {
            vertices: n,
            edges: g.edge_count(),
            label_counts,
            type_counts,
            max_out_degree: g.catalog().max_out_degree(),
            avg_out_degree: if n == 0 {
                0.0
            } else {
                // Every edge contributes exactly one outgoing endpoint.
                g.edge_count() as f64 / n as f64
            },
        }
    }

    /// The pre-catalog O(V + E) rescan, kept as the test oracle for
    /// [`GraphStats::of`].
    #[cfg(test)]
    fn of_rescan(g: &PropertyGraph) -> GraphStats {
        let mut from_catalog = GraphStats::of(g);
        let mut max_out = 0usize;
        let mut total_out = 0usize;
        for v in g.vertex_ids() {
            let d = g.out_edges(v).len();
            max_out = max_out.max(d);
            total_out += d;
        }
        from_catalog.max_out_degree = max_out;
        from_catalog.avg_out_degree = if g.vertex_count() == 0 {
            0.0
        } else {
            total_out as f64 / g.vertex_count() as f64
        };
        from_catalog
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "|V| = {}, |E| = {}", self.vertices, self.edges)?;
        for (l, n) in &self.label_counts {
            writeln!(f, "  :{l} × {n}")?;
        }
        for (t, n) in &self.type_counts {
            writeln!(f, "  [:{t}] × {n}")?;
        }
        write!(
            f,
            "  out-degree: avg {:.2}, max {}",
            self.avg_out_degree, self.max_out_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::Properties;
    use crate::store::GraphError;
    use crate::tx::Transaction;
    use pgq_common::ids::EdgeId;
    use proptest::prelude::*;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn stats_of_small_graph() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex([s("Post")], Properties::new());
        let (b, _) = g.add_vertex([s("Comm")], Properties::new());
        let (c, _) = g.add_vertex([s("Comm")], Properties::new());
        g.add_edge(a, b, s("REPLY"), Properties::new()).unwrap();
        g.add_edge(b, c, s("REPLY"), Properties::new()).unwrap();

        let st = GraphStats::of(&g);
        assert_eq!(st.vertices, 3);
        assert_eq!(st.edges, 2);
        assert!(st.label_counts.contains(&(s("Comm"), 2)));
        assert_eq!(st.max_out_degree, 1);
        assert!((st.avg_out_degree - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_stats() {
        let st = GraphStats::of(&PropertyGraph::new());
        assert_eq!(st.vertices, 0);
        assert_eq!(st.avg_out_degree, 0.0);
    }

    #[test]
    fn catalog_tracks_type_endpoints_and_props() {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex(
            [s("User")],
            Properties::from_iter([("lang", Value::str("en"))]),
        );
        let (b, _) = g.add_vertex(
            [s("User")],
            Properties::from_iter([("lang", Value::str("en"))]),
        );
        let (c, _) = g.add_vertex(
            [s("User")],
            Properties::from_iter([("lang", Value::str("de"))]),
        );
        g.add_edge(a, b, s("KNOWS"), Properties::new()).unwrap();
        g.add_edge(a, c, s("KNOWS"), Properties::new()).unwrap();
        let (e, _) = g.add_edge(b, c, s("LIKES"), Properties::new()).unwrap();

        {
            let cat = g.catalog();
            assert_eq!(cat.distinct_sources(s("KNOWS")), 1, "only `a` knows");
            assert_eq!(cat.distinct_targets(s("KNOWS")), 2);
            assert_eq!(cat.vertex_prop_distinct(s("lang")), 2, "en + de");
            assert_eq!(cat.vprops[&s("lang")].total, 3);
            assert_eq!(cat.max_out_degree(), 2);
        }

        // Deletion unwinds every counter.
        g.remove_edge(e).unwrap();
        assert_eq!(g.catalog().distinct_sources(s("LIKES")), 0);
        g.set_vertex_prop(c, s("lang"), Value::str("en")).unwrap();
        assert_eq!(g.catalog().vertex_prop_distinct(s("lang")), 1);
        g.set_vertex_prop(c, s("lang"), Value::Null).unwrap();
        assert_eq!(g.catalog().vprops[&s("lang")].total, 2);
    }

    /// One random catalog-relevant step of a transaction. Indices are
    /// reduced modulo the transaction's live population when the step is
    /// queued, so a step can name what an earlier step of the same
    /// transaction created. `CreateSetDelete` creates a vertex, sets its
    /// properties and deletes it; `SetTwice` sets one vertex's property
    /// twice; `EdgeThenDetach` adds an edge and detach-deletes its
    /// source; `FailingTx` does real work and then an op that fails, so
    /// the whole transaction rolls back.
    #[derive(Clone, Debug)]
    enum Op {
        AddVertex {
            lang: usize,
            score: Option<i64>,
        },
        AddEdge {
            from: usize,
            to: usize,
            ty: usize,
        },
        DeleteVertex {
            pick: usize,
        },
        DeleteEdge {
            pick: usize,
        },
        SetProp {
            pick: usize,
            lang: usize,
        },
        ClearProp {
            pick: usize,
        },
        SetEdgeProp {
            pick: usize,
            weight: i64,
        },
        CreateSetDelete {
            lang: usize,
        },
        SetTwice {
            pick: usize,
            first: usize,
            second: usize,
        },
        EdgeThenDetach {
            from: usize,
            to: usize,
            ty: usize,
        },
        FailingTx,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..4usize, 0..6i64).prop_map(|(lang, score)| Op::AddVertex {
                lang,
                score: (score < 5).then_some(score),
            }),
            (any::<usize>(), any::<usize>(), 0..3usize).prop_map(|(from, to, ty)| Op::AddEdge {
                from,
                to,
                ty
            }),
            any::<usize>().prop_map(|pick| Op::DeleteVertex { pick }),
            any::<usize>().prop_map(|pick| Op::DeleteEdge { pick }),
            (any::<usize>(), 0..4usize).prop_map(|(pick, lang)| Op::SetProp { pick, lang }),
            any::<usize>().prop_map(|pick| Op::ClearProp { pick }),
            (any::<usize>(), 0..5i64).prop_map(|(pick, weight)| Op::SetEdgeProp { pick, weight }),
            (0..4usize).prop_map(|lang| Op::CreateSetDelete { lang }),
            (any::<usize>(), 0..4usize, 0..4usize).prop_map(|(pick, first, second)| {
                Op::SetTwice {
                    pick,
                    first,
                    second,
                }
            }),
            (any::<usize>(), any::<usize>(), 0..3usize)
                .prop_map(|(from, to, ty)| Op::EdgeThenDetach { from, to, ty }),
            Just(Op::FailingTx),
        ]
    }

    const LANGS: &[&str] = &["en", "de", "fr", "hu"];
    const TYPES: &[&str] = &["KNOWS", "LIKES", "REPLY"];

    /// What a transaction being queued can name: the graph's elements
    /// before it, plus what its earlier steps created, less what they
    /// deleted. The k-th vertex (edge) a transaction creates gets the
    /// id-allocation watermark plus k, so later steps name it by id.
    struct Live {
        vertices: Vec<VertexId>,
        edges: Vec<(EdgeId, VertexId, VertexId)>,
        next: (u64, u64),
    }

    impl Live {
        fn of(g: &PropertyGraph) -> Live {
            let mut vertices: Vec<_> = g.vertex_ids().collect();
            vertices.sort_unstable();
            let mut edges: Vec<_> = g.edges().map(|(e, d)| (e, d.src, d.dst)).collect();
            edges.sort_unstable();
            Live {
                vertices,
                edges,
                next: g.id_watermarks(),
            }
        }

        fn vertex(&self, pick: usize) -> Option<VertexId> {
            (!self.vertices.is_empty()).then(|| self.vertices[pick % self.vertices.len()])
        }

        fn edge(&self, pick: usize) -> Option<EdgeId> {
            (!self.edges.is_empty()).then(|| self.edges[pick % self.edges.len()].0)
        }

        fn create_vertex(&mut self, tx: &mut Transaction, props: Properties) -> VertexId {
            tx.create_vertex([s("N")], props);
            let v = VertexId(self.next.0);
            self.next.0 += 1;
            self.vertices.push(v);
            v
        }

        fn create_edge(&mut self, tx: &mut Transaction, src: VertexId, dst: VertexId, ty: usize) {
            tx.create_edge(
                src,
                dst,
                s(TYPES[ty]),
                Properties::from_iter([("w", Value::Int(ty as i64))]),
            );
            self.edges.push((EdgeId(self.next.1), src, dst));
            self.next.1 += 1;
        }

        fn delete_vertex(&mut self, tx: &mut Transaction, v: VertexId) {
            tx.delete_vertex(v, true);
            self.vertices.retain(|&u| u != v);
            // Detach: every edge with `v` at either end goes too.
            self.edges.retain(|&(_, src, dst)| src != v && dst != v);
        }

        /// Queue `op`; returns `true` when it makes the transaction fail.
        fn queue(&mut self, tx: &mut Transaction, op: &Op) -> bool {
            let lang = |i: usize| Value::str(LANGS[i % LANGS.len()]);
            match *op {
                Op::AddVertex { lang: l, score } => {
                    let mut props = Properties::from_iter([("lang", lang(l))]);
                    if let Some(sc) = score {
                        props.set(s("score"), Value::Int(sc));
                    }
                    self.create_vertex(tx, props);
                }
                Op::AddEdge { from, to, ty } => {
                    if let (Some(a), Some(b)) = (self.vertex(from), self.vertex(to)) {
                        self.create_edge(tx, a, b, ty);
                    }
                }
                Op::DeleteVertex { pick } => {
                    if let Some(v) = self.vertex(pick) {
                        self.delete_vertex(tx, v);
                    }
                }
                Op::DeleteEdge { pick } => {
                    if let Some(e) = self.edge(pick) {
                        tx.delete_edge(e);
                        self.edges.retain(|&(x, _, _)| x != e);
                    }
                }
                Op::SetProp { pick, lang: l } => {
                    if let Some(v) = self.vertex(pick) {
                        tx.set_vertex_prop(v, s("lang"), lang(l));
                    }
                }
                Op::ClearProp { pick } => {
                    if let Some(v) = self.vertex(pick) {
                        tx.set_vertex_prop(v, s("lang"), Value::Null);
                    }
                }
                Op::SetEdgeProp { pick, weight } => {
                    if let Some(e) = self.edge(pick) {
                        tx.set_edge_prop(e, s("w"), Value::Int(weight));
                    }
                }
                Op::CreateSetDelete { lang: l } => {
                    let v = self.create_vertex(tx, Properties::from_iter([("lang", lang(l))]));
                    tx.set_vertex_prop(v, s("lang"), lang(l + 1));
                    tx.set_vertex_prop(v, s("score"), Value::Int(l as i64));
                    self.delete_vertex(tx, v);
                }
                Op::SetTwice {
                    pick,
                    first,
                    second,
                } => {
                    if let Some(v) = self.vertex(pick) {
                        tx.set_vertex_prop(v, s("lang"), lang(first));
                        tx.set_vertex_prop(v, s("lang"), lang(second));
                    }
                }
                Op::EdgeThenDetach { from, to, ty } => {
                    if let (Some(a), Some(b)) = (self.vertex(from), self.vertex(to)) {
                        self.create_edge(tx, a, b, ty);
                        self.delete_vertex(tx, a);
                    }
                }
                Op::FailingTx => {
                    let v =
                        self.create_vertex(tx, Properties::from_iter([("lang", Value::str("zz"))]));
                    tx.create_edge(v, v, s("KNOWS"), Properties::new());
                    tx.delete_edge(EdgeId(u64::MAX));
                    return true;
                }
            }
            false
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 32,
            ..ProptestConfig::default()
        })]

        /// The tentpole invariant: across randomized scripts of 1–6-step
        /// transactions — steps that create, set and delete one element,
        /// set a property twice, or add an edge and then detach-delete
        /// its source, and failing transactions that exercise the
        /// rollback path — the counters the mutators keep never drift
        /// from a from-scratch rescan, a failed transaction leaves them
        /// exactly where they were, and the catalog-backed
        /// [`GraphStats::of`] equals the old O(V+E) computation.
        #[test]
        fn catalog_never_drifts_from_rescan(
            txs in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..7), 1..16),
        ) {
            let mut g = PropertyGraph::new();
            for steps in &txs {
                let mut live = Live::of(&g);
                let mut tx = Transaction::new();
                let mut fails = false;
                for op in steps {
                    fails |= live.queue(&mut tx, op);
                }
                let before = g.catalog().clone();
                let result = g.apply(&tx);
                if fails {
                    prop_assert!(
                        matches!(result, Err(GraphError::EdgeNotFound(_))),
                        "{:?} gave {:?}",
                        steps,
                        result
                    );
                    prop_assert_eq!(
                        &*g.catalog(),
                        &before,
                        "a rolled-back transaction moved the catalog: {:?}",
                        steps
                    );
                } else {
                    prop_assert!(result.is_ok(), "{:?} gave {:?}", steps, result);
                }
                prop_assert_eq!(
                    &*g.catalog(),
                    &rescan_catalog(&g),
                    "catalog drifted after {:?}",
                    steps
                );
                prop_assert_eq!(GraphStats::of(&g), GraphStats::of_rescan(&g));
            }
        }
    }
}
