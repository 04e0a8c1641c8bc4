//! Statistics-driven, cost-based join-order planning over FRA.
//!
//! The compiler ([`crate::pipeline`]) emits FRA in the *syntactic* order
//! the query was written in: a query that mentions a huge fan-out edge
//! type first pays for it in every join memory and on every
//! transaction. This module reorders the plan using a snapshot of live
//! graph statistics ([`PlanStats`], fed from `pgq_graph`'s cardinality
//! catalog) **before** canonicalisation, so that
//!
//! * equal inputs still produce equal shapes (planning is a
//!   deterministic function of the plan *structure* and the snapshot —
//!   variable names never influence a decision, so alpha-equivalent
//!   queries plan identically and hash-consing keeps sharing), and
//! * the canon machinery's column-bijection bookkeeping absorbs the
//!   planner's permutation for free: [`plan`] always returns a plan
//!   with the *same output schema* as its input (appending a restoring
//!   projection when the chosen order permutes columns — a projection
//!   canonicalisation later folds into its mapping).
//!
//! # What is planned
//!
//! A maximal *region* of reorderable operators is flattened at each
//! [`Fra::HashJoin`] / [`Fra::Filter`] / [`Fra::SemiJoin`] /
//! [`Fra::VarLengthJoin`] root into
//!
//! * **factors** — the non-join inputs (scans, or opaque subplans such
//!   as aggregates, each planned recursively),
//! * **join edges** — equi-join key pairs between factor columns (a join
//!   keys on every equality class of them both its sides hold),
//! * **appliers** — filter conjuncts and semijoin reductions, applied
//!   at the earliest point where their columns are available (which
//!   reproduces filter push-down inside the region), and
//! * **expansions** — variable-length joins, anchored at the factor
//!   providing their source column; the enumerator chooses *when* to
//!   expand (the ⋈* anchor-side decision).
//!
//! Orders are enumerated with exact dynamic programming over subsets
//! for at most `MAX_DP_UNITS` units and greedy minimum-cost-expansion
//! above, minimising total estimated intermediate cardinality — the
//! quantity that drives both join-memory size and per-transaction delta
//! fan-out in the IVM network.
//!
//! # Estimator
//!
//! `estimate` assigns every operator an expected output cardinality:
//! scans from label/type extents, filters from distinct-value
//! selectivities, joins from per-column distinct estimates (vertex
//! columns by label count, edge endpoints by the catalog's per-type
//! distinct source/target counts — i.e. real fan-out, not |V|), ⋈* from
//! per-type average degree raised to the hop range. The numbers are
//! coarse; only their *relative order* matters, and the estimator is
//! deliberately monotone in the catalog inputs so skew shows up.

use pgq_common::fxhash::FxHashMap;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_parser::ast::BinOp;

use crate::expr::ScalarExpr;
use crate::fra::{Fra, VarLenSpec};

/// Exact DP is run when a region has at most this many units (factors +
/// expansions); larger regions fall back to greedy ordering.
pub(crate) const MAX_DP_UNITS: usize = 8;

/// Per-tuple overhead multiplier of the n-ary leapfrog intersection
/// relative to a binary hash-join probe, applied to the level-walk cost
/// estimate before it is compared against the binary-tree cost. A
/// leapfrog level seeks every participating cursor (binary-search hops
/// through sorted runs) where a hash join pays one probe, so the fused
/// node has to win by at least this factor on raw tuple counts.
/// Calibrated against the certified motif suites: triangles
/// (n-ary/binary raw ratio ≈ 2.4–2.9 at measured scales) must fuse,
/// 4-cycles (ratio ≈ 4.8–7.1) must not — until skew says otherwise.
pub(crate) const WCOJ_OVERHEAD: f64 = 2.4;

/// Memory escape hatch: fuse regardless of time estimates when the
/// binary tree's resident intermediates exceed this multiple of the
/// fused node's input memories. The fused node stores only its inputs
/// (no wedges), so on blow-up-prone patterns memory becomes the binding
/// constraint long before time does.
pub(crate) const WCOJ_MEM_RATIO: f64 = 16.0;

/// Catalog threshold for the ⨝ⁿ *intersection backend* default: fused
/// nodes use the sorted-run sub-indexes (leapfrog with galloping seeks)
/// when [`PlanStats::out_degree_skew`] is at least this, and the
/// hash-bucket tries below it. Galloping pays on hub-skewed adjacency
/// (seeks are O(log degree) where hash probing is O(degree) per
/// intersection); on low-skew graphs the candidate lists are short and
/// the leapfrog cursor constant costs ~10% instead. Calibrated on the
/// certified workloads: the motif catalogs measure skew 4–13 (hash
/// tries win there), the two-hub catalogs clamp at 64 (sorted runs win
/// ≥ 2× at 10k-degree hubs).
pub const SORTED_BACKEND_MIN_SKEW: f64 = 24.0;

/// When does the planner fuse a *cyclic* join region into a single
/// worst-case optimal [`Fra::MultiwayJoin`]? Acyclic regions always
/// keep the binary path (the planner threshold): binary plans are
/// already worst-case optimal there, and the binary operators have the
/// leaner per-delta constant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WcojMode {
    /// Never fuse — every region plans as a binary join tree (the
    /// binary-tree twin of the differential oracles, and the one-shot
    /// path, whose evaluator gains nothing from ⨝ⁿ).
    Disabled,
    /// Fuse an eligible cyclic region only when the estimated n-ary
    /// intersection cost beats the skew-adjusted binary-tree cost, or
    /// the binary tree's join memories dwarf the n-ary memories (the
    /// memory-binding escape hatch). Both estimates come from the
    /// statistics snapshot and are surfaced by `EXPLAIN` (its
    /// `wcoj: cyclic region` lines).
    #[default]
    CostBased,
    /// Fuse every eligible cyclic region unconditionally — the pre-gate
    /// behaviour, kept for benchmarks and tests that pin the fused
    /// operator regardless of what the catalog says.
    Forced,
}

/// Knobs for [`plan_with`]. The defaults match [`plan`].
#[derive(Clone, Debug, Default)]
pub struct PlanOptions {
    /// Fusion policy for cyclic join regions.
    pub wcoj: WcojMode,
}

/// A snapshot of graph statistics taken at view-registration time.
///
/// Filled from `pgq_graph`'s live cardinality catalog (label/type
/// extents, per-type distinct endpoints, distinct property values) by
/// the IVM layer. The snapshot is **not** refreshed afterwards: a plan
/// chosen at registration stays fixed even as the graph drifts (the
/// staleness contract documented in ARCHITECTURE.md — re-register a
/// view to replan).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanStats {
    /// Total vertices.
    pub vertices: u64,
    /// Total edges.
    pub edges: u64,
    /// Vertices per label.
    pub label_counts: FxHashMap<Symbol, u64>,
    /// Edges per type.
    pub type_counts: FxHashMap<Symbol, u64>,
    /// Distinct source vertices per edge type.
    pub type_distinct_src: FxHashMap<Symbol, u64>,
    /// Distinct target vertices per edge type.
    pub type_distinct_dst: FxHashMap<Symbol, u64>,
    /// Estimated distinct values per vertex property key.
    pub vertex_prop_distinct: FxHashMap<Symbol, u64>,
    /// Estimated distinct values per edge property key.
    pub edge_prop_distinct: FxHashMap<Symbol, u64>,
    /// Σ out-degree² over all vertices, from the catalog's dense
    /// out-degree histogram (0 = unknown). The second moment measures
    /// wedge blow-up: a binary join tree on a cyclic pattern
    /// materialises Θ(Σ deg²) wedges while the uniform-degree estimate
    /// assumes E²/sources.
    pub out_degree_sq_sum: u64,
    /// Vertices with at least one outgoing edge (0 = unknown).
    pub out_degree_sources: u64,
}

impl PlanStats {
    /// Cardinality of a conjunctive label set (|V| when empty).
    fn label_card(&self, labels: &[Symbol]) -> f64 {
        labels
            .iter()
            .map(|l| self.label_counts.get(l).copied().unwrap_or(0) as f64)
            .fold(self.vertices as f64, f64::min)
            .max(1.0)
    }

    /// Selectivity of requiring a label set on a vertex column.
    fn label_sel(&self, labels: &[Symbol]) -> f64 {
        if labels.is_empty() {
            return 1.0;
        }
        (self.label_card(labels) / (self.vertices as f64).max(1.0)).clamp(1e-9, 1.0)
    }

    /// Cardinality of a disjunctive edge-type set (|E| when empty).
    fn type_card(&self, types: &[Symbol]) -> f64 {
        if types.is_empty() {
            return (self.edges as f64).max(1.0);
        }
        types
            .iter()
            .map(|t| self.type_counts.get(t).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            .max(1.0)
    }

    fn distinct_src(&self, types: &[Symbol]) -> f64 {
        if types.is_empty() {
            return (self.vertices as f64).max(1.0);
        }
        types
            .iter()
            .map(|t| self.type_distinct_src.get(t).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            .max(1.0)
    }

    fn distinct_dst(&self, types: &[Symbol]) -> f64 {
        if types.is_empty() {
            return (self.vertices as f64).max(1.0);
        }
        types
            .iter()
            .map(|t| self.type_distinct_dst.get(t).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            .max(1.0)
    }

    /// Out-degree skew: the measured second moment Σ deg² over the
    /// uniform-degree second moment E²/sources. 1.0 on regular graphs;
    /// grows with hub weight (a single d-degree hub among m edges
    /// contributes ≈ d²·sources/m²). Clamped — one extreme hub should
    /// decide the fuse gate, not drown every other term.
    pub fn out_degree_skew(&self) -> f64 {
        let e = self.edges as f64;
        if e < 1.0 || self.out_degree_sq_sum == 0 || self.out_degree_sources == 0 {
            return 1.0;
        }
        let uniform = e * e / self.out_degree_sources as f64;
        (self.out_degree_sq_sum as f64 / uniform.max(1.0)).clamp(1.0, 64.0)
    }

    /// Average per-source fan-out when traversing `types` in `dir`.
    fn fanout(&self, spec: &VarLenSpec) -> f64 {
        use pgq_common::dir::Direction;
        let card = self.type_card(&spec.types);
        match spec.dir {
            Direction::Out => card / self.distinct_src(&spec.types),
            Direction::In => card / self.distinct_dst(&spec.types),
            Direction::Both => {
                2.0 * card / (self.distinct_src(&spec.types) + self.distinct_dst(&spec.types))
            }
        }
        .max(0.01)
    }
}

/// Provenance of one output column, used to estimate its distinct count.
#[derive(Clone, Debug)]
enum ColInfo {
    /// A vertex reference constrained to `labels`.
    Vertex { labels: Vec<Symbol> },
    /// An edge reference (unique per scanned edge).
    EdgeId,
    /// The source endpoint of an edge scan.
    Src {
        types: Vec<Symbol>,
        labels: Vec<Symbol>,
    },
    /// The target endpoint of an edge scan.
    Dst {
        types: Vec<Symbol>,
        labels: Vec<Symbol>,
    },
    /// A pushed property value.
    Prop { key: Symbol, on_vertex: bool },
    /// Anything else (computed expressions, paths, maps).
    Other,
}

impl ColInfo {
    /// Estimated distinct values of this column in a relation of `card`
    /// rows.
    fn distinct(&self, card: f64, stats: &PlanStats) -> f64 {
        let raw = match self {
            ColInfo::Vertex { labels } => stats.label_card(labels),
            ColInfo::EdgeId => card,
            ColInfo::Src { types, labels } => {
                stats.distinct_src(types).min(stats.label_card(labels))
            }
            ColInfo::Dst { types, labels } => {
                stats.distinct_dst(types).min(stats.label_card(labels))
            }
            ColInfo::Prop { key, on_vertex } => {
                let d = if *on_vertex {
                    stats.vertex_prop_distinct.get(key).copied().unwrap_or(0)
                } else {
                    stats.edge_prop_distinct.get(key).copied().unwrap_or(0)
                } as f64;
                if d >= 1.0 {
                    d
                } else {
                    card.sqrt()
                }
            }
            ColInfo::Other => card.sqrt(),
        };
        raw.clamp(1.0, card.max(1.0))
    }
}

/// Cardinality + per-column provenance of a subplan.
#[derive(Clone, Debug)]
struct Rel {
    card: f64,
    cols: Vec<ColInfo>,
}

/// Estimated output cardinality of `fra` under `stats`.
pub(crate) fn estimate(fra: &Fra, stats: &PlanStats) -> f64 {
    analyze(fra, stats).card
}

fn analyze(fra: &Fra, stats: &PlanStats) -> Rel {
    match fra {
        Fra::Unit => Rel {
            card: 1.0,
            cols: vec![],
        },
        Fra::ScanVertices { labels, props, .. } => {
            let mut cols = vec![ColInfo::Vertex {
                labels: labels.clone(),
            }];
            cols.extend(props.iter().map(|p| ColInfo::Prop {
                key: p.prop,
                on_vertex: true,
            }));
            Rel {
                card: stats.label_card(labels),
                cols,
            }
        }
        Fra::ScanEdges {
            types,
            src_labels,
            dst_labels,
            src_props,
            edge_props,
            dst_props,
            dir,
            ..
        } => {
            let orientations = if *dir == pgq_common::dir::Direction::Both {
                2.0
            } else {
                1.0
            };
            let card = (stats.type_card(types)
                * stats.label_sel(src_labels)
                * stats.label_sel(dst_labels)
                * orientations)
                .max(1e-6);
            let mut cols = vec![
                ColInfo::Src {
                    types: types.clone(),
                    labels: src_labels.clone(),
                },
                ColInfo::EdgeId,
                ColInfo::Dst {
                    types: types.clone(),
                    labels: dst_labels.clone(),
                },
            ];
            for p in src_props {
                cols.push(ColInfo::Prop {
                    key: p.prop,
                    on_vertex: true,
                });
            }
            for p in edge_props {
                cols.push(ColInfo::Prop {
                    key: p.prop,
                    on_vertex: false,
                });
            }
            for p in dst_props {
                cols.push(ColInfo::Prop {
                    key: p.prop,
                    on_vertex: true,
                });
            }
            Rel { card, cols }
        }
        Fra::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            let l = analyze(left, stats);
            let r = analyze(right, stats);
            let card = join_card(&l, &r, left_keys, right_keys, stats);
            let mut cols = l.cols;
            for (i, c) in r.cols.into_iter().enumerate() {
                if !right_keys.contains(&i) {
                    cols.push(c);
                }
            }
            Rel { card, cols }
        }
        Fra::SemiJoin { left, anti, .. } => {
            let l = analyze(left, stats);
            Rel {
                card: (l.card * if *anti { 0.3 } else { 0.5 }).max(1e-6),
                cols: l.cols,
            }
        }
        Fra::VarLengthJoin { left, spec, .. } => {
            let l = analyze(left, stats);
            let card =
                (l.card * expansion_multiplier(spec, stats) * stats.label_sel(&spec.dst_labels))
                    .max(1e-6);
            let mut cols = l.cols;
            cols.extend(expansion_cols(spec));
            Rel { card, cols }
        }
        Fra::Filter { input, predicate } => {
            let i = analyze(input, stats);
            let sel = selectivity(predicate, &i, stats);
            Rel {
                card: (i.card * sel).max(1e-6),
                cols: i.cols,
            }
        }
        Fra::Project { input, items } => {
            let i = analyze(input, stats);
            Rel {
                card: i.card,
                cols: projected_cols(items, &i.cols),
            }
        }
        Fra::Distinct { input } => {
            let i = analyze(input, stats);
            let mut distinct = 1.0f64;
            for c in &i.cols {
                distinct = (distinct * c.distinct(i.card, stats)).min(i.card);
            }
            Rel {
                card: distinct.max(1e-6),
                cols: i.cols,
            }
        }
        Fra::Aggregate { input, group, aggs } => {
            let i = analyze(input, stats);
            let mut groups = 1.0f64;
            for (e, _) in group {
                let d = match e {
                    ScalarExpr::Col(c) => i
                        .cols
                        .get(*c)
                        .map_or(i.card.sqrt(), |ci| ci.distinct(i.card, stats)),
                    _ => i.card.sqrt(),
                };
                groups = (groups * d).min(i.card);
            }
            let cols = group
                .iter()
                .map(|(e, _)| match e {
                    ScalarExpr::Col(c) => i.cols.get(*c).cloned().unwrap_or(ColInfo::Other),
                    _ => ColInfo::Other,
                })
                .chain(aggs.iter().map(|_| ColInfo::Other))
                .collect();
            Rel {
                card: groups.max(1.0),
                cols,
            }
        }
        Fra::Unwind { input, .. } => {
            let i = analyze(input, stats);
            let mut cols = i.cols;
            cols.push(ColInfo::Other);
            Rel {
                card: (i.card * 3.0).max(1e-6),
                cols,
            }
        }
        Fra::MultiwayJoin {
            inputs,
            var_of,
            names,
        } => {
            // Generalises `join_card`: start from the cross product and
            // divide, per shared variable, by the largest distinct
            // estimate once per extra occurrence.
            let rels: Vec<Rel> = inputs.iter().map(|i| analyze(i, stats)).collect();
            let nvars = names.len();
            let mut card: f64 = rels.iter().map(|r| r.card).product();
            let mut cols = vec![ColInfo::Other; nvars];
            let mut min_d = vec![f64::INFINITY; nvars];
            let mut max_d = vec![1.0f64; nvars];
            let mut occurs = vec![0usize; nvars];
            for (i, r) in rels.iter().enumerate() {
                let mut seen = vec![false; nvars];
                for (c, &v) in var_of[i].iter().enumerate() {
                    if v >= nvars || std::mem::replace(&mut seen[v], true) {
                        continue;
                    }
                    occurs[v] += 1;
                    let d = r
                        .cols
                        .get(c)
                        .map_or(r.card.sqrt(), |ci| ci.distinct(r.card, stats));
                    if d < min_d[v] {
                        min_d[v] = d;
                        cols[v] = r.cols.get(c).cloned().unwrap_or(ColInfo::Other);
                    }
                    max_d[v] = max_d[v].max(d);
                }
            }
            for v in 0..nvars {
                if occurs[v] >= 2 {
                    card /= max_d[v].max(1.0).powi(occurs[v] as i32 - 1);
                }
            }
            Rel {
                card: card.max(1e-6),
                cols,
            }
        }
    }
}

fn projected_cols(items: &[(ScalarExpr, String)], input: &[ColInfo]) -> Vec<ColInfo> {
    items
        .iter()
        .map(|(e, _)| match e {
            ScalarExpr::Col(c) => input.get(*c).cloned().unwrap_or(ColInfo::Other),
            _ => ColInfo::Other,
        })
        .collect()
}

fn expansion_cols(spec: &VarLenSpec) -> Vec<ColInfo> {
    let mut cols = vec![ColInfo::Vertex {
        labels: spec.dst_labels.clone(),
    }];
    cols.extend(spec.dst_props.iter().map(|p| ColInfo::Prop {
        key: p.prop,
        on_vertex: true,
    }));
    cols.push(ColInfo::Other); // path
    cols
}

/// Expected number of reachable `(dst, path)` pairs per source vertex:
/// the per-hop fan-out summed over the (capped) hop range.
fn expansion_multiplier(spec: &VarLenSpec, stats: &PlanStats) -> f64 {
    let f = stats.fanout(spec);
    let lo = spec.min;
    let hi = spec
        .max
        .unwrap_or(lo.saturating_add(3))
        .min(lo.saturating_add(3));
    let mut total = 0.0f64;
    for k in lo..=hi.max(lo) {
        total += f.powi(k as i32).min(1e12);
    }
    total.clamp(0.01, 1e12)
}

fn join_card(l: &Rel, r: &Rel, lk: &[usize], rk: &[usize], stats: &PlanStats) -> f64 {
    let mut card = l.card * r.card;
    for (&a, &b) in lk.iter().zip(rk) {
        let dl = l
            .cols
            .get(a)
            .map_or(l.card.sqrt(), |c| c.distinct(l.card, stats));
        let dr = r
            .cols
            .get(b)
            .map_or(r.card.sqrt(), |c| c.distinct(r.card, stats));
        card /= dl.max(dr).max(1.0);
    }
    card.max(1e-6)
}

/// Selectivity of a predicate over a relation with known column
/// provenance.
fn selectivity(pred: &ScalarExpr, rel: &Rel, stats: &PlanStats) -> f64 {
    let mut sel = 1.0f64;
    for conj in pred.clone().operands(BinOp::And) {
        sel *= conjunct_selectivity(&conj, rel, stats);
    }
    sel.clamp(1e-9, 1.0)
}

fn conjunct_selectivity(conj: &ScalarExpr, rel: &Rel, stats: &PlanStats) -> f64 {
    let distinct_of = |c: usize| -> f64 {
        rel.cols
            .get(c)
            .map_or(rel.card.sqrt(), |ci| ci.distinct(rel.card, stats))
            .max(1.0)
    };
    match conj {
        ScalarExpr::Binary(op, a, b) => {
            // A parameter slot is a constant of unknown value: estimated
            // like a literal (the estimate never reads the value).
            let col_lit = match (a.as_ref(), b.as_ref()) {
                (ScalarExpr::Col(c), ScalarExpr::Lit(_) | ScalarExpr::Param(_))
                | (ScalarExpr::Lit(_) | ScalarExpr::Param(_), ScalarExpr::Col(c)) => Some(*c),
                _ => None,
            };
            let col_col = match (a.as_ref(), b.as_ref()) {
                (ScalarExpr::Col(c), ScalarExpr::Col(d)) => Some((*c, *d)),
                _ => None,
            };
            match op {
                BinOp::Eq => {
                    if let Some(c) = col_lit {
                        1.0 / distinct_of(c)
                    } else if let Some((c, d)) = col_col {
                        1.0 / distinct_of(c).max(distinct_of(d))
                    } else {
                        0.1
                    }
                }
                BinOp::Neq => 0.9,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1.0 / 3.0,
                BinOp::Or => {
                    // 1 - Π (1 - sel_i) over the disjuncts.
                    let sa = conjunct_selectivity(a, rel, stats);
                    let sb = conjunct_selectivity(b, rel, stats);
                    (sa + sb - sa * sb).clamp(1e-9, 1.0)
                }
                _ => 0.25,
            }
        }
        ScalarExpr::IsNull { negated, .. } => {
            if *negated {
                0.9
            } else {
                0.1
            }
        }
        ScalarExpr::Lit(Value::Bool(true)) => 1.0,
        ScalarExpr::Lit(Value::Bool(false)) => 1e-9,
        _ => 0.25,
    }
}

fn conjoin_in_order(conjs: Vec<ScalarExpr>) -> ScalarExpr {
    conjs
        .into_iter()
        .reduce(|a, b| ScalarExpr::Binary(BinOp::And, Box::new(a), Box::new(b)))
        .expect("at least one conjunct")
}

// ---------------------------------------------------------------------------
// Region decomposition
// ---------------------------------------------------------------------------

/// A filter conjunct or semijoin reduction, applied at the earliest
/// point where its columns are available.
#[derive(Clone, Debug)]
enum Applier {
    /// A filter conjunct; column indices are region-global ids.
    Filter {
        expr: ScalarExpr,
        globals: Vec<usize>,
    },
    /// A (recursively planned) semijoin right side.
    Semi {
        right: Box<Fra>,
        right_keys: Vec<usize>,
        left_globals: Vec<usize>,
        anti: bool,
        right_card: f64,
    },
}

impl Applier {
    fn globals(&self) -> &[usize] {
        match self {
            Applier::Filter { globals, .. } => globals,
            Applier::Semi { left_globals, .. } => left_globals,
        }
    }
}

/// A variable-length join lifted out of the join tree; the enumerator
/// chooses when to run it (as soon as `src_global` is available).
#[derive(Clone, Debug)]
struct Expansion {
    src_global: usize,
    spec: VarLenSpec,
    dst: String,
    path: String,
    /// Globals of the appended columns: dst, dst props, (map), path.
    out_globals: Vec<usize>,
    multiplier: f64,
}

/// A non-join leaf of the region (already recursively planned).
#[derive(Clone, Debug)]
struct Factor {
    plan: Fra,
    /// Globals of the factor's (planned) output columns, in order.
    globals: Vec<usize>,
    rel: Rel,
}

#[derive(Default)]
struct Region {
    factors: Vec<Factor>,
    expansions: Vec<Expansion>,
    /// Equi-join key pairs as region-global column ids.
    edges: Vec<(usize, usize)>,
    /// Equality class per global ([`Region::close_edges`]).
    class: Vec<usize>,
    /// Filters and semijoins in original (bottom-up) application order.
    appliers: Vec<Applier>,
    /// Provenance per global id.
    info: Vec<ColInfo>,
    /// Owning unit (factor index, or `factors.len() + expansion index`)
    /// per global id.
    owner: Vec<usize>,
    next_global: usize,
}

impl Region {
    /// Label every global with its equality class under the edges.
    fn close_edges(&mut self) {
        let mut class: Vec<usize> = (0..self.next_global).collect();
        let root = |class: &[usize], mut g: usize| {
            while class[g] != g {
                g = class[g];
            }
            g
        };
        for &(a, b) in &self.edges {
            let (ra, rb) = (root(&class, a), root(&class, b));
            class[ra.max(rb)] = ra.min(rb);
        }
        self.class = (0..class.len()).map(|g| root(&class, g)).collect();
    }

    fn fresh(&mut self, info: ColInfo, owner: usize) -> usize {
        let g = self.next_global;
        self.next_global += 1;
        self.info.push(info);
        self.owner.push(owner);
        g
    }
}

/// Flatten the reorderable region rooted at `fra` into `region`,
/// returning the subtree's output columns as global ids.
fn decompose(
    fra: &Fra,
    stats: &PlanStats,
    region: &mut Region,
    opts: &PlanOptions,
    report: &mut PlanReport,
) -> Vec<usize> {
    match fra {
        Fra::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            value_keys,
        } if value_keys.is_empty() => {
            let lg = decompose(left, stats, region, opts, report);
            let rg = decompose(right, stats, region, opts, report);
            for (&a, &b) in left_keys.iter().zip(right_keys) {
                region.edges.push((lg[a], rg[b]));
            }
            let mut out = lg;
            for (i, g) in rg.into_iter().enumerate() {
                if !right_keys.contains(&i) {
                    out.push(g);
                }
            }
            out
        }
        Fra::Filter { input, predicate } => {
            // Where conjuncts become appliers: fold constants first (a
            // `σ[true]` vanishes), then carry what is left through any
            // π / δ / ω under the σ, so a conjunct written above a π
            // joins the region that binds its columns. The σ this
            // places is decomposed in turn when its region is formed.
            let mut conjs = predicate.clone().fold().operands(BinOp::And);
            conjs.retain(|c| *c != ScalarExpr::Lit(Value::Bool(true)));
            let sunk = (**input)
                .clone()
                .sink_filter(conjs, &|landing, conjs| Fra::Filter {
                    input: Box::new(landing),
                    predicate: conjoin_in_order(conjs),
                });
            // A σ still at the root stopped right here (above ω at the
            // latest); anything else is the input with the σ inside it.
            let (input, predicate) = match sunk {
                Fra::Filter { input, predicate } => (input, predicate),
                inside => return decompose(&inside, stats, region, opts, report),
            };
            let ig = decompose(&input, stats, region, opts, report);
            for conj in predicate.operands(BinOp::And) {
                let remapped = conj.remap_columns(&|c| ig[c]);
                let globals = remapped.columns();
                region.appliers.push(Applier::Filter {
                    expr: remapped,
                    globals,
                });
            }
            ig
        }
        Fra::SemiJoin {
            left,
            right,
            left_keys,
            right_keys,
            anti,
        } => {
            let lg = decompose(left, stats, region, opts, report);
            let (rp, rm) = plan_rec(right, stats, opts, report);
            let right_card = estimate(&rp, stats);
            region.appliers.push(Applier::Semi {
                right: Box::new(rp),
                right_keys: right_keys.iter().map(|&k| rm[k]).collect(),
                left_globals: left_keys.iter().map(|&k| lg[k]).collect(),
                anti: *anti,
                right_card,
            });
            lg
        }
        Fra::VarLengthJoin {
            left,
            src_col,
            spec,
            dst,
            path,
        } => {
            let lg = decompose(left, stats, region, opts, report);
            let unit = region.factors.len() + region.expansions.len();
            let mut out_globals = vec![region.fresh(
                ColInfo::Vertex {
                    labels: spec.dst_labels.clone(),
                },
                unit,
            )];
            for p in &spec.dst_props {
                out_globals.push(region.fresh(
                    ColInfo::Prop {
                        key: p.prop,
                        on_vertex: true,
                    },
                    unit,
                ));
            }
            out_globals.push(region.fresh(ColInfo::Other, unit)); // path
            region.expansions.push(Expansion {
                src_global: lg[*src_col],
                spec: spec.clone(),
                dst: dst.clone(),
                path: path.clone(),
                out_globals: out_globals.clone(),
                multiplier: expansion_multiplier(spec, stats) * stats.label_sel(&spec.dst_labels),
            });
            let mut out = lg;
            out.extend(out_globals);
            out
        }
        leaf => {
            let (fp, fm) = plan_rec(leaf, stats, opts, report);
            let rel = analyze(&fp, stats);
            let unit = region.factors.len() + region.expansions.len();
            let globals: Vec<usize> = rel
                .cols
                .iter()
                .map(|c| region.fresh(c.clone(), unit))
                .collect();
            // The leaf's original columns, rebased through the leaf's own
            // planning permutation.
            let out = fm.iter().map(|&c| globals[c]).collect();
            region.factors.push(Factor {
                plan: fp,
                globals,
                rel,
            });
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Enumeration + rebuild
// ---------------------------------------------------------------------------

/// A partially built join (a set of units with all coverable appliers
/// applied).
#[derive(Clone, Debug)]
struct Built {
    plan: Fra,
    /// Global ids of the output columns, in order.
    globals: Vec<usize>,
    /// Global → output position; dropped join keys alias their kept
    /// partner's position.
    pos: FxHashMap<usize, usize>,
    cols: Vec<ColInfo>,
    card: f64,
    /// Total estimated intermediate cardinality (the C_out cost).
    cost: f64,
    /// Bitmask over `appliers` already applied.
    applied: u64,
    /// Bitmask over units (factors then expansions) included.
    mask: u64,
}

struct Enumerator<'a> {
    region: &'a Region,
    stats: &'a PlanStats,
    unit_count: usize,
}

impl<'a> Enumerator<'a> {
    /// Are all of `globals` produced by units inside `mask`?
    fn covered(&self, globals: &[usize], mask: u64) -> bool {
        globals
            .iter()
            .all(|&g| mask & (1 << self.region.owner[g]) != 0)
    }

    fn singleton(&self, ix: usize) -> Built {
        let f = &self.region.factors[ix];
        let mut pos = FxHashMap::default();
        for (i, &g) in f.globals.iter().enumerate() {
            pos.insert(g, i);
        }
        let b = Built {
            plan: f.plan.clone(),
            globals: f.globals.clone(),
            pos,
            cols: f.rel.cols.clone(),
            card: f.rel.card.max(1.0),
            cost: 0.0,
            applied: 0,
            mask: 1 << ix,
        };
        self.apply_appliers(b)
    }

    /// Apply every not-yet-applied applier whose columns are covered, in
    /// original order; filters applying at the same point fuse into one
    /// σ whose conjuncts keep their original order.
    fn apply_appliers(&self, mut b: Built) -> Built {
        let mut filter_conjs: Vec<ScalarExpr> = Vec::new();
        let mut sel = 1.0f64;
        for (i, a) in self.region.appliers.iter().enumerate() {
            if b.applied & (1 << i) != 0 || !self.covered(a.globals(), b.mask) {
                continue;
            }
            b.applied |= 1 << i;
            match a {
                Applier::Filter { expr, .. } => {
                    let remapped = expr.remap_columns(&|g| b.pos[&g]);
                    sel *= conjunct_selectivity(
                        &remapped,
                        &Rel {
                            card: b.card,
                            cols: b.cols.clone(),
                        },
                        self.stats,
                    )
                    .max(1e-9);
                    filter_conjs.push(remapped);
                }
                Applier::Semi {
                    right,
                    right_keys,
                    left_globals,
                    anti,
                    right_card,
                } => {
                    // Flush pending filters first to keep original
                    // relative order between σ and ⋉.
                    if !filter_conjs.is_empty() {
                        b.plan = Fra::Filter {
                            input: Box::new(b.plan),
                            predicate: conjoin_in_order(std::mem::take(&mut filter_conjs)),
                        };
                        b.card = (b.card * sel).max(1e-6);
                        sel = 1.0;
                    }
                    b.plan = Fra::SemiJoin {
                        left: Box::new(b.plan),
                        right: right.clone(),
                        left_keys: left_globals.iter().map(|g| b.pos[g]).collect(),
                        right_keys: right_keys.clone(),
                        anti: *anti,
                    };
                    b.card = (b.card * if *anti { 0.3 } else { 0.5 }).max(1e-6);
                    b.cost += right_card;
                }
            }
        }
        if !filter_conjs.is_empty() {
            b.plan = Fra::Filter {
                input: Box::new(b.plan),
                predicate: conjoin_in_order(filter_conjs),
            };
            b.card = (b.card * sel).max(1e-6);
        }
        b
    }

    /// Join two disjoint builds on every key edge crossing between them
    /// (a cross join when none does).
    fn join(&self, l: &Built, r: &Built) -> Built {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in &self.region.edges {
            let (la, lb) = (self.region.owner[a], self.region.owner[b]);
            let (cross_ab, cross_ba) = (
                l.mask & (1 << la) != 0 && r.mask & (1 << lb) != 0,
                l.mask & (1 << lb) != 0 && r.mask & (1 << la) != 0,
            );
            let pair = if cross_ab {
                (l.pos[&a], r.pos[&b])
            } else if cross_ba {
                (l.pos[&b], r.pos[&a])
            } else {
                continue;
            };
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
        let mut lk: Vec<usize> = pairs.iter().map(|&(a, _)| a).collect();
        let mut rk: Vec<usize> = pairs.iter().map(|&(_, b)| b).collect();
        let card = join_card(
            &Rel {
                card: l.card,
                cols: l.cols.clone(),
            },
            &Rel {
                card: r.card,
                cols: r.cols.clone(),
            },
            &lk,
            &rk,
            self.stats,
        );
        // Equality is transitive: a class both sides hold a column of is
        // a key even when its edges run through a unit joined later. It
        // only narrows the join; the estimate above keeps to the edges.
        let class = &self.region.class;
        let mut keyed: Vec<usize> = lk.iter().map(|&p| class[l.globals[p]]).collect();
        for (lp, &lg) in l.globals.iter().enumerate() {
            let rp = r.globals.iter().position(|&rg| class[rg] == class[lg]);
            if let (Some(rp), false) = (rp, keyed.contains(&class[lg])) {
                lk.push(lp);
                rk.push(rp);
                keyed.push(class[lg]);
            }
        }

        let mut globals = l.globals.clone();
        let mut cols = l.cols.clone();
        let mut pos = l.pos.clone();
        // Position of each surviving right column: rank among non-keys.
        let mut right_new_pos: Vec<Option<usize>> = vec![None; r.globals.len()];
        for (i, (&g, c)) in r.globals.iter().zip(&r.cols).enumerate() {
            if let Some(k) = rk.iter().position(|&p| p == i) {
                // Dropped key column: alias to its left partner.
                right_new_pos[i] = Some(lk[k]);
                pos.insert(g, lk[k]);
            } else {
                let p = globals.len();
                right_new_pos[i] = Some(p);
                globals.push(g);
                cols.push(c.clone());
                pos.insert(g, p);
            }
        }
        // Right-side aliases (globals dropped inside `r`) re-point too.
        for (&g, &old) in &r.pos {
            pos.entry(g)
                .or_insert_with(|| right_new_pos[old].expect("old position exists"));
        }
        let b = Built {
            plan: Fra::HashJoin {
                left: Box::new(l.plan.clone()),
                right: Box::new(r.plan.clone()),
                left_keys: lk,
                right_keys: rk,
                value_keys: self.value_keys(l, r),
            },
            globals,
            pos,
            cols,
            card,
            cost: l.cost + r.cost + card,
            applied: l.applied | r.applied,
            mask: l.mask | r.mask,
        };
        self.apply_appliers(b)
    }

    /// The value keys of `l ⋈ r`: each σ conjunct `x = y` whose columns
    /// this join is the first to bring together, `x` on one side and `y`
    /// on the other. The conjunct stays an applier right above the join
    /// and decides; the key only narrows what reaches it. Estimates do
    /// not count it, so the order chosen is the one without value keys.
    fn value_keys(&self, l: &Built, r: &Built) -> Vec<(usize, usize)> {
        let mut keys = Vec::new();
        for a in &self.region.appliers {
            let Applier::Filter { expr, .. } = a else {
                continue;
            };
            let Some((x, y)) = expr.equated_columns() else {
                continue;
            };
            let (lx, ly) = (self.covered(&[x], l.mask), self.covered(&[y], l.mask));
            let (rx, ry) = (self.covered(&[x], r.mask), self.covered(&[y], r.mask));
            let pair = if lx && ry {
                (l.pos[&x], r.pos[&y])
            } else if ly && rx {
                (l.pos[&y], r.pos[&x])
            } else {
                continue;
            };
            if !keys.contains(&pair) {
                keys.push(pair);
            }
        }
        keys
    }

    /// Run a pending ⋈* expansion on `b`.
    fn expand(&self, b: &Built, ex_ix: usize) -> Built {
        let e = &self.region.expansions[ex_ix];
        let card = (b.card * e.multiplier).max(1e-6);
        let mut out = b.clone();
        out.plan = Fra::VarLengthJoin {
            left: Box::new(out.plan),
            src_col: out.pos[&e.src_global],
            spec: e.spec.clone(),
            dst: e.dst.clone(),
            path: e.path.clone(),
        };
        for &g in &e.out_globals {
            let p = out.globals.len();
            out.globals.push(g);
            out.cols.push(self.region.info[g].clone());
            out.pos.insert(g, p);
        }
        out.card = card;
        out.cost += card;
        out.mask |= 1 << (self.region.factors.len() + ex_ix);
        self.apply_appliers(out)
    }

    /// Exact dynamic programming over unit subsets.
    fn dp(&self) -> Built {
        let n = self.unit_count;
        let factors = self.region.factors.len();
        let full: u64 = (1 << n) - 1;
        let mut dp: Vec<Option<Built>> = vec![None; 1 << n];
        for i in 0..factors {
            dp[1usize << i] = Some(self.singleton(i));
        }
        for mask in 1..=full {
            if dp[mask as usize].is_some() && mask.count_ones() <= 1 {
                continue;
            }
            let mut best: Option<Built> = None;
            // (a) extend a sub-build with an expansion in the mask.
            for e in 0..self.region.expansions.len() {
                let bit = 1u64 << (factors + e);
                if mask & bit == 0 {
                    continue;
                }
                let sub = mask & !bit;
                if sub == 0 {
                    continue;
                }
                if let Some(b) = dp[sub as usize].as_ref() {
                    if self.covered(&[self.region.expansions[e].src_global], sub) {
                        consider(&mut best, self.expand(b, e));
                    }
                }
            }
            // (b) join two disjoint sub-builds; fix the lowest unit on
            // the left so each split is tried once with the syntactic
            // orientation (canonicalisation normalises orientation
            // anyway).
            let low = mask & mask.wrapping_neg();
            let mut sub = (mask - 1) & mask;
            while sub != 0 {
                if sub & low != 0 {
                    let other = mask & !sub;
                    if let (Some(a), Some(b)) =
                        (dp[sub as usize].as_ref(), dp[other as usize].as_ref())
                    {
                        consider(&mut best, self.join(a, b));
                    }
                }
                sub = (sub - 1) & mask;
            }
            dp[mask as usize] = best;
        }
        dp[full as usize].clone().expect("full mask is reachable")
    }

    /// Greedy minimum-cost-expansion for large regions: repeatedly take
    /// the move (join of two connected components, pending expansion, or
    /// — only when nothing else remains — a cross join) with the
    /// smallest resulting cardinality.
    fn greedy(&self) -> Built {
        let factors = self.region.factors.len();
        let mut comps: Vec<Built> = (0..factors).map(|i| self.singleton(i)).collect();
        let mut pending: Vec<usize> = (0..self.region.expansions.len()).collect();
        loop {
            if comps.len() == 1 && pending.is_empty() {
                return comps.pop().expect("one component");
            }
            enum Move {
                Join(usize, usize),
                Expand(usize, usize),
            }
            // Keep the winning candidate's Built so executing the move
            // reuses it instead of rebuilding.
            let mut best: Option<(f64, Move, Built)> = None;
            let mut connected_exists = false;
            for i in 0..comps.len() {
                for j in (i + 1)..comps.len() {
                    let connected = self.region.edges.iter().any(|&(a, b)| {
                        let (oa, ob) = (self.region.owner[a], self.region.owner[b]);
                        (comps[i].mask & (1 << oa) != 0 && comps[j].mask & (1 << ob) != 0)
                            || (comps[i].mask & (1 << ob) != 0 && comps[j].mask & (1 << oa) != 0)
                    });
                    if connected {
                        connected_exists = true;
                        let joined = self.join(&comps[i], &comps[j]);
                        if best.as_ref().is_none_or(|(c, _, _)| joined.card < *c) {
                            best = Some((joined.card, Move::Join(i, j), joined));
                        }
                    }
                }
            }
            for (px, &e) in pending.iter().enumerate() {
                let src = self.region.expansions[e].src_global;
                if let Some(i) = comps
                    .iter()
                    .position(|c| c.mask & (1 << self.region.owner[src]) != 0)
                {
                    let expanded = self.expand(&comps[i], e);
                    if best.as_ref().is_none_or(|(c, _, _)| expanded.card < *c) {
                        best = Some((expanded.card, Move::Expand(i, px), expanded));
                    }
                }
            }
            if best.is_none() && !connected_exists && comps.len() > 1 {
                // Disconnected join graph: cross-join the two smallest.
                let mut order: Vec<usize> = (0..comps.len()).collect();
                order.sort_by(|&a, &b| {
                    comps[a]
                        .card
                        .partial_cmp(&comps[b].card)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                let (i, j) = (order[0].min(order[1]), order[0].max(order[1]));
                let joined = self.join(&comps[i], &comps[j]);
                best = Some((f64::INFINITY, Move::Join(i, j), joined));
            }
            let (_, mv, built) = best.expect("a move always exists");
            match mv {
                Move::Join(i, j) => {
                    comps.remove(j);
                    comps[i] = built;
                }
                Move::Expand(i, px) => {
                    pending.remove(px);
                    comps[i] = built;
                }
            }
        }
    }
}

/// Keep the candidate with the strictly smaller `(cost, card)`; the
/// first minimal candidate (in deterministic enumeration order) wins
/// ties, so planning never depends on variable names.
fn consider(best: &mut Option<Built>, candidate: Built) {
    let better = match best {
        None => true,
        Some(b) => (candidate.cost, candidate.card) < (b.cost, b.card),
    };
    if better {
        *best = Some(candidate);
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// The planner's result: a plan computing the same bag with the same
/// output schema.
#[derive(Clone, Debug)]
pub struct Planned {
    /// The (possibly reordered) plan. `fra.schema()` equals the input's.
    pub fra: Fra,
    /// Did planning change the plan structurally?
    pub changed: bool,
}

/// One fuse/don't-fuse decision over a cyclic join region, recorded for
/// `EXPLAIN`. Costs are in the planner's abstract tuple units (total
/// intermediate cardinality, skew-adjusted on the binary side); they
/// are comparable to each other, not to wall-clock.
#[derive(Clone, Debug)]
pub(crate) struct FuseDecision {
    /// The region's output variable names, in elimination order.
    pub vars: Vec<String>,
    /// Relations joined by the region.
    pub inputs: usize,
    /// Estimated cost of the fused ⨝ⁿ level-walk (incl. the
    /// intersection-overhead constant).
    pub nary_cost: f64,
    /// Estimated cost of the best binary join tree, multiplied by the
    /// catalog's out-degree skew (wedge intermediates grow with Σ deg²,
    /// which the uniform join estimate misses).
    pub binary_cost: f64,
    /// Estimated resident tuples of the fused node's input memories.
    pub nary_memory: f64,
    /// Estimated resident tuples of the binary tree's join memories.
    pub binary_memory: f64,
    /// Did the region fuse into a ⨝ⁿ node?
    pub fused: bool,
    /// Was the outcome forced by [`WcojMode::Forced`] rather than won
    /// on cost?
    pub forced: bool,
}

impl FuseDecision {
    /// One-line `EXPLAIN` rendering.
    pub(crate) fn render(&self) -> String {
        format!(
            "wcoj: cyclic region {{{}}} ({} rels): n-ary ≈ {:.0} vs binary ≈ {:.0} units (mem ≈ {:.0} vs ≈ {:.0} tuples) → {}{}",
            self.vars.join(", "),
            self.inputs,
            self.nary_cost,
            self.binary_cost,
            self.nary_memory,
            self.binary_memory,
            if self.fused { "fused ⨝ⁿ" } else { "binary join tree" },
            if self.forced { " (forced)" } else { "" },
        )
    }
}

/// Side-channel facts gathered while planning (currently the wcoj fuse
/// decisions); rendered by `EXPLAIN` surfaces.
#[derive(Clone, Debug, Default)]
pub(crate) struct PlanReport {
    /// One entry per cyclic region that was *eligible* for fusion
    /// (cyclic, ≥ 3 factors, no ⋈* expansion), whatever was decided.
    pub fuse_decisions: Vec<FuseDecision>,
}

/// Cost-based planning of `fra` under the statistics snapshot `stats`.
///
/// The result computes the same bag for every graph and exposes the
/// same output schema (a restoring projection is appended when the
/// chosen join order permutes columns; canonicalisation folds it into
/// its column mapping, so it costs no operator node). Planning is a
/// pure function of the plan structure and `stats` — never of variable
/// names — so `canon(plan(q)) == canon(plan(rename(q)))`.
pub fn plan(fra: &Fra, stats: &PlanStats) -> Planned {
    plan_with(fra, stats, &PlanOptions::default())
}

/// [`plan`] with explicit [`PlanOptions`] (the IVM layer threads each
/// view's fusion policy through here).
pub fn plan_with(fra: &Fra, stats: &PlanStats, opts: &PlanOptions) -> Planned {
    plan_with_report(fra, stats, opts).0
}

/// [`plan_with`], additionally returning the [`PlanReport`] gathered
/// along the way (the wcoj fuse/don't-fuse decisions `EXPLAIN` shows).
pub(crate) fn plan_with_report(
    fra: &Fra,
    stats: &PlanStats,
    opts: &PlanOptions,
) -> (Planned, PlanReport) {
    let mut report = PlanReport::default();
    let (planned, mapping) = plan_rec(fra, stats, opts, &mut report);
    let restored = restore_schema(planned, &mapping, fra);
    let changed = restored != *fra;
    (
        Planned {
            fra: restored,
            changed,
        },
        report,
    )
}

/// Wrap `planned` so its schema (names and order) equals `original`'s.
fn restore_schema(planned: Fra, mapping: &[usize], original: &Fra) -> Fra {
    let names = original.schema();
    let identity = mapping.iter().enumerate().all(|(i, &j)| i == j);
    if identity && planned.schema() == names {
        return planned;
    }
    Fra::Project {
        input: Box::new(planned),
        items: mapping
            .iter()
            .zip(&names)
            .map(|(&c, n)| (ScalarExpr::Col(c), n.clone()))
            .collect(),
    }
}

/// Recursive planning; returns the planned subtree plus the bijection
/// `mapping[i] = j`: column `i` of the original subtree's output is
/// column `j` of the planned subtree's output.
fn plan_rec(
    fra: &Fra,
    stats: &PlanStats,
    opts: &PlanOptions,
    report: &mut PlanReport,
) -> (Fra, Vec<usize>) {
    match fra {
        // A join that carries value keys was planned already: kept as
        // written, with what it equates.
        Fra::HashJoin { value_keys, .. } if !value_keys.is_empty() => {
            (fra.clone(), (0..fra.schema().len()).collect())
        }
        Fra::HashJoin { .. }
        | Fra::Filter { .. }
        | Fra::SemiJoin { .. }
        | Fra::VarLengthJoin { .. } => plan_region(fra, stats, opts, report),
        Fra::Project { input, items } => {
            let (ci, m) = plan_rec(input, stats, opts, report);
            (
                Fra::Project {
                    input: Box::new(ci),
                    items: items
                        .iter()
                        .map(|(e, n)| (e.remap_columns(&|c| m[c]), n.clone()))
                        .collect(),
                },
                (0..items.len()).collect(),
            )
        }
        Fra::Distinct { input } => {
            let (ci, m) = plan_rec(input, stats, opts, report);
            (
                Fra::Distinct {
                    input: Box::new(ci),
                },
                m,
            )
        }
        Fra::Aggregate { input, group, aggs } => {
            let (ci, m) = plan_rec(input, stats, opts, report);
            (
                Fra::Aggregate {
                    input: Box::new(ci),
                    group: group
                        .iter()
                        .map(|(e, n)| (e.remap_columns(&|c| m[c]), n.clone()))
                        .collect(),
                    aggs: aggs
                        .iter()
                        .map(|(c, n)| {
                            (
                                crate::expr::AggCall {
                                    func: c.func,
                                    arg: c.arg.as_ref().map(|a| a.remap_columns(&|x| m[x])),
                                    distinct: c.distinct,
                                },
                                n.clone(),
                            )
                        })
                        .collect(),
                },
                (0..group.len() + aggs.len()).collect(),
            )
        }
        Fra::Unwind { input, expr, alias } => {
            let (ci, m) = plan_rec(input, stats, opts, report);
            let arity = m.len();
            let mut mapping = m.clone();
            mapping.push(arity);
            (
                Fra::Unwind {
                    input: Box::new(ci),
                    expr: expr.remap_columns(&|c| m[c]),
                    alias: alias.clone(),
                },
                mapping,
            )
        }
        Fra::MultiwayJoin {
            inputs,
            var_of,
            names,
        } => {
            // A pre-existing n-ary node (hand-built, or a re-planned
            // plan): recursively plan each operand and push its
            // variable map through the operand's planning bijection.
            let mut new_inputs = Vec::with_capacity(inputs.len());
            let mut new_vars = Vec::with_capacity(inputs.len());
            for (inp, vars) in inputs.iter().zip(var_of) {
                let (ci, m) = plan_rec(inp, stats, opts, report);
                let mut nv = vec![0usize; vars.len()];
                for (c, &v) in vars.iter().enumerate() {
                    nv[m[c]] = v;
                }
                new_inputs.push(ci);
                new_vars.push(nv);
            }
            (
                Fra::MultiwayJoin {
                    inputs: new_inputs,
                    var_of: new_vars,
                    names: names.clone(),
                },
                (0..names.len()).collect(),
            )
        }
        leaf @ (Fra::Unit | Fra::ScanVertices { .. } | Fra::ScanEdges { .. }) => {
            (leaf.clone(), (0..leaf.schema().len()).collect())
        }
    }
}

/// Plan one reorderable region. Falls back to the original subtree
/// (identity mapping) if the rebuilt plan fails its arity check — a
/// safety net for hand-built plans outside the compiler's invariants.
fn plan_region(
    fra: &Fra,
    stats: &PlanStats,
    opts: &PlanOptions,
    report: &mut PlanReport,
) -> (Fra, Vec<usize>) {
    let mut region = Region::default();
    let output = decompose(fra, stats, &mut region, opts, report);
    region.close_edges();
    let unit_count = region.factors.len() + region.expansions.len();
    // Units and appliers are tracked in u64 bitmasks; a region exceeding
    // 63 of either (far beyond any compiled query) keeps its syntactic
    // order rather than risking shift overflow.
    if unit_count > 63 || region.appliers.len() > 63 {
        return (fra.clone(), (0..fra.schema().len()).collect());
    }
    let fused = if opts.wcoj == WcojMode::Disabled {
        None
    } else {
        try_wcoj(&region, &output, &fra.schema(), stats)
    };
    // The binary tree is built even when a fused candidate exists: it
    // is both the cost baseline of the fuse decision and the fallback
    // plan when the gate keeps the region binary.
    let built = if unit_count > MAX_DP_UNITS {
        let e = Enumerator {
            region: &region,
            stats,
            unit_count,
        };
        e.greedy()
    } else {
        let e = Enumerator {
            region: &region,
            stats,
            unit_count,
        };
        e.dp()
    };
    // Every applier must have been applied and every original output
    // column must be present (possibly via a dropped-key alias).
    let complete = built.applied.count_ones() as usize == region.appliers.len()
        && output.iter().all(|g| built.pos.contains_key(g))
        && built.globals.len() == fra.schema().len();
    if let Some(cand) = fused {
        // Binary time estimate: total intermediate cardinality under
        // the uniform containment assumption, scaled by the catalog's
        // out-degree skew — wedge intermediates really grow with
        // Σ deg², which the uniform estimate misses. The n-ary side
        // pays the intersection-overhead constant instead: its leapfrog
        // seeks gallop through hubs, so skew barely touches it.
        let (bin_cost, bin_mem) = if complete {
            (built.cost, built.cost)
        } else {
            (f64::INFINITY, f64::INFINITY)
        };
        let binary_cost = bin_cost * stats.out_degree_skew();
        let nary_cost = WCOJ_OVERHEAD * cand.nary_cost;
        let fuse = match opts.wcoj {
            WcojMode::Forced => true,
            WcojMode::CostBased => {
                nary_cost <= binary_cost || bin_mem > WCOJ_MEM_RATIO * cand.nary_memory
            }
            WcojMode::Disabled => unreachable!("no fused candidate when disabled"),
        };
        report.fuse_decisions.push(FuseDecision {
            vars: cand.vars,
            inputs: cand.inputs,
            nary_cost,
            binary_cost,
            nary_memory: cand.nary_memory,
            binary_memory: bin_mem,
            fused: fuse,
            forced: opts.wcoj == WcojMode::Forced,
        });
        if fuse {
            return (cand.plan, cand.mapping);
        }
    }
    if !complete {
        debug_assert!(false, "planner produced an incomplete region rebuild");
        return (fra.clone(), (0..fra.schema().len()).collect());
    }
    let mapping: Vec<usize> = output.iter().map(|g| built.pos[g]).collect();
    (built.plan, mapping)
}

// ---------------------------------------------------------------------------
// Worst-case optimal fusion of cyclic regions
// ---------------------------------------------------------------------------

/// A fused-plan candidate built by [`try_wcoj`]: the ⨝ⁿ plan plus the
/// cost/memory estimates [`plan_region`]'s gate weighs against the
/// binary join tree.
struct WcojCandidate {
    /// The fused plan (⨝ⁿ plus any unpushable appliers above it).
    plan: Fra,
    /// Output column → variable position, as [`plan_region`] returns.
    mapping: Vec<usize>,
    /// Variable names in elimination order (for [`FuseDecision`]).
    vars: Vec<String>,
    /// Number of joined relations.
    inputs: usize,
    /// Raw level-walk cost estimate (tuples touched per full
    /// recomputation, before the [`WCOJ_OVERHEAD`] multiplier).
    nary_cost: f64,
    /// Estimated resident tuples of the fused node's input memories.
    nary_memory: f64,
}

/// Build a fused [`Fra::MultiwayJoin`] candidate for the region.
/// Returns `None` when the region is not eligible: fewer than three
/// factors, any ⋈* expansion (those stay on the binary path), or an
/// *acyclic* join hypergraph — binary plans are already worst-case
/// optimal for tree-shaped queries and have the leaner per-delta
/// constant. Whether an eligible candidate is *used* is decided by the
/// cost gate in [`plan_region`], not here.
///
/// Eligibility and the chosen variable order are pure functions of the
/// region *structure* and `stats` (class ids come from the syntactic
/// global order, never from names), so alpha-equivalent cyclic views
/// fuse into identical nodes and keep hash-consing.
fn try_wcoj(
    region: &Region,
    output: &[usize],
    schema: &[String],
    stats: &PlanStats,
) -> Option<WcojCandidate> {
    if !region.expansions.is_empty() || region.factors.len() < 3 {
        return None;
    }
    let n_globals = region.next_global;
    // Union-find: globals equated by a join edge share a variable.
    let mut parent: Vec<usize> = (0..n_globals).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let n = parent[c];
            parent[c] = r;
            c = n;
        }
        r
    }
    for &(a, b) in &region.edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    }
    // Class (= variable) per global, numbered by smallest member.
    let mut class_of = vec![usize::MAX; n_globals];
    let mut n_classes = 0usize;
    for g in 0..n_globals {
        let r = find(&mut parent, g);
        if class_of[r] == usize::MAX {
            class_of[r] = n_classes;
            n_classes += 1;
        }
        class_of[g] = class_of[r];
    }
    // Per-factor variable sets, and the factors containing each class.
    let mut factor_classes: Vec<Vec<usize>> = Vec::with_capacity(region.factors.len());
    let mut containing: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (fi, f) in region.factors.iter().enumerate() {
        let mut cs: Vec<usize> = f.globals.iter().map(|&g| class_of[g]).collect();
        cs.sort_unstable();
        cs.dedup();
        for &c in &cs {
            containing[c].push(fi);
        }
        factor_classes.push(cs);
    }
    if !is_cyclic(&factor_classes, n_classes) {
        return None;
    }

    // Distinct-value estimate per class: the tightest bound any member
    // column provides (the catalog's per-type distinct endpoints).
    let mut distinct = vec![f64::INFINITY; n_classes];
    for (g, &c) in class_of.iter().enumerate() {
        let card = region.factors[region.owner[g]].rel.card;
        let d = region.info[g].distinct(card, stats);
        if d < distinct[c] {
            distinct[c] = d;
        }
    }
    // Elimination order: join variables (in ≥2 factors) first, chosen
    // greedily — stay connected to the already-ordered set, then
    // smallest distinct estimate, then class id — so the tightest
    // intersections run outermost. Payload variables (single factor)
    // bind last; extending a full join-variable binding with them is a
    // plain residual scan.
    let mut order: Vec<usize> = Vec::with_capacity(n_classes);
    let mut chosen = vec![false; n_classes];
    let mut factor_touched = vec![false; region.factors.len()];
    let join_vars: Vec<usize> = (0..n_classes)
        .filter(|&c| containing[c].len() >= 2)
        .collect();
    for _ in 0..join_vars.len() {
        let mut best = usize::MAX;
        let mut best_key = (true, f64::INFINITY);
        for &c in &join_vars {
            if chosen[c] {
                continue;
            }
            let connected = order.is_empty() || containing[c].iter().any(|&f| factor_touched[f]);
            let key = (!connected, distinct[c]);
            if best == usize::MAX || key < best_key {
                best_key = key;
                best = c;
            }
        }
        chosen[best] = true;
        for &f in &containing[best] {
            factor_touched[f] = true;
        }
        order.push(best);
    }
    for (c, &done) in chosen.iter().enumerate() {
        if !done {
            order.push(c);
        }
    }
    let mut var_id = vec![0usize; n_classes];
    for (v, &c) in order.iter().enumerate() {
        var_id[c] = v;
    }

    // Original output column k carries global `output[k]`, exposed by
    // the node at its variable's position. Compiled plans surface each
    // variable exactly once; bail out to the binary path otherwise.
    let mapping: Vec<usize> = output.iter().map(|&g| var_id[class_of[g]]).collect();
    if mapping.len() != n_classes {
        return None;
    }
    let mut seen = vec![false; n_classes];
    for &v in &mapping {
        if std::mem::replace(&mut seen[v], true) {
            return None;
        }
    }
    let mut names: Vec<String> = (0..n_classes).map(|v| format!("_v{v}")).collect();
    for (k, &g) in output.iter().enumerate() {
        names[var_id[class_of[g]]] = schema[k].clone();
    }

    // Level-walk cost estimate of the generic join under the chosen
    // elimination order. At each level the operator intersects, for
    // every factor containing the variable, that factor's candidate
    // list given its already-bound variables; a leapfrog round costs
    // (smallest candidate count) × (number of cursors) seeks, paid once
    // per bound prefix. The per-factor candidate count is the factor's
    // cardinality divided by the distinct combinations of its bound
    // variables (uniform fan-out; skew is the *binary* side's problem —
    // galloping makes the intersection insensitive to it). The
    // intersection result follows the containment assumption
    // Π s_f / U^(k−1), capped at the smallest input.
    let cards: Vec<f64> = region.factors.iter().map(|f| f.rel.card.max(1.0)).collect();
    let mut bound = vec![false; n_classes];
    let mut nary_cost = 0.0f64;
    let mut prefix = 1.0f64;
    for &c in &order {
        let u = distinct[c].max(1.0);
        let mut s_min = f64::INFINITY;
        let mut s_prod = 1.0f64;
        let k = containing[c].len();
        for &fi in &containing[c] {
            let bound_distinct: f64 = factor_classes[fi]
                .iter()
                .filter(|&&c2| bound[c2])
                .map(|&c2| distinct[c2].max(1.0))
                .product();
            let s = (cards[fi] / bound_distinct).clamp(1.0, u);
            s_min = s_min.min(s);
            s_prod *= s;
        }
        nary_cost += prefix * s_min * k as f64;
        let inter = (s_prod / u.powi(k as i32 - 1)).min(s_min).max(1e-3);
        prefix *= inter;
        bound[c] = true;
    }
    let nary_memory: f64 = cards.iter().sum();

    // Push single-factor filter conjuncts into their factor (so trie
    // memories stay pruned); multi-factor filters and all semijoins
    // apply above the node, in their original relative order.
    let mut factor_plans: Vec<Fra> = region.factors.iter().map(|f| f.plan.clone()).collect();
    let mut pushed = vec![false; region.appliers.len()];
    for (ai, a) in region.appliers.iter().enumerate() {
        if let Applier::Filter { expr, globals } = a {
            let owners: Vec<usize> = globals.iter().map(|&g| region.owner[g]).collect();
            if let Some((&f0, rest)) = owners.split_first() {
                if rest.iter().all(|&f| f == f0) {
                    let fac = &region.factors[f0];
                    let remapped = expr.remap_columns(&|g| {
                        fac.globals
                            .iter()
                            .position(|&x| x == g)
                            .expect("global owned by factor")
                    });
                    factor_plans[f0] = match std::mem::replace(&mut factor_plans[f0], Fra::Unit) {
                        Fra::Filter { input, predicate } => Fra::Filter {
                            input,
                            predicate: ScalarExpr::Binary(
                                BinOp::And,
                                Box::new(predicate),
                                Box::new(remapped),
                            ),
                        },
                        other => Fra::Filter {
                            input: Box::new(other),
                            predicate: remapped,
                        },
                    };
                    pushed[ai] = true;
                }
            }
        }
    }
    let var_of: Vec<Vec<usize>> = region
        .factors
        .iter()
        .map(|f| f.globals.iter().map(|&g| var_id[class_of[g]]).collect())
        .collect();
    let vars = names.clone();
    let mut plan = Fra::MultiwayJoin {
        inputs: factor_plans,
        var_of,
        names,
    };
    let to_var = |g: usize| var_id[class_of[g]];
    let mut conjs: Vec<ScalarExpr> = Vec::new();
    for (ai, a) in region.appliers.iter().enumerate() {
        if pushed[ai] {
            continue;
        }
        match a {
            Applier::Filter { expr, .. } => conjs.push(expr.remap_columns(&to_var)),
            Applier::Semi {
                right,
                right_keys,
                left_globals,
                anti,
                ..
            } => {
                if !conjs.is_empty() {
                    plan = Fra::Filter {
                        input: Box::new(plan),
                        predicate: conjoin_in_order(std::mem::take(&mut conjs)),
                    };
                }
                plan = Fra::SemiJoin {
                    left: Box::new(plan),
                    right: right.clone(),
                    left_keys: left_globals.iter().map(|&g| to_var(g)).collect(),
                    right_keys: right_keys.clone(),
                    anti: *anti,
                };
            }
        }
    }
    if !conjs.is_empty() {
        plan = Fra::Filter {
            input: Box::new(plan),
            predicate: conjoin_in_order(conjs),
        };
    }
    Some(WcojCandidate {
        plan,
        mapping,
        vars,
        inputs: region.factors.len(),
        nary_cost,
        nary_memory,
    })
}

/// GYO ear removal: a join hypergraph is acyclic iff repeatedly
/// (a) deleting vertices that occur in exactly one hyperedge and
/// (b) deleting hyperedges contained in another (or empty) reduces it
/// to nothing.
fn is_cyclic(hyperedges: &[Vec<usize>], n_vertices: usize) -> bool {
    let mut edges: Vec<Vec<usize>> = hyperedges.to_vec(); // kept sorted+dedup'd
    loop {
        let mut changed = false;
        let mut occ = vec![0usize; n_vertices];
        for e in &edges {
            for &v in e {
                occ[v] += 1;
            }
        }
        for e in &mut edges {
            let before = e.len();
            e.retain(|&v| occ[v] > 1);
            changed |= e.len() != before;
        }
        let mut keep = vec![true; edges.len()];
        for i in 0..edges.len() {
            if edges[i].is_empty() {
                keep[i] = false;
                changed = true;
                continue;
            }
            for j in 0..edges.len() {
                if i == j || !keep[j] {
                    continue;
                }
                let subset = edges[i].iter().all(|v| edges[j].binary_search(v).is_ok());
                if subset && (edges[i].len() < edges[j].len() || i > j) {
                    keep[i] = false;
                    changed = true;
                    break;
                }
            }
        }
        if keep.contains(&false) {
            let mut k = keep.iter();
            edges.retain(|_| *k.next().expect("keep flag per edge"));
        }
        if edges.is_empty() {
            return false;
        }
        if !changed {
            return true;
        }
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN notes
// ---------------------------------------------------------------------------

/// EXPLAIN's note on one operator of a plan (see [`Fra::explain_with`]):
/// its estimated output rows and, on a ⨝ⁿ, the per-variable distinct
/// estimates that chose its elimination order.
pub(crate) fn estimate_note(fra: &Fra, stats: &PlanStats) -> String {
    use std::fmt::Write;
    let mut note = format!("  ~{:.0} rows", estimate(fra, stats).max(0.0));
    if let Fra::MultiwayJoin {
        inputs,
        var_of,
        names,
    } = fra
    {
        let rels: Vec<Rel> = inputs.iter().map(|i| analyze(i, stats)).collect();
        for (v, name) in names.iter().enumerate() {
            let mut d = f64::INFINITY;
            for (rel, vars) in rels.iter().zip(var_of) {
                for (c, _) in vars.iter().enumerate().filter(|&(_, &vc)| vc == v) {
                    let dc = rel
                        .cols
                        .get(c)
                        .map_or(rel.card.sqrt(), |ci| ci.distinct(rel.card, stats));
                    d = d.min(dc);
                }
            }
            let d = if d.is_finite() { d } else { 0.0 };
            let _ = write!(note, "\n· var {v} ({name}): ~{d:.0} distinct");
        }
    }
    note
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fra::PropPush;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    fn stats() -> PlanStats {
        let mut st = PlanStats {
            vertices: 10_000,
            edges: 60_000,
            ..PlanStats::default()
        };
        st.label_counts.insert(s("User"), 5_000);
        st.label_counts.insert(s("Post"), 4_000);
        st.label_counts.insert(s("Topic"), 50);
        st.type_counts.insert(s("FOLLOWS"), 40_000);
        st.type_counts.insert(s("LIKES"), 15_000);
        st.type_counts.insert(s("TAGGED"), 4_000);
        st.type_distinct_src.insert(s("FOLLOWS"), 5_000);
        st.type_distinct_dst.insert(s("FOLLOWS"), 40);
        st.type_distinct_src.insert(s("LIKES"), 40);
        st.type_distinct_dst.insert(s("LIKES"), 4_000);
        st.type_distinct_src.insert(s("TAGGED"), 4_000);
        st.type_distinct_dst.insert(s("TAGGED"), 50);
        st.vertex_prop_distinct.insert(s("name"), 50);
        st
    }

    fn edge_scan(ty: &str, src: &str, edge: &str, dst: &str) -> Fra {
        Fra::ScanEdges {
            src: src.into(),
            edge: edge.into(),
            dst: dst.into(),
            types: vec![s(ty)],
            src_labels: vec![],
            dst_labels: vec![],
            src_props: vec![],
            edge_props: vec![],
            dst_props: vec![],
            dir: pgq_common::dir::Direction::Out,
        }
    }

    /// (a)-[:FOLLOWS]->(b), (b)-[:LIKES]->(p), (p)-[:TAGGED]->(t {name}),
    /// σ t.name = 'rare' — written in the worst order.
    fn skewed_plan() -> Fra {
        let tagged = Fra::ScanEdges {
            src: "p".into(),
            edge: "e3".into(),
            dst: "t".into(),
            types: vec![s("TAGGED")],
            src_labels: vec![],
            dst_labels: vec![s("Topic")],
            src_props: vec![],
            edge_props: vec![],
            dst_props: vec![PropPush {
                prop: s("name"),
                col: "t.name".into(),
            }],
            dir: pgq_common::dir::Direction::Out,
        };
        let j1 = Fra::HashJoin {
            left: Box::new(edge_scan("FOLLOWS", "a", "e1", "b")),
            right: Box::new(edge_scan("LIKES", "b", "e2", "p")),
            left_keys: vec![2],
            right_keys: vec![0],
            value_keys: vec![],
        };
        let j2 = Fra::HashJoin {
            left: Box::new(j1),
            right: Box::new(tagged),
            left_keys: vec![4],
            right_keys: vec![0],
            value_keys: vec![],
        };
        Fra::Filter {
            predicate: ScalarExpr::Binary(
                BinOp::Eq,
                Box::new(ScalarExpr::Col(7)),
                Box::new(ScalarExpr::Lit(Value::str("rare"))),
            ),
            input: Box::new(j2),
        }
    }

    #[test]
    fn plan_preserves_schema() {
        let p = skewed_plan();
        let planned = plan(&p, &stats());
        assert_eq!(planned.fra.schema(), p.schema());
    }

    #[test]
    fn planner_reorders_skewed_join_tree() {
        let p = skewed_plan();
        let planned = plan(&p, &stats());
        assert!(planned.changed, "skewed plan should be reordered");
        // The FOLLOWS scan (the huge fan-out relation) must join LAST:
        // the top join of the planned tree has FOLLOWS on one side and
        // the (LIKES ⋈ σTAGGED) subtree on the other.
        fn top_join_sides(f: &Fra) -> Option<(&Fra, &Fra)> {
            match f {
                Fra::HashJoin { left, right, .. } => Some((left, right)),
                Fra::Filter { input, .. } | Fra::Project { input, .. } => top_join_sides(input),
                _ => None,
            }
        }
        fn contains_type(f: &Fra, ty: &str) -> bool {
            match f {
                Fra::ScanEdges { types, .. } => types.contains(&Symbol::intern(ty)),
                Fra::HashJoin { left, right, .. } => {
                    contains_type(left, ty) || contains_type(right, ty)
                }
                Fra::Filter { input, .. } | Fra::Project { input, .. } => contains_type(input, ty),
                _ => false,
            }
        }
        let (l, r) = top_join_sides(&planned.fra).expect("planned tree has a join");
        let follows_alone = (contains_type(l, "FOLLOWS") && !contains_type(l, "TAGGED"))
            || (contains_type(r, "FOLLOWS") && !contains_type(r, "TAGGED"));
        assert!(
            follows_alone,
            "FOLLOWS must be joined last:\n{}",
            planned.fra.explain()
        );
    }

    /// `(a:Person)-[:CREATED]->(p), (a)-[:KNOWS]->(b), (b)-[:LIKES]->(p)`
    /// under social-shaped statistics: the enumerator joins CREATED and
    /// LIKES on `p` first and brings KNOWS in next, and `a`'s label scan,
    /// the unit the written plan equates both `a` columns through, joins
    /// last. The join that brings KNOWS in shares `b` by an edge and `a`
    /// only through that scan; keyed on `b` alone it would hold every
    /// like times every friend of the post's author.
    #[test]
    fn a_join_keys_on_every_class_both_sides_hold() {
        // The catalog of the benchmark's `social_durable` graph, with
        // fewer likes: CREATED ⋈ LIKES then estimates below every other
        // first join (on the benchmark's own catalog the two orders tie).
        let mut st = PlanStats {
            vertices: 6_600,
            edges: 15_595,
            out_degree_sq_sum: 208_233,
            out_degree_sources: 3_606,
            ..PlanStats::default()
        };
        st.label_counts.insert(s("Person"), 600);
        st.label_counts.insert(s("Post"), 1_200);
        st.label_counts.insert(s("Comm"), 4_800);
        for (ty, n, src, dst) in [
            ("CREATED", 6_000, 488, 6_000),
            ("KNOWS", 2_395, 488, 475),
            ("LIKES", 60, 60, 60),
            ("REPLY", 4_800, 4_800, 4_800),
        ] {
            st.type_counts.insert(s(ty), n);
            st.type_distinct_src.insert(s(ty), src);
            st.type_distinct_dst.insert(s(ty), dst);
        }
        let q = "MATCH (a:Person)-[:CREATED]->(p:Post) MATCH (a)-[:KNOWS]->(b:Person) \
                 MATCH (b)-[:LIKES]->(p) RETURN a, b, p";
        let query = pgq_parser::parse_query(q).unwrap();
        let written = crate::pipeline::compile_query(&query).unwrap().fra;
        let planned = plan(&written, &st).fra;
        assert_eq!(planned.schema(), written.schema());

        fn types(f: &Fra, out: &mut Vec<Symbol>) {
            match f {
                Fra::ScanEdges { types: t, .. } => out.extend(t),
                Fra::HashJoin { left, right, .. } => {
                    types(left, out);
                    types(right, out);
                }
                Fra::Filter { input, .. } | Fra::Project { input, .. } => types(input, out),
                _ => {}
            }
        }
        /// Key count of the join with KNOWS alone on one side.
        fn knows_join(f: &Fra) -> Option<(usize, Vec<Symbol>)> {
            match f {
                Fra::HashJoin {
                    left,
                    right,
                    left_keys,
                    ..
                } => {
                    let (mut l, mut r) = (Vec::new(), Vec::new());
                    types(left, &mut l);
                    types(right, &mut r);
                    let knows = [s("KNOWS")];
                    match (l == knows, r == knows) {
                        (true, _) => Some((left_keys.len(), r)),
                        (_, true) => Some((left_keys.len(), l)),
                        _ => knows_join(left).or_else(|| knows_join(right)),
                    }
                }
                Fra::Filter { input, .. } | Fra::Project { input, .. } => knows_join(input),
                _ => None,
            }
        }
        let (keys, mut other) = knows_join(&planned).expect("KNOWS joins alone");
        other.sort();
        let mut created_likes = vec![s("CREATED"), s("LIKES")];
        created_likes.sort();
        assert_eq!(other, created_likes, "{}", planned.explain());
        assert_eq!(keys, 2, "keyed on `b` and `a`:\n{}", planned.explain());
    }

    #[test]
    fn no_stats_keeps_syntactic_order() {
        // With an empty catalog every unit estimates alike; ties resolve
        // to the syntactic order, so nothing changes.
        let p = skewed_plan();
        let planned = plan(&p, &PlanStats::default());
        assert_eq!(planned.fra.schema(), p.schema());
    }

    #[test]
    fn two_relation_join_is_untouched() {
        let j = Fra::HashJoin {
            left: Box::new(edge_scan("FOLLOWS", "a", "e1", "b")),
            right: Box::new(edge_scan("LIKES", "b", "e2", "p")),
            left_keys: vec![2],
            right_keys: vec![0],
            value_keys: vec![],
        };
        let planned = plan(&j, &stats());
        assert_eq!(planned.fra, j, "a single binary join keeps its shape");
        assert!(!planned.changed);
    }

    #[test]
    fn single_factor_filter_region_is_untouched() {
        let f = Fra::Filter {
            input: Box::new(Fra::ScanVertices {
                var: "t".into(),
                labels: vec![s("Topic")],
                props: vec![PropPush {
                    prop: s("name"),
                    col: "t.name".into(),
                }],
            }),
            predicate: ScalarExpr::Binary(
                BinOp::Eq,
                Box::new(ScalarExpr::Col(1)),
                Box::new(ScalarExpr::Lit(Value::str("rare"))),
            ),
        };
        let planned = plan(&f, &stats());
        assert_eq!(planned.fra, f);
        assert!(!planned.changed);
    }

    #[test]
    fn single_side_filter_is_pushed_below_the_join() {
        // σ[t.name = 'rare'] above the join must move onto the TAGGED
        // factor when the region is rebuilt.
        let planned = plan(&skewed_plan(), &stats());
        fn filter_directly_over_scan(f: &Fra) -> bool {
            match f {
                Fra::Filter { input, .. } => matches!(input.as_ref(), Fra::ScanEdges { .. }),
                Fra::HashJoin { left, right, .. } => {
                    filter_directly_over_scan(left) || filter_directly_over_scan(right)
                }
                Fra::Project { input, .. } => filter_directly_over_scan(input),
                _ => false,
            }
        }
        assert!(
            filter_directly_over_scan(&planned.fra),
            "{}",
            planned.fra.explain()
        );
    }

    fn planned_query(q: &str) -> Fra {
        let cq = crate::compile_query(&pgq_parser::parse_query(q).unwrap()).unwrap();
        let planned = plan(&cq.fra, &stats());
        assert_eq!(planned.fra.schema(), cq.fra.schema(), "{q}");
        planned.fra
    }

    /// The predicates of every σ in `f`, top-down.
    fn filters(f: &Fra) -> Vec<&ScalarExpr> {
        match f {
            Fra::Filter { input, predicate } => {
                let mut out = vec![predicate];
                out.extend(filters(input));
                out
            }
            Fra::HashJoin { left, right, .. } | Fra::SemiJoin { left, right, .. } => {
                let mut out = filters(left);
                out.extend(filters(right));
                out
            }
            Fra::VarLengthJoin { left: input, .. }
            | Fra::Project { input, .. }
            | Fra::Distinct { input }
            | Fra::Aggregate { input, .. }
            | Fra::Unwind { input, .. } => filters(input),
            _ => vec![],
        }
    }

    #[test]
    fn filter_over_projection_lands_on_varlength_left_input() {
        // The compiler puts a π between the WHERE's σ and ⋈* for every
        // named path; the source-side conjunct must still end up below
        // the expansion, so only admitted posts anchor paths.
        let planned =
            planned_query("MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = 'en' RETURN p, t");
        fn varlen_left(f: &Fra) -> Option<&Fra> {
            match f {
                Fra::VarLengthJoin { left, .. } => Some(left),
                Fra::Filter { input, .. }
                | Fra::Project { input, .. }
                | Fra::Distinct { input } => varlen_left(input),
                _ => None,
            }
        }
        let left = varlen_left(&planned).expect("plan keeps its ⋈*");
        assert_eq!(filters(left).len(), 1, "{}", planned.explain());
        assert_eq!(filters(&planned).len(), 1, "{}", planned.explain());
    }

    #[test]
    fn conjunct_on_unwound_column_stays_above_the_unwind() {
        // σ[x > 1 ∧ p.len > 5] δ ω[… AS x] ©(p {len}): the σ passes δ
        // whole, then only `p.len > 5` passes ω.
        let cmp = |col: usize, lit: i64| {
            ScalarExpr::Binary(
                BinOp::Gt,
                Box::new(ScalarExpr::Col(col)),
                Box::new(ScalarExpr::lit(lit)),
            )
        };
        let scan = Fra::ScanVertices {
            var: "p".into(),
            labels: vec![s("Post")],
            props: vec![PropPush {
                prop: s("len"),
                col: "p.len".into(),
            }],
        };
        let unwind = |input: Fra| Fra::Unwind {
            input: Box::new(input),
            expr: ScalarExpr::List(vec![ScalarExpr::lit(1), ScalarExpr::lit(2)]),
            alias: "x".into(),
        };
        let filter = |input: Fra, predicate: ScalarExpr| Fra::Filter {
            input: Box::new(input),
            predicate,
        };
        let written = filter(
            Fra::Distinct {
                input: Box::new(unwind(scan.clone())),
            },
            ScalarExpr::Binary(BinOp::And, Box::new(cmp(2, 1)), Box::new(cmp(1, 5))),
        );
        let expected = Fra::Distinct {
            input: Box::new(filter(unwind(filter(scan, cmp(1, 5))), cmp(2, 1))),
        };
        assert_eq!(plan(&written, &stats()).fra, expected);
    }

    #[test]
    fn filter_over_aggregate_stays_put() {
        let planned = planned_query(
            "MATCH (p:Post) WITH p.lang AS l, count(*) AS n WHERE n > 1 AND l = 'en' RETURN l, n",
        );
        fn over_aggregate(f: &Fra) -> bool {
            match f {
                Fra::Filter { input, .. } if matches!(**input, Fra::Aggregate { .. }) => true,
                Fra::Filter { input, .. } | Fra::Project { input, .. } => over_aggregate(input),
                _ => false,
            }
        }
        assert!(over_aggregate(&planned), "{}", planned.explain());
        let all = filters(&planned);
        assert_eq!(all.len(), 1, "{}", planned.explain());
        assert_eq!(all[0].clone().operands(BinOp::And).len(), 2);
    }

    #[test]
    fn constant_conjuncts_fold_away() {
        let planned = planned_query("MATCH (p:Post) WHERE 1 + 1 = 2 AND p.len >= 0 RETURN p");
        let all = filters(&planned);
        assert_eq!(all.len(), 1, "{}", planned.explain());
        assert_eq!(all[0].clone().operands(BinOp::And).len(), 1);
        // A predicate that is constant-true leaves no σ at all.
        let planned = planned_query("MATCH (p:Post) WHERE 1 + 1 = 2 RETURN p");
        assert!(filters(&planned).is_empty(), "{}", planned.explain());
    }

    #[test]
    fn explain_reports_estimates() {
        let text = skewed_plan().explain_with(&mut |op| estimate_note(op, &stats()));
        assert!(text.contains("~"), "{text}");
        assert!(text.contains("⋈"), "{text}");
    }

    #[test]
    fn varlength_region_rebuild_preserves_shape_and_schema() {
        let vlj = Fra::VarLengthJoin {
            left: Box::new(Fra::ScanVertices {
                var: "p".into(),
                labels: vec![s("Post")],
                props: vec![],
            }),
            src_col: 0,
            spec: VarLenSpec {
                types: vec![s("REPLY")],
                dir: pgq_common::dir::Direction::Out,
                dst_labels: vec![s("Comm")],
                dst_props: vec![PropPush {
                    prop: s("lang"),
                    col: "c.lang".into(),
                }],
                edge_prop_filters: vec![],
                min: 1,
                max: None,
            },
            dst: "c".into(),
            path: "t".into(),
        };
        let filtered = Fra::Filter {
            predicate: ScalarExpr::Binary(
                BinOp::Eq,
                Box::new(ScalarExpr::Col(2)),
                Box::new(ScalarExpr::Lit(Value::str("en"))),
            ),
            input: Box::new(vlj.clone()),
        };
        let planned = plan(&filtered, &stats());
        assert_eq!(planned.fra.schema(), filtered.schema());
        // Single factor + single expansion: the shape is unchanged.
        assert_eq!(planned.fra, filtered);
    }
}
