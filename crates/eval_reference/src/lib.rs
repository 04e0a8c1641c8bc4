//! The materialising evaluator `pgq_eval` replaced, kept as a test
//! reference: it walks the plan bottom-up and builds a full bag per
//! operator, so every intermediate result is held at once. Production
//! code never reaches it (it is a dev-dependency only); the differential
//! tests compare the push evaluator's answers and `rows_scanned` against
//! it, and the memory tests measure what its bags cost.
//!
//! Its behaviour is the old evaluator's, with one fix shared by every
//! evaluator: an integer `sum` is exact, and one outside `i64` reads
//! `null`; `avg` divides that exact sum.
//!
//! It shares no scan or path code with `pgq_eval`: its ©, ⇑ and ⋈*
//! walks are its own, so a fault in `pgq_graph::scan` or in
//! `pgq_eval::enumerate_paths` shows as a disagreement.
//!
//! Its surface mirrors `pgq_eval`'s: [`evaluate_consolidated`],
//! [`evaluate_query`], and an [`Evaluator`] that counts `rows_scanned`.

#![warn(missing_docs, unreachable_pub)]

use std::cmp::Ordering;

use pgq_algebra::expr::{AggCall, AggFunc, ScalarExpr};
use pgq_algebra::fra::{Fra, VarLenSpec};
use pgq_algebra::CompiledQuery;
use pgq_common::dir::Direction;
use pgq_common::fxhash::FxHashMap;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::path::PathValue;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_graph::index::join_key;
use pgq_graph::store::PropertyGraph;
use pgq_parser::ast::BinOp;

use pgq_eval::Bag;

/// Every edge-distinct path from `src` whose hops pass `spec` and whose
/// length lies within `[spec.min, spec.max]`, each before the paths that
/// extend it: the reference's own walk, so that ⋈* is held to an answer
/// `pgq_eval::enumerate_paths` did not also produce.
fn paths_from(g: &PropertyGraph, src: VertexId, spec: &VarLenSpec) -> Vec<PathValue> {
    fn walk(g: &PropertyGraph, spec: &VarLenSpec, path: PathValue, out: &mut Vec<PathValue>) {
        let len = path.len() as u32;
        let ends = spec.max.is_some_and(|max| len >= max);
        let next = match ends {
            true => Vec::new(),
            false => hops(g, path.target(), spec),
        };
        let extensions: Vec<PathValue> = next
            .into_iter()
            .filter(|&(e, _)| !path.contains_edge(e))
            .map(|(e, w)| path.extend(e, w))
            .collect();
        if len >= spec.min {
            out.push(path);
        }
        for longer in extensions {
            walk(g, spec, longer, out);
        }
    }
    let mut out = Vec::new();
    if g.has_vertex(src) {
        walk(g, spec, PathValue::single(src), &mut out);
    }
    out
}

/// The hops `(edge, next vertex)` a path at `v` can take under `spec`,
/// in adjacency order: its outgoing edges unless it reads `In`, then its
/// incoming ones unless it reads `Out`, of an admitted type and holding
/// every edge-property filter. An edge already listed is not listed
/// again, so a self-loop, in both of `v`'s lists, is one hop.
fn hops(g: &PropertyGraph, v: VertexId, spec: &VarLenSpec) -> Vec<(EdgeId, VertexId)> {
    let forward = (spec.dir != Direction::In).then(|| g.out_edges(v));
    let backward = (spec.dir != Direction::Out).then(|| g.in_edges(v));
    let listed = forward.into_iter().flatten().map(|&e| (e, true));
    let listed = listed.chain(backward.into_iter().flatten().map(|&e| (e, false)));
    let mut hops: Vec<(EdgeId, VertexId)> = Vec::new();
    for (e, out) in listed {
        let Some(data) = g.edge(e) else { continue };
        let typed = spec.types.is_empty() || spec.types.contains(&data.ty);
        let held = spec
            .edge_prop_filters
            .iter()
            .all(|(k, want)| data.props.get(*k) == Some(want));
        if typed && held && hops.iter().all(|&(f, _)| f != e) {
            hops.push((e, if out { data.dst } else { data.src }));
        }
    }
    hops
}

/// Evaluate an FRA plan against the current graph.
fn evaluate(fra: &Fra, g: &PropertyGraph) -> Bag {
    Evaluator::new(g).run(fra)
}

/// One evaluation over one graph: the operator walk plus a count of the
/// base rows it read.
pub struct Evaluator<'g> {
    g: &'g PropertyGraph,
    /// Vertices and edges the scans have materialised so far.
    pub rows_scanned: u64,
}

/// The `(label, key, literal)` of a `σ[col = literal](©(l {k→col}))`
/// the property index can answer.
fn seek_key<'a>(scan: &Fra, predicate: &'a ScalarExpr) -> Option<(Symbol, Symbol, &'a Value)> {
    let Fra::ScanVertices { labels, props, .. } = scan else {
        return None;
    };
    let label = *labels.first()?;
    match predicate {
        ScalarExpr::Binary(BinOp::And, l, r) => seek_key(scan, l).or_else(|| seek_key(scan, r)),
        ScalarExpr::Binary(BinOp::Eq, l, r) => match (&**l, &**r) {
            (ScalarExpr::Col(i), ScalarExpr::Lit(v)) | (ScalarExpr::Lit(v), ScalarExpr::Col(i)) => {
                Some((label, props.get(i.checked_sub(1)?)?.prop, v))
            }
            _ => None,
        },
        _ => None,
    }
}

impl<'g> Evaluator<'g> {
    /// An evaluator over `g` with its counter at zero.
    pub fn new(g: &'g PropertyGraph) -> Self {
        Evaluator { g, rows_scanned: 0 }
    }

    /// Evaluate `fra` into a bag.
    pub fn run(&mut self, fra: &Fra) -> Bag {
        self.eval(fra)
    }

    /// © over the vertices `ids` (label and property columns as the scan
    /// says).
    fn scan_vertices(&mut self, scan: &Fra, ids: impl Iterator<Item = VertexId>) -> Bag {
        let Fra::ScanVertices { labels, props, .. } = scan else {
            unreachable!("callers pass a ©")
        };
        let mut out = Vec::new();
        for v in ids {
            self.rows_scanned += 1;
            let Some(data) = self.g.vertex(v) else {
                continue;
            };
            if !labels.iter().all(|&l| data.has_label(l)) {
                continue;
            }
            let mut vals = vec![Value::Node(v)];
            for p in props {
                vals.push(data.props.get_or_null(p.prop));
            }
            out.push((Tuple::new(vals), 1));
        }
        out
    }

    /// The rows edge `e` contributes to ⇑ `scan`.
    fn scan_edge(&mut self, scan: &Fra, e: EdgeId, out: &mut Bag) {
        let Fra::ScanEdges {
            types,
            src_labels,
            dst_labels,
            src_props,
            edge_props,
            dst_props,
            dir,
            ..
        } = scan
        else {
            unreachable!("callers pass a ⇑")
        };
        let g = self.g;
        self.rows_scanned += 1;
        let Some(data) = g.edge(e) else { return };
        if !types.is_empty() && !types.contains(&data.ty) {
            return;
        }
        let orientations: &[(_, _)] = match dir {
            Direction::Out => &[(data.src, data.dst)],
            Direction::In => &[(data.dst, data.src)],
            Direction::Both => {
                if data.src == data.dst {
                    &[(data.src, data.dst)]
                } else {
                    &[(data.src, data.dst), (data.dst, data.src)]
                }
            }
        };
        for &(s, d) in orientations {
            let (Some(sd), Some(dd)) = (g.vertex(s), g.vertex(d)) else {
                continue;
            };
            if !src_labels.iter().all(|&l| sd.has_label(l))
                || !dst_labels.iter().all(|&l| dd.has_label(l))
            {
                continue;
            }
            let mut vals = vec![Value::Node(s), Value::Rel(e), Value::Node(d)];
            for p in src_props {
                vals.push(sd.props.get_or_null(p.prop));
            }
            for p in edge_props {
                vals.push(data.props.get_or_null(p.prop));
            }
            for p in dst_props {
                vals.push(dd.props.get_or_null(p.prop));
            }
            out.push((Tuple::new(vals), 1));
        }
    }

    fn eval(&mut self, fra: &Fra) -> Bag {
        let g = self.g;
        match fra {
            Fra::Unit => vec![(Tuple::unit(), 1)],
            Fra::ScanVertices { labels, .. } => match labels.first() {
                Some(&l) => self.scan_vertices(fra, g.vertices_with_label(l).iter().copied()),
                None => self.scan_vertices(fra, g.vertex_ids()),
            },
            Fra::ScanEdges { types, .. } => {
                let mut out = Vec::new();
                if types.is_empty() {
                    for e in g.edge_ids() {
                        self.scan_edge(fra, e, &mut out);
                    }
                } else {
                    for &t in types {
                        for &e in g.edges_with_type(t) {
                            self.scan_edge(fra, e, &mut out);
                        }
                    }
                }
                out
            }
            Fra::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                value_keys,
            } => {
                let l = self.eval(left);
                if l.is_empty() {
                    return l;
                }
                let r = self.eval(right);
                let right_keep: Vec<usize> = (0..right.schema().len())
                    .filter(|i| !right_keys.contains(i))
                    .collect();
                let mut index: FxHashMap<Tuple, Vec<(Tuple, i64)>> = FxHashMap::default();
                for (t, m) in r {
                    index.entry(t.project(right_keys)).or_default().push((t, m));
                }
                let mut out = Vec::new();
                for (lt, lm) in l {
                    let key = lt.project(left_keys);
                    if let Some(matches) = index.get(&key) {
                        // A value key holds where both sides have one
                        // join key.
                        let by_value = |rt: &Tuple| {
                            value_keys.iter().all(|&(l, r)| {
                                let k = join_key(lt.get(l));
                                k.is_some() && k == join_key(rt.get(r))
                            })
                        };
                        for (rt, rm) in matches.iter().filter(|(rt, _)| by_value(rt)) {
                            let mut vals: Vec<Value> = lt.values().to_vec();
                            for &i in &right_keep {
                                vals.push(rt.get(i).clone());
                            }
                            out.push((Tuple::new(vals), lm * rm));
                        }
                    }
                }
                out
            }
            Fra::VarLengthJoin {
                left,
                src_col,
                spec,
                ..
            } => {
                let l = self.eval(left);
                let mut out = Vec::new();
                // Enumerate per distinct source, then fan out to left rows.
                let mut by_src: FxHashMap<Value, Vec<(Tuple, i64)>> = FxHashMap::default();
                for (t, m) in l {
                    by_src
                        .entry(t.get(*src_col).clone())
                        .or_default()
                        .push((t, m));
                }
                for (srcv, rows) in by_src {
                    let Some(src) = srcv.as_node() else { continue };
                    for p in paths_from(g, src, spec) {
                        let dst = p.target();
                        let Some(dd) = g.vertex(dst) else { continue };
                        if !spec.dst_labels.iter().all(|&l| dd.has_label(l)) {
                            continue;
                        }
                        let mut tail: Vec<Value> = vec![Value::Node(dst)];
                        for pr in &spec.dst_props {
                            tail.push(dd.props.get_or_null(pr.prop));
                        }
                        tail.push(Value::path(p.clone()));
                        for (t, m) in &rows {
                            let mut vals: Vec<Value> = t.values().to_vec();
                            vals.extend(tail.iter().cloned());
                            out.push((Tuple::new(vals), *m));
                        }
                    }
                }
                out
            }
            Fra::SemiJoin {
                left,
                right,
                left_keys,
                right_keys,
                anti,
            } => {
                let l = self.eval(left);
                let r = self.eval(right);
                let mut support: FxHashMap<Tuple, i64> = FxHashMap::default();
                for (t, m) in r {
                    *support.entry(t.project(right_keys)).or_insert(0) += m;
                }
                l.into_iter()
                    .filter(|(t, _)| {
                        let positive = support.get(&t.project(left_keys)).copied().unwrap_or(0) > 0;
                        positive != *anti
                    })
                    .collect()
            }
            Fra::Filter { input, predicate } => {
                // Seek: the index's candidates instead of the label extent.
                let seek = seek_key(input, predicate).and_then(|(l, k, v)| g.prop_seek(l, k, v));
                let rows = match seek {
                    Some(candidates) => self.scan_vertices(input, candidates.iter().copied()),
                    None => self.eval(input),
                };
                rows.into_iter()
                    .filter(|(t, _)| predicate.matches(t))
                    .collect()
            }
            Fra::Project { input, items } => self
                .eval(input)
                .into_iter()
                .map(|(t, m)| {
                    let vals = items
                        .iter()
                        .map(|(e, _)| e.eval(&t).unwrap_or(Value::Null))
                        .collect::<Vec<_>>();
                    (Tuple::new(vals), m)
                })
                .collect(),
            Fra::Distinct { input } => {
                let mut seen: FxHashMap<Tuple, i64> = FxHashMap::default();
                for (t, m) in self.eval(input) {
                    *seen.entry(t).or_insert(0) += m;
                }
                seen.into_iter()
                    .filter(|(_, m)| *m > 0)
                    .map(|(t, _)| (t, 1))
                    .collect()
            }
            Fra::Aggregate { input, group, aggs } => aggregate_bag(self.eval(input), group, aggs),
            Fra::Unwind { input, expr, .. } => {
                let mut out = Vec::new();
                for (t, m) in self.eval(input) {
                    if let Ok(Value::List(items)) = expr.eval(&t) {
                        for item in items.iter() {
                            out.push((t.push(item.clone()), m));
                        }
                    }
                }
                out
            }
            Fra::MultiwayJoin {
                inputs,
                var_of,
                names,
            } => {
                // The baseline recomputes ⨝ⁿ as a left-deep hash join over
                // variable bindings: fold the inputs in order, joining each
                // on whichever of its variables are already bound. Output
                // columns are the bindings in variable order (matching the
                // operator's schema), so results agree with the
                // incremental operator tuple-for-tuple.
                let nvars = names.len();
                let mut bound = vec![false; nvars];
                let mut acc: Vec<(Vec<Value>, i64)> = vec![(vec![Value::Null; nvars], 1)];
                for (i, inp) in inputs.iter().enumerate() {
                    let by_col = &var_of[i];
                    let first_col = |v: usize| {
                        by_col
                            .iter()
                            .position(|&w| w == v)
                            .expect("var of this input")
                    };
                    let mut distinct: Vec<usize> = by_col.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    let shared: Vec<usize> =
                        distinct.iter().copied().filter(|&v| bound[v]).collect();
                    let fresh: Vec<usize> =
                        distinct.iter().copied().filter(|&v| !bound[v]).collect();
                    let shared_cols: Vec<usize> = shared.iter().map(|&v| first_col(v)).collect();
                    let fresh_cols: Vec<usize> = fresh.iter().map(|&v| first_col(v)).collect();
                    let mut index: FxHashMap<Tuple, Vec<(Vec<Value>, i64)>> = FxHashMap::default();
                    for (t, m) in self.eval(inp) {
                        // A variable mapped to several columns equates them.
                        if by_col
                            .iter()
                            .enumerate()
                            .any(|(c, &v)| t.get(first_col(v)) != t.get(c))
                        {
                            continue;
                        }
                        let vals: Vec<Value> =
                            fresh_cols.iter().map(|&c| t.get(c).clone()).collect();
                        index
                            .entry(t.project(&shared_cols))
                            .or_default()
                            .push((vals, m));
                    }
                    let mut next = Vec::new();
                    for (b, m) in acc {
                        let key: Tuple = shared.iter().map(|&v| b[v].clone()).collect();
                        if let Some(matches) = index.get(&key) {
                            for (vals, mm) in matches {
                                let mut nb = b.clone();
                                for (k, &v) in fresh.iter().enumerate() {
                                    nb[v] = vals[k].clone();
                                }
                                next.push((nb, m * mm));
                            }
                        }
                    }
                    acc = next;
                    for &v in &fresh {
                        bound[v] = true;
                    }
                }
                acc.into_iter().map(|(b, m)| (Tuple::new(b), m)).collect()
            }
        }
    }

    /// Evaluate a compiled query end-to-end into rows (multiplicities
    /// expanded) in the deterministic base order, then apply ORDER BY /
    /// SKIP / LIMIT.
    pub fn run_query(&mut self, cq: &CompiledQuery) -> Vec<Tuple> {
        let bag = self.run(&cq.fra);
        let mut rows: Vec<Tuple> = Vec::new();
        for (t, m) in bag {
            for _ in 0..m.max(0) {
                rows.push(t.clone());
            }
        }
        // Deterministic base order.
        rows.sort_by(tuple_cmp);
        if !cq.order_by.is_empty() {
            rows.sort_by(|a, b| {
                for (expr, asc) in &cq.order_by {
                    let va = expr.eval(a).unwrap_or(Value::Null);
                    let vb = expr.eval(b).unwrap_or(Value::Null);
                    let ord = va.total_cmp(&vb);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        let start = cq.skip.unwrap_or(0).min(rows.len());
        let end = match cq.limit {
            Some(l) => (start + l).min(rows.len()),
            None => rows.len(),
        };
        rows[start..end].to_vec()
    }
}

fn aggregate_bag(input: Bag, group: &[(ScalarExpr, String)], aggs: &[(AggCall, String)]) -> Bag {
    struct Acc {
        rows: i64,
        values: Vec<Vec<Value>>, // per agg: raw arg values (mult-expanded)
    }
    let mut groups: FxHashMap<Tuple, Acc> = FxHashMap::default();
    for (t, m) in input {
        let key: Tuple = group
            .iter()
            .map(|(e, _)| e.eval(&t).unwrap_or(Value::Null))
            .collect();
        let acc = groups.entry(key).or_insert_with(|| Acc {
            rows: 0,
            values: vec![Vec::new(); aggs.len()],
        });
        acc.rows += m;
        for (i, (call, _)) in aggs.iter().enumerate() {
            let v = call
                .arg
                .as_ref()
                .map(|e| e.eval(&t).unwrap_or(Value::Null))
                .unwrap_or(Value::Null);
            for _ in 0..m.max(0) {
                acc.values[i].push(v.clone());
            }
        }
    }
    if group.is_empty() && groups.is_empty() {
        groups.insert(
            Tuple::unit(),
            Acc {
                rows: 0,
                values: vec![Vec::new(); aggs.len()],
            },
        );
    }
    let mut out = Vec::new();
    for (key, acc) in groups {
        if acc.rows <= 0 && !group.is_empty() {
            continue;
        }
        let mut vals: Vec<Value> = key.values().to_vec();
        for ((call, _), raw) in aggs.iter().zip(acc.values) {
            vals.push(finish_agg(call, acc.rows, raw));
        }
        out.push((Tuple::new(vals), 1));
    }
    out
}

/// One aggregate over the group's argument values `raw`. Values order
/// by [`Value::strict_cmp`] (an integer before an equal float), so a
/// `DISTINCT` aggregate keeps one of each value `==` tells apart.
fn finish_agg(call: &AggCall, rows: i64, mut raw: Vec<Value>) -> Value {
    raw.retain(|v| !v.is_null());
    if call.distinct {
        raw.sort_by(Value::strict_cmp);
        raw.dedup();
    }
    match call.func {
        AggFunc::CountStar => Value::Int(rows),
        AggFunc::Count => Value::Int(raw.len() as i64),
        AggFunc::Sum | AggFunc::Avg => {
            // Integers add exactly; a sum outside `i64` is `null`.
            let mut int_sum = 0i128;
            let mut float_sum = 0.0f64;
            let mut floats = false;
            let mut n = 0i64;
            for v in &raw {
                match v {
                    Value::Int(i) => int_sum += i128::from(*i),
                    Value::Float(f) => {
                        float_sum += f.get();
                        floats = true;
                    }
                    _ => continue,
                }
                n += 1;
            }
            match call.func {
                AggFunc::Avg if n == 0 => Value::Null,
                AggFunc::Avg => Value::float((int_sum as f64 + float_sum) / n as f64),
                _ if floats => Value::float(int_sum as f64 + float_sum),
                _ => i64::try_from(int_sum).map_or(Value::Null, Value::Int),
            }
        }
        AggFunc::Min => raw
            .iter()
            .min_by(|a, b| a.strict_cmp(b))
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Max => raw
            .iter()
            .max_by(|a, b| a.strict_cmp(b))
            .cloned()
            .unwrap_or(Value::Null),
        AggFunc::Collect => {
            raw.sort_by(Value::strict_cmp);
            Value::list(raw)
        }
    }
}

/// Evaluate a compiled query end-to-end, applying ORDER BY / SKIP /
/// LIMIT — the constructs only the baseline supports (the paper's
/// trade-off).
pub fn evaluate_query(cq: &CompiledQuery, g: &PropertyGraph) -> Vec<Tuple> {
    Evaluator::new(g).run_query(cq)
}

/// The engine's result order, written out here rather than taken from
/// `pgq_common::order`: lexicographic [`Value::total_cmp`], the shorter
/// row first on a shared prefix; rows it ties are told apart at their
/// first position where one holds an integer and the other a float,
/// looking inside lists and maps, the integer first.
fn tuple_cmp(a: &Tuple, b: &Tuple) -> Ordering {
    a.values()
        .iter()
        .zip(b.values())
        .fold(Ordering::Equal, |acc, (x, y)| {
            acc.then_with(|| x.total_cmp(y))
        })
        .then_with(|| a.arity().cmp(&b.arity()))
        .then_with(|| first_kind_cmp(a.values().iter().zip(b.values())))
}

/// The first of `pairs` an integer-before-float rule separates.
fn first_kind_cmp<'v>(pairs: impl Iterator<Item = (&'v Value, &'v Value)>) -> Ordering {
    for (x, y) in pairs {
        let ord = match (x, y) {
            (Value::Int(_), Value::Float(_)) => Ordering::Less,
            (Value::Float(_), Value::Int(_)) => Ordering::Greater,
            (Value::List(p), Value::List(q)) => first_kind_cmp(p.iter().zip(q.iter())),
            (Value::Map(p), Value::Map(q)) => first_kind_cmp(p.values().zip(q.values())),
            _ => Ordering::Equal,
        };
        if ord.is_ne() {
            return ord;
        }
    }
    Ordering::Equal
}

/// Convenience: evaluate and consolidate into a sorted multiplicity bag
/// (for comparison against `pgq_ivm`-style view results).
pub fn evaluate_consolidated(fra: &Fra, g: &PropertyGraph) -> Bag {
    let mut m: FxHashMap<Tuple, i64> = FxHashMap::default();
    for (t, c) in evaluate(fra, g) {
        *m.entry(t).or_insert(0) += c;
    }
    let mut out: Vec<(Tuple, i64)> = m.into_iter().filter(|(_, c)| *c != 0).collect();
    out.sort_by(|a, b| tuple_cmp(&a.0, &b.0));
    out
}
