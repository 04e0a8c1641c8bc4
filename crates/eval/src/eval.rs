//! From-scratch (non-incremental) evaluation of FRA plans — the baseline
//! comparator of every benchmark, the executor behind
//! `GraphEngine::execute`/`query`, and the executor for queries outside
//! the maintainable fragment (ORDER BY / SKIP / LIMIT).
//!
//! There is one evaluator ([`Evaluator`]; [`evaluate`] and friends wrap
//! it), and it is push-based. A scan or a seek hands each row it reads
//! to the operator above it, and the row travels up until it reaches the
//! first operator that has to hold rows — a *pipeline breaker*. Nothing
//! else materialises:
//!
//! * a © or ⇑ reads its rows through its `pgq_graph::scan` pattern, the
//!   rule a view's scans read through too, in batches whose lookups are
//!   all made before the batch's first row goes up;
//! * the σ/π/ω chain above an operator runs as one [`TupleProgram`], the
//!   interpreter the dataflow network uses, over borrowed rows;
//! * a ⋈ streams its left input and holds its right input, indexed on
//!   the join key, a value key's column as its `join_key`. The right
//!   side is built when the first left row arrives, so an empty left
//!   never scans it. Each left row probes the index and pushes one row
//!   per match, in build order;
//! * a ⋉ / ▷ streams its left input and holds a support count per key of
//!   its right input, built the same way;
//! * **build or expand**: when the right input of a ⋈ / ⋉ / ▷ is a scan
//!   read through one key column (a ⇑ on its source or target, a © on
//!   its vertex, under at most a σ chain), the join reads it from the
//!   key vertices its left side binds — `out_edges` / `in_edges` /
//!   `vertex()` — whenever a safe upper bound on what that reads stays
//!   below the extent (`expand.rs` says how it decides, with no knob);
//! * γ holds one [`GroupState`] per group, the state the dataflow
//!   network maintains: a count, an exact sum, and for `min` / `max` /
//!   `collect` and the `DISTINCT` aggregates a multiset of the group's
//!   values, where a read, which never deletes, keeps just the extremum
//!   for `min` / `max`. Its keys and arguments are one more π of the chain
//!   below, and a row probes its group once;
//! * δ holds its seen-set, ⋈* its left input grouped by source, and ⨝ⁿ
//!   one index per input after the first, which streams through them;
//! * the root: [`evaluate`] collects the bag, [`evaluate_consolidated`]
//!   consolidates as rows arrive, [`Evaluator::run_rows`] sorts and
//!   slices.
//!
//! So a one-shot read holds its build sides and its groups, never its
//! intermediate paths. For a plan without γ or δ, rows come out
//! left-major, each left row's matches in build order — or, where a join
//! expanded, in its key vertex's adjacency order.
//!
//! A `σ[col = literal]` directly above `©(l {k→col})` *narrows*: the
//! scan reads its candidates from the property index `(l, k)` when the
//! graph maintains one ([`PropertyGraph::prop_seek`]) and the label
//! otherwise. The seek keeps the **superset invariant** — the rows
//! produced contain every row that can survive — and the unchanged σ
//! above decides.
//!
//! Where a filter sits and in which order joins run is not decided
//! here: callers pass the plan through `pgq_algebra::plan` first, and an
//! unplanned plan simply evaluates the way it is written.

use std::cell::Cell;
use std::cmp::Ordering;

use pgq_algebra::agg::GroupState;
use pgq_algebra::expr::{AggCall, ScalarExpr};
use pgq_algebra::fra::Fra;
use pgq_algebra::program::{Emit, Scratch, TupleProgram};
use pgq_algebra::CompiledQuery;
use pgq_common::fxhash::FxHashMap;
use pgq_common::ids::VertexId;
use pgq_common::intern::Symbol;
use pgq_common::order;
use pgq_common::tuple::Tuple;
use pgq_common::value::Value;
use pgq_graph::index::join_key;
use pgq_graph::scan::{EdgePattern, VertexPattern};
use pgq_graph::store::PropertyGraph;
use pgq_parser::ast::BinOp;

use crate::expand::Expansion;
use crate::paths::enumerate_paths;

/// A bag of result tuples.
pub type Bag = Vec<(Tuple, i64)>;

/// Where an operator pushes its output: one row and its multiplicity at
/// a time, the row borrowed for the call.
pub(crate) type Sink<'a> = dyn FnMut(&[Value], i64) + 'a;

/// A source of rows: pushes each of them into the sink it is handed.
pub(crate) type Feed<'a> = dyn FnMut(&mut Sink<'_>) + 'a;

/// Evaluate an FRA plan against the current graph.
pub fn evaluate(fra: &Fra, g: &PropertyGraph) -> Bag {
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

fn children(fra: &Fra) -> Vec<&Fra> {
    match fra {
        Fra::Unit | Fra::ScanVertices { .. } | Fra::ScanEdges { .. } => vec![],
        Fra::HashJoin { left, right, .. } | Fra::SemiJoin { left, right, .. } => {
            vec![left, right]
        }
        Fra::VarLengthJoin { left: input, .. }
        | Fra::Filter { input, .. }
        | Fra::Project { input, .. }
        | Fra::Distinct { input }
        | Fra::Aggregate { input, .. }
        | Fra::Unwind { input, .. } => vec![input],
        Fra::MultiwayJoin { inputs, .. } => inputs.iter().collect(),
    }
}

/// The `(label, key)` property indexes `fra` would seek if the graph
/// maintained them — what `GraphEngine::execute` ensures before it
/// evaluates.
pub fn wanted_indexes(fra: &Fra) -> Vec<(Symbol, Symbol)> {
    let mut out = Vec::new();
    let mut stack = vec![fra];
    while let Some(f) = stack.pop() {
        if let Fra::Filter { input, predicate } = f {
            out.extend(seek_key(input, predicate).map(|(l, k, _)| (l, k)));
        }
        stack.extend(children(f));
    }
    out
}

/// `fra.explain()` with a `seek Person.id` mark on every σ the property
/// index answers over `g`, and an `expand out KNOWS` mark on every join
/// that can read its right input from its key vertices.
pub fn explain(fra: &Fra, g: &PropertyGraph) -> String {
    fn mark(fra: &Fra, g: &PropertyGraph) -> Option<String> {
        match fra {
            Fra::Filter { input, predicate } => {
                let (l, k, _) = seek_key(input, predicate)?;
                let built = if g.has_prop_index(l, k) {
                    ""
                } else {
                    " (index built on first execute; scan until then)"
                };
                Some(format!("seek {l}.{k}{built}"))
            }
            Fra::HashJoin {
                right, right_keys, ..
            }
            | Fra::SemiJoin {
                right, right_keys, ..
            } => Expansion::of(right, right_keys).map(|x| x.to_string()),
            _ => None,
        }
    }
    fra.explain_with(&mut |op| mark(op, g).map_or_else(String::new, |m| format!("    ← {m}")))
}

impl<'g> Evaluator<'g> {
    /// An evaluator over `g` with its counter at zero.
    pub fn new(g: &'g PropertyGraph) -> Self {
        Evaluator { g, rows_scanned: 0 }
    }

    /// Evaluate `fra` into a bag.
    pub fn run(&mut self, fra: &Fra) -> Bag {
        let mut bag = Vec::new();
        self.push(fra, &mut |row, m| bag.push((Tuple::from_slice(row), m)));
        bag
    }

    /// Push every row of `fra` into `out`.
    fn push(&mut self, fra: &Fra, out: &mut Sink<'_>) {
        let run = Pipelines {
            g: self.g,
            scanned: Cell::new(0),
        };
        run.push(fra, out);
        self.rows_scanned += run.scanned.get();
    }

    /// Evaluate a compiled query end-to-end, applying ORDER BY / SKIP /
    /// LIMIT.
    pub fn run_query(&mut self, cq: &CompiledQuery) -> Vec<Tuple> {
        self.run_rows(&cq.fra, &cq.order_by, cq.skip, cq.limit)
    }

    /// Evaluate `fra` into rows (multiplicities expanded) in the result
    /// order ([`pgq_common::order::cmp_rows`]), then apply ORDER BY /
    /// SKIP / LIMIT —
    /// [`Evaluator::run_query`] for a caller that holds the plan apart
    /// from its compilation stages.
    pub fn run_rows(
        &mut self,
        fra: &Fra,
        order_by: &[(ScalarExpr, bool)],
        skip: Option<usize>,
        limit: Option<usize>,
    ) -> Vec<Tuple> {
        let mut rows: Vec<Tuple> = Vec::new();
        self.push(fra, &mut |row, m| {
            if m > 0 {
                let t = Tuple::from_slice(row);
                rows.extend(std::iter::repeat_n(t, m as usize));
            }
        });
        let mut rows = order::sort_rows(rows, |t| t);
        let start = skip.unwrap_or(0).min(rows.len());
        let end = match limit {
            Some(l) => (start + l).min(rows.len()),
            None => rows.len(),
        };
        if order_by.is_empty() {
            rows.truncate(end);
            rows.drain(..start);
            return rows;
        }
        // Each sort key once per row; a stable sort keeps the result
        // order between rows whose keys tie.
        let width = order_by.len();
        let keys: Vec<Value> = rows
            .iter()
            .flat_map(|r| {
                order_by
                    .iter()
                    .map(|(e, _)| e.eval(r).unwrap_or(Value::Null))
            })
            .collect();
        let mut ix: Vec<usize> = (0..rows.len()).collect();
        ix.sort_by(|&a, &b| {
            let (ka, kb) = (&keys[a * width..][..width], &keys[b * width..][..width]);
            order_by
                .iter()
                .zip(ka.iter().zip(kb))
                .map(|((_, asc), (va, vb))| {
                    let ord = va.total_cmp(vb);
                    if *asc {
                        ord
                    } else {
                        ord.reverse()
                    }
                })
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        ix[start..end].iter().map(|&i| rows[i].clone()).collect()
    }
}

/// The pipelines of one evaluation: the graph and the scan counter every
/// operator shares while rows are pushed through them.
pub(crate) struct Pipelines<'g> {
    pub(crate) g: &'g PropertyGraph,
    scanned: Cell<u64>,
}

/// Rows of one width, stored flat: a ⋈ build bucket, a ⋈* source's left
/// rows, a ⨝ⁿ input's fresh bindings, a join's buffered left rows.
pub(crate) struct Rows {
    width: usize,
    values: Vec<Value>,
    mults: Vec<i64>,
}

impl Rows {
    pub(crate) fn new(width: usize) -> Rows {
        Rows {
            width,
            values: Vec::new(),
            mults: Vec::new(),
        }
    }

    pub(crate) fn push<'v>(&mut self, row: impl Iterator<Item = &'v Value>, m: i64) {
        self.values.extend(row.cloned());
        self.mults.push(m);
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[Value], i64)> {
        let w = self.width;
        self.mults
            .iter()
            .enumerate()
            .map(move |(i, &m)| (&self.values[i * w..(i + 1) * w], m))
    }
}

/// A build side: rows keyed by a projection, probed with a borrowed key.
type Index = FxHashMap<Tuple, Rows>;

/// Add `row` (its projection on `keep`) under `key`, allocating the key
/// only when it is new.
fn file(index: &mut Index, key: &[Value], row: &[Value], keep: &[usize], m: i64) {
    let kept = keep.iter().map(|&c| &row[c]);
    match index.get_mut(key) {
        Some(rows) => rows.push(kept, m),
        None => {
            let mut rows = Rows::new(keep.len());
            rows.push(kept, m);
            index.insert(Tuple::from_slice(key), rows);
        }
    }
}

/// Add `m` to `counts[key]`, allocating the key only when it is new.
fn count(counts: &mut FxHashMap<Tuple, i64>, key: &[Value], m: i64) {
    match counts.get_mut(key) {
        Some(n) => *n += m,
        None => {
            counts.insert(Tuple::from_slice(key), m);
        }
    }
}

/// Fill `key` with `row`'s values at `cols`.
fn project_into(row: &[Value], cols: &[usize], key: &mut Vec<Value>) {
    key.clear();
    key.extend(cols.iter().map(|&c| row[c].clone()));
}

/// Run `program` over the rows `feed` pushes, into `out`.
fn run_program(program: &TupleProgram, out: &mut Sink<'_>, feed: impl FnOnce(&mut Sink<'_>)) {
    let mut scratch = Scratch::default();
    let mut through = |row: &[Value], m: i64| {
        program.run(row, &mut scratch, |emit| match emit {
            Emit::Input => out(row, m),
            Emit::Row(r) => out(r, m),
        })
    };
    feed(&mut through)
}

/// The σ/π/ω chain at `fra`'s root over a unit in place of the operator
/// under it, and that operator (`fra` itself when it has no chain).
fn split_chain(fra: &Fra) -> (Fra, &Fra) {
    let (chain, below) = match fra {
        Fra::Filter { input, .. } | Fra::Project { input, .. } | Fra::Unwind { input, .. } => {
            split_chain(input)
        }
        _ => return (Fra::Unit, fra),
    };
    let input = Box::new(chain);
    let op = match fra {
        Fra::Filter { predicate, .. } => Fra::Filter {
            input,
            predicate: predicate.clone(),
        },
        Fra::Project { items, .. } => Fra::Project {
            input,
            items: items.clone(),
        },
        Fra::Unwind { expr, alias, .. } => Fra::Unwind {
            input,
            expr: expr.clone(),
            alias: alias.clone(),
        },
        _ => unreachable!("matched above"),
    };
    (op, below)
}

/// The lowest operator of the σ/π/ω chain at `fra`'s root.
fn chain_bottom(mut fra: &Fra) -> &Fra {
    while let Fra::Filter { input, .. } | Fra::Project { input, .. } | Fra::Unwind { input, .. } =
        fra
    {
        if !matches!(
            **input,
            Fra::Filter { .. } | Fra::Project { .. } | Fra::Unwind { .. }
        ) {
            break;
        }
        fra = input;
    }
    fra
}

/// The pattern of © `scan`.
pub(crate) fn vertex_pattern(scan: &Fra) -> VertexPattern {
    let Fra::ScanVertices { labels, props, .. } = scan else {
        unreachable!("callers pass a ©")
    };
    VertexPattern {
        labels: labels.clone(),
        props: props.iter().map(|p| p.prop).collect(),
    }
}

/// The pattern of ⇑ `scan`.
pub(crate) fn edge_pattern(scan: &Fra) -> EdgePattern {
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
    EdgePattern {
        types: types.clone(),
        dir: *dir,
        src_labels: src_labels.clone(),
        dst_labels: dst_labels.clone(),
        src_props: src_props.iter().map(|p| p.prop).collect(),
        edge_props: edge_props.iter().map(|p| p.prop).collect(),
        dst_props: dst_props.iter().map(|p| p.prop).collect(),
        filters: Vec::new(),
    }
}

/// Fill `key` with `row`'s values at `cols`, then the [`join_key`]s of
/// its values at `values` (a value join's columns); `false`, and no key,
/// when one of those is `null`, which meets nothing.
fn join_key_into(row: &[Value], cols: &[usize], values: &[usize], key: &mut Vec<Value>) -> bool {
    project_into(row, cols, key);
    for &c in values {
        match join_key(&row[c]) {
            Some(k) => key.push(k),
            None => return false,
        }
    }
    true
}

/// A ⋈'s build side: the rows of `input` that `feed` pushes, without
/// their key columns, keyed on `keys` and the value columns `values`.
/// Every row passes here, an expanded one too, so each is filed under
/// its value keys.
fn index(input: &Fra, keys: &[usize], values: &[usize], feed: &mut Feed<'_>) -> Index {
    let keep: Vec<usize> = (0..input.schema().len())
        .filter(|c| !keys.contains(c))
        .collect();
    let mut index = Index::default();
    let mut key = Vec::new();
    feed(&mut |r, m| {
        if join_key_into(r, keys, values, &mut key) {
            file(&mut index, &key, r, &keep, m);
        }
    });
    index
}

/// A ⋉'s support: the multiplicity per key on `keys` of the rows `feed`
/// pushes.
fn support(keys: &[usize], feed: &mut Feed<'_>) -> FxHashMap<Tuple, i64> {
    let mut support = FxHashMap::default();
    let mut key = Vec::new();
    feed(&mut |r, m| {
        project_into(r, keys, &mut key);
        count(&mut support, &key, m);
    });
    support
}

impl<'g> Pipelines<'g> {
    /// Count `n` more base rows read.
    pub(crate) fn count(&self, n: u64) {
        self.scanned.set(self.scanned.get() + n);
    }

    /// The property index's candidates for the σ chain `fra` when its
    /// lowest σ can seek, or `None` when the chain must scan.
    pub(crate) fn seek(&self, fra: &Fra) -> Option<&'g [VertexId]> {
        match chain_bottom(fra) {
            Fra::Filter { input, predicate } => {
                seek_key(input, predicate).and_then(|(l, k, v)| self.g.prop_seek(l, k, v))
            }
            _ => None,
        }
    }

    /// Run the σ/π/ω chain at `fra`'s root as one program over the rows
    /// `feed` pushes for the operator below it, into `out`.
    pub(crate) fn chain(
        &self,
        fra: &Fra,
        out: &mut Sink<'_>,
        feed: impl FnOnce(&Fra, &mut Sink<'_>),
    ) {
        let (program, below) = TupleProgram::compile(fra).expect("a σ/π/ω root");
        run_program(&program, out, |through| feed(below, through))
    }

    /// Push the rows of `below`, the operator under `fra`'s σ/π/ω chain
    /// (`fra` itself when it has none): the property index's candidates
    /// when the chain's lowest σ can seek, else all of them.
    fn feed(&self, fra: &Fra, below: &Fra, out: &mut Sink<'_>) {
        match self.seek(fra) {
            Some(candidates) => {
                let candidates = candidates.iter().copied();
                self.count(vertex_pattern(below).rows_of(self.g, candidates, |row| out(row, 1)))
            }
            None => self.push(below, out),
        }
    }

    /// Push every row of `fra` into `out`.
    pub(crate) fn push(&self, fra: &Fra, out: &mut Sink<'_>) {
        let g = self.g;
        match fra {
            Fra::Unit => out(&[], 1),
            Fra::ScanVertices { .. } => self.count(vertex_pattern(fra).rows(g, |row| out(row, 1))),
            Fra::ScanEdges { .. } => self.count(edge_pattern(fra).rows(g, |row| out(row, 1))),
            // Seek: the index's candidates instead of the label extent.
            Fra::Filter { .. } | Fra::Project { .. } | Fra::Unwind { .. } => {
                self.chain(fra, out, |below, through| self.feed(fra, below, through))
            }
            Fra::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                value_keys,
            } => {
                let (left_vals, right_vals): (Vec<usize>, Vec<usize>) =
                    value_keys.iter().copied().unzip();
                let (mut key, mut row) = (Vec::new(), Vec::new());
                let build = |feed: &mut Feed<'_>| index(right, right_keys, &right_vals, feed);
                self.join(left, left_keys, right, right_keys, build, |index, l, lm| {
                    if !join_key_into(l, left_keys, &left_vals, &mut key) {
                        return;
                    }
                    let Some(matches) = index.get(&key[..]) else {
                        return;
                    };
                    for (r, rm) in matches.iter() {
                        row.clear();
                        row.extend_from_slice(l);
                        row.extend_from_slice(r);
                        out(&row, lm * rm);
                    }
                });
            }
            Fra::SemiJoin {
                left,
                right,
                left_keys,
                right_keys,
                anti,
            } => {
                let mut key = Vec::new();
                let build = |feed: &mut Feed<'_>| support(right_keys, feed);
                self.join(
                    left,
                    left_keys,
                    right,
                    right_keys,
                    build,
                    |support, l, lm| {
                        project_into(l, left_keys, &mut key);
                        let positive = support.get(&key[..]).is_some_and(|&n| n > 0);
                        if positive != *anti {
                            out(l, lm);
                        }
                    },
                );
            }
            Fra::VarLengthJoin {
                left,
                src_col,
                spec,
                ..
            } => {
                // Enumerate per distinct source, then fan out to left rows.
                let mut by_src: FxHashMap<Value, Rows> = FxHashMap::default();
                self.push(left, &mut |l, m| {
                    by_src
                        .entry(l[*src_col].clone())
                        .or_insert_with(|| Rows::new(l.len()))
                        .push(l.iter(), m);
                });
                let dst = VertexPattern {
                    labels: spec.dst_labels.clone(),
                    props: spec.dst_props.iter().map(|p| p.prop).collect(),
                };
                let (mut tail, mut row) = (Vec::new(), Vec::new());
                for (srcv, rows) in &by_src {
                    let Some(src) = srcv.as_node() else { continue };
                    for p in enumerate_paths(g, src, spec) {
                        if !dst.row_into(g.vertex_view(p.target()), &mut tail) {
                            continue;
                        }
                        tail.push(Value::path(p));
                        for (t, m) in rows.iter() {
                            row.clear();
                            row.extend_from_slice(t);
                            row.extend_from_slice(&tail);
                            out(&row, m);
                        }
                    }
                }
            }
            Fra::Distinct { input } => {
                let mut seen = FxHashMap::default();
                self.push(input, &mut |r, m| count(&mut seen, r, m));
                for (t, m) in &seen {
                    if *m > 0 {
                        out(t.values(), 1);
                    }
                }
            }
            Fra::Aggregate { input, group, aggs } => self.aggregate(input, group, aggs, out),
            Fra::MultiwayJoin {
                inputs,
                var_of,
                names,
            } => self.multiway(inputs, var_of, names.len(), out),
        }
    }

    /// γ: one [`GroupState`] per group — the dataflow network's — and a
    /// row per group that has one at the end. The group key and the
    /// aggregates' arguments are one π on top of the σ/π/ω chain below
    /// (the plan under the chain is not copied), so a row runs one
    /// [`TupleProgram`], which copies a column rather than evaluating
    /// it. Each row then probes its group once.
    fn aggregate(
        &self,
        input: &Fra,
        group: &[(ScalarExpr, String)],
        aggs: &[(AggCall, String)],
        out: &mut Sink<'_>,
    ) {
        let args = aggs
            .iter()
            .filter_map(|(call, name)| Some((call.arg.clone()?, name.clone())));
        let (chain, below) = split_chain(input);
        let pi = Fra::Project {
            input: Box::new(chain),
            items: group.iter().cloned().chain(args).collect(),
        };
        let (program, _) = TupleProgram::compile(&pi).expect("a π");
        let calls = || aggs.iter().map(|(call, _)| call);
        let global = group.is_empty();
        let mut groups: FxHashMap<Tuple, GroupState> = FxHashMap::default();
        if global {
            groups.insert(Tuple::unit(), GroupState::insert_only(calls()));
        }
        let mut fold = |row: &[Value], m| {
            let (key, args) = row.split_at(group.len());
            match groups.get_mut(key) {
                Some(state) => state.add(args, m),
                None => {
                    let mut state = GroupState::insert_only(calls());
                    state.add(args, m);
                    groups.insert(Tuple::from_slice(key), state);
                }
            }
        };
        run_program(&program, &mut fold, |through| {
            self.feed(input, below, through)
        });
        let mut row = Vec::new();
        for (key, state) in &groups {
            let Some(values) = state.row(global) else {
                continue;
            };
            row.clear();
            row.extend_from_slice(key.values());
            row.extend(values);
            out(&row, 1);
        }
    }

    /// ⨝ⁿ as a left-deep join over variable bindings: the first input
    /// streams, and each later input is an index keyed on whichever of
    /// its variables are already bound, built when the first binding
    /// reaches it. Output columns are the bindings in variable order
    /// (the operator's schema), so results agree with the incremental
    /// operator tuple for tuple.
    fn multiway(&self, inputs: &[Fra], var_of: &[Vec<usize>], nvars: usize, out: &mut Sink<'_>) {
        let mut bound = vec![false; nvars];
        let mut steps: Vec<Step> = var_of
            .iter()
            .map(|by_col| {
                let first_col = |v: usize| {
                    by_col
                        .iter()
                        .position(|&w| w == v)
                        .expect("var of this input")
                };
                let mut distinct = by_col.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let (shared, fresh): (Vec<usize>, Vec<usize>) =
                    distinct.iter().partition(|&&v| bound[v]);
                for &v in &fresh {
                    bound[v] = true;
                }
                Step {
                    shared_cols: shared.iter().map(|&v| first_col(v)).collect(),
                    fresh_cols: fresh.iter().map(|&v| first_col(v)).collect(),
                    first_of_col: by_col.iter().map(|&v| first_col(v)).collect(),
                    shared,
                    fresh,
                    index: None,
                    key: Vec::new(),
                }
            })
            .collect();
        let Some((first, later)) = inputs.split_first() else {
            return out(&[], 1);
        };
        let (step, rest) = steps.split_first_mut().expect("a step per input");
        let mut binding = vec![Value::Null; nvars];
        self.push(first, &mut |t, m| {
            if !step.consistent(t) {
                return;
            }
            for (&v, &c) in step.fresh.iter().zip(&step.fresh_cols) {
                binding[v] = t[c].clone();
            }
            self.extend(later, rest, &mut binding, m, out);
        });
    }

    /// Join `binding` with the remaining ⨝ⁿ inputs, pushing every full
    /// binding.
    fn extend(
        &self,
        inputs: &[Fra],
        steps: &mut [Step],
        binding: &mut [Value],
        m: i64,
        out: &mut Sink<'_>,
    ) {
        let (Some((input, inputs)), Some((step, steps))) =
            (inputs.split_first(), steps.split_first_mut())
        else {
            return out(binding, m);
        };
        if step.index.is_none() {
            let mut index = Index::default();
            let mut key = Vec::new();
            self.push(input, &mut |t, mm| {
                if step.consistent(t) {
                    project_into(t, &step.shared_cols, &mut key);
                    file(&mut index, &key, t, &step.fresh_cols, mm);
                }
            });
            step.index = Some(index);
        }
        project_into(binding, &step.shared, &mut step.key);
        let Some(matches) = step.index.as_ref().and_then(|i| i.get(&step.key[..])) else {
            return;
        };
        for (vals, mm) in matches.iter() {
            for (&v, val) in step.fresh.iter().zip(vals) {
                binding[v] = val.clone();
            }
            self.extend(inputs, steps, binding, m * mm, out);
        }
    }
}

/// One input of a ⨝ⁿ fold: which of its variables are bound before it
/// (the probe key) and which it binds, and its index once built.
struct Step {
    shared: Vec<usize>,
    fresh: Vec<usize>,
    shared_cols: Vec<usize>,
    fresh_cols: Vec<usize>,
    /// Per column, the first column of the same variable.
    first_of_col: Vec<usize>,
    index: Option<Index>,
    /// The probe key, reused.
    key: Vec<Value>,
}

impl Step {
    /// A variable mapped to several columns equates them.
    fn consistent(&self, t: &[Value]) -> bool {
        self.first_of_col
            .iter()
            .enumerate()
            .all(|(c, &f)| t[f] == t[c])
    }
}

/// Evaluate a compiled query end-to-end, applying ORDER BY / SKIP /
/// LIMIT — the constructs only the baseline supports (the paper's
/// trade-off).
pub fn evaluate_query(cq: &CompiledQuery, g: &PropertyGraph) -> Vec<Tuple> {
    Evaluator::new(g).run_query(cq)
}

/// Convenience: evaluate and consolidate into a sorted multiplicity bag
/// (for comparison against `pgq_ivm`-style view results). Rows are
/// consolidated as they arrive, so the result is all that is held.
pub fn evaluate_consolidated(fra: &Fra, g: &PropertyGraph) -> Bag {
    let mut counts = FxHashMap::default();
    Evaluator::new(g).push(fra, &mut |row, m| count(&mut counts, row, m));
    order::sort_rows(counts.into_iter().filter(|(_, c)| *c != 0), |(t, _)| t)
}
