//! Plan canonicalisation — the normal form under which alpha-equivalent
//! FRA subplans become *structurally identical*, so the shared dataflow
//! network's hash-consing (see [`Fra::fingerprint`] and
//! `pgq_ivm::network`) collapses them to one operator chain.
//!
//! [`canonicalize`] rewrites a plan in five ways, none of which changes
//! the bag of result *tuples* (only their column order, which the
//! returned [`CanonPlan::mapping`] records):
//!
//! 1. **Alpha-renaming.** Every variable/column name is replaced by a
//!    positional de Bruijn-style name (`%0`, `%1`, …, its index in the
//!    operator's output schema). FRA is positional — [`ScalarExpr`]
//!    references columns by index, never by name — so names are pure
//!    decoration and `MATCH (a:Post)` and `MATCH (p:Post)` canonicalise
//!    to the same scan. The view's user-facing schema is restored by the
//!    registering sink, not by the plan.
//! 2. **Commutative sorting.** Scan label/type sets, pushed-property
//!    lists, filter conjuncts, the `OR` operands of each conjunct,
//!    hash-join operands, key pairs and value-key pairs, projection
//!    items, and aggregate group/call lists are sorted under a
//!    deterministic (in-process) total order, so `WHERE a AND b` matches
//!    `WHERE b AND a`, `WHERE a OR b` matches `WHERE b OR a`, and
//!    `A ⋈ B` matches `B ⋈ A`. Each comparison among those operands is
//!    oriented under the same order — `=` and `<>` swap their operands,
//!    `<`/`>` and `<=`/`>=` mirror — so `WHERE a.x <> b.x` matches
//!    `WHERE b.x <> a.x` and `WHERE 'en' = p.lang` matches
//!    `WHERE p.lang = 'en'`.
//! 3. **σ/π chain normalisation.** Adjacent filters fuse into one
//!    conjunction; filters sink below projections, duplicate
//!    elimination and — conjunct by conjunct, where the unwound column
//!    is not named — unwinds (`Fra::sink_filter`, the one
//!    σ-through-π/δ/ω rule, shared with the planner) to a canonical
//!    position directly above the topmost stateful operator — never
//!    *into* joins or scans: crossing ⋈ / ⋉ / ▷ / ⋈* is the planner's
//!    decision alone, so a family of views differing only in a
//!    top-level `WHERE` keeps one shared prefix with a private σ suffix
//!    each; adjacent projections fuse;
//!    full-arity permutation projections vanish into the column
//!    mapping; `δ∘δ` collapses.
//! 4. **© into ⇑.** `©(v:L {k→v.k, …}) ⋈[v] P`, where the © carries no
//!    map, filters `P` on the labels of `v` and appends `v`'s properties.
//!    When `v` is bound in `P` by an ⇑ endpoint (traced through ⋈, σ and
//!    bare-column π) the join is dropped: `L` joins that endpoint's
//!    `src_labels`/`dst_labels`, each `k` its `src_props`/`dst_props`
//!    (one scan column per property — one the endpoint already pushes is
//!    read twice by the mapping), and each new column is threaded up
//!    through `P`'s σ predicates, join keys and π items. The label union
//!    is usually a no-op, since the compiler already writes a pattern's
//!    labels on its edge scans — the closing edge of a cycle,
//!    `(c)-[:E]->(a)`, is the case that gains one — so edge patterns over
//!    one label and type share one ⇑ instead of one ⇑ per place the
//!    planner happened to put the ©; the pushed properties are what a
//!    `WHERE` on a pattern's first vertex compiles to, and folding them
//!    drops a join and the two arrangements it read. Not applied when the
//!    © carries a map or a σ, when the join equates more than `v`, or
//!    when `v` is bound by another ©, ⋈* or an expression. The dropped
//!    join's value keys move down to the ⋈ inside `P` that first meets
//!    both of their columns, and vanish when both come from one scan.
//! 5. **Column mapping.** Each rewrite that permutes columns composes
//!    into `mapping`, from the original plan's output columns onto the
//!    canonical plan's, and
//!    [`CanonPlan::with_restored_order`] materialises it as a tail
//!    projection when it is not the identity. That tail is itself a
//!    canonical plan, so views sharing a permutation also share the
//!    tail node.
//!
//! # Soundness
//!
//! Every rewrite maps each input tuple to exactly one output tuple with
//! unchanged multiplicity, so any operator above sees a column-permuted
//! but otherwise identical bag. Conjunct and disjunct reordering is exact
//! even for expressions that fail on some tuple: a failing operation is
//! `null` to the expression around it ([`crate::expr`]), and Kleene truth
//! does not depend on operand order. Nor does a comparison's: `a < b`
//! and `b > a` are both `null` exactly when either side is `null` or the
//! two are not comparable, and otherwise read one total order. One
//! caveat is deliberate: sorting keys derive from interned [`Symbol`]
//! contents and `Debug` renderings, so the canonical form is
//! deterministic within a process but not across processes — the same
//! lifetime as the fingerprints computed from it.

use pgq_common::intern::Symbol;
use pgq_parser::ast::BinOp;

use crate::expr::{AggCall, ScalarExpr};
use crate::fra::{Fra, PropPush, VarLenSpec};

/// A canonicalised plan plus the column permutation that recovers the
/// original plan's output order.
#[derive(Clone, Debug, PartialEq)]
pub struct CanonPlan {
    /// The canonical form: positional names, sorted commutative
    /// structure, normalised σ/π chains.
    pub plan: Fra,
    /// `mapping[i] = j`: column `i` of the *original* plan's output
    /// holds, for every result tuple, the value of column `j` of the
    /// canonical plan's output. Onto the canonical columns, and a
    /// bijection unless a folded © pushed a property its ⇑ endpoint
    /// already pushes — that one column is then read twice.
    pub mapping: Vec<usize>,
}

impl CanonPlan {
    /// Does the canonical plan already emit columns in the original
    /// order?
    pub fn is_identity(&self) -> bool {
        self.mapping.iter().enumerate().all(|(i, &j)| i == j)
    }

    /// The canonical plan with, when needed, a tail projection restoring
    /// the original column order. The tail uses positional names, so it
    /// is itself canonical and shared between views that need the same
    /// permutation.
    ///
    /// When the canonical root is itself a projection, the restoring
    /// permutation is folded *into* it instead of stacking a second π:
    /// a permuted `RETURN` then costs exactly one π node (shared with
    /// every view wanting the same order) and the per-transaction π
    /// work stays identical to the pre-canonicalisation plan.
    pub fn with_restored_order(&self) -> Fra {
        if self.is_identity() {
            return self.plan.clone();
        }
        if let Fra::Project { input, items } = &self.plan {
            return Fra::Project {
                input: input.clone(),
                items: self
                    .mapping
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (items[c].0.clone(), pos_name(i)))
                    .collect(),
            };
        }
        Fra::Project {
            input: Box::new(self.plan.clone()),
            items: self
                .mapping
                .iter()
                .enumerate()
                .map(|(i, &c)| (ScalarExpr::Col(c), pos_name(i)))
                .collect(),
        }
    }
}

/// Canonicalise `fra`. See the module docs for the normal form.
pub fn canonicalize(fra: &Fra) -> CanonPlan {
    let (plan, mapping) = canon(fra);
    debug_assert_eq!(mapping.len(), fra.schema().len(), "mapping is total");
    debug_assert!(
        mapping.iter().all(|&j| j < plan.schema().len()),
        "mapping lands in the plan"
    );
    CanonPlan { plan, mapping }
}

/// Apply a consistent renaming to every variable/column *name* in the
/// plan. Since FRA expressions reference columns positionally, any such
/// renaming is an alpha-renaming: it never changes results, and
/// [`canonicalize`] erases it entirely (the property the canonicaliser's
/// test suite asserts).
pub fn alpha_rename(fra: &Fra, rename: &mut dyn FnMut(&str) -> String) -> Fra {
    let props = |ps: &[PropPush], rename: &mut dyn FnMut(&str) -> String| -> Vec<PropPush> {
        ps.iter()
            .map(|p| PropPush {
                prop: p.prop,
                col: rename(&p.col),
            })
            .collect()
    };
    match fra {
        Fra::Unit => Fra::Unit,
        Fra::ScanVertices {
            var,
            labels,
            props: ps,
        } => Fra::ScanVertices {
            var: rename(var),
            labels: labels.clone(),
            props: props(ps, rename),
        },
        Fra::ScanEdges {
            src,
            edge,
            dst,
            types,
            src_labels,
            dst_labels,
            src_props,
            edge_props,
            dst_props,
            dir,
        } => Fra::ScanEdges {
            src: rename(src),
            edge: rename(edge),
            dst: rename(dst),
            types: types.clone(),
            src_labels: src_labels.clone(),
            dst_labels: dst_labels.clone(),
            src_props: props(src_props, rename),
            edge_props: props(edge_props, rename),
            dst_props: props(dst_props, rename),
            dir: *dir,
        },
        Fra::SemiJoin {
            left,
            right,
            left_keys,
            right_keys,
            anti,
        } => Fra::SemiJoin {
            left: Box::new(alpha_rename(left, rename)),
            right: Box::new(alpha_rename(right, rename)),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            anti: *anti,
        },
        Fra::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            value_keys,
        } => Fra::HashJoin {
            left: Box::new(alpha_rename(left, rename)),
            right: Box::new(alpha_rename(right, rename)),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            value_keys: value_keys.clone(),
        },
        Fra::VarLengthJoin {
            left,
            src_col,
            spec,
            dst,
            path,
        } => Fra::VarLengthJoin {
            left: Box::new(alpha_rename(left, rename)),
            src_col: *src_col,
            spec: VarLenSpec {
                dst_props: props(&spec.dst_props, rename),
                ..spec.clone()
            },
            dst: rename(dst),
            path: rename(path),
        },
        Fra::Filter { input, predicate } => Fra::Filter {
            input: Box::new(alpha_rename(input, rename)),
            predicate: predicate.clone(),
        },
        Fra::Project { input, items } => Fra::Project {
            input: Box::new(alpha_rename(input, rename)),
            items: items.iter().map(|(e, n)| (e.clone(), rename(n))).collect(),
        },
        Fra::Distinct { input } => Fra::Distinct {
            input: Box::new(alpha_rename(input, rename)),
        },
        Fra::Aggregate { input, group, aggs } => Fra::Aggregate {
            input: Box::new(alpha_rename(input, rename)),
            group: group.iter().map(|(e, n)| (e.clone(), rename(n))).collect(),
            aggs: aggs.iter().map(|(c, n)| (c.clone(), rename(n))).collect(),
        },
        Fra::Unwind { input, expr, alias } => Fra::Unwind {
            input: Box::new(alpha_rename(input, rename)),
            expr: expr.clone(),
            alias: rename(alias),
        },
        Fra::MultiwayJoin {
            inputs,
            var_of,
            names,
        } => Fra::MultiwayJoin {
            inputs: inputs.iter().map(|i| alpha_rename(i, rename)).collect(),
            var_of: var_of.clone(),
            names: names.iter().map(|n| rename(n)).collect(),
        },
    }
}

/// Does `mapping` read every canonical column at most once?
fn injective(mapping: &[usize]) -> bool {
    let mut seen = vec![false; mapping.len()];
    mapping
        .iter()
        .all(|&j| j < seen.len() && !std::mem::replace(&mut seen[j], true))
}

/// Canonical positional column name.
fn pos_name(i: usize) -> String {
    format!("%{i}")
}

/// Deterministic total-order key for an expression (injective enough:
/// derived `Debug` prints every field).
fn expr_key(e: &ScalarExpr) -> String {
    format!("{e:?}")
}

/// Deterministic total-order key for a canonical subplan.
fn plan_key(f: &Fra) -> String {
    format!("{f:?}")
}

/// Sort + dedup a symbol set (conjunctive label sets and any-of type
/// sets are both order-insensitive, and a duplicate entry is the same
/// constraint twice).
fn sort_syms(syms: &[Symbol]) -> Vec<Symbol> {
    let mut v = syms.to_vec();
    v.sort_by_key(|s| s.resolve());
    v.dedup();
    v
}

/// Sort pushed properties by property key; returns the sorted list
/// (column names NOT yet assigned) and the permutation
/// `perm[original_index] = sorted_index`.
fn sort_props(props: &[PropPush]) -> (Vec<PropPush>, Vec<usize>) {
    let mut ix: Vec<usize> = (0..props.len()).collect();
    ix.sort_by_cached_key(|&o| (props[o].prop.resolve(), o));
    let mut perm = vec![0usize; props.len()];
    for (k, &o) in ix.iter().enumerate() {
        perm[o] = k;
    }
    (ix.iter().map(|&o| props[o].clone()).collect(), perm)
}

/// Sort + dedup the operands of the commutative, idempotent connective
/// `op` and fold them back into one expression (`p ∧ p ≡ p` and
/// `p ∨ p ≡ p` in Kleene logic, so deduplication is sound).
fn fold_sorted(op: BinOp, mut operands: Vec<ScalarExpr>) -> ScalarExpr {
    operands.sort_by_cached_key(expr_key);
    operands.dedup();
    operands
        .into_iter()
        .reduce(|a, b| ScalarExpr::Binary(op, Box::new(a), Box::new(b)))
        .expect("at least one operand")
}

/// Write a comparison one way round: the operand with the smaller key on
/// the left, `=` and `<>` kept, `<`/`>` and `<=`/`>=` mirrored. Every
/// comparison has the truth of its mirror on every pair of values,
/// `null` included (`program_props` pins it), so this is exact.
fn orient(e: ScalarExpr) -> ScalarExpr {
    let mirror = |op| match op {
        BinOp::Eq | BinOp::Neq => Some(op),
        BinOp::Lt => Some(BinOp::Gt),
        BinOp::Gt => Some(BinOp::Lt),
        BinOp::Le => Some(BinOp::Ge),
        BinOp::Ge => Some(BinOp::Le),
        _ => None,
    };
    match e {
        ScalarExpr::Binary(op, l, r) => match mirror(op) {
            Some(m) if expr_key(&r) < expr_key(&l) => ScalarExpr::Binary(m, r, l),
            _ => ScalarExpr::Binary(op, l, r),
        },
        other => other,
    }
}

/// Canonical conjunction: each conjunct's own `OR` chain flattened, each
/// comparison in it oriented, sorted and deduplicated, then the
/// conjuncts themselves.
fn conjoin_sorted(conjs: Vec<ScalarExpr>) -> ScalarExpr {
    let conjs = conjs
        .into_iter()
        .map(|c| {
            let disjuncts = c.operands(BinOp::Or).into_iter().map(orient).collect();
            fold_sorted(BinOp::Or, disjuncts)
        })
        .collect();
    fold_sorted(BinOp::And, conjs)
}

/// Sink a filter to its canonical position: through projections,
/// duplicate elimination and (for conjuncts that do not name the unwound
/// column) unwinds — [`Fra::sink_filter`], shared with the planner —
/// fused into any filter it lands on, but never into joins, scans or
/// aggregates. `plan` must already be canonical.
fn attach_filter(plan: Fra, conjs: Vec<ScalarExpr>) -> Fra {
    plan.sink_filter(conjs, &|landing, mut conjs| match landing {
        Fra::Filter { input, predicate } => {
            conjs.extend(predicate.operands(BinOp::And));
            Fra::Filter {
                input,
                predicate: conjoin_sorted(conjs),
            }
        }
        other => Fra::Filter {
            input: Box::new(other),
            predicate: conjoin_sorted(conjs),
        },
    })
}

/// Core recursion: returns the canonical plan and the original→canonical
/// output-column bijection.
fn canon(fra: &Fra) -> (Fra, Vec<usize>) {
    match fra {
        Fra::Unit => (Fra::Unit, vec![]),

        Fra::ScanVertices { labels, props, .. } => {
            let (mut sorted, perm) = sort_props(props);
            for (k, p) in sorted.iter_mut().enumerate() {
                p.col = pos_name(1 + k);
            }
            let mut mapping = vec![0usize];
            mapping.extend(perm.iter().map(|&k| 1 + k));
            (
                Fra::ScanVertices {
                    var: pos_name(0),
                    labels: sort_syms(labels),
                    props: sorted,
                },
                mapping,
            )
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
            let (mut sp, perm_s) = sort_props(src_props);
            let (mut ep, perm_e) = sort_props(edge_props);
            let (mut dp, perm_d) = sort_props(dst_props);
            let (ns, ne) = (sp.len(), ep.len());
            for (k, p) in sp.iter_mut().enumerate() {
                p.col = pos_name(3 + k);
            }
            for (k, p) in ep.iter_mut().enumerate() {
                p.col = pos_name(3 + ns + k);
            }
            for (k, p) in dp.iter_mut().enumerate() {
                p.col = pos_name(3 + ns + ne + k);
            }
            let mut mapping = vec![0, 1, 2];
            mapping.extend(perm_s.iter().map(|&k| 3 + k));
            mapping.extend(perm_e.iter().map(|&k| 3 + ns + k));
            mapping.extend(perm_d.iter().map(|&k| 3 + ns + ne + k));
            (
                Fra::ScanEdges {
                    src: pos_name(0),
                    edge: pos_name(1),
                    dst: pos_name(2),
                    types: sort_syms(types),
                    src_labels: sort_syms(src_labels),
                    dst_labels: sort_syms(dst_labels),
                    src_props: sp,
                    edge_props: ep,
                    dst_props: dp,
                    dir: *dir,
                },
                mapping,
            )
        }

        Fra::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            value_keys,
        } => {
            let keys = (&left_keys[..], &right_keys[..], &value_keys[..]);
            if let Some(absorbed) = absorb_vertex_scan(left, right, keys) {
                return absorbed;
            }
            canon_hash_join(canon(left), canon(right), keys)
        }

        Fra::SemiJoin {
            left,
            right,
            left_keys,
            right_keys,
            anti,
        } => {
            let (cl, ml) = canon(left);
            let (cr, mr) = canon(right);
            let mut pairs: Vec<(usize, usize)> = left_keys
                .iter()
                .zip(right_keys)
                .map(|(&l, &r)| (ml[l], mr[r]))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            (
                Fra::SemiJoin {
                    left: Box::new(cl),
                    right: Box::new(cr),
                    left_keys: pairs.iter().map(|&(l, _)| l).collect(),
                    right_keys: pairs.iter().map(|&(_, r)| r).collect(),
                    anti: *anti,
                },
                ml,
            )
        }

        Fra::VarLengthJoin {
            left,
            src_col,
            spec,
            ..
        } => {
            let (cl, ml) = canon(left);
            let la = cl.schema().len();
            let (mut dp, perm_d) = sort_props(&spec.dst_props);
            let np = dp.len();
            for (k, p) in dp.iter_mut().enumerate() {
                p.col = pos_name(la + 1 + k);
            }
            let mut filters = spec.edge_prop_filters.clone();
            filters.sort_by_cached_key(|(k, v)| (k.resolve(), format!("{v:?}")));
            filters.dedup();
            let mut mapping = ml;
            mapping.push(la); // dst
            mapping.extend(perm_d.iter().map(|&k| la + 1 + k));
            let path = la + 1 + np;
            mapping.push(path);
            (
                Fra::VarLengthJoin {
                    left: Box::new(cl),
                    src_col: mapping[*src_col],
                    spec: VarLenSpec {
                        types: sort_syms(&spec.types),
                        dir: spec.dir,
                        dst_labels: sort_syms(&spec.dst_labels),
                        dst_props: dp,
                        edge_prop_filters: filters,
                        min: spec.min,
                        max: spec.max,
                    },
                    dst: pos_name(la),
                    path: pos_name(path),
                },
                mapping,
            )
        }

        Fra::Filter { input, predicate } => {
            let (cin, mi) = canon(input);
            let pred = predicate.remap_columns(&|c| mi[c]);
            (attach_filter(cin, pred.operands(BinOp::And)), mi)
        }

        Fra::Project { input, items } => {
            let (mut cin, mi) = canon(input);
            let mut exprs: Vec<ScalarExpr> = items
                .iter()
                .map(|(e, _)| e.remap_columns(&|c| mi[c]))
                .collect();
            // π∘π fusion: substitute through the inner projection.
            if let Fra::Project {
                input: inner,
                items: inner_items,
            } = cin
            {
                exprs = exprs.iter().map(|e| e.substitute(&inner_items)).collect();
                cin = *inner;
            }
            // A full-arity permutation of bare column references is pure
            // renaming: fold it into the mapping and vanish.
            let arity = cin.schema().len();
            if exprs.len() == arity {
                let cols: Vec<Option<usize>> = exprs
                    .iter()
                    .map(|e| match e {
                        ScalarExpr::Col(c) => Some(*c),
                        _ => None,
                    })
                    .collect();
                if cols.iter().all(Option::is_some) {
                    let mut seen = vec![false; arity];
                    let mut bijective = true;
                    for c in cols.iter().flatten() {
                        if *c >= arity || seen[*c] {
                            bijective = false;
                            break;
                        }
                        seen[*c] = true;
                    }
                    if bijective {
                        let mapping = cols.into_iter().map(|c| c.expect("all Some")).collect();
                        return (cin, mapping);
                    }
                }
            }
            // Sort items under the expression order; output names are
            // positional, so alpha-renamed projections coincide.
            let mut order: Vec<usize> = (0..exprs.len()).collect();
            order.sort_by_cached_key(|&o| (expr_key(&exprs[o]), o));
            let mut mapping = vec![0usize; exprs.len()];
            for (pos, &o) in order.iter().enumerate() {
                mapping[o] = pos;
            }
            let sorted_items: Vec<(ScalarExpr, String)> = order
                .iter()
                .enumerate()
                .map(|(pos, &o)| (exprs[o].clone(), pos_name(pos)))
                .collect();
            (
                Fra::Project {
                    input: Box::new(cin),
                    items: sorted_items,
                },
                mapping,
            )
        }

        Fra::Distinct { input } => {
            let (cin, mi) = canon(input);
            if matches!(cin, Fra::Distinct { .. }) {
                (cin, mi) // δ∘δ = δ
            } else {
                (
                    Fra::Distinct {
                        input: Box::new(cin),
                    },
                    mi,
                )
            }
        }

        Fra::Aggregate { input, group, aggs } => {
            let (mut cin, mi) = canon(input);
            let mut group_exprs: Vec<ScalarExpr> = group
                .iter()
                .map(|(e, _)| e.remap_columns(&|c| mi[c]))
                .collect();
            let mut agg_calls: Vec<AggCall> = aggs
                .iter()
                .map(|(c, _)| AggCall {
                    func: c.func,
                    arg: c.arg.as_ref().map(|a| a.remap_columns(&|c| mi[c])),
                    distinct: c.distinct,
                })
                .collect();
            // γ∘π fusion: γ evaluates expressions per input tuple and π
            // is per-tuple too, so substituting the projection into the
            // grouping/aggregate expressions is exact.
            if let Fra::Project {
                input: inner,
                items,
            } = cin
            {
                group_exprs = group_exprs.iter().map(|e| e.substitute(&items)).collect();
                for call in &mut agg_calls {
                    call.arg = call.arg.as_ref().map(|a| a.substitute(&items));
                }
                cin = *inner;
            }
            let mut gorder: Vec<usize> = (0..group_exprs.len()).collect();
            gorder.sort_by_cached_key(|&o| (expr_key(&group_exprs[o]), o));
            let mut aorder: Vec<usize> = (0..agg_calls.len()).collect();
            aorder.sort_by_cached_key(|&o| (format!("{:?}", agg_calls[o]), o));
            let ng = gorder.len();
            let mut mapping = vec![0usize; ng + aorder.len()];
            for (pos, &o) in gorder.iter().enumerate() {
                mapping[o] = pos;
            }
            for (pos, &o) in aorder.iter().enumerate() {
                mapping[ng + o] = ng + pos;
            }
            (
                Fra::Aggregate {
                    input: Box::new(cin),
                    group: gorder
                        .iter()
                        .enumerate()
                        .map(|(pos, &o)| (group_exprs[o].clone(), pos_name(pos)))
                        .collect(),
                    aggs: aorder
                        .iter()
                        .enumerate()
                        .map(|(pos, &o)| (agg_calls[o].clone(), pos_name(ng + pos)))
                        .collect(),
                },
                mapping,
            )
        }

        Fra::Unwind { input, expr, .. } => {
            let (cin, mi) = canon(input);
            let la = cin.schema().len();
            let mut mapping = mi;
            mapping.push(la);
            (
                Fra::Unwind {
                    input: Box::new(cin),
                    expr: expr.remap_columns(&|c| mapping[c]),
                    alias: pos_name(la),
                },
                mapping,
            )
        }

        Fra::MultiwayJoin {
            inputs,
            var_of,
            names,
        } => {
            // The n-ary join is fully commutative in its operands:
            // canonicalise each operand, push its variable map through
            // the operand's own column bijection, then sort operands
            // under the (plan, variable map) order. Variable ids are
            // semantic (they are the elimination order and the output
            // positions), so they — and therefore the output schema —
            // stay fixed; only operand order and names are normalised.
            let mut ops: Vec<(Fra, Vec<usize>)> = inputs
                .iter()
                .zip(var_of)
                .map(|(inp, vars)| {
                    // One variable per column: an operand whose canonical
                    // form reads a column twice keeps a π restoring them.
                    let (ci, mi) = canon(inp);
                    let (ci, mi) = if injective(&mi) {
                        (ci, mi)
                    } else {
                        canon(
                            &CanonPlan {
                                plan: ci,
                                mapping: mi,
                            }
                            .with_restored_order(),
                        )
                    };
                    let mut cvars = vec![0usize; vars.len()];
                    for (c, &v) in vars.iter().enumerate() {
                        cvars[mi[c]] = v;
                    }
                    (ci, cvars)
                })
                .collect();
            ops.sort_by_cached_key(|(ci, cvars)| (plan_key(ci), cvars.clone()));
            (
                Fra::MultiwayJoin {
                    inputs: ops.iter().map(|(ci, _)| ci.clone()).collect(),
                    var_of: ops.into_iter().map(|(_, v)| v).collect(),
                    names: (0..names.len()).map(pos_name).collect(),
                },
                (0..names.len()).collect(),
            )
        }
    }
}

/// `©(v:L {k→v.k, …}) ⋈[v] P` is the filter "`v` carries `L`" on `P`
/// plus `v`'s properties `k…` as columns: every vertex appears in the ©
/// once, with multiplicity one. When `v` is bound in `P` by an ⇑
/// endpoint, `L` joins that endpoint's labels, each `k` its pushed
/// properties — one scan column per property, so one the endpoint
/// already pushes is read twice — the columns are threaded up through
/// `P` ([`at_endpoint`]), and the join is dropped. Returns the canonical
/// form of `P` so amended, with the mapping of the *join's* output
/// columns; `None` when the rule does not apply: the © carries a σ (the
/// planner put a selective conjunct there, which filters each vertex
/// once instead of each of its edges), the join's id keys equate more
/// than `v`, or `v` is bound by anything but an ⇑ endpoint.
/// The join's value keys go to the ⋈ in `P` that meets both their
/// columns ([`sink_value_key`]).
fn absorb_vertex_scan(
    left: &Fra,
    right: &Fra,
    (left_keys, right_keys, value_keys): JoinKeys<'_>,
) -> Option<(Fra, Vec<usize>)> {
    fn vertex_scan(f: &Fra) -> Option<(&[Symbol], &[PropPush])> {
        match f {
            Fra::ScanVertices { labels, props, .. } => Some((labels, props)),
            _ => None,
        }
    }
    // The © side's key must be its column 0, `v`.
    let (&[lk], &[rk]) = (left_keys, right_keys) else {
        return None;
    };
    let (scan_left, (labels, props), p, pk) = match (vertex_scan(right), vertex_scan(left)) {
        (Some(scan), _) if rk == 0 => (false, scan, left, lk),
        (None, Some(scan)) if lk == 0 => (true, scan, right, rk),
        _ => return None,
    };
    let mut p = p.clone();
    // Where `P`'s own columns and the pushed properties sit in `p`.
    let mut cols: Vec<usize> = (0..p.schema().len()).collect();
    let mut prop_cols = Vec::with_capacity(props.len());
    for push in props {
        let slot = at_endpoint(&mut p, cols[pk], &mut |end| match end
            .props
            .iter()
            .position(|q| q.prop == push.prop)
        {
            Some(i) => Slot::Existing(end.props_at + i),
            None => {
                end.props.push(push.clone());
                Slot::Inserted(end.props_at + end.props.len() - 1)
            }
        })?;
        match slot {
            Slot::Existing(c) => prop_cols.push(c),
            Slot::Inserted(at) => {
                for c in cols.iter_mut().chain(&mut prop_cols) {
                    *c += usize::from(*c >= at);
                }
                prop_cols.push(at);
            }
        }
    }
    at_endpoint(&mut p, cols[pk], &mut |end| {
        for l in labels {
            if !end.labels.contains(l) {
                end.labels.push(*l);
            }
        }
        Slot::Existing(end.col)
    })?;
    // The join goes, its value keys stay: each now equates two columns
    // of `p`, which the join inside `p` that meets them keys on.
    let scan_col = |c: usize| if c == 0 { cols[pk] } else { prop_cols[c - 1] };
    for &(l, r) in value_keys {
        let (a, b) = if scan_left {
            (scan_col(l), cols[r])
        } else {
            (cols[l], scan_col(r))
        };
        sink_value_key(&mut p, a, b);
    }
    let (plan, m) = canon(&p);
    // Output with the © on the right: `P`, then the properties. On the
    // left: `v`, the properties, then `P` minus its key.
    let mut mapping = Vec::with_capacity(cols.len() + prop_cols.len());
    if scan_left {
        mapping.push(m[cols[pk]]);
        mapping.extend(prop_cols.iter().map(|&c| m[c]));
        mapping.extend((0..cols.len()).filter(|&c| c != pk).map(|c| m[cols[c]]));
    } else {
        mapping.extend(cols.iter().map(|&c| m[c]));
        mapping.extend(prop_cols.iter().map(|&c| m[c]));
    }
    Some((plan, mapping))
}

/// Give the value key `a = b` between two output columns of `plan` to
/// the ⋈ inside it that first brings both columns together, traced
/// through ⋈, σ and bare-column π as [`at_endpoint`] traces. Where both
/// come from one scan, or from an operator the walk does not enter, the
/// key is dropped: it only ever narrows a join, and the σ above `plan`
/// still decides.
fn sink_value_key(plan: &mut Fra, a: usize, b: usize) {
    match plan {
        Fra::HashJoin {
            left,
            right,
            right_keys,
            value_keys,
            ..
        } => {
            // Output column → (from the right?, input column).
            let la = left.schema().len();
            let kept: Vec<usize> = (0..right.schema().len())
                .filter(|c| !right_keys.contains(c))
                .collect();
            let side = |c: usize| match c.checked_sub(la) {
                None => Some((false, c)),
                Some(r) => kept.get(r).map(|&k| (true, k)),
            };
            match (side(a), side(b)) {
                (Some((false, x)), Some((false, y))) => sink_value_key(left, x, y),
                (Some((true, x)), Some((true, y))) => sink_value_key(right, x, y),
                (Some((false, x)), Some((true, y))) => value_keys.push((x, y)),
                (Some((true, x)), Some((false, y))) => value_keys.push((y, x)),
                _ => {}
            }
        }
        Fra::Filter { input, .. } => sink_value_key(input, a, b),
        Fra::Project { input, items } => {
            if let (Some((ScalarExpr::Col(x), _)), Some((ScalarExpr::Col(y), _))) =
                (items.get(a), items.get(b))
            {
                let (x, y) = (*x, *y);
                sink_value_key(input, x, y);
            }
        }
        _ => {}
    }
}

/// A column asked of an ⇑ endpoint, as it reaches a plan's output.
#[derive(Clone, Copy)]
enum Slot {
    /// Output column `c`, which was already there.
    Existing(usize),
    /// A new output column at this position; the columns from it on
    /// moved one to the right.
    Inserted(usize),
}

/// One endpoint of an ⇑, handed to the amendment [`at_endpoint`] makes.
struct Endpoint<'a> {
    /// The endpoint's column in the scan's output (0 source, 2 target).
    col: usize,
    labels: &'a mut Vec<Symbol>,
    props: &'a mut Vec<PropPush>,
    /// Scan output column of `props[0]`.
    props_at: usize,
}

/// Trace output column `col` of `plan` down through ⋈ (either operand),
/// σ and bare-column π to the ⇑ endpoint that binds it, let `amend`
/// change that endpoint and name a column of the scan, and carry that
/// column back up to `plan`'s output: a new column shifts the σ
/// predicates, join keys and π items above it, and a π gains an item for
/// it. `None` when the column is bound by anything else (a ©, ⋈*, an
/// expression, an aggregate), where there is no scan to move the © into
/// — the caller then drops `plan`, which the walk does not change before
/// it reaches the scan.
fn at_endpoint(
    plan: &mut Fra,
    col: usize,
    amend: &mut dyn FnMut(Endpoint<'_>) -> Slot,
) -> Option<Slot> {
    let shift = |at: usize| move |c: usize| c + usize::from(c >= at);
    match plan {
        Fra::ScanEdges {
            src_labels,
            dst_labels,
            src_props,
            edge_props,
            dst_props,
            ..
        } => {
            let dst_props_at = 3 + src_props.len() + edge_props.len();
            let (labels, props, props_at) = match col {
                0 => (src_labels, src_props, 3),
                2 => (dst_labels, dst_props, dst_props_at),
                _ => return None,
            };
            Some(amend(Endpoint {
                col,
                labels,
                props,
                props_at,
            }))
        }
        Fra::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            value_keys,
        } => {
            // Output: every left column, then the right's non-key ones.
            let la = left.schema().len();
            if col < la {
                let slot = at_endpoint(left, col, amend)?;
                if let Slot::Inserted(at) = slot {
                    left_keys.iter_mut().for_each(|k| *k = shift(at)(*k));
                    value_keys.iter_mut().for_each(|(k, _)| *k = shift(at)(*k));
                }
                return Some(slot);
            }
            let kept = (0..right.schema().len())
                .filter(|c| !right_keys.contains(c))
                .nth(col - la)?;
            let slot = at_endpoint(right, kept, amend)?;
            let out = |keys: &[usize], c: usize| la + (0..c).filter(|x| !keys.contains(x)).count();
            Some(match slot {
                Slot::Inserted(at) => {
                    right_keys.iter_mut().for_each(|k| *k = shift(at)(*k));
                    value_keys.iter_mut().for_each(|(_, k)| *k = shift(at)(*k));
                    Slot::Inserted(out(right_keys, at))
                }
                // A right key's value is its left partner's.
                Slot::Existing(c) => match right_keys.iter().position(|&k| k == c) {
                    Some(k) => Slot::Existing(left_keys[k]),
                    None => Slot::Existing(out(right_keys, c)),
                },
            })
        }
        Fra::Filter { input, predicate } => {
            let slot = at_endpoint(input, col, amend)?;
            if let Slot::Inserted(at) = slot {
                *predicate = predicate.remap_columns(&shift(at));
            }
            Some(slot)
        }
        Fra::Project { input, items } => {
            let &(ScalarExpr::Col(below), _) = items.get(col)? else {
                return None;
            };
            let below = match at_endpoint(input, below, amend)? {
                Slot::Existing(c) => {
                    if let Some(i) = items.iter().position(|(e, _)| *e == ScalarExpr::Col(c)) {
                        return Some(Slot::Existing(i));
                    }
                    c
                }
                Slot::Inserted(at) => {
                    for (e, _) in items.iter_mut() {
                        *e = e.remap_columns(&shift(at));
                    }
                    at
                }
            };
            let name = input.schema().swap_remove(below);
            items.push((ScalarExpr::Col(below), name));
            Some(Slot::Inserted(items.len() - 1))
        }
        _ => None,
    }
}

/// A hash join's id keys (left, right) and value keys, as the original
/// plan has them.
type JoinKeys<'a> = (&'a [usize], &'a [usize], &'a [(usize, usize)]);

/// Canonicalise a hash join over its canonicalised operands (the keys are
/// the original's): pick the operand orientation whose `(left key, right
/// key, sorted pairs, sorted value pairs)` is smallest under the plan
/// order — hash joins are bag-commutative, so either orientation computes
/// the same tuples up to the column permutation returned. Value keys name
/// input columns, which both orientations keep, so they only follow each
/// operand's own bijection.
fn canon_hash_join(
    (cl, ml): (Fra, Vec<usize>),
    (cr, mr): (Fra, Vec<usize>),
    (left_keys, right_keys, value_keys): JoinKeys<'_>,
) -> (Fra, Vec<usize>) {
    let lk: Vec<usize> = left_keys.iter().map(|&k| ml[k]).collect();
    let rk: Vec<usize> = right_keys.iter().map(|&k| mr[k]).collect();
    let lv: Vec<usize> = value_keys.iter().map(|&(k, _)| ml[k]).collect();
    let rv: Vec<usize> = value_keys.iter().map(|&(_, k)| mr[k]).collect();
    let sorted_pairs = |a: &[usize], b: &[usize]| -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = a.iter().copied().zip(b.iter().copied()).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    };
    let keep_pairs = sorted_pairs(&lk, &rk);
    let swap_pairs = sorted_pairs(&rk, &lk);
    let keep_values = sorted_pairs(&lv, &rv);
    let swap_values = sorted_pairs(&rv, &lv);
    // The join output drops the *right* key columns, so the two
    // orientations only compute column-permutations of each other when
    // they drop equally many: with a duplicated key column (e.g.
    // `l0 = r1 AND l0 = r2`) the distinct-key counts differ and
    // swapping would change the output arity — keep the given
    // orientation then. (Compiled plans always have distinct keys per
    // side; this guards the public API on hand-built plans.)
    let distinct = |keys: &[usize]| {
        let mut k = keys.to_vec();
        k.sort_unstable();
        k.dedup();
        k.len()
    };
    let swappable = distinct(&lk) == distinct(&rk);
    let (kl, kr) = (plan_key(&cl), plan_key(&cr));
    let swap =
        swappable && (&kr, &kl, &swap_pairs, &swap_values) < (&kl, &kr, &keep_pairs, &keep_values);

    // Where canonical column `c` of the operand joined on the right lands
    // in the output: a key column is gone, and its value is its
    // partner's on the left; the others follow the left operand's
    // columns in order.
    let place = |pairs: &[(usize, usize)], left_arity: usize, c: usize| match pairs
        .iter()
        .find(|&&(_, r)| r == c)
    {
        Some(&(l, _)) => l,
        None => {
            left_arity
                + (0..c)
                    .filter(|x| pairs.iter().all(|&(_, r)| r != *x))
                    .count()
        }
    };
    // The original output: every left column, then the right's non-key
    // columns.
    let right_kept = (0..mr.len()).filter(|r| !right_keys.contains(r));
    let (left, right, pairs, value_keys, mapping) = if !swap {
        let pairs = keep_pairs;
        let la = cl.schema().len();
        let mut mapping = ml;
        mapping.extend(right_kept.map(|r| place(&pairs, la, mr[r])));
        (cl, cr, pairs, keep_values, mapping)
    } else {
        // Canonical plan is `cr ⋈ cl`.
        let pairs = swap_pairs;
        let ra = cr.schema().len();
        let mut mapping: Vec<usize> = ml.iter().map(|&c| place(&pairs, ra, c)).collect();
        mapping.extend(right_kept.map(|r| mr[r]));
        (cr, cl, pairs, swap_values, mapping)
    };
    (
        Fra::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: pairs.iter().map(|&(l, _)| l).collect(),
            right_keys: pairs.iter().map(|&(_, r)| r).collect(),
            value_keys,
        },
        mapping,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::value::Value;

    fn s(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    fn scan(var: &str, label: &str) -> Fra {
        Fra::ScanVertices {
            var: var.into(),
            labels: vec![s(label)],
            props: vec![],
        }
    }

    /// Two-column scan: `[var, var.x]`.
    fn scan2(var: &str, label: &str) -> Fra {
        Fra::ScanVertices {
            var: var.into(),
            labels: vec![s(label)],
            props: vec![PropPush {
                prop: s("x"),
                col: format!("{var}.x"),
            }],
        }
    }

    #[test]
    fn renamed_scans_canonicalise_identically() {
        let a = canonicalize(&scan("a", "Post"));
        let p = canonicalize(&scan("p", "Post"));
        assert_eq!(a, p);
        assert!(a.is_identity());
    }

    #[test]
    fn conjunct_order_is_erased() {
        let c0 = ScalarExpr::Binary(
            BinOp::Gt,
            Box::new(ScalarExpr::Col(0)),
            Box::new(ScalarExpr::lit(1)),
        );
        let c1 = ScalarExpr::Binary(
            BinOp::Lt,
            Box::new(ScalarExpr::Col(0)),
            Box::new(ScalarExpr::lit(9)),
        );
        let f = |p: ScalarExpr| Fra::Filter {
            input: Box::new(scan("x", "A")),
            predicate: p,
        };
        let ab = f(ScalarExpr::Binary(
            BinOp::And,
            Box::new(c0.clone()),
            Box::new(c1.clone()),
        ));
        let ba = f(ScalarExpr::Binary(BinOp::And, Box::new(c1), Box::new(c0)));
        assert_eq!(canonicalize(&ab), canonicalize(&ba));
    }

    #[test]
    fn adjacent_filters_fuse() {
        let pred = |lit: i64| {
            ScalarExpr::Binary(
                BinOp::Gt,
                Box::new(ScalarExpr::Col(0)),
                Box::new(ScalarExpr::lit(lit)),
            )
        };
        let stacked = Fra::Filter {
            input: Box::new(Fra::Filter {
                input: Box::new(scan("x", "A")),
                predicate: pred(1),
            }),
            predicate: pred(2),
        };
        let fused = Fra::Filter {
            input: Box::new(scan("x", "A")),
            predicate: ScalarExpr::Binary(BinOp::And, Box::new(pred(1)), Box::new(pred(2))),
        };
        assert_eq!(canonicalize(&stacked), canonicalize(&fused));
    }

    #[test]
    fn filter_sinks_below_projection() {
        // σ[c0 = 'en'] π[Col(1)] X  ≡  π[Col(1)] σ[c1 = 'en'] X.
        let base = Fra::ScanVertices {
            var: "p".into(),
            labels: vec![s("Post")],
            props: vec![PropPush {
                prop: s("lang"),
                col: "p.lang".into(),
            }],
        };
        let eq_en = |col: usize| {
            ScalarExpr::Binary(
                BinOp::Eq,
                Box::new(ScalarExpr::Col(col)),
                Box::new(ScalarExpr::Lit(Value::str("en"))),
            )
        };
        let sigma_over_pi = Fra::Filter {
            input: Box::new(Fra::Project {
                input: Box::new(base.clone()),
                items: vec![(ScalarExpr::Col(1), "l".into())],
            }),
            predicate: eq_en(0),
        };
        let pi_over_sigma = Fra::Project {
            input: Box::new(Fra::Filter {
                input: Box::new(base),
                predicate: eq_en(1),
            }),
            items: vec![(ScalarExpr::Col(1), "l".into())],
        };
        assert_eq!(canonicalize(&sigma_over_pi), canonicalize(&pi_over_sigma));
    }

    #[test]
    fn filter_sinks_below_unwind_unless_it_names_the_unwound_column() {
        let gt = |col: usize| {
            ScalarExpr::Binary(
                BinOp::Gt,
                Box::new(ScalarExpr::Col(col)),
                Box::new(ScalarExpr::lit(1)),
            )
        };
        let unwind = |input: Fra| Fra::Unwind {
            input: Box::new(input),
            expr: ScalarExpr::List(vec![ScalarExpr::lit(1), ScalarExpr::lit(2)]),
            alias: "u".into(),
        };
        let filter = |input: Fra, predicate: ScalarExpr| Fra::Filter {
            input: Box::new(input),
            predicate,
        };
        // `x.x > 1` (column 1) passes ω; `u > 1` (column 2) does not.
        let above = filter(unwind(scan2("x", "A")), gt(1));
        let below = unwind(filter(scan2("x", "A"), gt(1)));
        assert_eq!(canonicalize(&above), canonicalize(&below));
        let stuck = canonicalize(&filter(unwind(scan2("x", "A")), gt(2)));
        assert!(matches!(stuck.plan, Fra::Filter { .. }), "{:?}", stuck.plan);
    }

    #[test]
    fn join_operands_commute() {
        let j = |l: Fra, r: Fra| Fra::HashJoin {
            left: Box::new(l),
            right: Box::new(r),
            left_keys: vec![0],
            right_keys: vec![0],
            value_keys: vec![],
        };
        let ab = canonicalize(&j(scan("a", "A"), scan("b", "B")));
        let ba = canonicalize(&j(scan("b", "B"), scan("a", "A")));
        assert_eq!(ab.plan, ba.plan);
        // Output columns land permuted relative to each other; both
        // mappings are bijections onto the same canonical schema.
        assert_eq!(ab.mapping.len(), ba.mapping.len());
    }

    #[test]
    fn asymmetric_duplicate_join_keys_do_not_swap() {
        // `l0 = r1 AND l0 = r2`: the orientations drop different column
        // counts (1 distinct left key vs 2 distinct right keys), so the
        // canonicaliser must keep the given orientation; a swap would
        // change the output arity and corrupt the mapping.
        fn scan3(var: &str, label: &str) -> Fra {
            Fra::ScanVertices {
                var: var.into(),
                labels: vec![s(label)],
                props: vec![
                    PropPush {
                        prop: s("x"),
                        col: format!("{var}.x"),
                    },
                    PropPush {
                        prop: s("y"),
                        col: format!("{var}.y"),
                    },
                ],
            }
        }
        let join = Fra::HashJoin {
            left: Box::new(scan3("a", "A")),
            right: Box::new(scan3("b", "B")),
            left_keys: vec![0, 0],
            right_keys: vec![1, 2],
            value_keys: vec![],
        };
        let arity = join.schema().len();
        let canon = canonicalize(&join);
        assert_eq!(canon.plan.schema().len(), arity, "arity preserved");
        assert_eq!(canon.mapping.len(), arity);
        // And the renaming property still holds for this shape.
        let renamed = alpha_rename(&join, &mut |n| format!("{n}_z"));
        assert_eq!(canonicalize(&renamed), canon);
    }

    #[test]
    fn permutation_projection_vanishes() {
        // Output schema `[a, b.x]` (the right key column is dropped).
        let join = Fra::HashJoin {
            left: Box::new(scan("a", "A")),
            right: Box::new(scan2("b", "B")),
            left_keys: vec![0],
            right_keys: vec![0],
            value_keys: vec![],
        };
        let swapped = Fra::Project {
            input: Box::new(join.clone()),
            items: vec![
                (ScalarExpr::Col(1), "b".into()),
                (ScalarExpr::Col(0), "a".into()),
            ],
        };
        let canon_plain = canonicalize(&join);
        let canon_swapped = canonicalize(&swapped);
        assert_eq!(canon_plain.plan, canon_swapped.plan, "π vanished");
        assert!(!canon_swapped.is_identity());
        // Restoring the order adds exactly the tail projection.
        assert!(matches!(
            canon_swapped.with_restored_order(),
            Fra::Project { .. }
        ));
    }

    #[test]
    fn conjuncts_resplit_after_substitution_through_projection() {
        // A filter referencing a boolean projection item substitutes to
        // a nested AND; it must be re-split into individual conjuncts
        // or AND-order-equivalent plans canonicalise apart (and canon
        // stops being idempotent).
        let cmp = |col: usize, op: BinOp, lit: i64| {
            ScalarExpr::Binary(
                op,
                Box::new(ScalarExpr::Col(col)),
                Box::new(ScalarExpr::lit(lit)),
            )
        };
        let plan_with = |l: ScalarExpr, r: ScalarExpr| Fra::Filter {
            input: Box::new(Fra::Project {
                input: Box::new(scan2("p", "A")),
                items: vec![
                    (
                        ScalarExpr::Binary(BinOp::And, Box::new(l), Box::new(r)),
                        "f".into(),
                    ),
                    (ScalarExpr::Col(0), "p".into()),
                ],
            }),
            predicate: ScalarExpr::Col(0),
        };
        let a = plan_with(cmp(1, BinOp::Gt, 1), cmp(1, BinOp::Lt, 9));
        let b = plan_with(cmp(1, BinOp::Lt, 9), cmp(1, BinOp::Gt, 1));
        let (ca, cb) = (canonicalize(&a), canonicalize(&b));
        // The sunk σ predicate is split and sorted identically in both
        // orders. (The π *item* keeps its inner expression verbatim —
        // commutativity inside arbitrary expressions is out of scope.)
        let sigma_pred = |p: &Fra| match p {
            Fra::Project { input, .. } => match input.as_ref() {
                Fra::Filter { predicate, .. } => predicate.clone(),
                other => panic!("expected σ under π, got {other:?}"),
            },
            other => panic!("expected π root, got {other:?}"),
        };
        assert_eq!(
            sigma_pred(&ca.plan),
            sigma_pred(&cb.plan),
            "substituted conjuncts are re-split and sorted"
        );
        for c in [&ca, &cb] {
            let twice = canonicalize(&c.plan);
            assert_eq!(c.plan, twice.plan);
            assert!(twice.is_identity(), "idempotent after substitution");
        }
    }

    #[test]
    fn distinct_collapses() {
        let dd = Fra::Distinct {
            input: Box::new(Fra::Distinct {
                input: Box::new(scan("x", "A")),
            }),
        };
        let d = Fra::Distinct {
            input: Box::new(scan("x", "A")),
        };
        assert_eq!(canonicalize(&dd), canonicalize(&d));
    }

    #[test]
    fn canonicalisation_is_idempotent() {
        let plan = Fra::Distinct {
            input: Box::new(Fra::Project {
                input: Box::new(Fra::Filter {
                    input: Box::new(Fra::HashJoin {
                        left: Box::new(scan2("b", "B")),
                        right: Box::new(scan("a", "A")),
                        left_keys: vec![0],
                        right_keys: vec![0],
                        value_keys: vec![],
                    }),
                    predicate: ScalarExpr::Binary(
                        BinOp::Eq,
                        Box::new(ScalarExpr::Col(0)),
                        Box::new(ScalarExpr::Col(1)),
                    ),
                }),
                items: vec![(ScalarExpr::Col(1), "x".into())],
            }),
        };
        let once = canonicalize(&plan);
        let twice = canonicalize(&once.plan);
        assert_eq!(once.plan, twice.plan);
        assert!(twice.is_identity(), "re-canonicalisation is the identity");
    }

    #[test]
    fn alpha_rename_is_erased() {
        let plan = Fra::Project {
            input: Box::new(Fra::HashJoin {
                left: Box::new(scan("a", "A")),
                right: Box::new(scan2("b", "B")),
                left_keys: vec![0],
                right_keys: vec![0],
                value_keys: vec![],
            }),
            items: vec![(ScalarExpr::Col(1), "bx".into())],
        };
        let renamed = alpha_rename(&plan, &mut |n| format!("{n}_renamed"));
        assert_ne!(plan, renamed, "rename changed the surface plan");
        assert_eq!(canonicalize(&plan), canonicalize(&renamed));
    }
}
