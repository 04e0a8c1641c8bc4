//! Flat relational algebra (FRA) — the paper's step-3 representation.
//!
//! FRA is positional and *self-contained*: after schema inference every
//! property the query needs has been pushed down into the base scans
//! (`©(p:Post{lang→pL})` in the paper's notation), so all higher
//! operators are pure functions of their input tuples. This is the
//! representation both engines execute: the IVM network maintains it
//! incrementally, and the baseline evaluator recomputes it from scratch.

use std::fmt;

use pgq_common::dir::Direction;
use pgq_common::intern::Symbol;
use pgq_common::value::Value;
use pgq_parser::ast::BinOp;

use crate::expr::{AggCall, ScalarExpr};

pub use crate::gra::VarLen;

/// A property pushed down into a base scan: fetch `prop` of the scanned
/// element and expose it as output column `col`.
#[derive(Clone, Debug, PartialEq)]
pub struct PropPush {
    /// Property key.
    pub prop: Symbol,
    /// Output column name.
    pub col: String,
}

/// Specification of the edges traversed by a variable-length join.
#[derive(Clone, Debug, PartialEq)]
pub struct VarLenSpec {
    /// Admissible edge types (empty = any).
    pub types: Vec<Symbol>,
    /// Orientation of each hop.
    pub dir: Direction,
    /// Labels required of the destination vertex.
    pub dst_labels: Vec<Symbol>,
    /// Properties of the destination pushed into the output.
    pub dst_props: Vec<PropPush>,
    /// Literal equality constraints on every traversed edge.
    pub edge_prop_filters: Vec<(Symbol, Value)>,
    /// Minimum hops.
    pub min: u32,
    /// Maximum hops (`None` = unbounded).
    pub max: Option<u32>,
}

/// An FRA operator tree.
///
/// `Debug` is written out (below) only so that a join without value keys
/// renders as it did before they existed: the rendering is the plan's
/// fingerprint ([`Fra::fingerprint`]) and canonical order.
#[derive(Clone, PartialEq)]
pub enum Fra {
    /// Single empty tuple.
    Unit,
    /// © with pushed-down properties. Schema: `[var, props...]`.
    ScanVertices {
        /// Bound variable.
        var: String,
        /// Required labels (conjunctive).
        labels: Vec<Symbol>,
        /// Pushed-down properties.
        props: Vec<PropPush>,
    },
    /// ⇑ with pushed-down properties.
    /// Schema: `[src, edge, dst, src_props..., edge_props..., dst_props...]`.
    ScanEdges {
        /// Source variable.
        src: String,
        /// Edge variable.
        edge: String,
        /// Target variable.
        dst: String,
        /// Admissible edge types.
        types: Vec<Symbol>,
        /// Labels required on the source.
        src_labels: Vec<Symbol>,
        /// Labels required on the target.
        dst_labels: Vec<Symbol>,
        /// Pushed source-vertex properties.
        src_props: Vec<PropPush>,
        /// Pushed edge properties.
        edge_props: Vec<PropPush>,
        /// Pushed target-vertex properties.
        dst_props: Vec<PropPush>,
        /// Orientation (`Both` emits each edge in both orientations).
        dir: Direction,
    },
    /// ⋉ / ▷ semijoin / antijoin. Schema: identical to the left input.
    SemiJoin {
        /// Left input.
        left: Box<Fra>,
        /// Right (existence) input.
        right: Box<Fra>,
        /// Key columns in the left schema.
        left_keys: Vec<usize>,
        /// Matching key columns in the right schema.
        right_keys: Vec<usize>,
        /// Antijoin (`NOT exists`)?
        anti: bool,
    },
    /// Hash join; `keys` are column positions equated pairwise.
    /// Schema: left ++ (right minus its key columns).
    ///
    /// `value_keys` pair a left with a right column that must also agree,
    /// compared under `pgq_graph::index::join_key` (`7` meets `7.0`,
    /// `null` meets nothing): the key the planner takes from a σ conjunct
    /// `x = y` whose columns come from different inputs. That is a
    /// superset of `=`, so the σ stays above and decides; and both
    /// columns stay in the output, each with its own `Int` or `Float`.
    HashJoin {
        /// Left input.
        left: Box<Fra>,
        /// Right input.
        right: Box<Fra>,
        /// Key columns in the left schema.
        left_keys: Vec<usize>,
        /// Matching key columns in the right schema.
        right_keys: Vec<usize>,
        /// `(left column, right column)` pairs equal by value.
        value_keys: Vec<(usize, usize)>,
    },
    /// ⋈* variable-length (transitive) join.
    /// Schema: left ++ `[dst, dst_props..., path]`.
    VarLengthJoin {
        /// Left input.
        left: Box<Fra>,
        /// Column of the left schema to start traversal from.
        src_col: usize,
        /// Edge traversal specification.
        spec: VarLenSpec,
        /// Output name for the destination vertex.
        dst: String,
        /// Output name for the materialised (atomic) path.
        path: String,
    },
    /// σ.
    Filter {
        /// Input.
        input: Box<Fra>,
        /// Predicate over the input schema.
        predicate: ScalarExpr,
    },
    /// π (generalised projection; also used to rebind path columns).
    Project {
        /// Input.
        input: Box<Fra>,
        /// `(expression, output name)` pairs.
        items: Vec<(ScalarExpr, String)>,
    },
    /// δ duplicate elimination (bag → set).
    Distinct {
        /// Input.
        input: Box<Fra>,
    },
    /// γ grouping aggregation. Schema: group names ++ agg names.
    Aggregate {
        /// Input.
        input: Box<Fra>,
        /// Group-by expressions.
        group: Vec<(ScalarExpr, String)>,
        /// Aggregate calls.
        aggs: Vec<(AggCall, String)>,
    },
    /// ω unwind. Schema: input ++ `[alias]`.
    Unwind {
        /// Input.
        input: Box<Fra>,
        /// List-valued expression over the input schema.
        expr: ScalarExpr,
        /// Introduced column.
        alias: String,
    },
    /// ⨝ⁿ worst-case optimal n-ary join (leapfrog/generic join).
    ///
    /// Each input's columns are mapped onto *variables*; two columns
    /// (of the same or different inputs) mapped to the same variable
    /// are equated. Variable ids double as the global elimination
    /// order the operator binds variables in (0 first), chosen by the
    /// planner from cardinality estimates. Schema: one column per
    /// variable, `names[v]` at position `v`.
    MultiwayJoin {
        /// The joined relations (≥ 2 in well-formed plans).
        inputs: Vec<Fra>,
        /// `var_of[i][c]` = variable id of input `i`'s column `c`.
        /// Every variable in `0..names.len()` occurs in some input.
        var_of: Vec<Vec<usize>>,
        /// Output column names, one per variable.
        names: Vec<String>,
    },
}

/// `.field` on the `DebugStruct` builder `d`, once per binding, named
/// after it: what `#[derive(Debug)]` writes.
macro_rules! fields {
    ($d:expr, $($field:ident),*) => {
        $d$(.field(stringify!($field), $field))*
    };
}

// One line per variant, as the derive would render it.
#[rustfmt::skip]
impl fmt::Debug for Fra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fra::Unit => f.write_str("Unit"),
            Fra::ScanVertices { var, labels, props } =>
                fields!(f.debug_struct("ScanVertices"), var, labels, props).finish(),
            Fra::ScanEdges {
                src, edge, dst, types, src_labels, dst_labels, src_props, edge_props, dst_props,
                dir,
            } => fields!(
                f.debug_struct("ScanEdges"), src, edge, dst, types, src_labels, dst_labels,
                src_props, edge_props, dst_props, dir
            ).finish(),
            Fra::SemiJoin { left, right, left_keys, right_keys, anti } =>
                fields!(f.debug_struct("SemiJoin"), left, right, left_keys, right_keys, anti)
                    .finish(),
            Fra::HashJoin { left, right, left_keys, right_keys, value_keys } => {
                let mut d = f.debug_struct("HashJoin");
                fields!(d, left, right, left_keys, right_keys);
                if !value_keys.is_empty() {
                    d.field("value_keys", value_keys);
                }
                d.finish()
            }
            Fra::VarLengthJoin { left, src_col, spec, dst, path } =>
                fields!(f.debug_struct("VarLengthJoin"), left, src_col, spec, dst, path).finish(),
            Fra::Filter { input, predicate } =>
                fields!(f.debug_struct("Filter"), input, predicate).finish(),
            Fra::Project { input, items } => fields!(f.debug_struct("Project"), input, items).finish(),
            Fra::Distinct { input } => fields!(f.debug_struct("Distinct"), input).finish(),
            Fra::Aggregate { input, group, aggs } =>
                fields!(f.debug_struct("Aggregate"), input, group, aggs).finish(),
            Fra::Unwind { input, expr, alias } =>
                fields!(f.debug_struct("Unwind"), input, expr, alias).finish(),
            Fra::MultiwayJoin { inputs, var_of, names } =>
                fields!(f.debug_struct("MultiwayJoin"), inputs, var_of, names).finish(),
        }
    }
}

impl Fra {
    /// Output column names, in positional order.
    pub fn schema(&self) -> Vec<String> {
        match self {
            Fra::Unit => vec![],
            Fra::ScanVertices { var, props, .. } => {
                let mut s = vec![var.clone()];
                s.extend(props.iter().map(|p| p.col.clone()));
                s
            }
            Fra::ScanEdges {
                src,
                edge,
                dst,
                src_props,
                edge_props,
                dst_props,
                ..
            } => {
                let mut s = vec![src.clone(), edge.clone(), dst.clone()];
                s.extend(src_props.iter().map(|p| p.col.clone()));
                s.extend(edge_props.iter().map(|p| p.col.clone()));
                s.extend(dst_props.iter().map(|p| p.col.clone()));
                s
            }
            Fra::HashJoin {
                left,
                right,
                right_keys,
                ..
            } => {
                let mut s = left.schema();
                for (i, col) in right.schema().into_iter().enumerate() {
                    if !right_keys.contains(&i) {
                        s.push(col);
                    }
                }
                s
            }
            Fra::VarLengthJoin {
                left,
                spec,
                dst,
                path,
                ..
            } => {
                let mut s = left.schema();
                s.push(dst.clone());
                s.extend(spec.dst_props.iter().map(|p| p.col.clone()));
                s.push(path.clone());
                s
            }
            Fra::SemiJoin { left, .. } => left.schema(),
            Fra::Filter { input, .. } | Fra::Distinct { input } => input.schema(),
            Fra::Project { items, .. } => items.iter().map(|(_, n)| n.clone()).collect(),
            Fra::Aggregate { group, aggs, .. } => group
                .iter()
                .map(|(_, n)| n.clone())
                .chain(aggs.iter().map(|(_, n)| n.clone()))
                .collect(),
            Fra::Unwind { input, alias, .. } => {
                let mut s = input.schema();
                s.push(alias.clone());
                s
            }
            Fra::MultiwayJoin { names, .. } => names.clone(),
        }
    }

    /// Carry the conjuncts of a σ written directly above `self` down
    /// through the transparent unary operators at its root — π by
    /// substitution, δ unchanged, ω for the conjuncts that do not touch
    /// the unwound column — and hand each group to `place` at the first
    /// operator it cannot pass. This is the only code that moves a σ
    /// through π / δ / ω: the canonicaliser calls it for its normal form,
    /// the planner so that a conjunct written above a π joins the region
    /// below it. Exact: all three operators act per tuple, and a σ on
    /// columns a δ or ω passes through commutes with it.
    pub(crate) fn sink_filter(
        self,
        conjs: Vec<ScalarExpr>,
        place: &dyn Fn(Fra, Vec<ScalarExpr>) -> Fra,
    ) -> Fra {
        if conjs.is_empty() {
            return self;
        }
        match self {
            Fra::Project { input, items } => {
                // Substitution can surface nested `AND`s (a conjunct
                // naming a boolean item): re-split them.
                let through = conjs
                    .iter()
                    .flat_map(|c| c.substitute(&items).operands(BinOp::And))
                    .collect();
                Fra::Project {
                    input: Box::new(input.sink_filter(through, place)),
                    items,
                }
            }
            Fra::Distinct { input } => Fra::Distinct {
                input: Box::new(input.sink_filter(conjs, place)),
            },
            Fra::Unwind { input, expr, alias } => {
                // ω appends its column last, so a conjunct below it
                // keeps its column indexes.
                let arity = input.schema().len();
                let (below, stay): (Vec<_>, Vec<_>) = conjs
                    .into_iter()
                    .partition(|c| c.columns().iter().all(|&col| col < arity));
                let unwound = Fra::Unwind {
                    input: Box::new(input.sink_filter(below, place)),
                    expr,
                    alias,
                };
                if stay.is_empty() {
                    unwound
                } else {
                    place(unwound, stay)
                }
            }
            other => place(other, conjs),
        }
    }

    /// Fill the parameter slots of a one-shot plan: a copy of the tree
    /// in which every expression holding a [`ScalarExpr::Param`] is
    /// bound to `values` and folded ([`ScalarExpr::bind`]), and every
    /// other expression is as the planner left it.
    pub fn bind(&self, values: &[Value]) -> Fra {
        let mut out = self.clone();
        out.exprs_mut(&mut |e| {
            if e.has_params() {
                *e = e.bind(values);
            }
        });
        out
    }

    /// Call `f` on every scalar expression of every operator.
    fn exprs_mut(&mut self, f: &mut dyn FnMut(&mut ScalarExpr)) {
        match self {
            Fra::Unit | Fra::ScanVertices { .. } | Fra::ScanEdges { .. } => {}
            Fra::HashJoin { left, right, .. } | Fra::SemiJoin { left, right, .. } => {
                left.exprs_mut(f);
                right.exprs_mut(f);
            }
            Fra::VarLengthJoin { left: input, .. } | Fra::Distinct { input } => input.exprs_mut(f),
            Fra::Filter { input, predicate } => {
                f(predicate);
                input.exprs_mut(f);
            }
            Fra::Unwind { input, expr, .. } => {
                f(expr);
                input.exprs_mut(f);
            }
            Fra::Project { input, items } => {
                items.iter_mut().for_each(|(e, _)| f(e));
                input.exprs_mut(f);
            }
            Fra::Aggregate { input, group, aggs } => {
                group.iter_mut().for_each(|(e, _)| f(e));
                aggs.iter_mut()
                    .filter_map(|(a, _)| a.arg.as_mut())
                    .for_each(&mut *f);
                input.exprs_mut(f);
            }
            Fra::MultiwayJoin { inputs, .. } => inputs.iter_mut().for_each(|i| i.exprs_mut(f)),
        }
    }
}
