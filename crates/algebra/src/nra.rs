//! Nested relational algebra (NRA) — the paper's step-2 representation.
//!
//! The key rewrite from GRA (Section 4, step 2 of the paper): expand
//! operators are **not incrementally maintainable**, so each ↑ becomes a
//! natural join with the nullary ⇑ *get-edges* operator, and each
//! transitive ↑* becomes a *transitive join* `⋈*`. Property accesses are
//! made explicit with the attribute-unnest operator µ (`µ c.lang→cL`),
//! which the next stage will push down into the base operators.

use pgq_common::dir::Direction;
use pgq_common::intern::Symbol;
use pgq_parser::ast::Expr;

use crate::gra::VarLen;

/// The ⇑ get-edges base relation: triples `(src, edge, dst)`.
#[derive(Clone, Debug, PartialEq)]
pub struct GetEdges {
    /// Source variable.
    pub src: String,
    /// Edge variable.
    pub edge: String,
    /// Target variable.
    pub dst: String,
    /// Admissible edge types (disjunctive; empty = any).
    pub types: Vec<Symbol>,
    /// Labels required on the source (shown as `(p:Post)` in the paper's
    /// ⇑ notation; semantically redundant under the natural join but kept
    /// for display fidelity and for transitive-join source checks).
    pub src_labels: Vec<Symbol>,
    /// Labels required on the target.
    pub dst_labels: Vec<Symbol>,
    /// Orientation.
    pub dir: Direction,
    /// Edge-property equality constraints enforced inside variable-length
    /// traversal (literal-only; general predicates stay in σ).
    pub edge_prop_filters: Vec<(Symbol, pgq_common::value::Value)>,
}

/// An NRA operator tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Nra {
    /// Single empty tuple.
    Unit,
    /// © get-vertices.
    GetVertices {
        /// Bound variable.
        var: String,
        /// Required labels.
        labels: Vec<Symbol>,
    },
    /// ⇑ get-edges.
    GetEdges(GetEdges),
    /// ⋉ / ▷ semijoin / antijoin on shared variable names.
    SemiJoin {
        /// Left input (passed through unchanged).
        left: Box<Nra>,
        /// Existence-tested subplan.
        right: Box<Nra>,
        /// Antijoin?
        anti: bool,
    },
    /// Natural join on shared variable names.
    NaturalJoin {
        /// Left input.
        left: Box<Nra>,
        /// Right input.
        right: Box<Nra>,
        /// When this join implements a single-hop path step of a named
        /// path: `(path, edge, dst)` — after the join, `path` is rebound
        /// to `path ++ edge ++ dst`.
        path_append: Option<(String, String, String)>,
    },
    /// ⋈* transitive join: reachability (with materialised paths) from
    /// `src` over the `edges` base relation.
    TransitiveJoin {
        /// Left input (must bind `src`).
        left: Box<Nra>,
        /// The ⇑ operand.
        edges: GetEdges,
        /// Source variable in the left input.
        src: String,
        /// Bounds.
        range: VarLen,
        /// Output path column (hidden `_p*` name when the query did not
        /// name the path — still needed for bag multiplicity).
        path_col: String,
        /// When the traversal continues a named path: rebind that path to
        /// `concat(path, path_col)` and drop `path_col`.
        concat_into: Option<String>,
        /// Bind this name to `relationships(path)` (Cypher's list-valued
        /// variable on a variable-length relationship).
        rel_alias: Option<String>,
    },
    /// Initialise a named path column.
    PathStart {
        /// Input relation.
        input: Box<Nra>,
        /// Anchor node variable.
        node: String,
        /// Path variable.
        path: String,
    },
    /// µ attribute unnest: make property `var.prop` available as column
    /// `col`.
    Unnest {
        /// Input relation.
        input: Box<Nra>,
        /// Element variable.
        var: String,
        /// Property key.
        prop: Symbol,
        /// Output column name.
        col: String,
    },
    /// σ selection (predicate references variables and unnested columns).
    Select {
        /// Input relation.
        input: Box<Nra>,
        /// Predicate.
        predicate: Expr,
    },
    /// π projection.
    Project {
        /// Input relation.
        input: Box<Nra>,
        /// `(expression, output name)` pairs.
        items: Vec<(Expr, String)>,
    },
    /// δ duplicate elimination.
    Distinct {
        /// Input relation.
        input: Box<Nra>,
    },
    /// γ aggregation.
    Aggregate {
        /// Input relation.
        input: Box<Nra>,
        /// Grouping expressions.
        group: Vec<(Expr, String)>,
        /// Aggregate expressions.
        aggs: Vec<(Expr, String)>,
    },
    /// ω unwind.
    Unwind {
        /// Input relation.
        input: Box<Nra>,
        /// List expression.
        expr: Expr,
        /// Introduced variable.
        alias: String,
    },
}
