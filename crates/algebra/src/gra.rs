//! Graph relational algebra (GRA) — the paper's step-1 representation.
//!
//! GRA is variable-named (not positional) and stays close to the query:
//! the nullary © *get-vertices* operator, the unary ↑ *expand-out*
//! operator (with transitive `*` variants), plus the classic σ/π and a
//! natural join for combining path patterns. Property accesses still
//! appear inside σ/π predicates as `var.prop` — resolving them is the job
//! of the later NRA/FRA stages.

use pgq_common::dir::Direction;
use pgq_common::intern::Symbol;
use pgq_parser::ast::Expr;

/// Variable-length bounds (`*`, `*2`, `*1..3`) carried into the algebra.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarLen {
    /// Minimum hops.
    pub min: u32,
    /// Maximum hops (`None` = unbounded).
    pub max: Option<u32>,
}

/// How an expand step participates in path construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathMode {
    /// No path tracking (plain single hop).
    None,
    /// Single hop appending to an already-started named path.
    Append(String),
    /// Variable-length hop emitting a fresh path column (hidden `_p*`
    /// names keep bag multiplicity correct even when the user did not
    /// name the path).
    Emit(String),
    /// Variable-length hop inside a named path: emit `segment`, then
    /// concatenate it into `into` and drop the segment.
    Concat {
        /// Fresh column for the segment produced by this hop.
        segment: String,
        /// The named path being extended.
        into: String,
    },
}

/// What kind of value a query variable denotes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// A vertex.
    Node,
    /// An edge.
    Rel,
    /// A path.
    Path,
    /// A scalar/collection produced by `UNWIND` or projection.
    Value,
}

/// A GRA operator tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Gra {
    /// Nullary: the single empty tuple (identity for joins).
    Unit,
    /// © `get-vertices`: all vertices with the given labels bound to `var`.
    GetVertices {
        /// Bound variable.
        var: String,
        /// Required labels (conjunctive; empty = all vertices).
        labels: Vec<Symbol>,
    },
    /// ↑ `expand-out` (and its transitive variant when `range` is set):
    /// navigate from `src` over edges to `dst`.
    Expand {
        /// Input relation (must bind `src`).
        input: Box<Gra>,
        /// Source variable.
        src: String,
        /// Edge variable (always named; fresh for anonymous patterns).
        edge: String,
        /// Target variable.
        dst: String,
        /// Admissible edge types (disjunctive; empty = any).
        types: Vec<Symbol>,
        /// Labels on the source position of this step (display fidelity:
        /// the paper writes `⇑(c:Comm)(p:Post)` with the source label).
        src_labels: Vec<Symbol>,
        /// Labels required on the target.
        dst_labels: Vec<Symbol>,
        /// Traversal direction.
        dir: Direction,
        /// Variable-length bounds; `None` = single hop.
        range: Option<VarLen>,
        /// Path construction role of this step.
        path: PathMode,
        /// Literal edge-property constraints applied to every traversed
        /// edge (used by variable-length patterns, where general
        /// predicates cannot reference the individual edges).
        edge_prop_filters: Vec<(Symbol, pgq_common::value::Value)>,
        /// For a named variable on a variable-length relationship
        /// (`-[es:R*]->`): bind `es` to the list of traversed
        /// relationships.
        rel_alias: Option<String>,
    },
    /// Initialise a named path column as the zero-length path at `node`.
    PathStart {
        /// Input relation (must bind `node`).
        input: Box<Gra>,
        /// Anchor node variable.
        node: String,
        /// Path variable to introduce.
        path: String,
    },
    /// Natural join on shared variable names (cartesian when disjoint).
    Join {
        /// Left input.
        left: Box<Gra>,
        /// Right input.
        right: Box<Gra>,
    },
    /// ⋉ / ▷ semijoin / antijoin on shared variable names: keep a left
    /// tuple iff the right side has ≥1 (`anti = false`) or 0
    /// (`anti = true`) matches. Compiled from `[NOT] exists(pattern)` —
    /// an extension beyond the paper's fragment.
    SemiJoin {
        /// Left input (passed through unchanged).
        left: Box<Gra>,
        /// Existence-tested subpattern.
        right: Box<Gra>,
        /// Antijoin (`NOT exists`)?
        anti: bool,
    },
    /// σ selection.
    Select {
        /// Input relation.
        input: Box<Gra>,
        /// Predicate over bound variables (parser-level expression).
        predicate: Expr,
    },
    /// π projection.
    Project {
        /// Input relation.
        input: Box<Gra>,
        /// `(expression, output name)` pairs.
        items: Vec<(Expr, String)>,
    },
    /// δ duplicate elimination.
    Distinct {
        /// Input relation.
        input: Box<Gra>,
    },
    /// γ grouping aggregation (the aggregation *extension*; the paper
    /// defers this to future work).
    Aggregate {
        /// Input relation.
        input: Box<Gra>,
        /// Grouping expressions with output names.
        group: Vec<(Expr, String)>,
        /// Aggregate expressions with output names.
        aggs: Vec<(Expr, String)>,
    },
    /// ω unwind: one output tuple per element of the list expression.
    Unwind {
        /// Input relation.
        input: Box<Gra>,
        /// List-valued expression.
        expr: Expr,
        /// Introduced variable.
        alias: String,
    },
}
