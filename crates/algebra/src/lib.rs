#![warn(missing_docs, unreachable_pub)]
//! # pgq-algebra
//!
//! The paper's primary contribution: a compiler from openCypher queries to
//! an incrementally maintainable flat relational algebra, in three stages:
//!
//! 1. openCypher AST → **GRA** ([`Gra`]: graph relational algebra with ©
//!    get-vertices and ↑ expand-out operators);
//! 2. GRA → **NRA** ([`Nra`]: expands become joins with the ⇑ get-edges
//!    operator, transitive expands become transitive joins ⋈*, property
//!    accesses become explicit µ unnests);
//! 3. NRA → **FRA** ([`Fra`]: query-driven schema inference pushes the
//!    µ-unnested attributes down into the base scans; every operator
//!    becomes flat, positional and graph-independent).
//!
//! [`compile_query`] runs all three stages and reports the
//! maintainability verdict (ORDER BY / SKIP / LIMIT mark a query as
//! evaluable-but-not-maintainable, exactly the fragment boundary the
//! paper proposes).
//!
//! ## Surface
//!
//! * [`pipeline`]: [`compile_query`] / [`compile_bindings`] (and their
//!   `_params` forms) into a [`CompiledQuery`] holding all three stages;
//!   [`resolve_constant`] for an update clause's literal.
//! * [`fra`] and [`expr`]: the plan ([`Fra`], [`Fra::explain`]) and its
//!   scalar and aggregate expressions ([`ScalarExpr`], [`AggCall`]).
//! * [`agg`]: γ's per-group state ([`agg::GroupState`]), the one the
//!   network maintains and the one-shot evaluator folds a read into.
//! * [`plan`](mod@plan): the cost-based planner ([`plan()`], [`plan::plan_with`])
//!   over a [`PlanStats`] catalog.
//! * [`canon`]: [`canonicalize`] rewrites plans into an alpha-renamed,
//!   commutatively sorted normal form (so `MATCH (a:Post)` and
//!   `MATCH (p:Post)` become the *same* subplan), and
//!   [`Fra::fingerprint`] hashes it into the key under which the shared
//!   dataflow network shares operator nodes across views.
//! * [`program`]: each σ/π/ω chain compiled into the one instruction
//!   list the network and the one-shot evaluator run it as.

pub mod agg;
pub mod canon;
mod compile;
mod error;
pub mod expr;
mod fingerprint;
mod flatten;
pub mod fra;
mod gra;
mod nra;
pub mod pipeline;
pub mod plan;
mod pretty;
pub mod program;
mod to_nra;

pub use canon::{canonicalize, CanonPlan};
pub use error::AlgebraError;
pub use expr::{AggCall, AggFunc, ScalarExpr};
pub use fingerprint::Fingerprint;
pub use flatten::resolve_constant;
pub use fra::Fra;
pub use gra::{Gra, VarKind};
pub use nra::Nra;
pub use pipeline::{
    compile_bindings, compile_bindings_params, compile_query, compile_query_params, CompiledQuery,
};
pub use plan::{plan, PlanStats, Planned};
