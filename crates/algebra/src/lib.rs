#![warn(missing_docs)]
//! # pgq-algebra
//!
//! The paper's primary contribution: a compiler from openCypher queries to
//! an incrementally maintainable flat relational algebra, in three stages:
//!
//! 1. [`compile`] — openCypher AST → **GRA** (graph relational algebra
//!    with © get-vertices and ↑ expand-out operators);
//! 2. [`to_nra`] — GRA → **NRA** (expands become joins with the ⇑
//!    get-edges operator, transitive expands become transitive joins ⋈*,
//!    property accesses become explicit µ unnests);
//! 3. [`flatten`] — NRA → **FRA** (query-driven schema inference pushes
//!    the µ-unnested attributes down into the base scans; every operator
//!    becomes flat, positional and graph-independent).
//!
//! [`pipeline::compile_query`] runs all three stages and reports the
//! maintainability verdict (ORDER BY / SKIP / LIMIT mark a query as
//! evaluable-but-not-maintainable, exactly the fragment boundary the
//! paper proposes).
//!
//! Three further modules serve the shared dataflow network that executes
//! FRA incrementally: [`canon`] rewrites plans into an alpha-renamed,
//! commutatively sorted normal form (so `MATCH (a:Post)` and
//! `MATCH (p:Post)` become the *same* subplan), [`fingerprint`]
//! hashes canonical subplans into the hash-consing key under which the
//! network shares operator nodes across views, and [`program`] compiles
//! each σ/π/ω chain into the one instruction list the network runs it as.

pub mod canon;
pub mod compile;
pub mod error;
pub mod expr;
pub mod fingerprint;
pub mod flatten;
pub mod fra;
pub mod gra;
pub mod nra;
pub mod pipeline;
pub mod plan;
pub mod pretty;
pub mod program;
pub mod to_nra;

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
