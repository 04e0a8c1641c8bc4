#![warn(missing_docs, unreachable_pub)]
//! # pgq-eval
//!
//! The non-incremental baseline: from-scratch evaluation of FRA plans
//! against a graph snapshot. Serves three purposes:
//!
//! 1. the **recompute baseline** every benchmark compares IVM against
//!    (the paper's implicit comparator: systems without incremental
//!    views must re-run the query after every update);
//! 2. the **differential-testing oracle** — property tests assert that a
//!    maintained view equals a fresh evaluation after arbitrary update
//!    sequences;
//! 3. the executor for the constructs the paper's fragment deliberately
//!    excludes from IVM (`ORDER BY`, `SKIP`, `LIMIT`).
//!
//! It is push-based: rows flow from each scan to the first
//! operator that has to hold them, so a read holds its build sides and
//! groups, not its intermediate results. A join whose right input is a
//! keyed scan reads it from the vertices its left side binds whenever
//! that reads fewer rows than building it (bound-first joins), so a keyed
//! read costs what its anchor's neighbourhood holds, not the graph. The materialising evaluator it
//! replaced lives in the unpublished `pgq_eval_reference` crate, reachable
//! from test targets only, as the reference the differential tests hold
//! this one to.
//!
//! ## Surface
//!
//! * [`evaluate`], [`evaluate_consolidated`] and [`evaluate_query`] run a
//!   plan or a compiled query once; an [`Evaluator`] does the same and
//!   counts the base rows it read.
//! * [`wanted_indexes`] names the property indexes a plan would seek, and
//!   [`explain`] writes the plan marked where the evaluator narrows.
//! * [`enumerate_paths`] is the ⋈* path walk, which the transitive-join
//!   property tests reuse as their oracle. The reference evaluator walks
//!   paths by its own code, so it does not check this walk against itself.

mod eval;
mod expand;
mod paths;

pub use eval::{
    evaluate, evaluate_consolidated, evaluate_query, explain, wanted_indexes, Bag, Evaluator,
};
pub use paths::enumerate_paths;
