#![warn(missing_docs)]
//! # pgq-workloads
//!
//! Synthetic workload substrate for the experiments:
//!
//! * [`example`] — the paper's Section 2 running example (experiment E1);
//! * [`social`] — an LDBC-SNB-inspired social network with reply trees
//!   and a seeded update stream (experiment E6);
//! * [`railway`] — a Train-Benchmark-inspired railway model with fault
//!   injection/repair streams (experiment E5);
//! * [`trees`] — parameterised reply trees for the transitive-closure
//!   microbenchmarks (experiment E7);
//! * [`hub`] — a star/hub fan-out network with hub-churn streams for
//!   the cost-based join-order planner benchmarks;
//! * [`branches`] — independent reply-tree branches with per-branch
//!   labels/types and views, for the parallel-propagation and
//!   transaction-batching benchmarks;
//! * [`motifs`] — skew-degree graphs with tunable triangle density and
//!   an edge-churn stream, for the worst-case optimal join benchmarks
//!   and the wcoj-vs-binary differential oracle.
//!
//! All generators are deterministic given a seed, so benchmark tables are
//! reproducible run-to-run.

pub mod branches;
pub mod example;
pub mod hub;
pub mod motifs;
pub mod railway;
pub mod social;
pub mod trees;

pub use branches::{branch_forest, branch_query, churn_all, Branch, BranchForest};
pub use example::{paper_example_graph, EXAMPLE_QUERY};
pub use hub::{generate_hub, HubParams};
pub use motifs::{generate_motifs, MotifGraph, MotifParams};
pub use railway::{generate_railway, RailwayParams};
pub use social::{generate_social, SocialParams};
