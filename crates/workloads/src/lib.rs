#![warn(missing_docs)]
//! # pgq-workloads
//!
//! Synthetic workload substrate for the oracles and the examples:
//!
//! * [`example`] — the paper's Section 2 running example;
//! * [`social`] — an LDBC-SNB-inspired social network with reply trees
//!   and a seeded update stream;
//! * [`railway`] — a Train-Benchmark-inspired railway model with fault
//!   injection/repair streams;
//! * [`trees`] — parameterised reply trees for the transitive-closure
//!   cost profile;
//! * [`hub`] — a star/hub fan-out network with hub-churn streams for
//!   the cost-based join-order planner oracles;
//! * [`branches`] — independent reply-tree branches with per-branch
//!   labels/types and views, for the propagation-width stress tier;
//! * [`motifs`] — skew-degree graphs with tunable triangle density and
//!   an edge-churn stream, for the worst-case optimal join gate and
//!   the wcoj-vs-binary differential oracle.
//!
//! All generators are deterministic given a seed, so every test built on
//! them is reproducible run-to-run.

pub mod branches;
pub mod example;
pub mod hub;
pub mod motifs;
pub mod railway;
pub mod social;
pub mod trees;

pub use branches::{branch_forest, branch_query, Branch, BranchForest};
pub use example::{paper_example_graph, EXAMPLE_QUERY};
pub use hub::{generate_hub, HubParams};
pub use motifs::{generate_motifs, MotifGraph, MotifParams};
pub use railway::{generate_railway, RailwayParams};
pub use social::{generate_social, SocialParams};
