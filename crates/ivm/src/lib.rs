#![warn(missing_docs)]
//! # pgq-ivm
//!
//! The incremental view maintenance engine: a Rete-style delta-propagation
//! network over FRA plans, with counting bag semantics (Gupta–Mumick /
//! Griffin–Libkin) and an incremental transitive-closure operator that
//! maintains Cypher-style edge-distinct paths as **atomic** values — the
//! paper's proposal for reconciling IVM with path ordering.
//!
//! ## Architecture: one shared dataflow network
//!
//! All operators live in an engine-owned [`DataflowNetwork`] — a flat
//! arena of operator nodes forming a DAG, not a per-view tree:
//!
//! * **Node sharing (hash-consing).** Registering a view walks its FRA
//!   plan bottom-up and reuses any node whose canonical
//!   [fingerprint](pgq_algebra::fingerprint) and full structure match an
//!   already-instantiated subplan. N overlapping views cost one shared
//!   operator chain plus their private suffixes; views are refcounted
//!   sinks, and dropping one releases only nodes no other view reaches.
//! * **Targeted event routing.** Scan nodes are indexed by vertex label
//!   and edge type (with property-key interest filters); each committed
//!   transaction's [`ChangeEvent`]s are delivered only to scans that can
//!   match them, instead of replaying every event through every view.
//! * **Delta pooling.** Every dataflow edge's buffer comes from a
//!   transaction-scoped pool and returns to it once consumed, so
//!   steady-state maintenance does not allocate per operator layer.
//! * **Topological scheduling.** A transaction is one pass over the
//!   dirty subgraph in ascending depth order; each stateful node updates
//!   its memories and appends its output delta for its consumers.
//! * **Arrangements.** Joins keep no copy of their inputs: a node's
//!   output is indexed once per key-column set, the producer owns the
//!   index, and every ⋈ / ⋉ / ▷ reading it shares it. Indexes are
//!   read-only during a pass and absorb each producer's delta once
//!   after it.
//!
//! Entry points: [`DataflowNetwork`] for engines serving many views;
//! [`MaterializedView`] as the standalone single-view façade. Feed
//! either the [`ChangeEvent`]s of each committed transaction and read
//! the maintained result bags back.
//!
//! [`ChangeEvent`]: pgq_graph::delta::ChangeEvent

pub mod aggregate;
pub mod basic;
pub mod delta;
pub mod distinct;
pub mod footprint;
pub mod join;
pub mod network;
pub mod scan;
pub mod semijoin;
mod small_list;
pub mod stats;
pub mod tc;
pub mod view;
pub mod wcoj;

pub use delta::Delta;
pub use network::{
    plan_stats, DataflowNetwork, NodeId, NodeSummary, RegisterOptions, RestoreStates, SinkId,
    ViewRef,
};
pub use stats::Counters;
pub use view::MaterializedView;
