#![warn(missing_docs, unreachable_pub)]
//! # pgq-core
//!
//! Public façade of the pgq stack: [`GraphEngine`] combines the property
//! graph store, the openCypher front-end, the GRA→NRA→FRA compilation
//! pipeline and the IVM network behind one API:
//!
//! ```
//! use pgq_core::GraphEngine;
//!
//! let mut engine = GraphEngine::new();
//! engine.execute("CREATE (:Post {lang: 'en'})-[:REPLY]->(:Comm {lang: 'en'})").unwrap();
//! let view = engine
//!     .register_view(
//!         "same-lang",
//!         "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
//!     )
//!     .unwrap();
//! assert_eq!(engine.view_results(view).unwrap().len(), 1);
//! ```
//!
//! ## The shared dataflow network
//!
//! Every registered view is served by **one engine-owned
//! [`DataflowNetwork`](pgq_ivm::DataflowNetwork)** (an arena-allocated
//! operator DAG), not a private operator tree per view:
//!
//! * [`GraphEngine::register_view`] compiles the query to FRA and
//!   instantiates its plan bottom-up with hash-consing — any subplan
//!   structurally identical (by canonical
//!   [fingerprint](pgq_algebra::Fra::fingerprint) plus full equality) to an
//!   already-instantiated one is **shared**, and the new view becomes a
//!   refcounted sink whose initial results are replayed from the shared
//!   node's memories.
//! * Each committed transaction is propagated in one topologically
//!   scheduled pass; change events are **routed** by vertex label /
//!   edge type (with property-key interest) to only the scan nodes that
//!   can match them, and per-edge delta buffers come from a
//!   transaction-scoped **pool**, so steady-state maintenance cost
//!   tracks affected state rather than the number of registered views.
//! * [`GraphEngine::drop_view`] removes the sink and releases exactly
//!   the operator nodes no surviving view reaches.
//!
//! Inspect the live network with [`GraphEngine::network`] /
//! [`GraphEngine::network_node_count`] and per-view statistics with
//! [`GraphEngine::view_stats`].
//!
//! ## Surface
//!
//! Everything is reached from the crate root: [`GraphEngine`] and the
//! [`ViewId`] handles it returns; [`ExecutionResult`] and its
//! [`UpdateStats`] from `execute` / `query`; [`BatchSummary`] from
//! `apply_batch`; [`DurabilityHealth`] from a durable engine; the
//! [`ViewDelta`] a subscriber receives; and [`EngineError`].

mod config;
mod engine;
mod error;
mod subscribe;

pub use engine::{
    BatchSummary, DurabilityHealth, ExecutionResult, GraphEngine, UpdateStats, ViewId,
};
pub use error::EngineError;
pub use subscribe::ViewDelta;
