#![warn(missing_docs, unreachable_pub)]
//! # pgq-graph
//!
//! An in-memory property graph store — the substrate the paper assumes.
//!
//! The store follows the paper's data model `G = (V, E, st, L, T, L, T,
//! Pv, Pe)`: vertices carry a *set* of labels and a property map, edges
//! carry exactly one type, a source/target pair and a property map.
//!
//! Three aspects matter for incremental view maintenance and shape this
//! crate's design:
//!
//! 1. **Transactions** ([`tx::Transaction`]) apply a batch of update
//!    operations atomically (with rollback on failure) and report the
//!    committed effects as a list of [`delta::ChangeEvent`]s — the delta
//!    feed driving the IVM network.
//! 2. **Fine-grained updates (FGN)**: properties and labels can be set or
//!    removed individually, without recreating the element, and each such
//!    change is visible as its own event.
//! 3. **Indexes** ([`index`]): label, edge-type and adjacency indexes give
//!    the base-relation operators (© get-vertices, ⇑ get-edges) and the
//!    baseline evaluator O(1) access to their extents.
//!
//! ## Public surface
//!
//! [`PropertyGraph`] and its element records ([`store`]), [`Transaction`]
//! and [`TxOp`] ([`tx`]), the [`ChangeEvent`] feed ([`delta`]),
//! [`Properties`] ([`props`]), the before-image a maintenance pass reads
//! old rows from ([`before`]), the © / ⇑ patterns every reader of a
//! base relation reads its rows through ([`scan`]), the join-key
//! normalisation of [`index`],
//! the cardinality catalog the planner reads and the
//! [`stats::GraphStats`] summary the examples print ([`stats`]), and the
//! CSV dump ([`csv`]). `tests/public_surface.rs` pins every exported
//! name.

pub mod before;
pub mod csv;
pub mod delta;
pub mod index;
pub mod props;
pub mod scan;
pub mod stats;
pub mod store;
pub mod tx;

pub use delta::ChangeEvent;
pub use props::Properties;
pub use store::{EdgeData, GraphError, PropertyGraph, VertexData};
pub use tx::{NodeRef, Transaction, TxOp};
