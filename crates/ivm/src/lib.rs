#![warn(missing_docs)]
//! # pgq-ivm
//!
//! The incremental view maintenance engine: a Rete-style delta-propagation
//! network over FRA plans, with counting bag semantics (Gupta–Mumick /
//! Griffin–Libkin) and an incremental transitive-closure operator that
//! maintains Cypher-style edge-distinct paths as **atomic** values — the
//! paper's proposal for reconciling IVM with path ordering.
//!
//! ## Public surface
//!
//! * [`DataflowNetwork`], the engine-owned network every view shares
//!   ([`network`] describes it, one module per job). Register views with
//!   [`RegisterOptions`] (warm from [`RestoreStates`]; [`plan_stats`] is
//!   the planner's statistics snapshot), feed it the [`ChangeEvent`]s of
//!   each committed transaction, read each view through its [`SinkId`]
//!   and [`ViewRef`], and inspect it through [`NodeSummary`], [`NodeId`]
//!   and [`Counters`].
//! * [`MaterializedView`], the standalone single-view façade.
//! * [`Delta`], the signed bag every dataflow edge carries ([`delta`]).
//! * One module per operator kernel: [`scan`], [`join`], [`semijoin`],
//!   [`tc`] (⋈*), [`wcoj`] (⨝ⁿ), [`aggregate`], [`distinct`] and
//!   [`basic`] (σ/π/ω programs); [`stats`] keeps the work counters and
//!   renders a view's operators, and [`footprint`] bounds what a pending
//!   transaction can touch.
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
