#![warn(missing_docs, unreachable_pub)]
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
//! * [`Delta`], the signed bag every dataflow edge carries, with the
//!   row sink and the keyed arrangement the kernels write and read
//!   ([`delta`]).
//! * The kernels the crate's own tests drive directly: [`join`] (⋈),
//!   [`semijoin`] (⋉/▷), [`tc`] (⋈*), [`wcoj`] (⨝ⁿ) and [`basic`]
//!   (σ/π/ω programs). Scans, δ and γ are reached only through the
//!   network. [`stats`] keeps the work counters and renders a view's
//!   operators.
//! * [`footprint`] bounds what a pending transaction can touch. No
//!   engine code reads it; it stays public only for the benchmark's
//!   twin model, and goes with it (ROADMAP item 1(iii)).
//!
//! `tests/public_surface.rs` pins every exported name.
//!
//! [`ChangeEvent`]: pgq_graph::delta::ChangeEvent

mod aggregate;
pub mod basic;
pub mod delta;
mod distinct;
pub mod footprint;
pub mod join;
pub mod network;
mod scan;
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
