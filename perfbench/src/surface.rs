//! The pinned engine surface: **every** `pgq_*` item the benchmark uses
//! is imported here and nowhere else (the README lists them). It is the
//! set an embedding application would call; it deliberately leaves out
//! everything ROADMAP item 2 may delete or rename
//! (`register_view_{unplanned,binary,wcoj_forced}`, `set_wal_compact`,
//! `set_threads`, `MultiwayJoinOp::with_backend`, `opt.rs`, the
//! `RegisterOptions`/`SnapshotView` mode fields, every `PGQ_*` toggle),
//! so a deletion PR never has to edit the benchmark.

// common: values, ids, tuples.
pub use pgq_common::{EdgeId, FxHashMap, Symbol, Tuple, Value, VertexId};
// parser: text → AST.
pub use pgq_parser::ast::Expr;
pub use pgq_parser::parse_query;
// algebra: AST → GRA → NRA → FRA, planner, canonicaliser, fingerprint
// (`Fra::fingerprint`).
pub use pgq_algebra::plan::{plan_with, PlanOptions};
pub use pgq_algebra::{canonicalize, compile_bindings, compile_query};
// graph: store, transactions, change events.
pub use pgq_graph::{ChangeEvent, NodeRef, Properties, PropertyGraph, Transaction};
// eval: the recompute baseline (correctness oracle and `query`'s executor).
pub use pgq_eval::{evaluate, evaluate_consolidated, evaluate_query};
// ivm: the shared dataflow network.
pub use pgq_ivm::{plan_stats, DataflowNetwork, RegisterOptions, RestoreStates, SinkId};
// durability: storage seam, WAL, snapshot, recovery planner.
pub use pgq_durability::codec::encode_tx;
pub use pgq_durability::recovery::plan as recovery_plan;
pub use pgq_durability::snapshot::snap_file;
pub use pgq_durability::wal::{append_payload, wal_file};
pub use pgq_durability::{FsyncMode, MemDisk, Snapshot, StdVfs, Vfs};
// core: the façade.
pub use pgq_core::{GraphEngine, ViewDelta, ViewId};

/// Intern a label, type or property key.
pub fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}
