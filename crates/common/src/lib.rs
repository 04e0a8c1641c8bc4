#![warn(missing_docs, unreachable_pub)]
//! # pgq-common
//!
//! Foundation types shared by every crate in the pgq workspace:
//!
//! * [`value::Value`] — the openCypher value model (atoms, lists, maps,
//!   nodes, relationships and *atomic* paths per the paper's proposal);
//! * [`ids`] — compact vertex/edge identifiers;
//! * [`tuple::Tuple`] — the row representation flowing through algebra
//!   operators and dataflow nodes;
//! * [`fxhash`] — a fast, deterministic hasher for integer-heavy keys
//!   (implemented locally to avoid an external dependency);
//! * [`intern`] — a global symbol interner for labels, edge types and
//!   property keys;
//! * [`text`] — the 16-byte string payload of `Value::Str`: short
//!   strings inline, long ones behind a thin `Arc`;
//! * [`path`] — the alternating vertex/edge path value, stored as an
//!   atomic unit exactly as Section 4 of the paper prescribes;
//! * [`pool`] — a persistent broadcast worker pool for the IVM
//!   scheduler's intra-transaction parallelism (the width the engine
//!   parses from `PGQ_THREADS`);
//! * [`sync`] — non-poisoning acquisition of `std::sync` locks.
//!
//! With [`dir`], [`error`] and [`ordf`], these modules are the public
//! surface; `tests/public_surface.rs` pins every exported name.

pub mod dir;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod intern;
pub mod ordf;
pub mod path;
pub mod pool;
pub mod sync;
pub mod text;
pub mod tuple;
pub mod value;

pub use dir::Direction;
pub use error::CommonError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{EdgeId, VertexId};
pub use intern::Symbol;
pub use path::PathValue;
pub use text::Text;
pub use tuple::Tuple;
pub use value::Value;
