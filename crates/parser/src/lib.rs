#![warn(missing_docs, unreachable_pub)]
//! # pgq-parser
//!
//! An openCypher front-end for the maintainable fragment studied by the
//! paper, built from scratch (the openCypher project publishes a grammar
//! and TCK, but no Rust implementation existed for this fragment).
//!
//! The surface covers:
//!
//! * `MATCH` with full node/relationship patterns: labels, types, inline
//!   property maps, direction, variable-length (`*`, `*2`, `*1..3`)
//!   relationships, and named paths (`MATCH t = (a)-[:R*]->(b)`);
//! * `WHERE` with comparison/boolean/arithmetic/string operators, label
//!   predicates, `IN`, `IS [NOT] NULL` and function calls;
//! * `RETURN` (with `DISTINCT`, aliases, `ORDER BY`, `SKIP`, `LIMIT` —
//!   parsed so the engine can *reject* the non-maintainable ones with a
//!   precise error, and so the baseline evaluator can run them);
//! * `UNWIND` (the paper's path-unwinding feature);
//! * update clauses `CREATE`, `DELETE`/`DETACH DELETE`, `SET`, `REMOVE`;
//! * `WITH` and `OPTIONAL MATCH` are parsed and rejected downstream,
//!   mirroring the paper's explicit limitation list.
//!
//! Entry point: [`parse_query`]. [`shape`] splits a lexed statement into
//! its repeating shape and its literals, for callers that cache what they
//! derive from the shape.
//!
//! The public surface is the AST ([`ast`], re-exported at the root),
//! [`parse_query`], [`parse_script`] and [`parse_tokens`] over the
//! [`lexer`]'s [`token`]s, [`ParseError`] and [`Shape`].
//! `tests/public_surface.rs` pins every exported name.

pub mod ast;
mod display;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod shape;
pub mod token;

pub use ast::*;
pub use display::render_lit;
pub use error::ParseError;
pub use parser::{parse_query, parse_script, parse_tokens};
pub use shape::Shape;
