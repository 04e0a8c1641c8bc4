//! Public-surface guard: each crate under `crates/` (the offline shims
//! aside) exports exactly the items pinned here, so a new export is a
//! reviewed diff.
//!
//! An item is exported when its declaration starts with a bare `pub`
//! (not `pub(crate)`) in a crate's non-test `src`: a file is read without
//! its column-0 `#[cfg(test)]` items, as in `tests/source_layout.rs`, so
//! an item after a test module is on the surface too.
//! Each crate root warns on `unreachable_pub`, so a `pub` the crate
//! cannot reach from outside is already a lint error; what is left here
//! is what callers can name. Fields and enum variants ride with their
//! type and are not listed. An item nothing outside its crate names
//! should be `pub(crate)`; one a caller needs is added to the list.
//!
//! An entry reads `file: kind Owner::name`, where `Owner` is the
//! `impl` block or inline module the item sits in, if any.

use std::path::{Path, PathBuf};

mod source_text;

/// Every `.rs` file below `dir`, sorted.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| e.expect("readable entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The identifier at the start of `s`.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// The self type of a column-0 `impl … {` line: `Type` in
/// `impl<T> Trait for Type<T> {` and in `impl Type {`.
fn impl_owner(line: &str) -> String {
    let mut rest = line.trim_start_matches("impl").trim_end_matches('{').trim();
    if rest.starts_with('<') {
        let mut depth = 0;
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                rest = rest[i + 1..].trim_start();
                break;
            }
        }
    }
    if let Some((_, ty)) = rest.split_once(" for ") {
        rest = ty.trim_start();
    }
    ident(rest).to_string()
}

/// The exported items of one crate's `src`, in file and line order.
fn surface(krate: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src = root.join("crates").join(krate).join("src");
    let mut files = Vec::new();
    sources(&src, &mut files);
    let mut items = Vec::new();
    for path in files {
        let rel = path.strip_prefix(&src).expect("under src");
        let rel = rel.to_str().expect("UTF-8 path").replace('\\', "/");
        let text = std::fs::read_to_string(&path).expect("readable source");
        items.extend(exports(&rel, &text));
    }
    items
}

/// The exported items of the source `text` of file `rel`, in line order.
fn exports(rel: &str, text: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut lines = source_text::non_test_lines(text);
    let mut owner: Option<String> = None;
    while let Some(line) = lines.next() {
        if line.starts_with('}') {
            owner = None;
        } else if line.starts_with("impl ") || line.starts_with("impl<") {
            owner = Some(impl_owner(line));
        } else if let Some(name) = line
            .strip_prefix("pub mod ")
            .or_else(|| line.strip_prefix("mod "))
            .filter(|_| line.ends_with('{'))
        {
            owner = Some(ident(name).to_string());
        }
        let Some(decl) = line.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let mut words = decl.split_whitespace().peekable();
        let kind = loop {
            match words.next() {
                Some("unsafe" | "async" | "extern") => {}
                Some("const") if words.peek() == Some(&"fn") => {}
                Some(kind) => break kind,
                None => unreachable!("`pub ` ends a line in {rel}"),
            }
        };
        let entry = match kind {
            "use" => {
                let mut stmt = decl.to_string();
                while !stmt.ends_with(';') {
                    stmt.push(' ');
                    stmt.push_str(lines.next().expect("`pub use` ends with `;`").trim());
                }
                let stmt = stmt.replace("{ ", "{").replace(", }", "}");
                stmt.trim_end_matches(';').to_string()
            }
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod" => {
                let name = ident(words.next().expect("an item name"));
                match (&owner, line.starts_with(' ')) {
                    (Some(owner), true) => format!("{kind} {owner}::{name}"),
                    _ => format!("{kind} {name}"),
                }
            }
            // A field of a public struct: part of its type.
            _ => continue,
        };
        items.push(format!("{rel}: {entry}"));
    }
    items
}

/// Compare `krate`'s surface with `pinned`, naming every difference.
fn check(krate: &str, pinned: &[&str]) {
    let found = surface(krate);
    let added: Vec<&String> = found
        .iter()
        .filter(|f| !pinned.contains(&f.as_str()))
        .collect();
    let gone: Vec<&&str> = pinned
        .iter()
        .filter(|p| !found.iter().any(|f| f == *p))
        .collect();
    assert!(
        added.is_empty() && gone.is_empty(),
        "pgq_{krate}'s public surface changed.\n\
         new exports (make each `pub(crate)` unless a caller outside the crate names it): \
         {added:#?}\n\
         gone (take each off the list): {gone:#?}\n\
         the surface as it stands:\n{}",
        found
            .iter()
            .map(|f| format!("    {f:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn an_item_after_the_test_module_is_exported() {
    assert_eq!(
        exports("fixture.rs", source_text::ITEM_AFTER_TESTS),
        ["fixture.rs: fn before", "fixture.rs: fn after"]
    );
}

#[test]
fn common_surface() {
    check("common", COMMON);
}

#[test]
fn parser_surface() {
    check("parser", PARSER);
}

#[test]
fn graph_surface() {
    check("graph", GRAPH);
}

#[test]
fn ivm_surface() {
    check("ivm", IVM);
}

#[test]
fn durability_surface() {
    check("durability", DURABILITY);
}

#[test]
fn workloads_surface() {
    check("workloads", WORKLOADS);
}

#[test]
fn algebra_surface() {
    check("algebra", ALGEBRA);
}

#[test]
fn eval_surface() {
    check("eval", EVAL);
}

#[test]
fn eval_reference_surface() {
    check("eval_reference", EVAL_REFERENCE);
}

#[test]
fn core_surface() {
    check("core", CORE);
}

/// Every workspace member under `crates/` but the offline shims has its
/// surface pinned here: a new crate fails until it has a `check` call.
#[test]
fn every_crate_has_a_pinned_surface() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("workspace manifest");
    let members = manifest
        .split("members = [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("the workspace lists its members");
    let crates: Vec<&str> = members
        .split(',')
        .filter_map(|m| m.trim().trim_matches('"').strip_prefix("crates/"))
        .filter(|m| !m.starts_with("shims/"))
        .collect();
    assert!(crates.contains(&"core"), "members read as {crates:?}");
    let this = include_str!("public_surface.rs");
    let unpinned: Vec<&&str> = crates
        .iter()
        .filter(|name| !this.contains(&format!("    check(\"{name}\", ")))
        .collect();
    assert!(
        unpinned.is_empty(),
        "crates with no pinned surface (add a `*_surface` test): {unpinned:?}"
    );
}

const COMMON: &[&str] = &[
    "dir.rs: enum Direction",
    "error.rs: enum CommonError",
    "fxhash.rs: struct FxHasher",
    "fxhash.rs: type FxBuildHasher",
    "fxhash.rs: type FxHashMap",
    "fxhash.rs: type FxHashSet",
    "ids.rs: struct VertexId",
    "ids.rs: struct EdgeId",
    "ids.rs: fn VertexId::raw",
    "ids.rs: fn EdgeId::raw",
    "intern.rs: struct Symbol",
    "intern.rs: fn Symbol::intern",
    "intern.rs: fn Symbol::resolve",
    "intern.rs: fn Symbol::with_str",
    "intern.rs: fn Symbol::index",
    "lib.rs: mod dir",
    "lib.rs: mod error",
    "lib.rs: mod fxhash",
    "lib.rs: mod ids",
    "lib.rs: mod intern",
    "lib.rs: mod order",
    "lib.rs: mod ordf",
    "lib.rs: mod path",
    "lib.rs: mod pool",
    "lib.rs: mod sync",
    "lib.rs: mod text",
    "lib.rs: mod tuple",
    "lib.rs: mod value",
    "lib.rs: use dir::Direction",
    "lib.rs: use error::CommonError",
    "lib.rs: use fxhash::{FxHashMap, FxHashSet}",
    "lib.rs: use ids::{EdgeId, VertexId}",
    "lib.rs: use intern::Symbol",
    "lib.rs: use path::PathValue",
    "lib.rs: use text::Text",
    "lib.rs: use tuple::Tuple",
    "lib.rs: use value::Value",
    "order.rs: fn cmp_rows",
    "order.rs: fn sort_rows",
    "order.rs: fn sort_rows_with",
    "ordf.rs: struct OrdF64",
    "ordf.rs: fn OrdF64::get",
    "path.rs: struct PathValue",
    "path.rs: fn PathValue::single",
    "path.rs: fn PathValue::new",
    "path.rs: fn PathValue::len",
    "path.rs: fn PathValue::is_empty",
    "path.rs: fn PathValue::source",
    "path.rs: fn PathValue::target",
    "path.rs: fn PathValue::vertices",
    "path.rs: fn PathValue::edges",
    "path.rs: fn PathValue::contains_edge",
    "path.rs: fn PathValue::extend",
    "path.rs: fn PathValue::concat",
    "pool.rs: struct WorkerPool",
    "pool.rs: fn WorkerPool::new",
    "pool.rs: fn WorkerPool::threads",
    "pool.rs: fn WorkerPool::broadcast",
    "sync.rs: fn lock",
    "text.rs: struct Text",
    "text.rs: const Text::INLINE_CAP",
    "text.rs: fn Text::is_inline",
    "tuple.rs: struct Tuple",
    "tuple.rs: fn Tuple::unit",
    "tuple.rs: fn Tuple::new",
    "tuple.rs: fn Tuple::arity",
    "tuple.rs: fn Tuple::get",
    "tuple.rs: fn Tuple::values",
    "tuple.rs: fn Tuple::from_slice",
    "tuple.rs: fn Tuple::project",
    "tuple.rs: fn Tuple::key_ref",
    "tuple.rs: fn Tuple::hash_projected",
    "tuple.rs: fn Tuple::hash_whole",
    "tuple.rs: fn Tuple::total_cmp",
    "tuple.rs: fn Tuple::push",
    "tuple.rs: fn Tuple::iter",
    "tuple.rs: struct KeyRef",
    "tuple.rs: fn KeyRef::hash",
    "tuple.rs: fn KeyRef::matches_projection",
    "tuple.rs: fn KeyRef::matches_key",
    "tuple.rs: fn KeyRef::to_tuple",
    "value.rs: enum Value",
    "value.rs: fn Value::str",
    "value.rs: fn Value::float",
    "value.rs: fn Value::list",
    "value.rs: fn Value::map",
    "value.rs: fn Value::path",
    "value.rs: fn Value::type_name",
    "value.rs: fn Value::is_null",
    "value.rs: fn Value::as_node",
    "value.rs: fn Value::as_rel",
    "value.rs: fn Value::as_int",
    "value.rs: fn Value::as_f64",
    "value.rs: fn Value::as_str",
    "value.rs: fn Value::as_path",
    "value.rs: fn Value::total_cmp",
    "value.rs: fn Value::strict_cmp",
    "value.rs: fn Value::compare",
    "value.rs: fn Value::cypher_eq",
    "value.rs: fn Value::add",
    "value.rs: fn Value::sub",
    "value.rs: fn Value::mul",
    "value.rs: fn Value::div",
    "value.rs: fn Value::modulo",
    "value.rs: fn Value::neg",
];

const PARSER: &[&str] = &[
    "ast.rs: struct Query",
    "ast.rs: fn Query::return_clause",
    "ast.rs: fn Query::is_update",
    "ast.rs: enum Clause",
    "ast.rs: struct Pattern",
    "ast.rs: struct PathPattern",
    "ast.rs: struct NodePattern",
    "ast.rs: struct RangeSpec",
    "ast.rs: struct RelPattern",
    "ast.rs: struct ReturnClause",
    "ast.rs: struct ReturnItem",
    "ast.rs: fn ReturnItem::name",
    "ast.rs: enum SetItem",
    "ast.rs: enum RemoveItem",
    "ast.rs: enum BinOp",
    "ast.rs: enum UnOp",
    "ast.rs: enum Expr",
    "ast.rs: fn Expr::free_variables",
    "ast.rs: fn Expr::is_aggregate",
    "ast.rs: fn Expr::contains_aggregate",
    "display.rs: fn render_lit",
    "error.rs: struct ParseError",
    "error.rs: fn ParseError::render",
    "lexer.rs: fn lex",
    "lib.rs: mod ast",
    "lib.rs: mod error",
    "lib.rs: mod lexer",
    "lib.rs: mod parser",
    "lib.rs: mod shape",
    "lib.rs: mod token",
    "lib.rs: use ast::*",
    "lib.rs: use display::render_lit",
    "lib.rs: use error::ParseError",
    "lib.rs: use parser::{parse_query, parse_script, parse_tokens}",
    "lib.rs: use shape::Shape",
    "parser.rs: fn parse_query",
    "parser.rs: fn parse_tokens",
    "parser.rs: fn parse_script",
    "shape.rs: fn lifted_name",
    "shape.rs: struct Shape",
    "shape.rs: fn Shape::of",
    "shape.rs: fn Shape::rewrite",
    "token.rs: enum Kw",
    "token.rs: fn Kw::from_upper",
    "token.rs: enum Tok",
    "token.rs: struct Spanned",
];

const GRAPH: &[&str] = &[
    "before.rs: struct BeforeIndex",
    "before.rs: fn BeforeIndex::new",
    "before.rs: fn BeforeIndex::build",
    "before.rs: struct BeforeImage",
    "before.rs: fn BeforeImage::graph",
    "before.rs: fn BeforeImage::events",
    "before.rs: fn BeforeImage::vertex",
    "before.rs: fn BeforeImage::edge",
    "before.rs: struct VertexView",
    "before.rs: fn VertexView::id",
    "before.rs: fn VertexView::has_label",
    "before.rs: fn VertexView::get",
    "before.rs: fn VertexView::get_or_null",
    "before.rs: struct EdgeView",
    "before.rs: fn EdgeView::id",
    "before.rs: fn EdgeView::src",
    "before.rs: fn EdgeView::dst",
    "before.rs: fn EdgeView::ty",
    "before.rs: fn EdgeView::get",
    "before.rs: fn EdgeView::get_or_null",
    "before.rs: fn PropertyGraph::vertex_view",
    "before.rs: fn PropertyGraph::edge_view",
    "csv.rs: enum CsvError",
    "csv.rs: fn to_text",
    "csv.rs: fn from_text",
    "delta.rs: enum ChangeEvent",
    "delta.rs: fn ChangeEvent::touched_vertex",
    "delta.rs: fn ChangeEvent::touched_edge",
    "index.rs: fn prop_key",
    "index.rs: fn join_key",
    "index.rs: fn join_keys_equal",
    "index.rs: fn hash_join_key",
    "lib.rs: mod before",
    "lib.rs: mod csv",
    "lib.rs: mod delta",
    "lib.rs: mod index",
    "lib.rs: mod props",
    "lib.rs: mod scan",
    "lib.rs: mod stats",
    "lib.rs: mod store",
    "lib.rs: mod tx",
    "lib.rs: use delta::ChangeEvent",
    "lib.rs: use props::Properties",
    "lib.rs: use store::{EdgeData, GraphError, PropertyGraph, VertexData}",
    "lib.rs: use tx::{NodeRef, Transaction, TxOp}",
    "props.rs: struct Properties",
    "props.rs: fn Properties::new",
    "props.rs: fn Properties::from_iter",
    "props.rs: fn Properties::len",
    "props.rs: fn Properties::is_empty",
    "props.rs: fn Properties::get",
    "props.rs: fn Properties::get_or_null",
    "props.rs: fn Properties::set",
    "props.rs: fn Properties::iter",
    "scan.rs: struct VertexPattern",
    "scan.rs: fn VertexPattern::row_into",
    "scan.rs: fn VertexPattern::extent",
    "scan.rs: fn VertexPattern::rows",
    "scan.rs: fn VertexPattern::rows_of",
    "scan.rs: enum End",
    "scan.rs: struct EdgePattern",
    "scan.rs: fn EdgePattern::orientations",
    "scan.rs: fn EdgePattern::row_into",
    "scan.rs: fn EdgePattern::extent",
    "scan.rs: fn EdgePattern::rows",
    "scan.rs: fn EdgePattern::adjacency",
    "scan.rs: fn EdgePattern::degree",
    "scan.rs: fn EdgePattern::rows_at",
    "stats.rs: struct CardinalityCatalog",
    "stats.rs: fn CardinalityCatalog::out_degree_second_moment",
    "stats.rs: fn CardinalityCatalog::out_degree_source_count",
    "stats.rs: fn CardinalityCatalog::distinct_sources",
    "stats.rs: fn CardinalityCatalog::distinct_targets",
    "stats.rs: fn CardinalityCatalog::vertex_prop_distinct",
    "stats.rs: fn CardinalityCatalog::edge_prop_distinct",
    "stats.rs: fn CardinalityCatalog::vertex_prop_keys",
    "stats.rs: fn CardinalityCatalog::edge_prop_keys",
    "stats.rs: struct CatalogRef",
    "stats.rs: fn PropertyGraph::catalog",
    "stats.rs: struct GraphStats",
    "stats.rs: fn GraphStats::of",
    "store.rs: struct VertexData",
    "store.rs: fn VertexData::has_label",
    "store.rs: struct EdgeData",
    "store.rs: enum GraphError",
    "store.rs: struct PropertyGraph",
    "store.rs: fn PropertyGraph::new",
    "store.rs: fn PropertyGraph::vertex_count",
    "store.rs: fn PropertyGraph::edge_count",
    "store.rs: fn PropertyGraph::vertex",
    "store.rs: fn PropertyGraph::edge",
    "store.rs: fn PropertyGraph::has_vertex",
    "store.rs: fn PropertyGraph::has_edge",
    "store.rs: fn PropertyGraph::vertex_ids",
    "store.rs: fn PropertyGraph::edge_ids",
    "store.rs: fn PropertyGraph::vertices",
    "store.rs: fn PropertyGraph::edges",
    "store.rs: fn PropertyGraph::vertices_with_label",
    "store.rs: fn PropertyGraph::has_label",
    "store.rs: fn PropertyGraph::edges_with_type",
    "store.rs: fn PropertyGraph::out_edges",
    "store.rs: fn PropertyGraph::in_edges",
    "store.rs: fn PropertyGraph::ensure_prop_index",
    "store.rs: fn PropertyGraph::has_prop_index",
    "store.rs: fn PropertyGraph::prop_seek",
    "store.rs: fn PropertyGraph::prop_indexes",
    "store.rs: fn PropertyGraph::prop_index_dump",
    "store.rs: fn PropertyGraph::labels",
    "store.rs: fn PropertyGraph::edge_types",
    "store.rs: fn PropertyGraph::vertex_prop",
    "store.rs: fn PropertyGraph::add_vertex",
    "store.rs: fn PropertyGraph::load_vertex",
    "store.rs: fn PropertyGraph::load_edge",
    "store.rs: fn PropertyGraph::id_watermarks",
    "store.rs: fn PropertyGraph::set_id_watermarks",
    "store.rs: fn PropertyGraph::add_edge",
    "store.rs: fn PropertyGraph::remove_edge",
    "store.rs: fn PropertyGraph::set_vertex_prop",
    "store.rs: fn PropertyGraph::set_edge_prop",
    "store.rs: fn PropertyGraph::remove_label",
    "tx.rs: enum NodeRef",
    "tx.rs: enum TxOp",
    "tx.rs: struct Transaction",
    "tx.rs: fn Transaction::new",
    "tx.rs: fn Transaction::len",
    "tx.rs: fn Transaction::is_empty",
    "tx.rs: fn Transaction::ops",
    "tx.rs: fn Transaction::from_ops",
    "tx.rs: fn Transaction::create_vertex",
    "tx.rs: fn Transaction::create_edge",
    "tx.rs: fn Transaction::delete_vertex",
    "tx.rs: fn Transaction::delete_edge",
    "tx.rs: fn Transaction::set_vertex_prop",
    "tx.rs: fn Transaction::set_edge_prop",
    "tx.rs: fn Transaction::add_label",
    "tx.rs: fn Transaction::remove_label",
    "tx.rs: fn PropertyGraph::apply",
    "tx.rs: fn PropertyGraph::unapply",
];

const IVM: &[&str] = &[
    "basic.rs: fn program_into",
    "delta.rs: enum Row",
    "delta.rs: trait RowSink",
    "delta.rs: struct Delta",
    "delta.rs: fn Delta::new",
    "delta.rs: fn Delta::with_capacity",
    "delta.rs: fn Delta::is_empty",
    "delta.rs: fn Delta::len",
    "delta.rs: fn Delta::push",
    "delta.rs: fn Delta::iter",
    "delta.rs: fn Delta::clear",
    "delta.rs: fn Delta::consolidate",
    "delta.rs: fn Delta::consolidate_in_place",
    "delta.rs: struct IndexedBag",
    "delta.rs: fn IndexedBag::new",
    "delta.rs: fn IndexedBag::distinct_len",
    "delta.rs: fn IndexedBag::key_counts",
    "delta.rs: fn IndexedBag::update",
    "delta.rs: fn IndexedBag::probe",
    "delta.rs: fn IndexedBag::get",
    "delta.rs: fn IndexedBag::iter",
    "footprint.rs: struct TxFootprint",
    "footprint.rs: fn TxFootprint::disjoint",
    "footprint.rs: fn TxFootprint::merge",
    "footprint.rs: fn DataflowNetwork::tx_footprint",
    "join.rs: struct JoinOp",
    "join.rs: fn JoinOp::new",
    "join.rs: fn JoinOp::left_arrangement_keys",
    "join.rs: fn JoinOp::right_arrangement_keys",
    "join.rs: fn JoinOp::counters",
    "join.rs: fn JoinOp::apply",
    "lib.rs: mod basic",
    "lib.rs: mod delta",
    "lib.rs: mod footprint",
    "lib.rs: mod join",
    "lib.rs: mod network",
    "lib.rs: mod semijoin",
    "lib.rs: mod stats",
    "lib.rs: mod tc",
    "lib.rs: mod wcoj",
    "lib.rs: use delta::Delta",
    "lib.rs: use network::{plan_stats, DataflowNetwork, NodeId, NodeSummary, RegisterOptions, RestoreStates, SinkId, ViewRef}",
    "lib.rs: use stats::Counters",
    "network/arena.rs: struct NodeId",
    "network/arena.rs: fn DataflowNetwork::node_count",
    "network/mod.rs: use arena::NodeId",
    "network/mod.rs: use register::{plan_stats, RegisterOptions, RestoreStates}",
    "network/mod.rs: use sinks::{SinkId, ViewRef}",
    "network/mod.rs: struct NodeSummary",
    "network/mod.rs: struct DataflowNetwork",
    "network/mod.rs: fn DataflowNetwork::new",
    "network/mod.rs: fn DataflowNetwork::node_summaries",
    "network/mod.rs: fn DataflowNetwork::counters",
    "network/register.rs: struct RegisterOptions",
    "network/register.rs: struct RestoreStates",
    "network/register.rs: fn RestoreStates::new",
    "network/register.rs: fn RestoreStates::insert",
    "network/register.rs: fn RestoreStates::lookup",
    "network/register.rs: fn RestoreStates::iter",
    "network/register.rs: fn RestoreStates::len",
    "network/register.rs: fn RestoreStates::is_empty",
    "network/register.rs: fn plan_stats",
    "network/register.rs: fn DataflowNetwork::register",
    "network/register.rs: fn DataflowNetwork::register_with",
    "network/register.rs: fn DataflowNetwork::register_with_restore",
    "network/register.rs: fn DataflowNetwork::dump_states",
    "network/register.rs: fn DataflowNetwork::dump_states_with",
    "network/register.rs: fn DataflowNetwork::node_plans",
    "network/register.rs: fn DataflowNetwork::arrangement_bags",
    "network/schedule.rs: fn DataflowNetwork::on_transaction",
    "network/schedule.rs: fn DataflowNetwork::on_transaction_with",
    "network/sinks.rs: struct SinkId",
    "network/sinks.rs: fn DataflowNetwork::drop_sink",
    "network/sinks.rs: fn DataflowNetwork::sink_count",
    "network/sinks.rs: fn DataflowNetwork::changed_sinks",
    "network/sinks.rs: fn DataflowNetwork::sink_changed",
    "network/sinks.rs: fn DataflowNetwork::last_delta",
    "network/sinks.rs: fn DataflowNetwork::view",
    "network/sinks.rs: fn DataflowNetwork::view_named",
    "network/sinks.rs: struct ViewRef",
    "network/sinks.rs: fn ViewRef::name",
    "network/sinks.rs: fn ViewRef::columns",
    "network/sinks.rs: fn ViewRef::results",
    "network/sinks.rs: fn ViewRef::rows",
    "network/sinks.rs: fn ViewRef::distinct_count",
    "network/sinks.rs: fn ViewRef::row_count",
    "network/sinks.rs: fn ViewRef::memory_tuples",
    "network/sinks.rs: fn ViewRef::maintenance_count",
    "network/sinks.rs: fn ViewRef::network_stats",
    "semijoin.rs: struct SemiJoinOp",
    "semijoin.rs: fn SemiJoinOp::new",
    "semijoin.rs: fn SemiJoinOp::left_arrangement_keys",
    "semijoin.rs: fn SemiJoinOp::apply",
    "semijoin.rs: fn SemiJoinOp::restore",
    "stats.rs: struct Counters",
    "stats.rs: struct OpStats",
    "stats.rs: fn OpStats::total_tuples",
    "tc.rs: struct VarLengthOp",
    "tc.rs: fn VarLengthOp::new",
    "tc.rs: fn VarLengthOp::memory_tuples",
    "tc.rs: fn VarLengthOp::path_count",
    "tc.rs: fn VarLengthOp::anchor_count",
    "tc.rs: fn VarLengthOp::edge_count",
    "tc.rs: fn VarLengthOp::initial",
    "tc.rs: fn VarLengthOp::on_events",
    "tc.rs: fn VarLengthOp::on_events_into",
    "tc.rs: fn VarLengthOp::replay_into",
    "wcoj.rs: struct MultiwayJoinOp",
    "wcoj.rs: fn MultiwayJoinOp::with_backend",
    "wcoj.rs: fn MultiwayJoinOp::counters",
    "wcoj.rs: fn MultiwayJoinOp::apply",
];

const DURABILITY: &[&str] = &[
    "codec.rs: enum CodecError",
    "codec.rs: fn crc32",
    "codec.rs: fn encode_tx",
    "codec.rs: fn decode_tx",
    "codec.rs: enum CatalogRecord",
    "codec.rs: fn is_catalog",
    "codec.rs: enum Record",
    "codec.rs: fn encode_record",
    "codec.rs: fn decode_catalog",
    "error.rs: enum DurOp",
    "error.rs: enum DurKind",
    "error.rs: struct DurabilityError",
    "error.rs: fn DurabilityError::io",
    "error.rs: fn DurabilityError::corrupt",
    "error.rs: fn DurabilityError::config",
    "fold.rs: struct FoldJob",
    "fold.rs: struct Folded",
    "fold.rs: fn fold",
    "fold.rs: fn write_image",
    "fold.rs: fn remove_subsumed",
    "fold.rs: struct FoldWorker",
    "fold.rs: fn FoldWorker::start",
    "fold.rs: fn FoldWorker::submit",
    "fold.rs: fn FoldWorker::wait",
    "lib.rs: mod codec",
    "lib.rs: mod error",
    "lib.rs: mod fold",
    "lib.rs: mod recovery",
    "lib.rs: mod snapshot",
    "lib.rs: mod vfs",
    "lib.rs: mod wal",
    "lib.rs: use codec::Record",
    "lib.rs: use error::{DurKind, DurOp, DurabilityError}",
    "lib.rs: use fold::{FoldJob, FoldWorker}",
    "lib.rs: use recovery::{RecoveryPlan, RecoveryReport}",
    "lib.rs: use snapshot::{Snapshot, SnapshotView, SnapshotWriter}",
    "lib.rs: use vfs::{Fault, FsyncMode, MemDisk, MemVfs, StdVfs, Vfs}",
    "lib.rs: use wal::WalTail",
    "recovery.rs: struct RecoveryReport",
    "recovery.rs: fn RecoveryReport::is_pristine",
    "recovery.rs: struct RecoveryPlan",
    "recovery.rs: fn plan",
    "recovery.rs: struct Recovered",
    "recovery.rs: fn RecoveryPlan::recover",
    "snapshot.rs: fn snap_file",
    "snapshot.rs: fn parse_snap_name",
    "snapshot.rs: enum SnapshotError",
    "snapshot.rs: struct SnapshotView",
    "snapshot.rs: struct Snapshot",
    "snapshot.rs: fn Snapshot::capture_graph",
    "snapshot.rs: fn Snapshot::restore_graph",
    "snapshot.rs: fn Snapshot::encode",
    "snapshot.rs: fn Snapshot::decode",
    "snapshot.rs: fn Snapshot::write",
    "snapshot.rs: fn Snapshot::load",
    "snapshot.rs: struct SnapshotWriter",
    "snapshot.rs: fn SnapshotWriter::new",
    "snapshot.rs: fn SnapshotWriter::views",
    "snapshot.rs: fn SnapshotWriter::states",
    "snapshot.rs: fn SnapshotWriter::finish",
    "vfs.rs: enum FsyncMode",
    "vfs.rs: trait Vfs",
    "vfs.rs: struct StdVfs",
    "vfs.rs: fn StdVfs::new",
    "vfs.rs: enum Fault",
    "vfs.rs: const Fault::ALL",
    "vfs.rs: struct MemDisk",
    "vfs.rs: fn MemDisk::new",
    "vfs.rs: fn MemDisk::vfs",
    "vfs.rs: fn MemDisk::vfs_with_fuse",
    "vfs.rs: fn MemDisk::vfs_with_fault",
    "vfs.rs: fn MemDisk::vfs_with_faults",
    "vfs.rs: fn MemDisk::ops_attempted",
    "vfs.rs: fn MemDisk::bytes_attempted",
    "vfs.rs: fn MemDisk::len",
    "vfs.rs: fn MemDisk::total_len",
    "vfs.rs: fn MemDisk::file_names",
    "vfs.rs: fn MemDisk::after_power_cut",
    "vfs.rs: fn MemDisk::corrupt",
    "vfs.rs: fn MemDisk::truncate",
    "vfs.rs: struct MemVfs",
    "wal.rs: fn wal_file",
    "wal.rs: fn parse_wal_name",
    "wal.rs: enum WalTail",
    "wal.rs: fn WalTail::is_clean",
    "wal.rs: fn append_payload",
    "wal.rs: fn append_tx",
    "wal.rs: fn append",
    "wal.rs: fn scan",
    "wal.rs: struct WalContents",
    "wal.rs: fn WalContents::valid_len",
    "wal.rs: fn load",
    "wal.rs: fn repair",
];

const WORKLOADS: &[&str] = &[
    "branches.rs: struct Branch",
    "branches.rs: struct BranchForest",
    "branches.rs: fn branch_query",
    "branches.rs: fn branch_forest",
    "example.rs: const EXAMPLE_QUERY",
    "example.rs: struct ExampleIds",
    "example.rs: fn paper_example_graph",
    "hub.rs: struct HubParams",
    "hub.rs: fn HubParams::quick",
    "hub.rs: struct HubNetwork",
    "hub.rs: fn generate_hub",
    "hub.rs: fn HubNetwork::update_stream",
    "hub.rs: mod queries",
    "hub.rs: const queries::RARE_TOPIC_FANS",
    "hub.rs: const queries::RARE_CAT_FANS",
    "lib.rs: mod branches",
    "lib.rs: mod example",
    "lib.rs: mod hub",
    "lib.rs: mod motifs",
    "lib.rs: mod railway",
    "lib.rs: mod social",
    "lib.rs: mod trees",
    "lib.rs: use branches::{branch_forest, branch_query, Branch, BranchForest}",
    "lib.rs: use example::{paper_example_graph, EXAMPLE_QUERY}",
    "lib.rs: use hub::{generate_hub, HubParams}",
    "lib.rs: use motifs::{generate_motifs, MotifGraph, MotifParams}",
    "lib.rs: use railway::{generate_railway, RailwayParams}",
    "lib.rs: use social::{generate_social, SocialParams}",
    "motifs.rs: struct MotifParams",
    "motifs.rs: fn MotifParams::quick",
    "motifs.rs: struct MotifGraph",
    "motifs.rs: fn generate_motifs",
    "motifs.rs: fn MotifGraph::churn",
    "motifs.rs: struct HubMotifParams",
    "motifs.rs: fn HubMotifParams::quick",
    "motifs.rs: struct HubMotifGraph",
    "motifs.rs: fn generate_hub_motifs",
    "motifs.rs: fn HubMotifGraph::churn",
    "motifs.rs: struct SkewMotifParams",
    "motifs.rs: fn generate_skew_motifs",
    "motifs.rs: mod queries",
    "motifs.rs: const queries::TRIANGLES",
    "motifs.rs: const queries::TRIANGLES_RENAMED",
    "motifs.rs: const queries::FOUR_CYCLES",
    "motifs.rs: const queries::WEDGE_COUNT",
    "motifs.rs: const queries::MOTIF_SKEW",
    "railway.rs: struct RailwayParams",
    "railway.rs: fn RailwayParams::size",
    "railway.rs: struct Railway",
    "railway.rs: fn generate_railway",
    "railway.rs: fn Railway::fault_stream",
    "railway.rs: mod queries",
    "railway.rs: const queries::POS_LENGTH",
    "railway.rs: const queries::SWITCH_SET",
    "railway.rs: const queries::ROUTE_SENSOR",
    "railway.rs: const queries::CONNECTED_SEGMENTS",
    "railway.rs: const queries::ROUTE_SENSOR_NEG",
    "railway.rs: const queries::SWITCH_MONITORED_NEG",
    "social.rs: struct SocialParams",
    "social.rs: fn SocialParams::scale",
    "social.rs: struct SocialNetwork",
    "social.rs: fn generate_social",
    "social.rs: fn SocialNetwork::update_stream",
    "social.rs: mod queries",
    "social.rs: const queries::SAME_LANG_THREAD",
    "social.rs: const queries::FRIEND_LIKES",
    "social.rs: const queries::POSTS_PER_LANG",
    "social.rs: const OVERLAPPING_QUERIES",
    "social.rs: const WHERE_FAMILY_QUERIES",
    "social.rs: fn renamed_overlap_query",
    "trees.rs: struct ReplyTree",
    "trees.rs: fn reply_tree",
];

const ALGEBRA: &[&str] = &[
    "agg.rs: struct GroupState",
    "agg.rs: fn GroupState::new",
    "agg.rs: fn GroupState::insert_only",
    "agg.rs: fn GroupState::add",
    "agg.rs: fn GroupState::row",
    "canon.rs: struct CanonPlan",
    "canon.rs: fn CanonPlan::is_identity",
    "canon.rs: fn CanonPlan::with_restored_order",
    "canon.rs: fn canonicalize",
    "canon.rs: fn alpha_rename",
    "error.rs: enum AlgebraError",
    "expr.rs: enum ScalarExpr",
    "expr.rs: fn ScalarExpr::col",
    "expr.rs: fn ScalarExpr::lit",
    "expr.rs: fn ScalarExpr::eval",
    "expr.rs: fn ScalarExpr::matches",
    "expr.rs: fn ScalarExpr::bind",
    "expr.rs: enum AggFunc",
    "expr.rs: struct AggCall",
    "fingerprint.rs: struct Fingerprint",
    "fingerprint.rs: fn Fra::fingerprint",
    "fingerprint.rs: fn Fra::snapshot_check",
    "flatten.rs: fn resolve_constant",
    "fra.rs: use crate::gra::VarLen",
    "fra.rs: struct PropPush",
    "fra.rs: struct VarLenSpec",
    "fra.rs: enum Fra",
    "fra.rs: fn Fra::schema",
    "fra.rs: fn Fra::bind",
    "gra.rs: struct VarLen",
    "gra.rs: enum PathMode",
    "gra.rs: enum VarKind",
    "gra.rs: enum Gra",
    "lib.rs: mod agg",
    "lib.rs: mod canon",
    "lib.rs: mod expr",
    "lib.rs: mod fra",
    "lib.rs: mod pipeline",
    "lib.rs: mod plan",
    "lib.rs: mod program",
    "lib.rs: use canon::{canonicalize, CanonPlan}",
    "lib.rs: use error::AlgebraError",
    "lib.rs: use expr::{AggCall, AggFunc, ScalarExpr}",
    "lib.rs: use fingerprint::Fingerprint",
    "lib.rs: use flatten::resolve_constant",
    "lib.rs: use fra::Fra",
    "lib.rs: use gra::{Gra, VarKind}",
    "lib.rs: use nra::Nra",
    "lib.rs: use pipeline::{compile_bindings, compile_bindings_params, compile_query, compile_query_params, CompiledQuery}",
    "lib.rs: use plan::{plan, PlanStats, Planned}",
    "nra.rs: struct GetEdges",
    "nra.rs: enum Nra",
    "pipeline.rs: struct CompiledQuery",
    "pipeline.rs: fn CompiledQuery::is_maintainable",
    "pipeline.rs: fn CompiledQuery::explain_plan",
    "pipeline.rs: fn compile_query",
    "pipeline.rs: fn compile_query_params",
    "pipeline.rs: fn compile_bindings",
    "pipeline.rs: fn compile_bindings_params",
    "plan.rs: const SORTED_BACKEND_MIN_SKEW",
    "plan.rs: enum WcojMode",
    "plan.rs: struct PlanOptions",
    "plan.rs: struct PlanStats",
    "plan.rs: fn PlanStats::out_degree_skew",
    "plan.rs: struct Planned",
    "plan.rs: fn plan",
    "plan.rs: fn plan_with",
    "pretty.rs: fn Fra::explain",
    "pretty.rs: fn Fra::explain_with",
    "program.rs: enum Emit",
    "program.rs: struct Scratch",
    "program.rs: struct TupleProgram",
    "program.rs: fn TupleProgram::compile",
    "program.rs: fn TupleProgram::is_filter",
    "program.rs: fn TupleProgram::run",
];

const EVAL: &[&str] = &[
    "eval.rs: type Bag",
    "eval.rs: fn evaluate",
    "eval.rs: struct Evaluator",
    "eval.rs: fn wanted_indexes",
    "eval.rs: fn explain",
    "eval.rs: fn Evaluator::new",
    "eval.rs: fn Evaluator::run",
    "eval.rs: fn Evaluator::run_query",
    "eval.rs: fn Evaluator::run_rows",
    "eval.rs: fn evaluate_query",
    "eval.rs: fn evaluate_consolidated",
    "lib.rs: use eval::{evaluate, evaluate_consolidated, evaluate_query, explain, wanted_indexes, Bag, Evaluator}",
    "lib.rs: use paths::enumerate_paths",
    "paths.rs: fn enumerate_paths",
];

const EVAL_REFERENCE: &[&str] = &[
    "lib.rs: struct Evaluator",
    "lib.rs: fn Evaluator::new",
    "lib.rs: fn Evaluator::run",
    "lib.rs: fn Evaluator::run_query",
    "lib.rs: fn evaluate_query",
    "lib.rs: fn evaluate_consolidated",
];

const CORE: &[&str] = &[
    "engine.rs: struct ViewId",
    "engine.rs: struct DurabilityHealth",
    "engine.rs: struct UpdateStats",
    "engine.rs: struct BatchSummary",
    "engine.rs: struct ExecutionResult",
    "engine.rs: struct GraphEngine",
    "engine.rs: const GraphEngine::SHAPE_CAPACITY",
    "engine.rs: fn GraphEngine::new",
    "engine.rs: fn GraphEngine::from_graph",
    "engine.rs: fn GraphEngine::graph",
    "engine.rs: fn GraphEngine::set_threads",
    "engine.rs: fn GraphEngine::apply",
    "engine.rs: fn GraphEngine::apply_batch",
    "engine.rs: fn GraphEngine::apply_with_deltas",
    "engine.rs: fn GraphEngine::register_view",
    "engine.rs: fn GraphEngine::drop_view",
    "engine.rs: fn GraphEngine::view_by_name",
    "engine.rs: fn GraphEngine::view",
    "engine.rs: fn GraphEngine::view_results",
    "engine.rs: fn GraphEngine::views",
    "engine.rs: fn GraphEngine::network",
    "engine.rs: fn GraphEngine::open_durable",
    "engine.rs: fn GraphEngine::open_durable_with",
    "engine.rs: fn GraphEngine::set_snapshot_every",
    "engine.rs: fn GraphEngine::snapshot",
    "engine.rs: fn GraphEngine::durability_health",
    "engine.rs: fn GraphEngine::is_degraded",
    "engine.rs: fn GraphEngine::recovery_report",
    "engine.rs: fn GraphEngine::reset_durability",
    "engine.rs: fn GraphEngine::set_fsync",
    "engine.rs: fn GraphEngine::set_flush_window",
    "engine.rs: fn GraphEngine::set_max_durability_failures",
    "engine.rs: fn GraphEngine::query",
    "engine.rs: fn GraphEngine::property_indexes",
    "engine.rs: fn GraphEngine::execute",
    "engine.rs: fn GraphEngine::execute_with",
    "engine.rs: fn GraphEngine::statement_shapes",
    "engine.rs: fn GraphEngine::execute_script",
    "engine.rs: fn GraphEngine::explain",
    "engine.rs: fn GraphEngine::view_query",
    "engine.rs: fn GraphEngine::view_compiled",
    "engine.rs: fn GraphEngine::network_node_count",
    "engine.rs: fn GraphEngine::subscribe",
    "engine.rs: fn GraphEngine::view_stats",
    "error.rs: enum EngineError",
    "lib.rs: use engine::{BatchSummary, DurabilityHealth, ExecutionResult, GraphEngine, UpdateStats, ViewId}",
    "lib.rs: use error::EngineError",
    "lib.rs: use subscribe::ViewDelta",
    "subscribe.rs: struct ViewDelta",
    "subscribe.rs: fn ViewDelta::from_delta",
];
