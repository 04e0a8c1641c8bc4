//! Plain-text import/export of property graphs.
//!
//! The format is a line-oriented, pipe-separated layout inspired by the
//! LDBC/Train Benchmark CSV dumps the paper's evaluation tradition uses:
//!
//! ```text
//! V|<id>|<label;label>|<key=typed-value&key=typed-value>
//! E|<id>|<src>|<dst>|<TYPE>|<props>
//! ```
//!
//! Typed values are tagged (`i:`, `f:`, `s:`, `b:`) and strings are
//! percent-escaped, so the format round-trips every atom. Collection
//! properties are rejected — in the paper's maintainable fragment the
//! stored data model is collection-free (bags only at query level).

use std::fmt::Write as _;

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::value::Value;

use crate::props::Properties;
use crate::store::{GraphError, PropertyGraph};

/// Errors from parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// Malformed line with 1-based line number and reason.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// Value type that cannot be serialised (lists/maps/paths).
    Unsupported(String),
    /// Store rejected an element (e.g. dangling edge).
    Graph(GraphError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            CsvError::Unsupported(t) => write!(f, "unsupported property type {t}"),
            CsvError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<GraphError> for CsvError {
    fn from(e: GraphError) -> Self {
        CsvError::Graph(e)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            '&' => out.push_str("%26"),
            '=' => out.push_str("%3D"),
            ';' => out.push_str("%3B"),
            '\n' => out.push_str("%0A"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| "truncated escape".to_string())?;
            let code = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape %{hex}"))?;
            out.push(code as char);
            i += 3;
        } else {
            // Safe: we iterate at char boundaries only for ASCII '%'; copy
            // the raw char otherwise.
            let c = s[i..].chars().next().expect("in range");
            out.push(c);
            i += c.len_utf8();
        }
    }
    Ok(out)
}

fn encode_value(v: &Value) -> Result<String, CsvError> {
    Ok(match v {
        Value::Int(i) => format!("i:{i}"),
        Value::Float(f) => format!("f:{}", f.get()),
        Value::Bool(b) => format!("b:{b}"),
        Value::Str(s) => format!("s:{}", escape(s)),
        other => return Err(CsvError::Unsupported(other.type_name().into())),
    })
}

fn decode_value(s: &str, line: usize) -> Result<Value, CsvError> {
    let err = |reason: String| CsvError::Parse { line, reason };
    let (tag, rest) = s
        .split_once(':')
        .ok_or_else(|| err(format!("untagged value {s:?}")))?;
    Ok(match tag {
        "i" => Value::Int(rest.parse().map_err(|_| err(format!("bad int {rest:?}")))?),
        "f" => Value::float(
            rest.parse()
                .map_err(|_| err(format!("bad float {rest:?}")))?,
        ),
        "b" => Value::Bool(
            rest.parse()
                .map_err(|_| err(format!("bad bool {rest:?}")))?,
        ),
        "s" => Value::str(unescape(rest).map_err(err)?),
        _ => return Err(err(format!("unknown tag {tag:?}"))),
    })
}

fn encode_props(props: &Properties) -> Result<String, CsvError> {
    let mut out = String::new();
    for (i, (k, v)) in props.iter().enumerate() {
        if i > 0 {
            out.push('&');
        }
        let _ = write!(out, "{}={}", escape(&k.resolve()), encode_value(v)?);
    }
    Ok(out)
}

fn decode_props(s: &str, line: usize) -> Result<Properties, CsvError> {
    let mut props = Properties::new();
    if s.is_empty() {
        return Ok(props);
    }
    for pair in s.split('&') {
        let (k, v) = pair.split_once('=').ok_or_else(|| CsvError::Parse {
            line,
            reason: format!("property without '=': {pair:?}"),
        })?;
        let key = unescape(k).map_err(|reason| CsvError::Parse { line, reason })?;
        props.set(Symbol::intern(&key), decode_value(v, line)?);
    }
    Ok(props)
}

/// Serialise a graph to the text format. Deterministic: vertices and
/// edges are emitted in id order.
pub fn to_text(g: &PropertyGraph) -> Result<String, CsvError> {
    let mut out = String::new();
    let mut vids: Vec<VertexId> = g.vertex_ids().collect();
    vids.sort_unstable();
    for v in vids {
        let data = g.vertex(v).expect("listed id");
        let labels = data
            .labels
            .iter()
            .map(|l| escape(&l.resolve()))
            .collect::<Vec<_>>()
            .join(";");
        let _ = writeln!(
            out,
            "V|{}|{}|{}",
            v.raw(),
            labels,
            encode_props(&data.props)?
        );
    }
    let mut eids: Vec<EdgeId> = g.edge_ids().collect();
    eids.sort_unstable();
    for e in eids {
        let data = g.edge(e).expect("listed id");
        let _ = writeln!(
            out,
            "E|{}|{}|{}|{}|{}",
            e.raw(),
            data.src.raw(),
            data.dst.raw(),
            escape(&data.ty.resolve()),
            encode_props(&data.props)?
        );
    }
    Ok(out)
}

/// Parse the text format into a fresh graph.
pub fn from_text(text: &str) -> Result<PropertyGraph, CsvError> {
    let mut g = PropertyGraph::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        // Only strip the carriage return: trailing spaces can be part of
        // an (escaped) string value in the final field.
        let content = raw.strip_suffix('\r').unwrap_or(raw);
        if content.trim().is_empty() || content.trim_start().starts_with('#') {
            continue;
        }
        let mut parts = content.split('|');
        let kind = parts.next().unwrap_or("");
        let err = |reason: &str| CsvError::Parse {
            line,
            reason: reason.to_string(),
        };
        // The store's id watermark is one past the largest id, and must
        // stay below `u64::MAX` to leave a next id to allocate — the
        // rule snapshot restore applies.
        let mut id = |what: &str| {
            parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .filter(|&id| id < u64::MAX - 1)
                .ok_or_else(|| err(&format!("bad {what} id")))
        };
        match kind {
            "V" => {
                let id = id("vertex")?;
                let labels_field = parts.next().ok_or_else(|| err("missing labels"))?;
                let props_field = parts.next().unwrap_or("");
                let labels: Vec<Symbol> = labels_field
                    .split(';')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        unescape(s)
                            .map(|u| Symbol::intern(&u))
                            .map_err(|reason| CsvError::Parse { line, reason })
                    })
                    .collect::<Result<_, _>>()?;
                if g.has_vertex(VertexId(id)) {
                    return Err(err("duplicate vertex id"));
                }
                g.insert_vertex_raw(VertexId(id), labels, decode_props(props_field, line)?);
            }
            "E" => {
                let (id, src, dst) = (id("edge")?, id("src")?, id("dst")?);
                let ty = parts.next().ok_or_else(|| err("missing type"))?;
                let props_field = parts.next().unwrap_or("");
                if !g.has_vertex(VertexId(src)) {
                    return Err(CsvError::Graph(GraphError::VertexNotFound(VertexId(src))));
                }
                if !g.has_vertex(VertexId(dst)) {
                    return Err(CsvError::Graph(GraphError::VertexNotFound(VertexId(dst))));
                }
                if g.has_edge(EdgeId(id)) {
                    return Err(err("duplicate edge id"));
                }
                let ty = unescape(ty)
                    .map(|u| Symbol::intern(&u))
                    .map_err(|reason| CsvError::Parse { line, reason })?;
                g.insert_edge_raw(
                    EdgeId(id),
                    VertexId(src),
                    VertexId(dst),
                    ty,
                    decode_props(props_field, line)?,
                );
            }
            _ => return Err(err("line must start with V or E")),
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let (a, _) = g.add_vertex(
            [sym("Post")],
            Properties::from_iter([("lang", Value::str("en")), ("n", Value::Int(3))]),
        );
        let (b, _) = g.add_vertex(
            [sym("Comm"), sym("Msg")],
            Properties::from_iter([("score", Value::float(1.5))]),
        );
        g.add_edge(
            a,
            b,
            sym("REPLY"),
            Properties::from_iter([("w", Value::Bool(true))]),
        )
        .unwrap();
        g
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample();
        let text = to_text(&g).unwrap();
        let g2 = from_text(&text).unwrap();
        assert_eq!(g2.vertex_count(), g.vertex_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        let text2 = to_text(&g2).unwrap();
        assert_eq!(text, text2);
    }

    #[test]
    fn strings_with_delimiters_roundtrip() {
        let mut g = PropertyGraph::new();
        g.add_vertex(
            [sym("X")],
            Properties::from_iter([("s", Value::str("a|b&c=d;e%f"))]),
        );
        let text = to_text(&g).unwrap();
        let g2 = from_text(&text).unwrap();
        let v = g2.vertex_ids().next().unwrap();
        assert_eq!(g2.vertex_prop(v, sym("s")), Value::str("a|b&c=d;e%f"));
    }

    #[test]
    fn dangling_edge_rejected() {
        let text = "E|0|0|1|REPLY|";
        assert!(matches!(from_text(text), Err(CsvError::Graph(_))));
    }

    #[test]
    fn duplicate_vertex_rejected() {
        let text = "V|0|Post|\nV|0|Post|";
        assert!(matches!(from_text(text), Err(CsvError::Parse { .. })));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\nV|0|Post|\n";
        let g = from_text(text).unwrap();
        assert_eq!(g.vertex_count(), 1);
    }

    #[test]
    fn list_property_rejected_on_export() {
        let mut g = PropertyGraph::new();
        g.add_vertex(
            [sym("X")],
            Properties::from_iter([("l", Value::list(vec![Value::Int(1)]))]),
        );
        assert!(matches!(to_text(&g), Err(CsvError::Unsupported(_))));
    }
}
