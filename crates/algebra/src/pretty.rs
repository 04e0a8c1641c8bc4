//! Pretty-printers for all three pipeline stages.
//!
//! The single-line GRA/NRA renderings mirror the paper's notation (©, ↑,
//! ⇑, ⋈*, µ, σ, π) and are pinned by the golden tests of experiments
//! E2–E4. The FRA rendering is a multi-line EXPLAIN-style tree with
//! column names substituted into expressions.

use std::fmt;

use pgq_common::dir::Direction;
use pgq_common::intern::Symbol;
use pgq_parser::render_lit;

use crate::expr::{AggFunc, ScalarExpr};
use crate::fra::Fra;
use crate::gra::{Gra, PathMode, VarLen};
use crate::nra::{GetEdges, Nra};

fn labels_str(labels: &[Symbol]) -> String {
    labels
        .iter()
        .map(|l| format!(":{l}"))
        .collect::<Vec<_>>()
        .join("")
}

fn range_str(range: &VarLen) -> String {
    match (range.min, range.max) {
        (1, None) => "*".to_string(),
        (min, None) => format!("*{min}.."),
        (min, Some(max)) if min == max => format!("*{min}"),
        (min, Some(max)) => format!("*{min}..{max}"),
    }
}

fn types_str(types: &[Symbol]) -> String {
    if types.is_empty() {
        String::new()
    } else {
        format!(
            ":{}",
            types
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("|")
        )
    }
}

fn edge_pattern(
    src: &str,
    src_labels: &[Symbol],
    types: &[Symbol],
    range: Option<&VarLen>,
    dst: &str,
    dst_labels: &[Symbol],
    dir: Direction,
) -> String {
    let body = format!(
        "[{}{}]",
        types_str(types),
        range.map(range_str).unwrap_or_default()
    );
    let (l, r) = match dir {
        Direction::Out => ("-", "->"),
        Direction::In => ("<-", "-"),
        Direction::Both => ("-", "-"),
    };
    format!(
        "({src}{}){l}{body}{r}({dst}{})",
        labels_str(src_labels),
        labels_str(dst_labels)
    )
}

impl fmt::Display for Gra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gra::Unit => write!(f, "1"),
            Gra::GetVertices { var, labels } => {
                write!(f, "©({var}{})", labels_str(labels))
            }
            Gra::Expand {
                input,
                src,
                dst,
                types,
                src_labels,
                dst_labels,
                dir,
                range,
                path,
                ..
            } => {
                let arrow = edge_pattern(
                    src,
                    src_labels,
                    types,
                    range.as_ref(),
                    dst,
                    dst_labels,
                    *dir,
                );
                let path_note = match path {
                    PathMode::None => String::new(),
                    PathMode::Append(t) => format!(", {t}≪"),
                    PathMode::Emit(t) => format!(", path={t}"),
                    PathMode::Concat { into, .. } => format!(", {into}≪"),
                };
                write!(f, "↑[{arrow}{path_note}] ({input})")
            }
            Gra::PathStart { input, node, path } => {
                write!(f, "ι[{path} = ⟨{node}⟩] ({input})")
            }
            Gra::Join { left, right } => write!(f, "({left} ⋈ {right})"),
            Gra::SemiJoin { left, right, anti } => {
                write!(f, "({left} {} {right})", if *anti { "▷" } else { "⋉" })
            }
            Gra::Select { input, predicate } => write!(f, "σ[{predicate}] ({input})"),
            Gra::Project { input, items } => {
                write!(f, "π[")?;
                for (i, (e, name)) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    if &e.to_string() == name {
                        write!(f, "{name}")?;
                    } else {
                        write!(f, "{e}→{name}")?;
                    }
                }
                write!(f, "] ({input})")
            }
            Gra::Distinct { input } => write!(f, "δ({input})"),
            Gra::Aggregate { input, group, aggs } => {
                write!(f, "γ[")?;
                for (i, (e, _)) in group.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "; ")?;
                for (i, (e, _)) in aggs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "] ({input})")
            }
            Gra::Unwind { input, expr, alias } => {
                write!(f, "ω[{expr} AS {alias}] ({input})")
            }
        }
    }
}

impl GetEdges {
    fn render(&self, range: Option<&VarLen>) -> String {
        format!(
            "⇑[{}]",
            edge_pattern(
                &self.src,
                &self.src_labels,
                &self.types,
                range,
                &self.dst,
                &self.dst_labels,
                self.dir,
            )
        )
    }
}

impl fmt::Display for Nra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Nra::Unit => write!(f, "1"),
            Nra::GetVertices { var, labels } => {
                write!(f, "©({var}{})", labels_str(labels))
            }
            Nra::GetEdges(ge) => write!(f, "{}", ge.render(None)),
            Nra::SemiJoin { left, right, anti } => {
                write!(f, "({left} {} {right})", if *anti { "▷" } else { "⋉" })
            }
            Nra::NaturalJoin {
                left,
                right,
                path_append,
            } => match path_append {
                None => write!(f, "({left} ⋈ {right})"),
                Some((t, _, _)) => write!(f, "({left} ⋈[{t}≪] {right})"),
            },
            Nra::TransitiveJoin {
                left,
                edges,
                range,
                path_col,
                concat_into,
                ..
            } => {
                let path_note = match concat_into {
                    Some(t) => format!("{t}≪"),
                    None => format!("path={path_col}"),
                };
                write!(f, "({left} ⋈*[{path_note}] {})", edges.render(Some(range)))
            }
            Nra::PathStart { input, node, path } => {
                write!(f, "ι[{path} = ⟨{node}⟩] ({input})")
            }
            Nra::Unnest {
                input, var, prop, ..
            } => write!(f, "µ[{var}.{prop}] ({input})"),
            Nra::Select { input, predicate } => write!(f, "σ[{predicate}] ({input})"),
            Nra::Project { input, items } => {
                write!(f, "π[")?;
                for (i, (e, name)) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    if &e.to_string() == name {
                        write!(f, "{name}")?;
                    } else {
                        write!(f, "{e}→{name}")?;
                    }
                }
                write!(f, "] ({input})")
            }
            Nra::Distinct { input } => write!(f, "δ({input})"),
            Nra::Aggregate { input, group, aggs } => {
                write!(f, "γ[")?;
                for (i, (e, _)) in group.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "; ")?;
                for (i, (e, _)) in aggs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "] ({input})")
            }
            Nra::Unwind { input, expr, alias } => {
                write!(f, "ω[{expr} AS {alias}] ({input})")
            }
        }
    }
}

/// Render a scalar expression substituting column names from `schema`.
pub(crate) fn render_expr(e: &ScalarExpr, schema: &[String]) -> String {
    match e {
        ScalarExpr::Col(i) => schema.get(*i).cloned().unwrap_or_else(|| format!("#{i}")),
        ScalarExpr::Lit(v) => render_lit(v),
        ScalarExpr::Param(slot) => format!("${slot}"),
        ScalarExpr::Binary(op, l, r) => format!(
            "({} {op} {})",
            render_expr(l, schema),
            render_expr(r, schema)
        ),
        ScalarExpr::Unary(pgq_parser::ast::UnOp::Not, x) => {
            format!("(NOT {})", render_expr(x, schema))
        }
        ScalarExpr::Unary(pgq_parser::ast::UnOp::Neg, x) => {
            format!("(-{})", render_expr(x, schema))
        }
        ScalarExpr::Func { name, args } => format!(
            "{name}({})",
            args.iter()
                .map(|a| render_expr(a, schema))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        ScalarExpr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            render_expr(expr, schema),
            if *negated { "NOT " } else { "" }
        ),
        ScalarExpr::List(items) => format!(
            "[{}]",
            items
                .iter()
                .map(|a| render_expr(a, schema))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        ScalarExpr::Map(entries) => format!(
            "{{{}}}",
            entries
                .iter()
                .map(|(k, v)| format!("{k}: {}", render_expr(v, schema)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        ScalarExpr::Index(b, i) => {
            format!("{}[{}]", render_expr(b, schema), render_expr(i, schema))
        }
        ScalarExpr::PathSingle(n) => format!("⟨{}⟩", render_expr(n, schema)),
        ScalarExpr::PathExtend(p, e2, n) => format!(
            "{}·{}·{}",
            render_expr(p, schema),
            render_expr(e2, schema),
            render_expr(n, schema)
        ),
        ScalarExpr::PathConcat(a, b) => {
            format!("{}++{}", render_expr(a, schema), render_expr(b, schema))
        }
    }
}

fn props_str(props: &[crate::fra::PropPush]) -> String {
    if props.is_empty() {
        return String::new();
    }
    format!(
        " {{{}}}",
        props
            .iter()
            .map(|p| format!("{}→{}", p.prop, p.col))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

impl Fra {
    /// Multi-line EXPLAIN rendering with resolved column names: one line
    /// per operator, each input indented under the operator reading it.
    pub fn explain(&self) -> String {
        self.explain_with(&mut |_| String::new())
    }

    /// [`Fra::explain`] with `note(op)` written after each operator's
    /// line: the note's first line ends the operator's own, and any
    /// further line is indented under it, above the operator's inputs.
    pub fn explain_with(&self, note: &mut dyn FnMut(&Fra) -> String) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, note);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize, note: &mut dyn FnMut(&Fra) -> String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let (line, inputs) = self.explain_line();
        let text = note(self);
        let mut lines = text.lines();
        let _ = writeln!(out, "{pad}{line}{}", lines.next().unwrap_or_default());
        for extra in lines {
            let _ = writeln!(out, "{pad}  {extra}");
        }
        for input in inputs {
            input.explain_into(out, depth + 1, note);
        }
    }

    /// This operator's EXPLAIN line, and the inputs written under it.
    fn explain_line(&self) -> (String, Vec<&Fra>) {
        match self {
            Fra::Unit => ("Unit".into(), vec![]),
            Fra::ScanVertices { var, labels, props } => (
                format!("©({var}{}{})", labels_str(labels), props_str(props)),
                vec![],
            ),
            Fra::ScanEdges {
                src,
                edge,
                dst,
                types,
                src_labels,
                dst_labels,
                src_props,
                edge_props,
                dst_props,
                dir,
                ..
            } => {
                let (l, r) = match dir {
                    Direction::Out => ("-", "->"),
                    Direction::In => ("<-", "-"),
                    Direction::Both => ("-", "-"),
                };
                let line = format!(
                    "⇑[({src}{}{}){l}[{edge}{}{}]{r}({dst}{}{})]",
                    labels_str(src_labels),
                    props_str(src_props),
                    types_str(types),
                    props_str(edge_props),
                    labels_str(dst_labels),
                    props_str(dst_props),
                );
                (line, vec![])
            }
            Fra::HashJoin {
                left,
                right,
                left_keys,
                value_keys,
                ..
            } => {
                let (ls, rs) = (left.schema(), right.schema());
                let ids: Vec<&str> = left_keys.iter().map(|&i| ls[i].as_str()).collect();
                let mut line = format!("⋈[{}]", ids.join(", "));
                if !value_keys.is_empty() {
                    let pairs: Vec<String> = value_keys
                        .iter()
                        .map(|&(l, r)| format!("{} = {}", ls[l], rs[r]))
                        .collect();
                    line.push_str(&format!(" by value[{}]", pairs.join(", ")));
                }
                (line, vec![left, right])
            }
            Fra::SemiJoin {
                left,
                right,
                left_keys,
                anti,
                ..
            } => {
                let ls = left.schema();
                let keys: Vec<&str> = left_keys.iter().map(|&i| ls[i].as_str()).collect();
                let glyph = if *anti { "▷" } else { "⋉" };
                (format!("{glyph}[{}]", keys.join(", ")), vec![left, right])
            }
            Fra::VarLengthJoin {
                left,
                src_col,
                spec,
                dst,
                path,
            } => {
                let line = format!(
                    "⋈*{}..{}[{} →{} ({dst}{}{}), path={path}]",
                    spec.min,
                    spec.max.map(|m| m.to_string()).unwrap_or_default(),
                    left.schema().get(*src_col).cloned().unwrap_or_default(),
                    types_str(&spec.types),
                    labels_str(&spec.dst_labels),
                    props_str(&spec.dst_props),
                );
                (line, vec![left])
            }
            Fra::Filter { input, predicate } => (
                format!("σ[{}]", render_expr(predicate, &input.schema())),
                vec![input],
            ),
            Fra::Project { input, items } => {
                let schema = input.schema();
                let rendered: Vec<String> = items
                    .iter()
                    .map(|(e, n)| {
                        let es = render_expr(e, &schema);
                        if &es == n {
                            es
                        } else {
                            format!("{es}→{n}")
                        }
                    })
                    .collect();
                (format!("π[{}]", rendered.join(", ")), vec![input])
            }
            Fra::Distinct { input } => ("δ".into(), vec![input]),
            Fra::Aggregate { input, group, aggs } => {
                let schema = input.schema();
                let g: Vec<String> = group
                    .iter()
                    .map(|(e, n)| format!("{}→{n}", render_expr(e, &schema)))
                    .collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|(call, n)| {
                        let arg = call
                            .arg
                            .as_ref()
                            .map(|e| render_expr(e, &schema))
                            .unwrap_or_else(|| "*".into());
                        let func = match call.func {
                            AggFunc::Count | AggFunc::CountStar => "count",
                            AggFunc::Sum => "sum",
                            AggFunc::Min => "min",
                            AggFunc::Max => "max",
                            AggFunc::Avg => "avg",
                            AggFunc::Collect => "collect",
                        };
                        let distinct = if call.distinct { "DISTINCT " } else { "" };
                        format!("{func}({distinct}{arg})→{n}")
                    })
                    .collect();
                (
                    format!("γ[{}; {}]", g.join(", "), a.join(", ")),
                    vec![input],
                )
            }
            Fra::Unwind { input, expr, alias } => (
                format!("ω[{} AS {alias}]", render_expr(expr, &input.schema())),
                vec![input],
            ),
            Fra::MultiwayJoin {
                inputs,
                var_of,
                names,
            } => {
                // Per input, its columns mapped onto the global variables
                // (the binding order is the variable order).
                let binds: Vec<String> = var_of
                    .iter()
                    .map(|vars| {
                        vars.iter()
                            .map(|&v| names.get(v).cloned().unwrap_or_else(|| format!("_v{v}")))
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect();
                let line = format!(
                    "⨝ⁿ[order: {}; rels: {}]",
                    names.join(" → "),
                    binds.join("; ")
                );
                (line, inputs.iter().collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::pipeline::compile_query;
    use pgq_parser::parse_query;

    const RUNNING_EXAMPLE: &str =
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t";

    #[test]
    fn gra_rendering_of_running_example() {
        let cq = compile_query(&parse_query(RUNNING_EXAMPLE).unwrap()).unwrap();
        let s = cq.gra.to_string();
        assert!(s.contains("©(p:Post)"), "{s}");
        assert!(s.contains("↑["), "{s}");
        assert!(s.contains(":REPLY*"), "{s}");
        assert!(s.starts_with("π[p, t]"), "{s}");
    }

    #[test]
    fn nra_rendering_contains_transitive_join_and_unnest() {
        let cq = compile_query(&parse_query(RUNNING_EXAMPLE).unwrap()).unwrap();
        let s = cq.nra.to_string();
        assert!(s.contains("⋈*"), "{s}");
        assert!(s.contains("⇑["), "{s}");
        assert!(s.contains("µ[p.lang]"), "{s}");
        assert!(s.contains("µ[c.lang]"), "{s}");
    }

    #[test]
    fn fra_explain_shows_pushed_props() {
        let cq = compile_query(&parse_query(RUNNING_EXAMPLE).unwrap()).unwrap();
        let s = cq.fra.explain();
        assert!(s.contains("lang→p.lang"), "{s}");
        assert!(s.contains("lang→c.lang"), "{s}");
        assert!(!s.contains('µ'), "no unnest may remain in FRA:\n{s}");
    }
}
