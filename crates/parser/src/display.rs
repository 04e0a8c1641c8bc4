//! Rendering the AST back to Cypher text (used by EXPLAIN output and by
//! [`crate::ast::ReturnItem::name`] for implicit column names), and
//! [`render_lit`], the one literal renderer: the algebra's EXPLAIN writes
//! its literals through it too.

use std::fmt;

use pgq_common::value::Value;

use crate::ast::*;

/// A literal as the lexer reads it back: a string quoted with its
/// escapes (`'a\nb'`), so a rendered expression is one line.
pub fn render_lit(v: &Value) -> String {
    match v {
        Value::Str(s) => {
            let mut out = String::from("'");
            for c in s.chars() {
                match c {
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    '\\' | '\'' => {
                        out.push('\\');
                        out.push(c);
                    }
                    c => out.push(c),
                }
            }
            out.push('\'');
            out
        }
        Value::List(items) => format!(
            "[{}]",
            items.iter().map(render_lit).collect::<Vec<_>>().join(", ")
        ),
        Value::Map(entries) => format!(
            "{{{}}}",
            entries
                .iter()
                .map(|(k, v)| format!("{k}: {}", render_lit(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        v => v.to_string(),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => f.write_str(&render_lit(v)),
            Expr::Variable(name) => write!(f, "{name}"),
            Expr::Property(base, key) => write!(f, "{base}.{key}"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "(NOT {e})"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Function {
                name,
                distinct,
                args,
            } => {
                write!(f, "{name}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::CountStar => write!(f, "count(*)"),
            Expr::List(items) => {
                write!(f, "[")?;
                for (i, e) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Expr::Map(entries) => {
                write!(f, "{{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Expr::Index(b, i) => write!(f, "{b}[{i}]"),
            Expr::HasLabel(b, labels) => {
                write!(f, "{b}")?;
                for l in labels {
                    write!(f, ":{l}")?;
                }
                Ok(())
            }
            Expr::IsNull { expr, negated } => {
                // Parenthesised: `a = b IS NULL` would otherwise re-parse
                // as `(a = b) IS NULL`.
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Parameter(name) => write!(f, "${name}"),
            Expr::PatternPredicate(p) => write!(f, "exists({p})"),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "^",
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Xor => "XOR",
            BinOp::In => "IN",
            BinOp::StartsWith => "STARTS WITH",
            BinOp::EndsWith => "ENDS WITH",
            BinOp::Contains => "CONTAINS",
        })
    }
}

impl fmt::Display for NodePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        if let Some(v) = &self.variable {
            write!(f, "{v}")?;
        }
        for l in &self.labels {
            write!(f, ":{l}")?;
        }
        if !self.props.is_empty() {
            if self.variable.is_some() || !self.labels.is_empty() {
                write!(f, " ")?;
            }
            write!(f, "{{")?;
            for (i, (k, v)) in self.props.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}: {v}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for RelPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use pgq_common::dir::Direction;
        if self.direction == Direction::In {
            write!(f, "<-")?;
        } else {
            write!(f, "-")?;
        }
        let has_body = self.variable.is_some()
            || !self.types.is_empty()
            || self.range.is_some()
            || !self.props.is_empty();
        if has_body {
            write!(f, "[")?;
            if let Some(v) = &self.variable {
                write!(f, "{v}")?;
            }
            for (i, t) in self.types.iter().enumerate() {
                write!(f, "{}{t}", if i == 0 { ":" } else { "|" })?;
            }
            if let Some(r) = &self.range {
                write!(f, "*")?;
                match (r.min, r.max) {
                    (1, None) => {}
                    (min, Some(max)) if min == max => write!(f, "{min}")?,
                    (min, None) => write!(f, "{min}..")?,
                    (min, Some(max)) => write!(f, "{min}..{max}")?,
                }
            }
            if !self.props.is_empty() {
                write!(f, " {{")?;
                for (i, (k, v)) in self.props.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")?;
            }
            write!(f, "]")?;
        }
        if self.direction == Direction::Out {
            write!(f, "->")
        } else {
            write!(f, "-")
        }
    }
}

impl fmt::Display for PathPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = &self.variable {
            write!(f, "{v} = ")?;
        }
        write!(f, "{}", self.start)?;
        for (rel, node) in &self.steps {
            write!(f, "{rel}{node}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.paths.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for ReturnClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", item.expr)?;
            if let Some(a) = &item.alias {
                write!(f, " AS {a}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, (e, asc)) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}{}", if *asc { "" } else { " DESC" })?;
            }
        }
        if let Some(s) = &self.skip {
            write!(f, " SKIP {s}")?;
        }
        if let Some(l) = &self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clause::Match {
                optional,
                pattern,
                where_clause,
            } => {
                if *optional {
                    write!(f, "OPTIONAL ")?;
                }
                write!(f, "MATCH {pattern}")?;
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Clause::Unwind { expr, alias } => write!(f, "UNWIND {expr} AS {alias}"),
            Clause::With { body, where_clause } => {
                write!(f, "WITH {body}")?;
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Clause::Create(p) => write!(f, "CREATE {p}"),
            Clause::Delete { detach, exprs } => {
                if *detach {
                    write!(f, "DETACH ")?;
                }
                write!(f, "DELETE ")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            Clause::Set(items) => {
                write!(f, "SET ")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match item {
                        SetItem::Property {
                            variable,
                            key,
                            value,
                        } => write!(f, "{variable}.{key} = {value}")?,
                        SetItem::Labels { variable, labels } => {
                            write!(f, "{variable}")?;
                            for l in labels {
                                write!(f, ":{l}")?;
                            }
                        }
                    }
                }
                Ok(())
            }
            Clause::Remove(items) => {
                write!(f, "REMOVE ")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match item {
                        RemoveItem::Property { variable, key } => write!(f, "{variable}.{key}")?,
                        RemoveItem::Labels { variable, labels } => {
                            write!(f, "{variable}")?;
                            for l in labels {
                                write!(f, ":{l}")?;
                            }
                        }
                    }
                }
                Ok(())
            }
            Clause::Return(r) => write!(f, "RETURN {r}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_query;

    fn roundtrip(src: &str) {
        let q1 = parse_query(src).unwrap();
        let rendered = q1.to_string();
        let q2 = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
        assert_eq!(q1, q2, "render/re-parse mismatch for {src:?}");
    }

    #[test]
    fn render_reparse_fixpoint() {
        for src in [
            "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
            "MATCH (a)-[e:KNOWS|LIKES*2..4 {w: 1}]->(b:Person {name: 'Ann'}) RETURN e",
            "MATCH (n) WHERE n.x + 2 * n.y >= 7 AND NOT n:Hot RETURN n.x AS x ORDER BY x DESC SKIP 1 LIMIT 2",
            "CREATE (p:Post {lang: 'en'})-[:REPLY]->(c:Comm)",
            "MATCH (n:Post) SET n.lang = 'de', n:Hot",
            "MATCH (n:Post) REMOVE n.lang, n:Hot",
            "MATCH (n:Post) DETACH DELETE n",
            "MATCH t = (a)-[:R*0..]->(b) UNWIND nodes(t) AS n RETURN DISTINCT n",
            "MATCH (n) WHERE n.s STARTS WITH 'a' OR n.s IS NOT NULL RETURN count(*)",
        ] {
            roundtrip(src);
        }
    }
}
