//! Abstract syntax tree for the openCypher fragment.

use pgq_common::dir::Direction;
use pgq_common::value::Value;

/// A full query: a sequence of clauses in source order.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// Clauses in source order.
    pub clauses: Vec<Clause>,
}

impl Query {
    /// The `RETURN` clause, if present.
    pub fn return_clause(&self) -> Option<&ReturnClause> {
        self.clauses.iter().find_map(|c| match c {
            Clause::Return(r) => Some(r),
            _ => None,
        })
    }

    /// Does the query contain any update clause?
    pub fn is_update(&self) -> bool {
        self.clauses.iter().any(|c| {
            matches!(
                c,
                Clause::Create(_) | Clause::Delete { .. } | Clause::Set(_) | Clause::Remove(_)
            )
        })
    }
}

/// One top-level clause.
#[derive(Clone, Debug, PartialEq)]
pub enum Clause {
    /// `MATCH` / `OPTIONAL MATCH` with an optional `WHERE`.
    Match {
        /// `OPTIONAL MATCH`? (parsed, rejected by the compiler — the paper
        /// lists OPTIONAL MATCH as future work).
        optional: bool,
        /// The graph pattern.
        pattern: Pattern,
        /// Attached `WHERE` predicate.
        where_clause: Option<Expr>,
    },
    /// `UNWIND expr AS var` — the paper's path-unwinding feature.
    Unwind {
        /// The list/path expression to unwind.
        expr: Expr,
        /// The introduced variable.
        alias: String,
    },
    /// `WITH` projection: re-shapes the bindings mid-query (implemented
    /// as an extension — the paper lists WITH as future work). Only the
    /// projected names remain in scope afterwards.
    With {
        /// The projection body (DISTINCT, items; ORDER BY/SKIP/LIMIT are
        /// rejected downstream).
        body: ReturnClause,
        /// Optional `WHERE` filtering the projected rows (the HAVING
        /// pattern when combined with aggregation).
        where_clause: Option<Expr>,
    },
    /// `CREATE pattern`.
    Create(Pattern),
    /// `DELETE` / `DETACH DELETE`.
    Delete {
        /// Detach (cascade incident edges)?
        detach: bool,
        /// Expressions naming the elements to delete.
        exprs: Vec<Expr>,
    },
    /// `SET` items.
    Set(Vec<SetItem>),
    /// `REMOVE` items.
    Remove(Vec<RemoveItem>),
    /// `RETURN`.
    Return(ReturnClause),
}

/// A comma-separated set of path patterns, e.g. `(a)-[:R]->(b), (c)`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Pattern {
    /// The constituent path patterns.
    pub paths: Vec<PathPattern>,
}

/// One linear path pattern, optionally named: `t = (a)-[:R*]->(b)`.
#[derive(Clone, Debug, PartialEq)]
pub struct PathPattern {
    /// Path variable (`t` in the running example).
    pub variable: Option<String>,
    /// First node.
    pub start: NodePattern,
    /// Alternating (relationship, node) steps.
    pub steps: Vec<(RelPattern, NodePattern)>,
}

/// A node pattern `(v:Label {key: expr})`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct NodePattern {
    /// Variable binding, if named.
    pub variable: Option<String>,
    /// Required labels (conjunctive).
    pub labels: Vec<String>,
    /// Inline property constraints.
    pub props: Vec<(String, Expr)>,
}

/// Variable-length bounds of a relationship pattern (`*`, `*2`, `*1..3`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeSpec {
    /// Minimum number of hops.
    pub min: u32,
    /// Maximum number of hops; `None` = unbounded.
    pub max: Option<u32>,
}

impl RangeSpec {
    /// The openCypher default for a bare `*`: one or more hops.
    pub const DEFAULT: RangeSpec = RangeSpec { min: 1, max: None };
}

/// A relationship pattern `-[e:TYPE*1..3 {key: expr}]->`.
#[derive(Clone, Debug, PartialEq)]
pub struct RelPattern {
    /// Variable binding, if named.
    pub variable: Option<String>,
    /// Allowed edge types (disjunctive, `:A|B`); empty = any type.
    pub types: Vec<String>,
    /// Traversal direction relative to the left node.
    pub direction: Direction,
    /// Inline property constraints.
    pub props: Vec<(String, Expr)>,
    /// Variable-length bounds; `None` = single hop.
    pub range: Option<RangeSpec>,
}

impl Default for RelPattern {
    fn default() -> Self {
        RelPattern {
            variable: None,
            types: Vec::new(),
            direction: Direction::Both,
            props: Vec::new(),
            range: None,
        }
    }
}

/// `RETURN` / `WITH` body.
#[derive(Clone, Debug, PartialEq)]
pub struct ReturnClause {
    /// `DISTINCT`?
    pub distinct: bool,
    /// Projected items.
    pub items: Vec<ReturnItem>,
    /// `ORDER BY` keys with ascending flags (parsed; not maintainable).
    pub order_by: Vec<(Expr, bool)>,
    /// `SKIP` expression.
    pub skip: Option<Expr>,
    /// `LIMIT` expression.
    pub limit: Option<Expr>,
}

/// One projected item, `expr [AS alias]`.
#[derive(Clone, Debug, PartialEq)]
pub struct ReturnItem {
    /// The projected expression.
    pub expr: Expr,
    /// Explicit alias.
    pub alias: Option<String>,
}

impl ReturnItem {
    /// The output column name: the alias if given, otherwise the
    /// expression's source text rendering.
    pub fn name(&self) -> String {
        self.alias.clone().unwrap_or_else(|| self.expr.to_string())
    }
}

/// One `SET` item.
#[derive(Clone, Debug, PartialEq)]
pub enum SetItem {
    /// `SET v.key = expr`.
    Property {
        /// Target variable.
        variable: String,
        /// Property key.
        key: String,
        /// New value.
        value: Expr,
    },
    /// `SET v:Label1:Label2`.
    Labels {
        /// Target variable.
        variable: String,
        /// Labels to attach.
        labels: Vec<String>,
    },
}

/// One `REMOVE` item.
#[derive(Clone, Debug, PartialEq)]
pub enum RemoveItem {
    /// `REMOVE v.key`.
    Property {
        /// Target variable.
        variable: String,
        /// Property key.
        key: String,
    },
    /// `REMOVE v:Label1:Label2`.
    Labels {
        /// Target variable.
        variable: String,
        /// Labels to detach.
        labels: Vec<String>,
    },
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Xor,
    In,
    StartsWith,
    EndsWith,
    Contains,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    Neg,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Variable reference.
    Variable(String),
    /// Property access `base.key`.
    Property(Box<Expr>, String),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Function call `name(args)`; `distinct` applies inside aggregates.
    Function {
        /// Lower-cased function name.
        name: String,
        /// `DISTINCT` flag (aggregates only).
        distinct: bool,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `count(*)`.
    CountStar,
    /// List literal.
    List(Vec<Expr>),
    /// Map literal.
    Map(Vec<(String, Expr)>),
    /// Subscript `base[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// Label predicate `n:Label1:Label2`.
    HasLabel(Box<Expr>, Vec<String>),
    /// `expr IS NULL` (`negated` = `IS NOT NULL`).
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Parameter `$name`: a constant a one-shot statement's caller
    /// supplies per execution (`GraphEngine::execute_with`), and what
    /// `execute` lifts the statement's own literals into
    /// ([`crate::shape`]). Views take none.
    Parameter(String),
    /// `exists((a)-[:R]->(b))` — true iff the pattern has at least one
    /// match. With `NOT` in front this is the negative condition the
    /// Train Benchmark's validation queries use (an *extension* beyond
    /// the paper's fragment, compiled to an incremental anti-/semijoin).
    PatternPredicate(Box<PathPattern>),
}

impl Expr {
    /// Variable at the root of a property access chain, if the expression
    /// is exactly `var.key`.
    pub fn as_var_property(&self) -> Option<(&str, &str)> {
        match self {
            Expr::Property(base, key) => match base.as_ref() {
                Expr::Variable(v) => Some((v.as_str(), key.as_str())),
                _ => None,
            },
            _ => None,
        }
    }

    /// All free variable names referenced by this expression.
    pub fn free_variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Variable(v) => out.push(v.clone()),
            Expr::Property(b, _) => b.collect_vars(out),
            Expr::Binary(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Function { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expr::List(items) => {
                for i in items {
                    i.collect_vars(out);
                }
            }
            Expr::Map(entries) => {
                for (_, v) in entries {
                    v.collect_vars(out);
                }
            }
            Expr::Index(b, i) => {
                b.collect_vars(out);
                i.collect_vars(out);
            }
            Expr::HasLabel(b, _) => b.collect_vars(out),
            Expr::IsNull { expr, .. } => expr.collect_vars(out),
            Expr::PatternPredicate(p) => {
                // Only *pattern variables* are free here; property-map
                // expressions inside subpatterns must be literals.
                if let Some(v) = &p.start.variable {
                    out.push(v.clone());
                }
                for (r, n) in &p.steps {
                    if let Some(v) = &r.variable {
                        out.push(v.clone());
                    }
                    if let Some(v) = &n.variable {
                        out.push(v.clone());
                    }
                }
            }
            Expr::Literal(_) | Expr::CountStar | Expr::Parameter(_) => {}
        }
    }

    /// Is this expression an aggregate call (`count`, `sum`, ...)?
    pub fn is_aggregate(&self) -> bool {
        match self {
            Expr::CountStar => true,
            Expr::Function { name, .. } => {
                matches!(
                    name.as_str(),
                    "count" | "sum" | "min" | "max" | "avg" | "collect"
                )
            }
            _ => false,
        }
    }

    /// Does any aggregate call appear anywhere inside?
    pub fn contains_aggregate(&self) -> bool {
        if self.is_aggregate() {
            return true;
        }
        match self {
            Expr::Property(b, _) => b.contains_aggregate(),
            Expr::Binary(_, l, r) => l.contains_aggregate() || r.contains_aggregate(),
            Expr::Unary(_, e) => e.contains_aggregate(),
            Expr::Function { args, .. } => args.iter().any(Expr::contains_aggregate),
            Expr::List(items) => items.iter().any(Expr::contains_aggregate),
            Expr::Map(entries) => entries.iter().any(|(_, v)| v.contains_aggregate()),
            Expr::Index(b, i) => b.contains_aggregate() || i.contains_aggregate(),
            Expr::HasLabel(b, _) => b.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_property_recognition() {
        let e = Expr::Property(Box::new(Expr::Variable("p".into())), "lang".into());
        assert_eq!(e.as_var_property(), Some(("p", "lang")));
        let nested = Expr::Property(Box::new(e), "x".into());
        assert_eq!(nested.as_var_property(), None);
    }

    #[test]
    fn free_variables_deduplicated() {
        let e = Expr::Binary(
            BinOp::Eq,
            Box::new(Expr::Property(
                Box::new(Expr::Variable("p".into())),
                "lang".into(),
            )),
            Box::new(Expr::Property(
                Box::new(Expr::Variable("c".into())),
                "lang".into(),
            )),
        );
        assert_eq!(e.free_variables(), vec!["c".to_string(), "p".to_string()]);
    }

    #[test]
    fn aggregate_detection() {
        let count = Expr::Function {
            name: "count".into(),
            distinct: false,
            args: vec![Expr::Variable("x".into())],
        };
        assert!(count.is_aggregate());
        let wrapped = Expr::Binary(
            BinOp::Add,
            Box::new(count),
            Box::new(Expr::Literal(Value::Int(1))),
        );
        assert!(!wrapped.is_aggregate());
        assert!(wrapped.contains_aggregate());
    }
}
